"""Tests for runtime switch-branch selection."""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
    hash_partition,
)
from repro.core.switching import is_skipped, selected_case
from repro.obs import SpanKind
from repro.wdl import parse_workflow

from ..span_oracle import assert_executed_correctly, install_spans

SWITCH_WDL = """
name: moderation
steps:
  - task: classify
    service_time: 100ms
    output_size: 1MB
  - switch: verdict
    cases:
      - condition: "offensive"
        steps:
          - task: blur
            service_time: 500ms
          - task: re-upload
            service_time: 100ms
      - condition: default
        steps:
          - task: approve
            service_time: 50ms
  - task: publish
    service_time: 50ms
"""


class TestSelectedCase:
    def test_deterministic(self):
        a = selected_case("w", 7, "s", 3)
        b = selected_case("w", 7, "s", 3)
        assert a == b
        assert 0 <= a < 3

    def test_varies_across_invocations(self):
        choices = {selected_case("w", i, "s", 2) for i in range(50)}
        assert choices == {0, 1}

    def test_force_case_overrides(self):
        assert selected_case("w", 7, "s", 3, force_case=2) == 2

    def test_force_case_validated(self):
        with pytest.raises(ValueError):
            selected_case("w", 7, "s", 2, force_case=5)

    def test_case_count_validated(self):
        with pytest.raises(ValueError):
            selected_case("w", 7, "s", 0)


class TestParserAnnotations:
    def test_switch_arms_tagged(self):
        dag = parse_workflow(SWITCH_WDL)
        assert dag.node("blur").metadata["switch"] == "verdict"
        assert dag.node("blur").metadata["switch_case"] == 0
        assert dag.node("re-upload").metadata["switch_case"] == 0
        assert dag.node("approve").metadata["switch_case"] == 1
        assert dag.node("verdict.start").metadata["case_count"] == 2

    def test_non_switch_nodes_untagged(self):
        dag = parse_workflow(SWITCH_WDL)
        assert "switch" not in dag.node("classify").metadata
        assert "switch" not in dag.node("publish").metadata

    def test_parallel_arms_not_tagged(self):
        dag = parse_workflow(
            """
name: p
steps:
  - parallel: fan
    branches:
      - - task: a
      - - task: b
"""
        )
        assert "switch" not in dag.node("a").metadata


class TestIsSkipped:
    def test_exactly_one_arm_selected(self):
        dag = parse_workflow(SWITCH_WDL)
        for invocation in range(10):
            blur_skipped = is_skipped(dag, "blur", invocation)
            approve_skipped = is_skipped(dag, "approve", invocation)
            assert blur_skipped != approve_skipped
            # Same arm for the whole chain.
            assert is_skipped(dag, "re-upload", invocation) == blur_skipped

    def test_non_switch_functions_never_skipped(self):
        dag = parse_workflow(SWITCH_WDL)
        assert not is_skipped(dag, "classify", 1)
        assert not is_skipped(dag, "publish", 1)


class TestEngineExecution:
    def run_system(self, engine_cls, force_case, invocations=1):
        from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=2, container=ContainerSpec(cold_start_time=0.01)
            ),
        )
        spans = install_spans(cluster)
        dag = parse_workflow(SWITCH_WDL)
        dag.node("verdict.start").metadata["force_case"] = force_case
        config = EngineConfig(ship_data=False, evaluate_switches=True)
        if engine_cls is HyperFlowServerlessSystem:
            system = HyperFlowServerlessSystem(cluster, config)
            system.register(dag, hash_partition(dag, cluster.worker_names()))
        else:
            system = engine_cls(cluster, config)
            system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, dag.name, invocations)
        for record in records:
            assert_executed_correctly(dag, spans, record.invocation_id)
        return records, spans, cluster

    @pytest.mark.parametrize(
        "engine_cls", [FaaSFlowSystem, HyperFlowServerlessSystem]
    )
    def test_only_selected_arm_uses_containers(self, engine_cls):
        records, tracer, cluster = self.run_system(engine_cls, force_case=1)
        assert records[0].status == "ok"
        live = set()
        for worker in cluster.workers:
            live.update(worker.containers._all)
        assert "approve" in live
        assert "blur" not in live  # skipped arm never got a container

    def test_skipped_functions_traced_as_skipped(self):
        for engine_cls in (
            FaaSFlowSystem, HyperFlowServerlessSystem, DataflowSystem
        ):
            _, spans, _ = self.run_system(engine_cls, force_case=1)
            skipped = [
                s.function
                for s in spans.of_kind(SpanKind.FUNCTION)
                if s.attrs.get("skipped")
            ]
            assert sorted(skipped) == ["blur", "re-upload"], engine_cls

    def test_skipping_shortens_latency(self):
        slow_records, _, _ = self.run_system(FaaSFlowSystem, force_case=0)
        fast_records, _, _ = self.run_system(FaaSFlowSystem, force_case=1)
        # Arm 0 runs 600 ms of work; arm 1 runs 50 ms.
        assert fast_records[0].latency < slow_records[0].latency

    def test_disabled_by_default_runs_both_arms(self):
        from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=2, container=ContainerSpec(cold_start_time=0.01)
            ),
        )
        dag = parse_workflow(SWITCH_WDL)
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=False))
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        run_closed_loop(system, dag.name, 1)
        live = set()
        for worker in cluster.workers:
            live.update(worker.containers._all)
        assert {"blur", "approve"} <= live


class TestSwitchWithDataPlane:
    def test_data_shipping_tolerates_skipped_producers(self):
        """Consumers downstream of a skipped arm must not crash when the
        arm's output was never produced."""
        from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

        wdl = SWITCH_WDL.replace(
            "- task: blur\n            service_time: 500ms",
            "- task: blur\n            service_time: 500ms\n            output_size: 2MB",
        ).replace(
            "- task: approve\n            service_time: 50ms",
            "- task: approve\n            service_time: 50ms\n            output_size: 1MB",
        )
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=2, container=ContainerSpec(cold_start_time=0.01)
            ),
        )
        dag = parse_workflow(wdl)
        system = FaaSFlowSystem(
            cluster, EngineConfig(ship_data=True, evaluate_switches=True)
        )
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, dag.name, 4)
        assert all(r.status == "ok" for r in records)
