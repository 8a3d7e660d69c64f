"""Unit tests for the monolithic deployment baseline (Fig. 5)."""

import pytest

from repro.core import (
    EngineConfig,
    HyperFlowServerlessSystem,
    MonolithicSystem,
)
from repro.metrics import InvocationStatus

from ..span_oracle import assert_executed_correctly, install_spans
from .conftest import MB, all_on, fanout_dag, linear_dag


class TestMonolithicExecution:
    def test_completes(self, env, cluster):
        system = MonolithicSystem(cluster)
        dag = linear_dag(n=3)
        system.register(dag)
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.OK

    def test_no_cold_starts_or_network(self, env, cluster):
        system = MonolithicSystem(cluster)
        dag = linear_dag(n=3, output_size=4 * MB)
        system.register(dag)
        env.run(until=env.process(system.invoke("lin")))
        assert cluster.total_data_moved == 0
        assert cluster.workers[0].containers.total_containers == 0

    def test_latency_close_to_critical_exec(self, env, cluster):
        system = MonolithicSystem(cluster)
        dag = linear_dag(n=3, service_time=0.1, output_size=0)
        system.register(dag)
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.latency == pytest.approx(0.3, rel=1e-3)


class TestMonolithicTracing:
    def test_tracer_brackets_invocation(self, env, cluster):
        from repro.obs import SpanKind

        spans = install_spans(cluster)
        system = MonolithicSystem(cluster)
        dag = fanout_dag(branches=3)
        dag.add_function("fan.end", is_virtual=True)
        dag.add_edge("tail", "fan.end")
        system.register(dag)
        record = env.run(until=env.process(system.invoke("fan")))
        root = spans.root_of(record.invocation_id)
        assert root.status == "ok"
        assert (root.start, root.end) == (record.started_at, record.finished_at)
        assert_executed_correctly(dag, spans, record.invocation_id)
        executed = spans.of_kind(SpanKind.FUNCTION)
        assert all(s.node == "worker-0" for s in executed)
        (marker,) = [s for s in executed if s.attrs.get("virtual")]
        assert (marker.function, marker.duration) == ("fan.end", 0.0)

    def test_span_tracer_produces_tree(self, env, cluster):
        from repro.obs import SpanKind, SpanTracer

        tracer = SpanTracer(env)
        cluster.install_spans(tracer)
        system = MonolithicSystem(cluster)
        dag = linear_dag(n=3)
        system.register(dag)
        record = env.run(until=env.process(system.invoke("lin")))
        root = tracer.root_of(record.invocation_id)
        assert root is not None and root.status == "ok"
        fn_spans = tracer.of_kind(SpanKind.FUNCTION)
        assert {s.function for s in fn_spans} == set(dag.node_names)
        assert all(s.parent_id == root.span_id for s in fn_spans)
        # No containers in a monolith: no cold-start or container spans.
        assert tracer.of_kind(SpanKind.COLD_START) == []
        assert tracer.of_kind(SpanKind.CONTAINER) == []

    def test_untraced_by_default(self, env, cluster):
        system = MonolithicSystem(cluster)
        assert system.spans.enabled is False


class TestMonolithicTelemetry:
    def test_invocation_reaches_workflow_series(self, env, cluster):
        from repro.obs.telemetry import MetricsRegistry, find_metrics

        registry = MetricsRegistry(clock=lambda: env.now)
        cluster.install_telemetry(registry)
        system = MonolithicSystem(cluster)
        system.register(linear_dag(n=3))
        env.run(until=env.process(system.invoke("lin")))
        entries = find_metrics(
            registry.snapshot(), "workflow.invocations",
            status=InvocationStatus.OK,
        )
        assert [(entry["labels"], entry["total"]) for entry in entries] == [
            (
                {
                    "tenant": "default",
                    "workflow": "lin",
                    "engine": "monolithic",
                    "status": InvocationStatus.OK,
                },
                1.0,
            )
        ]


class TestDataMovementComparison:
    def test_each_output_counted_once(self, env, cluster):
        system = MonolithicSystem(cluster)
        dag = fanout_dag(branches=3, output_size=2 * MB)
        system.register(dag)
        record = env.run(until=env.process(system.invoke("fan")))
        moved = system.metrics.data_moved("fan", record.invocation_id)
        # head (2 MB) + three branches (2 MB each); tail produces none.
        assert moved == pytest.approx(8 * MB)

    def test_faas_moves_more_than_monolithic(self, env, cluster):
        """The Fig. 5 comparison: FaaS data-shipping amplifies movement."""
        dag = fanout_dag(branches=3, output_size=2 * MB)
        mono = MonolithicSystem(cluster)
        mono.register(dag)
        mono_record = env.run(until=env.process(mono.invoke("fan")))
        mono_moved = mono.metrics.data_moved("fan", mono_record.invocation_id)

        faas = HyperFlowServerlessSystem(cluster, EngineConfig(ship_data=True))
        faas.register(dag, all_on(dag, "worker-0"))
        faas_record = env.run(until=env.process(faas.invoke("fan")))
        faas_moved = faas.metrics.data_moved("fan", faas_record.invocation_id)
        # head's output: 1 put + 3 gets; each branch: 1 put + 1 get.
        assert faas_moved == pytest.approx(2 * MB * (4 + 6))
        assert faas_moved > 2 * mono_moved

    def test_parallelism_bounded_by_cores(self, env):
        from repro.sim import Cluster, ClusterConfig, Environment, NodeConfig

        env2 = Environment()
        cluster2 = Cluster(
            env2,
            ClusterConfig(
                workers=1, worker=NodeConfig(cores=2, memory=8 * 1024 * MB)
            ),
        )
        system = MonolithicSystem(cluster2)
        dag = fanout_dag(branches=4, output_size=0)
        system.register(dag)
        record = env2.run(until=env2.process(system.invoke("fan")))
        # 4 branches of 0.1 s on 2 cores -> at least two waves.
        assert record.latency >= 0.05 + 0.2 + 0.05 - 1e-9
