"""Span trees as the execution trace, and the engine invariants on them."""

import pytest

from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
)
from repro.clients import run_closed_loop
from repro.dag import WorkflowDAG
from repro.obs import SpanKind, SpanTracer
from repro.sim import Environment
from repro.sim.network import KB

from ..span_oracle import (
    assert_executed_correctly,
    assert_exactly_once,
    assert_predecessor_order,
    execution_counts,
    install_spans,
)
from .conftest import all_on, fanout_dag, linear_dag, round_robin


def make_traced_faasflow(cluster, **config_kwargs):
    config_kwargs.setdefault("ship_data", False)
    spans = install_spans(cluster)
    system = FaaSFlowSystem(cluster, EngineConfig(**config_kwargs))
    return system, spans


def state_syncs(spans, role):
    return [
        s for s in spans.of_kind(SpanKind.STATE_SYNC) if s.attrs["role"] == role
    ]


class TestWorkerSPTracing:
    def test_invocation_bracketed(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        (root_depth, root), *rest = spans.tree(record.invocation_id)
        assert (root_depth, root.kind, root.status) == (0, "invocation", "ok")
        assert (root.start, root.end) == (record.started_at, record.finished_at)
        assert rest and all(depth > 0 for depth, _ in rest)
        assert all(root.start <= s.start <= s.end <= root.end for _, s in rest)

    def test_every_function_executes_exactly_once(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = fanout_dag(branches=4)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = run_closed_loop(system, "fan", 1)[0]
        assert_exactly_once(dag, spans, record.invocation_id)

    def test_execution_respects_predecessor_order(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = fanout_dag(branches=3)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = run_closed_loop(system, "fan", 1)[0]
        assert_predecessor_order(dag, spans, record.invocation_id)

    def test_cold_starts_traced_once_then_warm(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-1"))
        run_closed_loop(system, "lin", 2)
        assert len(spans.of_kind(SpanKind.COLD_START)) == 3  # first run only

    def test_state_sync_only_for_cross_worker_edges(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, all_on(dag, "worker-0"))
        run_closed_loop(system, "lin", 1)
        assert state_syncs(spans, "state") == []
        spans.clear()
        dag2 = linear_dag(name="lin2", n=4)
        system.deploy(dag2, round_robin(dag2, ["worker-0", "worker-1"]))
        run_closed_loop(system, "lin2", 1)
        assert len(state_syncs(spans, "state")) == 3

    def test_executed_node_matches_placement(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = linear_dag(n=3)
        placement = round_robin(dag, cluster.worker_names())
        system.deploy(dag, placement)
        record = run_closed_loop(system, "lin", 1)[0]
        fn_spans = [
            s for s in spans.spans_of(record.invocation_id)
            if s.kind == SpanKind.FUNCTION
        ]
        assert len(fn_spans) == 3
        for span in fn_spans:
            assert span.node == placement.node_of(span.function)

    def test_timeline_renders(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        text = spans.format_tree(record.invocation_id)
        assert text.splitlines()[0].endswith("invocation")
        assert "function f0 @worker-0" in text

    def test_step_markers_recorded_as_virtual_spans(self, env, cluster):
        system, spans = make_traced_faasflow(cluster)
        dag = WorkflowDAG("marked")
        dag.add_function("a", service_time=0.05)
        dag.add_function("a.done", is_virtual=True)
        dag.add_function("b", service_time=0.05)
        dag.add_edge("a", "a.done")
        dag.add_edge("a.done", "b")
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = run_closed_loop(system, "marked", 1)[0]
        assert_executed_correctly(dag, spans, record.invocation_id)
        (marker,) = [
            s for s in spans.of_kind(SpanKind.FUNCTION)
            if s.function == "a.done"
        ]
        assert marker.attrs == {"virtual": True}
        assert marker.duration == pytest.approx(
            system.config.local_trigger_time
        )


class TestMasterSPTracing:
    def test_assignments_traced(self, env, cluster):
        spans = install_spans(cluster)
        system = HyperFlowServerlessSystem(
            cluster, EngineConfig(ship_data=False)
        )
        dag = linear_dag(n=3)
        system.register(dag, all_on(dag, "worker-2"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert len(state_syncs(spans, "assign")) == 3
        assert_executed_correctly(dag, spans, record.invocation_id)

    def test_no_tracer_costs_nothing(self, env, cluster):
        system = HyperFlowServerlessSystem(
            cluster, EngineConfig(ship_data=False)
        )
        dag = linear_dag(n=2)
        system.register(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == "ok"
        assert system.spans.enabled is False


class TestControlMessageSpans:
    """Each control message has exactly one span: its ``state-sync``."""

    @pytest.mark.parametrize(
        "system_cls",
        [HyperFlowServerlessSystem, FaaSFlowSystem, DataflowSystem],
        ids=["master", "worker", "dataflow"],
    )
    def test_one_span_per_message(self, env, cluster, system_cls):
        spans = install_spans(cluster)
        network = cluster.network
        sent = []  # (send time, tag) of every Network.message
        message = network.message

        def spy(src, dst, size=1 * KB, tag=""):
            sent.append((env.now, tag))
            return message(src, dst, size, tag)

        network.message = spy
        system = system_cls(cluster, EngineConfig())
        dag = fanout_dag(branches=3)
        placement = round_robin(dag, cluster.worker_names())
        if system_cls is HyperFlowServerlessSystem:
            system.register(dag, placement)
        else:
            system.deploy(dag, placement)
        run_closed_loop(system, "fan", 2)
        # FaaStore's eager pushes (DataflowSP) travel as messages too,
        # but carry data, not control.
        control = [m for m in sent if not m[1].startswith("push:")]
        assert len(control) > 0
        assert len(spans.of_kind(SpanKind.STATE_SYNC)) == len(control)
        net_spans = spans.of_kind(SpanKind.NET)
        assert net_spans  # data transfers keep theirs
        assert not {(s.start, s.attrs["tag"]) for s in net_spans} & set(sent)
        # A sub-threshold transfer() still records its net span.
        src, dst = (cluster.node(w).nic for w in cluster.worker_names()[:2])
        env.run(until=network.transfer(src, dst, 1 * KB, tag="probe"))
        (probe,) = [s for s in spans.of_kind(SpanKind.NET)
                    if s.attrs["tag"] == "probe"]
        assert probe.attrs["transfer"] == "message"


class TestOracle:
    """The oracle must be able to fail: a missing, repeated, cancelled
    or early execution is caught."""

    def oracle_input(self, runs):
        dag = WorkflowDAG("pair")
        dag.add_function("a")
        dag.add_function("b")
        dag.add_edge("a", "b")
        spans = SpanTracer(Environment())
        for function, start, end, status in runs:
            spans.record(
                SpanKind.FUNCTION, start, end, invocation_id=1,
                function=function, status=status,
            )
        return dag, spans

    def test_accepts_one_ordered_run_each(self):
        dag, spans = self.oracle_input(
            [("a", 0.0, 1.0, "cancelled"), ("a", 1.0, 2.0, "ok"),
             ("b", 2.0, 3.0, "ok")]
        )
        assert execution_counts(spans, 1) == {"a": 1, "b": 1}
        assert_executed_correctly(dag, spans, 1)

    @pytest.mark.parametrize(
        "runs",
        [
            [("a", 0.0, 1.0, "ok")],
            [("a", 0.0, 1.0, "ok"), ("b", 1.0, 2.0, "cancelled")],
            [("a", 0.0, 1.0, "ok"), ("b", 1.0, 2.0, "ok"),
             ("b", 2.0, 3.0, "ok")],
        ],
        ids=["missing", "cancelled", "repeated"],
    )
    def test_rejects_wrong_execution_counts(self, runs):
        dag, spans = self.oracle_input(runs)
        with pytest.raises(AssertionError):
            assert_exactly_once(dag, spans, 1)

    def test_rejects_successor_started_early(self):
        dag, spans = self.oracle_input(
            [("a", 0.0, 1.0, "ok"), ("b", 0.5, 2.0, "ok")]
        )
        with pytest.raises(AssertionError):
            assert_predecessor_order(dag, spans, 1)
