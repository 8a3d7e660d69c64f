"""Cross-engine invariants: MasterSP, WorkerSP, and DataflowSP.

The three engines differ in *when* and *where* things happen — master
loop vs serialized worker loop vs parallel token handlers — but they
must agree on *what* happened: the same functions execute exactly once,
the FaaStore ends every run drained, the latency decomposition sums
exactly, and every one of those facts is bit-identical across kernel
scheduler implementations and shard counts.
"""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
    Tracer,
    hash_partition,
)
from repro.metrics import InvocationStatus
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from .conftest import MB, fanout_dag

ENGINES = ("master", "worker", "dataflow")
SCHEDULERS = ("heap", "wheel")
SYSTEM_CLASSES = {
    "worker": FaaSFlowSystem,
    "dataflow": DataflowSystem,
}


def drain(env):
    env.run(until=env.now)


def _run(engine, scheduler="heap", invocations=3, ship_data=True):
    """One full run of the reference fan-out on one engine; every
    engine sees the same DAG, the same hash placement, the same
    closed-loop client, and the same invocation-id range."""
    from repro.core.state import reset_invocation_ids

    reset_invocation_ids(1)
    env = Environment(scheduler=scheduler)
    cluster = Cluster(
        env,
        ClusterConfig(
            workers=3,
            container=ContainerSpec(cold_start_time=0.1),
            storage_bandwidth=50 * MB,
        ),
    )
    tracer = Tracer()
    config = EngineConfig(ship_data=ship_data)
    dag = fanout_dag(branches=3)
    placement = hash_partition(dag, cluster.worker_names())
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config, tracer=tracer)
        system.register(dag, placement)
    else:
        system = SYSTEM_CLASSES[engine](cluster, config, tracer=tracer)
        system.deploy(
            dag,
            placement,
            quotas={w.name: 64 * MB for w in cluster.workers},
        )
    records = run_closed_loop(system, dag.name, invocations)
    drain(env)
    return env, cluster, system, tracer, records, dag


class TestSameWorkEverywhere:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_engine_executes_the_same_functions(self, scheduler):
        expected = None
        for engine in ENGINES:
            _, _, _, tracer, records, dag = _run(engine, scheduler)
            assert all(r.status == InvocationStatus.OK for r in records)
            executed = {
                r.invocation_id: tracer.execution_counts(r.invocation_id)
                for r in records
            }
            for counts in executed.values():
                assert counts == {name: 1 for name in dag.node_names}
            if expected is None:
                expected = set(executed)
            else:
                # Same client, same id allocator: the engines complete
                # the exact same invocation ids.
                assert set(executed) == expected

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_faastore_final_state_identical_and_empty(self, engine):
        """Invocation cleanup must drain every node-local store — eager
        pushes included — so both FaaStore engines end byte-identical."""
        _, cluster, system, _, records, _ = _run(engine)
        assert all(r.status == InvocationStatus.OK for r in records)
        for worker in cluster.workers:
            assert worker.memstore.used == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_live_processes_after_run(self, engine):
        _, cluster, system, _, _, _ = _run(engine)
        assert system.registry.live_count == 0
        for worker in cluster.workers:
            assert worker.cpu.busy == 0


class TestExactSumBreakdown:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_components_sum_to_e2e(self, engine):
        from repro.obs import SpanTracer

        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=3,
                container=ContainerSpec(cold_start_time=0.1),
                storage_bandwidth=50 * MB,
            ),
        )
        # Spans must precede system construction (engines snapshot
        # cluster.spans when built).
        cluster.install_spans(SpanTracer(env))
        dag = fanout_dag(branches=3)
        placement = hash_partition(dag, cluster.worker_names())
        config = EngineConfig(ship_data=True)
        if engine == "master":
            system = HyperFlowServerlessSystem(cluster, config)
            system.register(dag, placement)
        else:
            system = SYSTEM_CLASSES[engine](cluster, config)
            system.deploy(
                dag,
                placement,
                quotas={w.name: 64 * MB for w in cluster.workers},
            )
        records = run_closed_loop(system, dag.name, 3)
        drain(env)
        for record in records:
            parts = system.metrics.breakdown(record.invocation_id)
            assert parts["measured"] is True
            total = sum(
                parts[k]
                for k in (
                    "execute", "cold_start", "transfer",
                    "queue_wait", "sync", "engine",
                )
            )
            assert total == pytest.approx(parts["e2e"], abs=1e-9)


class TestDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_across_schedulers(self, engine):
        def fingerprint(scheduler):
            _, _, _, _, records, _ = _run(engine, scheduler)
            return [
                (r.invocation_id, r.started_at, r.finished_at, r.status,
                 r.cold_starts, r.retries)
                for r in records
            ]

        assert fingerprint("heap") == fingerprint("wheel")

    def test_dataflow_cells_bit_identical_across_shard_counts(self):
        """The cell path (``run_trials``) must not perturb DataflowSP
        runs: the same cells on 1 and 2 workers return identical records."""
        from repro.sim.shard import make_workflow_cell, run_workflow_cells

        cells = [
            make_workflow_cell(
                "cycles",
                engine="dataflow",
                seed=seed,
                invocations=2,
                workers=3,
                feedback=False,
            )
            for seed in (7, 8)
        ]
        serial = run_workflow_cells(cells, jobs=1)
        sharded = run_workflow_cells(cells, jobs=2)
        assert serial == sharded
        assert all(out["completed"] == out["invocations"] for out in serial)
