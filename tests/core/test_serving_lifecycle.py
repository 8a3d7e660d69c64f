"""Serving hot-path lifecycle tests (ISSUE 10).

Pins the three state-lifecycle properties the O(1) hot path depends on:

- the live triggered-not-executed index stays exactly in sync with the
  per-invocation flag bytes (crash collection may trust it),
- invocation state is retired promptly on every engine — live state is
  O(in-flight), not O(served) — including under crashes and retries,
- the batched control plane (``batch_control=True``) changes only
  timestamps: every invocation resolves to the same outcome, and the
  coalescing measurably reduces control-message traffic.
"""

import pytest

from repro.clients import OpenLoopClient, run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultPlan,
    HyperFlowServerlessSystem,
    NodeCrash,
    Placement,
    hash_partition,
)
from repro.core.state import EXECUTED, TRIGGERED, reset_invocation_ids
from repro.metrics import InvocationStatus
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment
from repro.sim.network import record_transfers

from ..span_oracle import (
    assert_executed_correctly,
    executed_spans,
    install_spans,
)
from .conftest import MB, fanout_dag, linear_dag

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def drain(env):
    env.run(until=env.now)


def make_cluster(workers=3):
    return Cluster(
        Environment(),
        ClusterConfig(
            workers=workers,
            container=ContainerSpec(cold_start_time=0.05),
            storage_bandwidth=50 * MB,
        ),
    )


def make_system(engine, cluster, **config_kwargs):
    config = EngineConfig(ship_data=False, **config_kwargs)
    if engine == "worker":
        return FaaSFlowSystem(cluster, config)
    if engine == "dataflow":
        return DataflowSystem(cluster, config)
    return HyperFlowServerlessSystem(cluster, config)


def brute_force_pending(structure):
    """O(live invocations x local functions) scan the live index replaces."""
    pending = []
    for invocation_id, inv in structure._invocations.items():
        for index, name in enumerate(structure.local_names):
            flags = inv.flags[index]
            if flags & TRIGGERED and not flags & EXECUTED:
                pending.append((invocation_id, name))
    return pending


def live_index(structure):
    """The live triggered-not-executed index, as (invocation, function)."""
    return [
        (invocation_id, structure.local_names[index])
        for invocation_id, indices in structure._live.items()
        for index in indices
    ]


class TestLiveIndexEquivalence:
    """Satellite (a): the index must agree with a brute-force flag scan."""

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_index_matches_brute_force_mid_flight(self, engine):
        cluster = make_cluster()
        system = make_system(engine, cluster)
        dag = linear_dag(n=5, service_time=0.4, output_size=0.0)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        env = cluster.env
        for _ in range(6):
            env.process(system.invoke("lin"))
        # Snapshot at several mid-flight instants: triggered-but-not-
        # executed work exists while functions are still in service.
        saw_pending = False
        for until in (0.3, 0.7, 1.1, 1.6):
            env.run(until=until)
            for eng in system.engines.values():
                for structure in eng.structures():
                    expected = brute_force_pending(structure)
                    assert sorted(live_index(structure)) == sorted(expected)
                    saw_pending = saw_pending or bool(expected)
        assert saw_pending, "workload never had in-flight work to index"

    def test_drain_returns_brute_force_set_and_clears_flags(self):
        cluster = make_cluster()
        system = make_system("worker", cluster)
        dag = linear_dag(n=4, service_time=0.5, output_size=0.0)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        env = cluster.env
        for _ in range(4):
            env.process(system.invoke("lin"))
        env.run(until=0.8)
        drained_any = False
        for eng in system.engines.values():
            for structure in eng.structures():
                expected = brute_force_pending(structure)
                drained = structure.drain_live_triggered()
                assert sorted(drained) == sorted(expected)
                # Drain is the crash-collection primitive: it must reset
                # the TRIGGERED flags and empty the index.
                assert brute_force_pending(structure) == []
                assert not structure._live
                drained_any = drained_any or bool(drained)
        assert drained_any


class TestStateRetirement:
    """Satellite (c): per-invocation state dies with the invocation."""

    @pytest.mark.parametrize("engine", ["worker", "dataflow", "master"])
    def test_closed_loop_retires_everything(self, engine):
        cluster = make_cluster()
        system = make_system(engine, cluster)
        dag = fanout_dag(branches=3, output_size=0.0)
        placement = hash_partition(dag, cluster.worker_names())
        if engine == "master":
            system.register(dag, placement)
        else:
            system.deploy(dag, placement)
        records = run_closed_loop(system, dag.name, 25)
        drain(cluster.env)
        assert len(records) == 25
        assert all(r.status == InvocationStatus.OK for r in records)
        self._assert_retired(system, engine)

    @pytest.mark.parametrize("engine", ["worker", "dataflow", "master"])
    def test_open_loop_retires_everything(self, engine):
        cluster = make_cluster()
        system = make_system(engine, cluster)
        dag = linear_dag(n=4, service_time=0.02, output_size=0.0)
        placement = hash_partition(dag, cluster.worker_names())
        if engine == "master":
            system.register(dag, placement)
        else:
            system.deploy(dag, placement)
        client = OpenLoopClient(system, dag.name, 60, 1_200.0, seed=7)
        env = cluster.env
        env.run(until=env.process(client.run()))
        drain(env)
        assert len(client.records) == 60
        self._assert_retired(system, engine)

    def test_worker_crash_recovery_retires_everything(self):
        cluster = make_cluster()
        system = make_system(
            "worker", cluster, max_retries=2, execution_timeout=30.0
        )
        dag = linear_dag(n=4, service_time=0.3, output_size=0.0)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        plan = FaultPlan(
            node_crashes=(NodeCrash(node="worker-1", at=0.5, recovery=0.6),)
        )
        driver = FaultDriver(cluster, plan).attach(system)
        driver.start()
        records = run_closed_loop(system, "lin", 10)
        drain(cluster.env)
        assert len(records) == 10
        # Whatever each invocation's fate under the crash, its state
        # must be gone once its record is finalized.
        self._assert_retired(system, "worker")

    @staticmethod
    def _assert_retired(system, engine):
        assert system.in_flight == 0
        assert system.registry.live_count == 0
        # The network keeps counters, not a history: nothing it holds
        # grows past one entry per node pair.
        network = system.cluster.network
        assert network.active_flow_count == 0
        pairs = len(network.nics) ** 2
        for name, value in vars(network).items():
            if isinstance(value, (list, dict)):
                assert len(value) <= pairs, name
        if engine == "master":
            return  # the master keeps no per-invocation arrays outside invoke
        assert not system._contexts
        for eng in system.engines.values():
            for structure in eng.structures():
                assert structure.live_invocations == 0
                # Nothing of the live index outlives its invocation.
                assert not structure._live

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_soak_peak_live_tracks_concurrency_not_total(self, engine):
        """Soak: serve many invocations at a rate that keeps only a few
        in flight; peak live state must track concurrency, not total."""
        total = 300
        cluster = make_cluster()
        system = make_system(engine, cluster)
        dag = linear_dag(n=3, service_time=0.01, output_size=0.0)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        client = OpenLoopClient(system, "lin", total, 3_000.0, seed=5)
        env = cluster.env
        env.run(until=env.process(client.run()))
        drain(env)
        assert len(client.records) == total
        assert all(
            r.status == InvocationStatus.OK for r in client.records
        )
        # At 50/s arrivals vs ~10x service headroom, tens of invocations
        # never coexist; far below the total served either way.
        assert 0 < system.peak_in_flight < total / 4
        for eng in system.engines.values():
            for structure in eng.structures():
                assert (
                    structure.peak_live_invocations <= system.peak_in_flight
                )
        self._assert_retired(system, engine)


class TestBatchedControlPlane:
    """Tentpole pin: batch_control changes timing, never outcomes."""

    def _run(self, engine, batch):
        reset_invocation_ids(1)
        cluster = make_cluster(workers=2)
        system = make_system(engine, cluster, batch_control=batch)
        # head on one worker, all three branches on the other: the
        # head->branches fan-out is a 3-wide same-destination batch.
        dag = fanout_dag(branches=3, output_size=0.0)
        assignment = {"head": "worker-0", "tail": "worker-0"}
        for i in range(3):
            assignment[f"b{i}"] = "worker-1"
        system.deploy(
            dag, Placement(workflow=dag.name, assignment=assignment)
        )
        records = run_closed_loop(system, dag.name, 20)
        drain(cluster.env)
        return records, cluster.network.message_count

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_batched_outcomes_identical_and_coalesced(self, engine):
        plain_records, plain_messages = self._run(engine, batch=False)
        batch_records, batch_messages = self._run(engine, batch=True)
        assert len(batch_records) == len(plain_records) == 20
        for plain, batched in zip(plain_records, batch_records):
            # Everything but timing is pinned bit-for-bit.
            assert batched.workflow == plain.workflow
            assert batched.invocation_id == plain.invocation_id
            assert batched.mode == plain.mode
            assert batched.status == plain.status == InvocationStatus.OK
            assert batched.cold_starts == plain.cold_starts
            assert batched.retries == plain.retries
            # started_at/finished_at legitimately shift: closed-loop
            # arrivals chain off the previous finish, and batching
            # changes per-hop timing — that's the documented divergence.
        # The 3-wide fan-out coalesces into one transfer per invocation:
        # 2 control messages fewer, 20 invocations, both engines.
        assert batch_messages == plain_messages - 2 * 20

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_single_successor_destinations_never_batch(self, engine):
        """A batch of one is the plain path, byte for byte: a pure
        chain's network ledger (tags included) and every invocation's
        timestamps are identical with batching on."""
        plain_records, plain_ledger = self._run_chain(engine, batch=False)
        batch_records, batch_ledger = self._run_chain(engine, batch=True)
        assert batch_ledger == plain_ledger
        assert any(row[6].startswith(("state:", "token:")) for row in plain_ledger)
        assert [
            (r.invocation_id, r.status, r.started_at, r.finished_at)
            for r in batch_records
        ] == [
            (r.invocation_id, r.status, r.started_at, r.finished_at)
            for r in plain_records
        ]

    def _run_chain(self, engine, batch):
        reset_invocation_ids(1)
        cluster = make_cluster(workers=2)
        ledger = record_transfers(cluster.network)
        system = make_system(engine, cluster, batch_control=batch)
        dag = linear_dag(n=4, service_time=0.05, output_size=0.0)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, "lin", 10)
        drain(cluster.env)
        return records, ledger


class TestBatchedDeliveryUnderCrash:
    """A batch that reaches a crashed engine is deferred whole and
    replayed on recovery: every invocation still ends exactly once, and
    no process or deferred message outlives the run."""

    CRASHED = "worker-1"
    RECOVERY = 0.5

    def _run(self, engine, head, crash_at=None):
        reset_invocation_ids(1)
        cluster = make_cluster(workers=2)
        spans = install_spans(cluster)
        system = make_system(engine, cluster, batch_control=True)
        # The 3-wide head -> b0..b2 fan-out always lands on worker-1:
        # one remote batch from worker-0, one local batch from worker-1.
        dag = fanout_dag(branches=3, output_size=0.0)
        assignment = {"head": head, "tail": "worker-0"}
        for i in range(3):
            assignment[f"b{i}"] = self.CRASHED
        system.deploy(
            dag, Placement(workflow=dag.name, assignment=assignment)
        )
        deferred_while_down = []
        if crash_at is not None:
            plan = FaultPlan(
                node_crashes=(
                    NodeCrash(
                        node=self.CRASHED, at=crash_at, recovery=self.RECOVERY
                    ),
                )
            )
            FaultDriver(cluster, plan).attach(system).start()
            crashed = system.engines[self.CRASHED]
            cluster.env.schedule_at(
                crash_at + self.RECOVERY / 2
            ).callbacks.append(
                lambda _: deferred_while_down.append(list(crashed._deferred))
            )
        records = run_closed_loop(system, dag.name, 3)
        drain(cluster.env)
        return system, spans, records, deferred_while_down

    @pytest.mark.parametrize("head", ["worker-0", "worker-1"])
    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_deferred_batch_replays_on_recovery(self, engine, head):
        _, dry_spans, _, _ = self._run(engine, head)
        # Crash while invocation 1's fan-out is on the wire / RPC hop:
        # well inside both the 1.5 ms local hop and the message latency.
        crash_at = 1e-4 + next(
            s.end for s in executed_spans(dry_spans, 1) if s.function == "head"
        )
        system, spans, records, deferred_while_down = self._run(
            engine, head, crash_at
        )
        # The whole batch was deferred, one entry per branch.
        ((deferred,),) = [deferred_while_down]
        assert sorted(item[4] for item in deferred) == ["b0", "b1", "b2"]
        assert {item[0] for item in deferred} == {"update"}
        assert {item[3] for item in deferred} == {1}
        # Every invocation reached exactly one terminal status.
        assert [r.invocation_id for r in records] == [1, 2, 3]
        assert all(r.status == InvocationStatus.OK for r in records)
        assert all(r.finished_at is not None for r in records)
        # Each branch of each invocation ran exactly once, in order.
        dag = fanout_dag(branches=3, output_size=0.0)
        for invocation_id in (1, 2, 3):
            assert_executed_correctly(dag, spans, invocation_id)
        assert system.registry.live_count == 0
        for eng in system.engines.values():
            assert eng._deferred == []
        assert system.engines[self.CRASHED].crash_count == 1
