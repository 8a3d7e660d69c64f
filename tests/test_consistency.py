"""Cross-module consistency tests: things that must agree system-wide.

These check identities between independent accounting paths — the
metrics ledger vs the network's byte counters, recorded latencies vs
physical lower bounds, determinism of whole runs — the invariants that
catch subtle double-counting or clock bugs no unit test would.
"""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    EngineConfig,
    FaaSFlowSystem,
    GraphScheduler,
    HyperFlowServerlessSystem,
    hash_partition,
)
from repro.sim import (
    Cluster,
    ClusterConfig,
    ContainerSpec,
    Environment,
    MB,
    NetworkConfig,
)
from repro.workloads import build


def fresh_cluster(workers=3, bandwidth=50 * MB):
    env = Environment()
    return Cluster(
        env,
        ClusterConfig(
            workers=workers,
            storage_bandwidth=bandwidth,
            container=ContainerSpec(cold_start_time=0.1),
        ),
    )


class TestPhysicalLowerBounds:
    @pytest.mark.parametrize("name", ["word-count", "file-processing"])
    def test_latency_at_least_critical_path(self, name):
        cluster = fresh_cluster()
        system = HyperFlowServerlessSystem(cluster, EngineConfig())
        dag = build(name)
        system.register(dag, hash_partition(dag, cluster.worker_names()))
        for record in run_closed_loop(system, name, 3):
            assert record.latency >= record.critical_path_exec

    def test_remote_bytes_bounded_by_nic_time(self):
        """Remote data cannot move faster than the storage NIC allows."""
        cluster = fresh_cluster(bandwidth=10 * MB)
        system = HyperFlowServerlessSystem(cluster, EngineConfig())
        dag = build("word-count")
        system.register(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, "word-count", 2)
        elapsed = records[-1].finished_at - records[0].started_at
        remote = system.metrics.remote_data_moved("word-count")
        assert remote <= 10 * MB * elapsed * 1.01

    def test_timestamps_are_ordered(self):
        cluster = fresh_cluster()
        system = HyperFlowServerlessSystem(cluster, EngineConfig())
        dag = build("illegal-recognizer")
        system.register(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, "illegal-recognizer", 4)
        for earlier, later in zip(records, records[1:]):
            assert earlier.finished_at <= later.started_at  # closed loop
            assert earlier.started_at < earlier.finished_at


class TestLedgerAgreement:
    def test_metrics_remote_bytes_match_network_storage_traffic(self):
        """The metrics ledger's remote bytes equal what the network saw
        crossing the storage node (independent accounting paths)."""
        cluster = fresh_cluster()
        system = HyperFlowServerlessSystem(cluster, EngineConfig())
        dag = build("file-processing")
        system.register(dag, hash_partition(dag, cluster.worker_names()))
        run_closed_loop(system, "file-processing", 3)
        ledger_bytes = system.metrics.remote_data_moved("file-processing")
        nic = cluster.storage_node.nic
        network_bytes = nic.bytes_received + nic.bytes_sent
        # The NIC additionally carries control messages (KBs).
        assert network_bytes == pytest.approx(ledger_bytes, rel=0.01)

    def test_local_bytes_never_touch_the_network(self):
        cluster = fresh_cluster(workers=2)
        system = FaaSFlowSystem(cluster, EngineConfig())
        scheduler = GraphScheduler(cluster)
        dag = build("word-count")
        from repro.dag import estimate_edge_weights

        estimate_edge_weights(dag, bandwidth=50 * MB)
        placement, quotas, _ = scheduler.schedule(dag, force_grouping=True)
        system.deploy(dag, placement, quotas=quotas)
        run_closed_loop(system, "word-count", 3)
        ledger_remote = system.metrics.remote_data_moved("word-count")
        nic = cluster.storage_node.nic
        network_bytes = nic.bytes_received + nic.bytes_sent
        assert network_bytes == pytest.approx(ledger_remote, rel=0.01)
        # And locality actually happened.
        assert system.metrics.local_fraction("word-count") > 0.5


class TestDeterminism:
    def _run_once(self):
        cluster = fresh_cluster()
        system = FaaSFlowSystem(cluster, EngineConfig())
        scheduler = GraphScheduler(cluster, seed=3)
        dag = build("file-processing")
        placement, quotas, _ = scheduler.schedule(dag)
        system.deploy(dag, placement, quotas=quotas)
        records = run_closed_loop(system, "file-processing", 4)
        return [round(r.latency, 12) for r in records]

    def test_whole_runs_are_bit_identical(self):
        assert self._run_once() == self._run_once()

    def _run_system(self, incremental):
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=3,
                storage_bandwidth=50 * MB,
                container=ContainerSpec(cold_start_time=0.1),
                network=NetworkConfig(incremental=incremental),
            ),
        )
        system = FaaSFlowSystem(cluster, EngineConfig())
        scheduler = GraphScheduler(cluster, seed=3)
        dag = build("file-processing")
        placement, quotas, _ = scheduler.schedule(dag)
        system.deploy(dag, placement, quotas=quotas)
        records = run_closed_loop(system, "file-processing", 4)
        return (
            [(r.started_at, r.finished_at, r.latency) for r in records],
            cluster.network.total_bytes,
            cluster.total_data_moved,
        )

    def test_incremental_network_matches_full_recompute(self):
        """Component-local rebalancing is an optimization, not a model
        change: a whole system run must be bit-identical either way."""
        assert self._run_system(True) == self._run_system(False)

    def test_scheduler_seed_changes_bootstrap_only_randomness(self):
        cluster_a = fresh_cluster()
        cluster_b = fresh_cluster()
        dag_a = build("genome")
        dag_b = build("genome")
        from repro.dag import estimate_edge_weights

        for dag in (dag_a, dag_b):
            estimate_edge_weights(dag, bandwidth=50 * MB)
        p_a, _, _ = GraphScheduler(cluster_a, seed=1).schedule(
            dag_a, force_grouping=True
        )
        p_b, _, _ = GraphScheduler(cluster_b, seed=1).schedule(
            dag_b, force_grouping=True
        )
        assert p_a.assignment == p_b.assignment


class TestResourceHygiene:
    def test_no_leaked_cpu_or_state_after_runs(self):
        cluster = fresh_cluster()
        system = FaaSFlowSystem(cluster, EngineConfig())
        dag = build("file-processing")
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        run_closed_loop(system, "file-processing", 5)
        for worker in cluster.workers:
            assert worker.cpu.busy == 0
        for engine in system.engines.values():
            for structure in engine.structures():
                assert structure.live_invocations == 0

    def test_memstore_drains_after_invocations(self):
        cluster = fresh_cluster(workers=2)
        system = FaaSFlowSystem(cluster, EngineConfig())
        scheduler = GraphScheduler(cluster)
        dag = build("word-count")
        from repro.dag import estimate_edge_weights

        estimate_edge_weights(dag, bandwidth=50 * MB)
        placement, quotas, _ = scheduler.schedule(dag, force_grouping=True)
        system.deploy(dag, placement, quotas=quotas)
        run_closed_loop(system, "word-count", 3)
        for worker in cluster.workers:
            assert worker.memstore.key_count == 0
            assert worker.memstore.used == pytest.approx(0.0, abs=1.0)

    def test_remote_store_cleaned_after_invocations(self):
        cluster = fresh_cluster()
        system = HyperFlowServerlessSystem(cluster, EngineConfig())
        dag = build("file-processing")
        system.register(dag, hash_partition(dag, cluster.worker_names()))
        run_closed_loop(system, "file-processing", 3)
        assert cluster.remote_store.key_count == 0
