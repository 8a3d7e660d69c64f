"""Unit tests for the storage policies (RemoteStorePolicy / FaaStorePolicy)."""

import pytest

from repro.core import FaaStorePolicy, RemoteStorePolicy, object_key
from repro.metrics import MetricsCollector

from .conftest import MB, all_on, fanout_dag, linear_dag, round_robin


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestRemoteStorePolicy:
    def test_save_goes_to_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert object_key("lin", 1, "f0", 0) in cluster.remote_store
        assert len(metrics.transfers) == 1
        assert not metrics.transfers[0].local
        assert metrics.transfers[0].phase == "put"

    def test_fetch_comes_from_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "f0", "f1", 0, 1 * MB),
        )
        gets = [t for t in metrics.transfers if t.phase == "get"]
        assert len(gets) == 1
        assert gets[0].producer == "f0"
        assert gets[0].consumer == "f1"

    def test_zero_size_is_a_noop(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=0)
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 0))
        assert metrics.transfers == []

    def test_cleanup_removes_objects(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 7, "f0", 0, 1 * MB))
        policy.cleanup_invocation(dag, 7)
        assert object_key("lin", 7, "f0", 0) not in cluster.remote_store


class TestFaaStorePolicy:
    def test_colocated_consumers_use_local_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert metrics.transfers[0].local
        assert object_key("lin", 1, "f0", 0) in node.memstore
        assert object_key("lin", 1, "f0", 0) not in cluster.remote_store

    def test_remote_consumer_forces_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = round_robin(dag, ["worker-0", "worker-1"])
        node = cluster.node(placement.node_of("f0"))
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert not metrics.transfers[0].local
        assert object_key("lin", 1, "f0", 0) in cluster.remote_store

    def test_quota_overflow_falls_back_to_remote(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=10 * MB)
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(5 * MB)  # too small for the 10 MB object
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 10 * MB))
        assert not metrics.transfers[0].local
        assert node.memstore.rejected_puts >= 1

    def test_local_fetch_and_refcount_cleanup(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = fanout_dag(branches=2)  # head feeds b0 and b1
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "head", 0, 2 * MB))
        key = object_key("fan", 1, "head", 0)
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "head", "b0", 0, 2 * MB),
        )
        assert key in node.memstore  # b1 still needs it
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "head", "b1", 0, 2 * MB),
        )
        assert key not in node.memstore  # freed after the last consumer
        assert node.memstore.used == 0

    def test_fetch_falls_back_to_remote_when_not_local(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = round_robin(dag, ["worker-0", "worker-1"])
        producer_node = cluster.node("worker-0")
        consumer_node = cluster.node("worker-1")
        drive(
            env,
            policy.save_output(producer_node, dag, placement, 1, "f0", 0, 1 * MB),
        )
        drive(
            env,
            policy.fetch_input(
                consumer_node, dag, placement, 1, "f0", "f1", 0, 1 * MB
            ),
        )
        gets = [t for t in metrics.transfers if t.phase == "get"]
        assert len(gets) == 1 and not gets[0].local

    def test_local_is_much_faster_than_remote(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=20 * MB)
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        local_placement = all_on(dag, "worker-0")
        drive(
            env,
            policy.save_output(node, dag, local_placement, 1, "f0", 0, 20 * MB),
        )
        local_put = metrics.transfers[-1].duration
        remote_placement = round_robin(dag, ["worker-0", "worker-1"])
        drive(
            env,
            policy.save_output(node, dag, remote_placement, 2, "f0", 0, 20 * MB),
        )
        remote_put = metrics.transfers[-1].duration
        assert local_put < remote_put / 20

    def test_cleanup_clears_both_tiers(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(
            env,
            policy.save_output(node, dag, all_on(dag, "worker-0"), 1, "f0", 0, 1 * MB),
        )
        policy.cleanup_invocation(dag, 1)
        assert node.memstore.key_count == 0


def _full_sweep(self, dag, invocation_id):
    """The cleanup an index replaces: every node x chunk, every store."""
    for node_obj in dag.nodes:
        for chunk in range(max(1, int(round(node_obj.map_factor)))):
            key = object_key(dag.name, invocation_id, node_obj.name, chunk)
            self.cluster.remote_store.delete(key)
            for worker in self.cluster.workers:
                worker.memstore.delete(key)


def _genome_run(engine):
    """Fig. 12's genome with data shipped; per-store delete counts."""
    from repro.clients import run_closed_loop
    from repro.core import EngineConfig, HyperFlowServerlessSystem, hash_partition
    from repro.core.state import reset_invocation_ids
    from repro.experiments.common import (
        deploy_with_feedback,
        make_cluster,
        make_dataflow,
        make_faasflow,
    )
    from repro.workloads import build

    reset_invocation_ids(1)
    cluster = make_cluster(storage_bandwidth=50 * MB)
    dag = build("genome")
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, EngineConfig(ship_data=True))
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        make = make_faasflow if engine == "worker" else make_dataflow
        system, scheduler = make(cluster, ship_data=True)
        deploy_with_feedback(system, scheduler, dag, warmup_invocations=1)
    run_closed_loop(system, dag.name, 2)
    cluster.env.run(until=cluster.env.now)
    stores = [cluster.remote_store, *(w.memstore for w in cluster.workers)]
    return [s.stats.deletes for s in stores], [s.key_count for s in stores]


class TestCleanupIndex:
    """Cleanup deletes exactly the objects the invocation stored."""

    def test_control_only_invocation_touches_no_store(self, monkeypatch):
        from repro.clients import run_closed_loop
        from repro.core import EngineConfig, FaaSFlowSystem, hash_partition
        from repro.sim import Cluster, ClusterConfig, Environment
        from repro.sim.storage import LocalMemStore, RemoteKVStore

        touched = []
        for store_class in (LocalMemStore, RemoteKVStore):
            monkeypatch.setattr(
                store_class, "delete", lambda store, key: touched.append(key)
            )
        cluster = Cluster(Environment(), ClusterConfig(workers=3))
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=False))
        dag = linear_dag()
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
        records = run_closed_loop(system, dag.name, 2)
        assert len(records) == 2
        assert touched == []

    def test_every_put_site_is_cleaned_up(self, env, cluster):
        """Seeded, read-through and eager-pushed copies that nobody
        consumed are all dropped with the invocation."""
        from repro.core import Placement

        policy = FaaStorePolicy(cluster, MetricsCollector())
        dag = fanout_dag(branches=3)
        w0, w1, w2 = (cluster.node(f"worker-{i}") for i in range(3))
        for worker in (w0, w1, w2):
            worker.set_faastore_quota(100 * MB)
        placement = Placement(
            workflow=dag.name,
            assignment={
                "head": "worker-0", "b0": "worker-0", "b1": "worker-1",
                "b2": "worker-1", "tail": "worker-2",
            },
        )
        # Remote put plus a seed of worker-0's cache for b0.
        drive(env, policy.save_output(w0, dag, placement, 5, "head", 0, 1 * MB))
        # b1 misses on worker-1 and reads through for sibling b2.
        drive(
            env,
            policy.fetch_input(w1, dag, placement, 5, "head", "b1", 0, 1 * MB),
        )
        # An eager push of head's output into worker-2's cache.
        drive(env, policy.eager_push(w0, w2, dag, placement, 5, "head", 0, 1 * MB, 1))
        key = object_key(dag.name, 5, "head", 0)
        assert all(key in w.memstore for w in (w0, w1, w2))
        assert key in cluster.remote_store
        policy.cleanup_invocation(dag, 5)
        assert all(w.memstore.key_count == 0 for w in (w0, w1, w2))
        assert cluster.remote_store.key_count == 0

    @pytest.mark.parametrize("engine", ["master", "worker", "dataflow"])
    def test_genome_drains_like_a_full_sweep(self, engine, monkeypatch):
        from repro.core.faastore import DataPolicy

        deletes, key_counts = _genome_run(engine)
        assert key_counts == [0] * len(key_counts)
        assert sum(deletes) > 0
        monkeypatch.setattr(DataPolicy, "cleanup_invocation", _full_sweep)
        assert _genome_run(engine) == (deletes, key_counts)
