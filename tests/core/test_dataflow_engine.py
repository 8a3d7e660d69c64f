"""Unit tests for DataflowSP: function-level triggering + eager shipping."""

from collections import Counter

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    DataflowEngine,
    DataflowSystem,
    EngineConfig,
    FaultDriver,
    FaultInjector,
    FaultPlan,
    NodeCrash,
)
from repro.metrics import InvocationStatus
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from ..span_oracle import (
    assert_exactly_once,
    assert_predecessor_order,
    install_spans,
)
from .conftest import MB, all_on, fanout_dag, linear_dag, round_robin


def drain(env):
    env.run(until=env.now)


def assert_no_zombies(system, cluster):
    assert system.registry.live_count == 0
    for worker in cluster.workers:
        assert worker.cpu.busy == 0


def make_system(cluster, **config_kwargs):
    config_kwargs.setdefault("ship_data", False)
    return DataflowSystem(cluster, EngineConfig(**config_kwargs))


def deploy_with_quotas(system, dag, placement, quota=64 * MB):
    """Deploy with FaaStore room on every worker (quotas default to 0,
    which would refuse both local writes and eager pushes)."""
    system.deploy(
        dag,
        placement,
        quotas={w.name: quota for w in system.cluster.workers},
    )


def transfer_phases(system):
    return Counter((t.phase, t.local) for t in system.metrics.transfers)


class TestTriggering:
    def test_end_to_end_completion(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.OK
        assert record.cold_starts == 3

    def test_cross_worker_chain(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.OK

    def test_system_identity(self, cluster):
        system = make_system(cluster)
        assert system.mode == "dataflow-sp"
        assert system.engine_label == "dataflow"
        assert all(
            isinstance(engine, DataflowEngine)
            for engine in system.engines.values()
        )

    def test_every_function_executes_exactly_once(self, env, cluster):
        spans = install_spans(cluster)
        system = DataflowSystem(cluster, EngineConfig(ship_data=False))
        dag = fanout_dag(branches=4)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        records = run_closed_loop(system, "fan", 3)
        drain(env)
        for record in records:
            assert record.status == InvocationStatus.OK
            assert_exactly_once(dag, spans, record.invocation_id)

    def test_join_waits_for_all_predecessors(self, env, cluster):
        """The tail of a fan-out must fire on its *last* token, never
        on the first."""
        spans = install_spans(cluster)
        system = DataflowSystem(cluster, EngineConfig(ship_data=False))
        dag = fanout_dag(branches=3)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = env.run(until=env.process(system.invoke("fan")))
        assert record.status == InvocationStatus.OK
        assert_predecessor_order(dag, spans, record.invocation_id)

    def test_tokens_flow_cross_worker(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, round_robin(dag, ["worker-0", "worker-1"]))
        env.run(until=env.process(system.invoke("lin")))
        received = sum(e.tokens_received for e in system.engines.values())
        assert received == 3  # every edge crosses workers
        handled = sum(e.events_handled for e in system.engines.values())
        assert handled >= 4  # one token step per trigger at minimum
        busy = sum(e.busy_time for e in system.engines.values())
        assert busy == pytest.approx(
            handled * system.config.dataflow_trigger_time
        )

    def test_parallel_tokens_do_not_serialize(self):
        """The structural claim: N same-instant tokens cost one trigger
        time, not N (WorkerSP's serialized loop pays N)."""
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=1, container=ContainerSpec(cold_start_time=0.0)
            ),
        )
        trigger = 0.01
        system = DataflowSystem(
            cluster,
            EngineConfig(
                ship_data=False,
                dataflow_trigger_time=trigger,
                worker_process_time=trigger,
            ),
        )
        from repro.dag import WorkflowDAG

        dag = WorkflowDAG("fan")
        dag.add_function("head", service_time=0.0, output_size=0)
        dag.add_function("tail", service_time=0.0, output_size=0)
        for i in range(8):
            b = f"b{i}"
            dag.add_function(b, service_time=0.0, output_size=0)
            dag.add_edge("head", b, data_size=0)
            dag.add_edge(b, "tail", data_size=0)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = env.run(until=env.process(system.invoke("fan")))
        assert record.status == InvocationStatus.OK
        # head trigger + branch wave + tail wave: ~3 trigger steps of
        # engine latency, far below the ~18 a serialized loop would pay.
        assert record.latency < 8 * trigger


class TestEagerShipping:
    def _fan_system(self, workers=("worker-0", "worker-1"), **config_kwargs):
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=3,
                container=ContainerSpec(cold_start_time=0.1),
                storage_bandwidth=50 * MB,
            ),
        )
        config_kwargs.setdefault("ship_data", True)
        system = DataflowSystem(cluster, EngineConfig(**config_kwargs))
        dag = fanout_dag(branches=3)
        deploy_with_quotas(system, dag, round_robin(dag, list(workers)))
        return env, cluster, system

    def test_pushes_seed_consumer_cache(self):
        env, cluster, system = self._fan_system()
        record = env.run(until=env.process(system.invoke("fan")))
        drain(env)
        assert record.status == InvocationStatus.OK
        phases = transfer_phases(system)
        # Worker-to-worker pushes happened...
        assert phases[("push", False)] > 0
        # ...and they arrived in time: every consumer read was local.
        assert phases[("get", False)] == 0
        assert phases[("get", True)] > 0
        pushed = sum(e.pushes_started for e in system.engines.values())
        assert pushed == phases[("push", False)]

    def test_no_pushes_when_disabled(self):
        env, cluster, system = self._fan_system(eager_ship=False)
        record = env.run(until=env.process(system.invoke("fan")))
        drain(env)
        assert record.status == InvocationStatus.OK
        phases = transfer_phases(system)
        assert phases[("push", False)] == 0
        assert phases[("get", False)] > 0  # back to remote read-through
        assert sum(e.pushes_started for e in system.engines.values()) == 0

    def test_eager_shipping_no_slower(self):
        def latency(eager):
            env, cluster, system = self._fan_system(eager_ship=eager)
            record = env.run(until=env.process(system.invoke("fan")))
            drain(env)
            assert record.status == InvocationStatus.OK
            return record.latency

        assert latency(True) <= latency(False)

    def test_quota_refusal_degrades_to_remote_reads(self, env, cluster):
        """With no FaaStore quota every push is refused at try_put: the
        run must still complete, through remote gets."""
        system = make_system(cluster, ship_data=True)
        dag = fanout_dag(branches=3)
        system.deploy(dag, round_robin(dag, ["worker-0", "worker-1"]))
        record = env.run(until=env.process(system.invoke("fan")))
        drain(env)
        assert record.status == InvocationStatus.OK
        phases = transfer_phases(system)
        assert phases[("push", False)] == 0  # refused, recorded as spill
        assert phases[("get", False)] > 0
        assert_no_zombies(system, cluster)

    def test_db_marked_producer_not_pushed(self):
        """Algorithm 1 can pin a producer's output to remote storage
        (storage_type "DB"); eager shipping must respect that."""
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=3,
                container=ContainerSpec(cold_start_time=0.1),
                storage_bandwidth=50 * MB,
            ),
        )
        system = DataflowSystem(cluster, EngineConfig(ship_data=True))
        dag = fanout_dag(branches=2)
        dag.node("head").metadata["storage_type"] = "DB"
        deploy_with_quotas(
            system, dag, round_robin(dag, ["worker-0", "worker-1"])
        )
        record = env.run(until=env.process(system.invoke("fan")))
        drain(env)
        assert record.status == InvocationStatus.OK
        pushed_producers = {
            t.producer for t in system.metrics.transfers if t.phase == "push"
        }
        assert "head" not in pushed_producers


class TestFaultIntegration:
    def test_retry_recovers_from_crash(self, env, cluster):
        class CrashOnce(FaultInjector):
            def __init__(self):
                super().__init__(default_rate=0.0)
                self._armed = True

            def should_crash(self, function):
                if self._armed:
                    self._armed = False
                    self.injected += 1
                    return True
                return False

        system = DataflowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=2),
            faults=CrashOnce(),
        )
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        drain(env)
        assert record.status == InvocationStatus.OK
        assert record.retries >= 1
        assert_no_zombies(system, cluster)

    def test_failed_invocation_leaves_no_processes(self, env, cluster):
        system = DataflowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=0),
            faults=FaultInjector(default_rate=1.0, seed=3),
        )
        dag = linear_dag(n=3)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        records = run_closed_loop(system, "lin", 3)
        drain(env)
        assert all(r.status == InvocationStatus.FAILED for r in records)
        assert_no_zombies(system, cluster)
        assert system.registry.tracked_invocations == 0

    def test_timed_out_invocation_leaves_no_processes(self, env, cluster):
        system = make_system(cluster, execution_timeout=0.2)
        dag = fanout_dag(branches=6)
        system.deploy(dag, all_on(dag, "worker-0"))
        records = run_closed_loop(system, "fan", 2)
        drain(env)
        assert all(r.status == InvocationStatus.TIMEOUT for r in records)
        assert_no_zombies(system, cluster)


def _crash_run(n=4, crash_at=1.0, recovery=3.0, seed=None):
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=3, container=ContainerSpec(cold_start_time=0.1)),
    )
    config = EngineConfig(ship_data=False, max_retries=3, execution_timeout=120.0)
    from repro.workloads import build

    dag = build("epigenomics")
    system = DataflowSystem(cluster, config)
    from repro.core import hash_partition

    system.deploy(dag, hash_partition(dag, cluster.worker_names()))
    if seed is None:
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(node="worker-1", at=crash_at, recovery=recovery),
            )
        )
    else:
        plan = FaultPlan.random(
            cluster.worker_names(), horizon=10.0, crashes=2,
            recovery=recovery, seed=seed,
        )
    driver = FaultDriver(cluster, plan).attach(system)
    driver.start()
    records = run_closed_loop(system, dag.name, n)
    drain(env)
    return env, cluster, system, driver, records


class TestNodeCrashes:
    def test_recovers_by_retriggering(self):
        """DataflowSP inherits WorkerSP's recovery semantics: in-flight
        tokens queue while the node is down and killed tasks are
        re-triggered at engine level, not via runtime retries."""
        env, cluster, system, driver, records = _crash_run()
        assert driver.node_crashes_fired == 1
        assert all(r.status == InvocationStatus.OK for r in records)
        assert system.retriggered > 0
        assert sum(r.retries for r in records) == 0
        assert any(e.crash_count == 1 for e in system.engines.values())
        assert_no_zombies(system, cluster)

    def test_deterministic_replay_under_seed(self):
        def fingerprint():
            _, _, system, driver, records = _crash_run(seed=21)
            return (
                [r.status for r in records],
                [round(r.latency, 12) for r in records],
                [r.retries for r in records],
                driver.node_crashes_fired,
            )

        assert fingerprint() == fingerprint()


class TestTelemetryLabel:
    def test_invocations_labeled_engine_dataflow(self, env, cluster):
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: env.now)
        cluster.install_telemetry(registry)
        system = make_system(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        drain(env)
        snapshot = registry.snapshot()
        labels = [
            m["labels"]
            for m in snapshot["metrics"]
            if m["name"] == "workflow.invocations"
        ]
        assert labels and all(l["engine"] == "dataflow" for l in labels)
