"""Tests for the fault-tolerance subsystem: retry policy, cancellation
propagation, node crashes, and recovery semantics."""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    CancelCause,
    CancelKind,
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultInjector,
    FaultPlan,
    FunctionFailure,
    HyperFlowServerlessSystem,
    NetworkDegradation,
    NodeCrash,
    RetryPolicy,
    hash_partition,
)
from repro.core.runtime import FunctionRuntime
from repro.core.faastore import FaaStorePolicy
from repro.metrics import InvocationStatus, MetricsCollector
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from .conftest import MB, all_on, fanout_dag, linear_dag, round_robin


def drain(env):
    """Flush every event scheduled for the current timestep."""
    env.run(until=env.now)


def assert_no_zombies(system, cluster):
    """After an invocation dies, nothing of it may still be running."""
    assert system.registry.live_count == 0
    for worker in cluster.workers:
        assert worker.cpu.busy == 0


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=0.5, backoff_factor=2.0,
            backoff_max=30.0, jitter=0.0,
        )
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(2.0)
        assert policy.delay(4) == pytest.approx(4.0)

    def test_backoff_cap(self):
        policy = RetryPolicy(
            backoff_base=10.0, backoff_factor=4.0, backoff_max=15.0,
            jitter=0.0,
        )
        assert policy.delay(1) == pytest.approx(10.0)
        assert policy.delay(2) == pytest.approx(15.0)
        assert policy.delay(9) == pytest.approx(15.0)

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.25, seed=11)
        same = RetryPolicy(backoff_base=1.0, jitter=0.25, seed=11)
        other_seed = RetryPolicy(backoff_base=1.0, jitter=0.25, seed=12)
        delays = [policy.delay(1, key=("f", i)) for i in range(50)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert delays == [same.delay(1, key=("f", i)) for i in range(50)]
        assert delays != [other_seed.delay(1, key=("f", i)) for i in range(50)]
        # The spread is real, not a constant offset.
        assert max(delays) - min(delays) > 0.1

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0, jitter=0.5)
        assert policy.delay(1) == 0.0
        assert policy.delay(7) == 0.0

    def test_from_config(self):
        config = EngineConfig(
            max_retries=4, retry_backoff_base=0.3, retry_backoff_factor=3.0,
            retry_backoff_max=9.0, retry_jitter=0.1, retry_seed=5,
        )
        policy = RetryPolicy.from_config(config)
        assert policy.max_retries == 4
        assert policy.attempts == 5
        assert policy.delay(1, key=("k",)) == pytest.approx(0.3, rel=0.11)
        assert policy.backoff_max == 9.0


class TestTimerCancellation:
    def test_kernel_heap_stays_bounded(self, env, cluster):
        """Satellite: finished invocations must cancel their watchdog
        timers instead of leaving one 60 s timeout each in the heap."""
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=False))
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        run_closed_loop(system, "lin", 150)
        drain(env)
        # Without Timeout.cancel() + heap compaction this holds one 60 s
        # watchdog per invocation (>= 150 entries by now); with them the
        # heap is bounded by live events plus the compaction threshold.
        assert env.queued_events <= 80

    def test_master_heap_stays_bounded(self, env, cluster):
        system = HyperFlowServerlessSystem(
            cluster, EngineConfig(ship_data=False)
        )
        dag = linear_dag(n=3)
        system.register(dag, all_on(dag, "worker-0"))
        run_closed_loop(system, "lin", 150)
        drain(env)
        assert env.queued_events <= 80


class TestCancellationPropagation:
    def _crashing_system(self, cluster, engine, **config_kwargs):
        faults = FaultInjector(default_rate=1.0, seed=3)
        config = EngineConfig(
            ship_data=False, max_retries=0, **config_kwargs
        )
        dag = linear_dag(n=3)
        if engine == "master":
            system = HyperFlowServerlessSystem(cluster, config, faults=faults)
            system.register(dag, round_robin(dag, cluster.worker_names()))
        else:
            system = FaaSFlowSystem(cluster, config, faults=faults)
            system.deploy(dag, round_robin(dag, cluster.worker_names()))
        return system

    @pytest.mark.parametrize("engine", ["worker", "master"])
    def test_failed_invocation_leaves_no_processes(self, env, cluster, engine):
        system = self._crashing_system(cluster, engine)
        records = run_closed_loop(system, "lin", 3)
        drain(env)
        assert all(r.status == InvocationStatus.FAILED for r in records)
        assert_no_zombies(system, cluster)
        assert system.registry.tracked_invocations == 0

    @pytest.mark.parametrize("engine", ["worker", "master"])
    def test_timed_out_invocation_leaves_no_processes(
        self, env, cluster, engine
    ):
        """A fan-out wide enough to overrun the execution timeout: the
        client gives up and every still-running task is interrupted."""
        config = EngineConfig(ship_data=False, execution_timeout=0.2)
        dag = fanout_dag(branches=6)
        if engine == "master":
            system = HyperFlowServerlessSystem(cluster, config)
            system.register(dag, all_on(dag, "worker-0"))
        else:
            system = FaaSFlowSystem(cluster, config)
            system.deploy(dag, all_on(dag, "worker-0"))
        records = run_closed_loop(system, "fan", 2)
        drain(env)
        assert all(r.status == InvocationStatus.TIMEOUT for r in records)
        assert_no_zombies(system, cluster)

    def test_foreach_sibling_cancellation(self, env):
        """Satellite: one failing foreach instance interrupts its
        siblings instead of letting them run to completion."""
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=1,
                container=ContainerSpec(cold_start_time=0.01),
            ),
        )

        class CrashFirstInstance(FaultInjector):
            def __init__(self):
                super().__init__(default_rate=0.0)
                self._armed = True

            def should_crash(self, function):
                if function == "wide" and self._armed:
                    self._armed = False
                    self.injected += 1
                    return True
                return False

        from repro.dag import WorkflowDAG

        dag = WorkflowDAG("foreach")
        # 12 instances on 8 cores: the second wave is still queued when
        # the first wave's crash lands, so there are live siblings.
        dag.add_function(
            "wide", service_time=0.5, output_size=0, memory=32 * MB,
            map_factor=12,
        )
        system = FaaSFlowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=0),
            faults=CrashFirstInstance(),
        )
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "foreach", 1)[0]
        drain(env)
        assert record.status == InvocationStatus.FAILED
        # Siblings were interrupted: cores free, nothing alive, and the
        # invocation ended at the first crash (~0.5 s), not after the
        # second wave (~1.0 s).
        assert_no_zombies(system, cluster)
        assert record.latency < 0.9

    def test_same_timestep_failure_wins(self, env, cluster):
        """Satellite: when a sink report and a failure report land in
        the same timestep, the invocation must report FAILED."""
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=False))
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))

        status = {}

        def client():
            proc = env.process(system.invoke("lin"))
            # Let the invocation register its context, then complete
            # all sinks and fail it within one timestep.
            yield env.timeout(0.01)
            invocation_id = next(iter(system._contexts))
            for _ in dag.sinks():
                system.sink_completed("lin", invocation_id)
            system.invocation_failed("lin", invocation_id, "f1")
            record = yield proc
            status["value"] = record.status

        done = env.process(client())
        env.run(until=done)
        drain(env)
        assert status["value"] == InvocationStatus.FAILED

    def test_failure_blocks_later_sink_completions(self, env, cluster):
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=False))
        dag = fanout_dag(branches=2)
        system.deploy(dag, all_on(dag, "worker-0"))

        def client():
            proc = env.process(system.invoke("fan"))
            yield env.timeout(0.01)
            invocation_id = next(iter(system._contexts))
            context = system.context(invocation_id)
            sinks_before = context.sinks_remaining
            system.invocation_failed("fan", invocation_id, "b0")
            system.sink_completed("fan", invocation_id)
            # The late sink must not count toward completion once the
            # invocation has failed.
            assert context.failed == "b0"
            assert context.sinks_remaining == sinks_before
            yield proc

        done = env.process(client())
        env.run(until=done)
        drain(env)


class TestAttemptAccounting:
    def _execute(self, env, cluster, faults, config, dag):
        system = FaaSFlowSystem(cluster, config, faults=faults)
        system.deploy(dag, all_on(dag, "worker-0"))
        outcome = {}

        def driver():
            try:
                yield env.process(
                    system.runtime.execute(
                        dag,
                        system.deployed(dag.name).placement,
                        1,
                        dag.node_names[0],
                    )
                )
            except FunctionFailure as failure:
                outcome["failure"] = failure

        done = env.process(driver())
        env.run(until=done)
        drain(env)
        return outcome.get("failure")

    def test_attempts_reflect_crash_retries(self, env, cluster):
        """Satellite: FunctionFailure.attempts is the real attempt
        count, not blindly max_retries + 1."""
        dag = linear_dag(n=1)
        failure = self._execute(
            env, cluster,
            FaultInjector(default_rate=1.0, seed=1),
            EngineConfig(ship_data=False, max_retries=2),
            dag,
        )
        assert failure is not None
        assert failure.attempts == 3

    def test_attempts_reflect_straggler_kills(self, env, cluster):
        """Every attempt overruns function_timeout: each is killed and
        retried, and the final failure counts all of them."""
        dag = linear_dag(n=1, service_time=1.0)
        failure = self._execute(
            env, cluster,
            None,
            EngineConfig(
                ship_data=False, max_retries=1, function_timeout=0.2
            ),
            dag,
        )
        assert failure is not None
        assert failure.attempts == 2

    def test_straggler_within_budget_recovers(self, env):
        """First attempt straggles (cold start + exec > timeout), the
        warm retry fits: the invocation succeeds with one retry."""
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=1, container=ContainerSpec(cold_start_time=0.4)
            ),
        )
        dag = linear_dag(n=1, service_time=0.3)
        system = FaaSFlowSystem(
            cluster,
            EngineConfig(
                ship_data=False, max_retries=2, function_timeout=0.5
            ),
        )
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        drain(env)
        assert record.status == InvocationStatus.OK
        assert record.retries >= 1


def _crash_run(engine, n=4, crash_at=1.0, recovery=3.0, seed=None):
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=3, container=ContainerSpec(cold_start_time=0.1)),
    )
    config = EngineConfig(
        ship_data=False, max_retries=3, execution_timeout=120.0
    )
    from repro.workloads import build

    dag = build("epigenomics")
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config)
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        system = FaaSFlowSystem(cluster, config)
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
    def test_workersp_recovers_by_retriggering(self):
        """WorkerSP recovery semantics: the crashed node's pending
        sub-graph tasks are re-triggered at engine level."""
        env, cluster, system, driver, records = _crash_run("worker")
        assert driver.node_crashes_fired == 1
        assert all(r.status == InvocationStatus.OK for r in records)
        assert system.retriggered > 0
        # Engine-level recovery, not runtime retries.
        assert sum(r.retries for r in records) == 0
        assert_no_zombies(system, cluster)

    def test_mastersp_recovers_by_runtime_retry(self):
        """MasterSP recovery semantics: the master survives and the
        runtime's retry ladder re-runs the killed instances."""
        env, cluster, system, driver, records = _crash_run("master")
        assert driver.node_crashes_fired == 1
        assert all(r.status == InvocationStatus.OK for r in records)
        assert sum(r.retries for r in records) > 0
        assert_no_zombies(system, cluster)

    @pytest.mark.parametrize("engine", ["worker", "master"])
    def test_deterministic_replay_under_seed(self, engine):
        """The whole crash schedule and its consequences replay
        bit-identically under a fixed plan seed."""

        def fingerprint():
            _, _, system, driver, records = _crash_run(engine, seed=21)
            return (
                [r.status for r in records],
                [round(r.latency, 12) for r in records],
                [r.retries for r in records],
                driver.node_crashes_fired,
            )

        assert fingerprint() == fingerprint()

    def test_crashed_node_containers_destroyed(self):
        env, cluster, system, driver, records = _crash_run("worker")
        node = cluster.node("worker-1")
        assert node.containers.node_failures == 1
        assert node.up  # recovered by the end of the run

    @pytest.mark.parametrize(
        "engine", ["master", "worker", "dataflow"], ids=["MSP", "WSP", "DSP"]
    )
    def test_degradation_window_slows_but_never_kills(self, engine):
        """A brown-out over every NIC while bulk data is in flight: flows
        re-share mid-transfer and slow down, no invocation fails."""
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=3, container=ContainerSpec(cold_start_time=0.1)
            ),
        )
        from repro.workloads import build

        dag = build("genome")
        placement = hash_partition(dag, cluster.worker_names())
        config = EngineConfig(ship_data=True)
        if engine == "master":
            system = HyperFlowServerlessSystem(cluster, config)
            system.register(dag, placement)
        else:
            system_class = FaaSFlowSystem if engine == "worker" else DataflowSystem
            system = system_class(cluster, config)
            system.deploy(dag, placement)
        window = NetworkDegradation(start=0.5, duration=5.0, factor=0.2)
        original = {
            name: nic.bandwidth for name, nic in cluster.network.nics.items()
        }
        driver = FaultDriver(cluster, FaultPlan(degradations=(window,))).attach(
            system
        )
        driver.start()
        records = run_closed_loop(system, dag.name, 3)
        drain(env)
        assert driver.degradations_fired == 1
        assert all(r.status == InvocationStatus.OK for r in records)
        # Bandwidths restored after the window.
        for worker in cluster.workers:
            assert worker.nic.bandwidth == cluster.config.worker.bandwidth
        end = window.start + window.duration
        overlapping = [
            t
            for t in cluster.network.records
            if t.kind == "flow" and t.started_at < end and t.finished_at > window.start
        ]
        # Slower than the same bytes alone on the degraded bottleneck:
        # contention alone, without the window, stays below that bound.
        assert any(
            t.duration
            > t.size / (window.factor * min(original[t.src], original[t.dst]))
            for t in overlapping
        )
        # Some flows are still in flight when the restore re-shares them.
        assert any(t.finished_at > end for t in overlapping)


class TestBackoffIntegration:
    def test_backoff_adds_latency_on_crashed_paths(self, env, cluster):
        def run_with(base):
            local_env = Environment()
            local_cluster = Cluster(
                local_env,
                ClusterConfig(
                    workers=3, container=ContainerSpec(cold_start_time=0.1)
                ),
            )
            class CrashTwice(FaultInjector):
                def __init__(self):
                    super().__init__(default_rate=0.0)
                    self.remaining = 2

                def should_crash(self, function):
                    if self.remaining > 0:
                        self.remaining -= 1
                        self.injected += 1
                        return True
                    return False

            dag = linear_dag(n=2)
            system = FaaSFlowSystem(
                local_cluster,
                EngineConfig(
                    ship_data=False, max_retries=3,
                    retry_backoff_base=base, retry_jitter=0.0,
                ),
                faults=CrashTwice(),
            )
            system.deploy(dag, all_on(dag, "worker-0"))
            record = run_closed_loop(system, "lin", 1)[0]
            return record

        fast = run_with(0.0)
        slow = run_with(0.5)
        assert fast.status == slow.status == InvocationStatus.OK
        assert fast.retries == slow.retries == 2
        # Two retries with delays 0.5 and 1.0 vs zero backoff.
        assert slow.latency == pytest.approx(fast.latency + 1.5, abs=0.05)


class TestRetryConfigValidation:
    """Satellite: jitter without a backoff base is a silent no-op in
    the delay formula — the config must say so at construction."""

    def test_zero_base_nonzero_jitter_warns(self):
        with pytest.warns(UserWarning, match="retry_jitter > 0 has no effect"):
            config = EngineConfig(retry_backoff_base=0.0, retry_jitter=0.5)
        # Behavior is pinned, not changed: delays stay 0.
        policy = RetryPolicy.from_config(config)
        assert policy.delay(1) == 0.0
        assert policy.delay(5) == 0.0

    def test_positive_base_with_jitter_is_silent(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            EngineConfig(retry_backoff_base=0.2, retry_jitter=0.5)

    def test_zero_jitter_zero_base_is_silent(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            EngineConfig(retry_backoff_base=0.0, retry_jitter=0.0)
