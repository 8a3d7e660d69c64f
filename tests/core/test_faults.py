"""Tests for fault injection, retries, and failure propagation."""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    EngineConfig,
    FaaSFlowSystem,
    FaultInjector,
    FunctionFailure,
    HyperFlowServerlessSystem,
)
from repro.metrics import InvocationStatus

from .conftest import all_on, fanout_dag, linear_dag


class TestFaultInjector:
    def test_zero_rate_never_crashes(self):
        injector = FaultInjector(default_rate=0.0)
        assert not any(injector.should_crash("f") for _ in range(100))
        assert injector.injected == 0

    def test_full_rate_always_crashes(self):
        injector = FaultInjector(default_rate=1.0)
        assert all(injector.should_crash("f") for _ in range(10))
        assert injector.injected == 10

    def test_per_function_rates_override(self):
        injector = FaultInjector(default_rate=0.0, rates={"bad": 1.0})
        assert injector.should_crash("bad")
        assert not injector.should_crash("good")

    def test_deterministic_under_seed(self):
        a = FaultInjector(default_rate=0.5, seed=5)
        b = FaultInjector(default_rate=0.5, seed=5)
        assert [a.should_crash("f") for _ in range(50)] == [
            b.should_crash("f") for _ in range(50)
        ]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(default_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(rates={"f": -0.1})


class TestRetries:
    def test_transient_crash_is_retried_and_succeeds(self, env, cluster):
        """Crash the first attempt only: the retry must complete the
        invocation with no visible failure."""

        class CrashOnce(FaultInjector):
            def __init__(self):
                super().__init__(default_rate=0.0)
                self._armed = True

            def should_crash(self, function):
                if function == "f1" and self._armed:
                    self._armed = False
                    self.injected += 1
                    return True
                return False

        injector = CrashOnce()
        system = FaaSFlowSystem(
            cluster, EngineConfig(ship_data=False), faults=injector
        )
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == InvocationStatus.OK
        assert injector.injected == 1

    def test_crashed_container_is_destroyed(self, env, cluster):
        class CrashOnce(FaultInjector):
            def __init__(self):
                super().__init__(default_rate=0.0)
                self._armed = True

            def should_crash(self, function):
                if self._armed:
                    self._armed = False
                    return True
                return False

        system = FaaSFlowSystem(
            cluster, EngineConfig(ship_data=False), faults=CrashOnce()
        )
        dag = linear_dag(n=1)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == InvocationStatus.OK
        pool = cluster.node("worker-0").containers
        # Crash + retry = two cold starts, one survivor.
        assert pool.cold_starts == 2
        assert pool.count("f0") == 1

    def test_permanent_crash_fails_invocation(self, env, cluster):
        system = FaaSFlowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=2),
            faults=FaultInjector(rates={"f1": 1.0}),
        )
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == InvocationStatus.FAILED
        assert len(system.metrics.failures("lin")) == 1

    def test_failure_latency_is_time_of_failure(self, env, cluster):
        system = FaaSFlowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=0),
            faults=FaultInjector(rates={"f0": 1.0}),
        )
        dag = linear_dag(n=1, service_time=0.2)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == InvocationStatus.FAILED
        assert record.latency < system.config.execution_timeout

    def test_master_sp_fails_too(self, env, cluster):
        system = HyperFlowServerlessSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=1),
            faults=FaultInjector(rates={"b1": 1.0}),
        )
        dag = fanout_dag(branches=3)
        system.register(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "fan", 1)[0]
        assert record.status == InvocationStatus.FAILED

    def test_unaffected_functions_still_complete(self, env, cluster):
        """A failure in one branch doesn't corrupt later invocations."""
        system = FaaSFlowSystem(
            cluster,
            EngineConfig(ship_data=False, max_retries=0),
            faults=FaultInjector(rates={"b0": 1.0}),
        )
        dag = fanout_dag(branches=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        first = run_closed_loop(system, "fan", 1)[0]
        assert first.status == InvocationStatus.FAILED
        # Heal the fault and run again.
        system.runtime.faults = FaultInjector(default_rate=0.0)
        second = run_closed_loop(system, "fan", 1)[0]
        assert second.status == InvocationStatus.OK

    def test_retry_accounting_in_result(self, env, cluster):
        from repro.core import Placement, RemoteStorePolicy
        from repro.core.runtime import FunctionRuntime
        from repro.metrics import MetricsCollector

        class CrashTwice(FaultInjector):
            def __init__(self):
                super().__init__(default_rate=0.0)
                self.remaining = 2

            def should_crash(self, function):
                if self.remaining > 0:
                    self.remaining -= 1
                    return True
                return False

        metrics = MetricsCollector()
        runtime = FunctionRuntime(
            cluster,
            EngineConfig(ship_data=False, max_retries=2),
            RemoteStorePolicy(cluster, metrics),
            faults=CrashTwice(),
        )
        dag = linear_dag(n=1)
        placement = all_on(dag, "worker-0")
        result = env.run(
            until=env.process(runtime.execute(dag, placement, 1, "f0"))
        )
        assert result.retries == 2

    def test_retries_exhausted_raises(self, env, cluster):
        from repro.core import RemoteStorePolicy
        from repro.core.runtime import FunctionRuntime
        from repro.metrics import MetricsCollector

        runtime = FunctionRuntime(
            cluster,
            EngineConfig(ship_data=False, max_retries=1),
            RemoteStorePolicy(cluster, MetricsCollector()),
            faults=FaultInjector(default_rate=1.0),
        )
        dag = linear_dag(n=1)
        placement = all_on(dag, "worker-0")
        with pytest.raises(FunctionFailure):
            env.run(until=env.process(runtime.execute(dag, placement, 1, "f0")))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_retries=-1)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="execution_timeout"):
                EngineConfig(execution_timeout=bad)
            with pytest.raises(ValueError, match="function_timeout"):
                EngineConfig(function_timeout=bad)
