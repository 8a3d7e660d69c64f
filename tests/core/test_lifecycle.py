"""The shared invocation lifecycle (``repro.core.lifecycle``) on all
three engines: outcome resolution, the execution-timeout watchdog,
cleanup, and the close into telemetry."""

import pytest

from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
)
from repro.metrics import InvocationStatus
from repro.obs.telemetry import MetricsRegistry, find_metrics

from .conftest import all_on, fanout_dag, linear_dag

ENGINES = {
    "master": (HyperFlowServerlessSystem, "master-sp"),
    "worker": (FaaSFlowSystem, "worker-sp"),
    "dataflow": (DataflowSystem, "dataflow"),
}

pytestmark = pytest.mark.parametrize("engine", sorted(ENGINES))


def drain(env):
    """Flush every event scheduled for the current timestep."""
    env.run(until=env.now)


def make_system(engine, cluster, dag, **config):
    system_class, _ = ENGINES[engine]
    system = system_class(cluster, EngineConfig(ship_data=False, **config))
    placement = all_on(dag, "worker-0")
    if engine == "master":
        system.register(dag, placement)
    else:
        system.deploy(dag, placement)
    return system


def run_one(env, system, workflow, delay=0.0, during=None):
    """Invoke ``workflow`` after ``delay``; ``during(context)`` runs
    ``delay + 0.01`` seconds in, while the invocation is in flight."""
    seen = {}

    def client():
        yield env.timeout(delay)
        proc = env.process(system.invoke(workflow))
        if during is not None:
            yield env.timeout(0.01)
            (invocation_id,) = system._contexts
            seen["context"] = system.context(invocation_id)
            during(seen["context"])
        seen["record"] = yield proc

    env.run(until=env.process(client()))
    drain(env)
    return seen


@pytest.mark.parametrize("fail_first", [False, True])
def test_same_timestep_failure_wins(env, cluster, engine, fail_first):
    """A failure and the last completion in one timestep: FAILED, in
    either order."""
    system = make_system(engine, cluster, linear_dag(n=2))

    def race(context):
        if fail_first:
            context.fail("f1")
        for _ in range(context.remaining):
            context.complete_one()
        if not fail_first:
            context.fail("f1")

    seen = run_one(env, system, "lin", during=race)
    record = seen["record"]
    assert record.status == InvocationStatus.FAILED
    assert record.finished_at == pytest.approx(0.01)
    assert seen["context"].failed == "f1"
    assert system.in_flight == 0
    assert system.registry.live_count == 0


def test_timeout_ends_at_the_deadline(env, cluster, engine):
    """A timed-out invocation ends exactly ``execution_timeout`` after
    it started, and leaves nothing in flight."""
    system = make_system(
        engine, cluster, fanout_dag(branches=6), execution_timeout=0.2
    )
    record = run_one(env, system, "fan", delay=0.05)["record"]
    assert record.status == InvocationStatus.TIMEOUT
    assert record.started_at == 0.05
    assert record.finished_at == record.started_at + 0.2
    assert system.in_flight == 0
    assert system.peak_in_flight == 1
    assert system.registry.live_count == 0
    assert not system._contexts


def test_ok_completion_cancels_the_watchdog(env, cluster, engine):
    """After an OK completion no live watchdog timer stays queued."""
    system = make_system(engine, cluster, linear_dag(n=2))
    seen = run_one(env, system, "lin", during=lambda context: None)
    assert seen["record"].status == InvocationStatus.OK
    deadline = seen["context"]._deadline
    live = [
        event
        for _, _, event in env._queue
        if not getattr(event, "cancelled", False)
        and deadline in event.callbacks
    ]
    assert live == []
    assert system.in_flight == 0
    assert system.registry.live_count == 0


def test_tenants_and_engine_label_reach_telemetry(env, cluster, engine):
    registry = MetricsRegistry(clock=lambda: env.now)
    cluster.install_telemetry(registry)
    system = make_system(engine, cluster, linear_dag(n=2))
    system.set_tenants({"lin": "acme"})
    assert system.tenant_of("lin") == "acme"
    assert system.tenant_of("other") == system.config.tenant
    run_one(env, system, "lin")
    entries = find_metrics(registry.snapshot(), "workflow.invocations")
    assert [entry["labels"] for entry in entries] == [
        {
            "tenant": "acme",
            "workflow": "lin",
            "engine": ENGINES[engine][1],
            "status": InvocationStatus.OK,
        }
    ]
