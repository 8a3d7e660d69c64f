"""Control hops under abort and crash, on all three engines.

A control hop carries one state update (WorkerSP) or token
(DataflowSP) to its destination engine: the message is in flight, then
the engine takes one step (under the engine lock on WorkerSP), then
the update is applied.  These tests abort the invocation while its hop
is in each of those states and pin what must happen at the abort
instant: the lock is freed or handed on at once, not when the step
timer would have fired, the update is never applied, and nothing of
the invocation stays registered.  A crash test pins the recovery
replay: every deferred entry pays exactly one engine step.

MasterSP's per-function task runs on the same chain (engine step,
assign message, execution, result message, engine step under the
master's lock); its tests abort it in each hop state and crash its
worker mid-execution.

Times come from a traced calibration run of the same deterministic
workload: the hop's ``state-sync`` span starts when the message is sent
and ends when it lands.
"""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    CancelCause,
    CancelKind,
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultPlan,
    HyperFlowServerlessSystem,
    NodeCrash,
    Placement,
)
from repro.metrics import InvocationStatus
from repro.obs import SpanKind
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from ..span_oracle import install_spans
from .conftest import fanout_dag, linear_dag

SYSTEMS = {"worker": FaaSFlowSystem, "dataflow": DataflowSystem}
ABORT = CancelCause(CancelKind.INVOCATION_ABORT, detail="test")


def _system(engine, dag, placement, traced=False, **config):
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=2, container=ContainerSpec(cold_start_time=0.1)),
    )
    spans = install_spans(cluster) if traced else None
    config.setdefault("ship_data", False)
    system = SYSTEMS[engine](cluster, EngineConfig(**config))
    system.deploy(dag, Placement(workflow=dag.name, assignment=placement))
    return env, system, spans


def _chain(engine, traced=False):
    """f0 on worker-0 sends one remote hop to f1 on worker-1."""
    return _system(
        engine,
        linear_dag(n=2),
        {"f0": "worker-0", "f1": "worker-1"},
        traced=traced,
    )


def _hop_times(engine):
    """(sent, landed) of the f0 -> f1 hop, read off a traced run."""
    env, system, spans = _chain(engine, traced=True)
    record = run_closed_loop(system, "lin", 1)[0]
    assert record.status == InvocationStatus.OK
    (hop,) = [
        span
        for span in spans.of_kind(SpanKind.STATE_SYNC)
        if span.function == "f1" and span.node == "worker-0"
    ]
    assert hop.start < hop.end
    return hop.start, hop.end


def _step_time(system):
    config = system.config
    if isinstance(system, DataflowSystem):
        return config.dataflow_trigger_time
    return config.worker_process_time


def _spy_applies(engine):
    """Log every state update the engine applies, by invocation."""
    applied = []
    apply = engine._apply_state_update

    def spy(structure, entry, invocation_id):
        applied.append((invocation_id, entry.name))
        apply(structure, entry, invocation_id)

    engine._apply_state_update = spy
    return applied


def _lock_user(env, lock, start, hold, log):
    """A rival of the hop for the engine lock: request at ``start``."""
    yield env.timeout(start)
    with lock.request() as request:
        yield request
        log.append(("granted", env.now))
        yield env.timeout(hold)
    log.append(("released", env.now))


class TestAbortedHop:
    """Abort an invocation while its control hop is in flight, queued on
    the engine lock, or inside its engine step."""

    def _abort(self, engine, at, rival=None):
        """Run the chain and abort the invocation at ``at``.

        ``rival`` is ``(start, hold)`` for a process competing for
        worker-1's engine lock.  Checks what every abort must leave
        behind.  Returns the destination engine, the rival's log and
        the lock's ``(in_use, queue_length)`` just before the abort and
        once the abort instant has drained (None on DataflowSP).
        """
        env, system, _ = _chain(engine)
        dest = system.engine("worker-1")
        applied = _spy_applies(dest)
        log = []
        if rival is not None:
            env.process(_lock_user(env, dest._lock, *rival, log))
        invoke = env.process(system.invoke("lin"))
        env.run(until=at)
        lock = dest._lock
        before = lock and (lock.in_use, lock.queue_length)
        (invocation_id,) = system._contexts
        assert system.registry.live(invocation_id)
        system.registry.cancel_invocation(invocation_id, ABORT)
        env.run(until=at)  # drain the abort instant
        after = lock and (lock.in_use, lock.queue_length)
        assert system.registry.live_count == 0
        record = env.run(until=invoke)
        env.run()
        assert record.status == InvocationStatus.TIMEOUT
        assert applied == []
        assert dest.events_handled == 0
        assert system.registry.live_count == 0
        if lock is not None:
            assert (lock.in_use, lock.queue_length) == (0, 0)
        return dest, log, (before, after)

    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    def test_message_in_flight(self, engine):
        sent, landed = _hop_times(engine)
        dest, _, _ = self._abort(engine, (sent + landed) / 2)
        assert dest.states_synced == 0

    def test_queued_on_busy_lock(self):
        _, landed = _hop_times("worker")
        step = EngineConfig().worker_process_time
        at = landed + step / 2
        # The rival holds the lock across the landing, so the hop queues.
        _, log, lock = self._abort(
            "worker", at, rival=(landed - step, 4 * step)
        )
        # Withdrawn from the queue at the abort instant; the rival keeps
        # the lock until its own release.
        assert lock == ((1, 1), (1, 0))
        assert log == [
            ("granted", landed - step),
            ("released", landed + 3 * step),
        ]

    def test_holding_lock_hands_it_on_at_the_abort(self):
        _, landed = _hop_times("worker")
        step = EngineConfig().worker_process_time
        at = landed + step / 2
        # The rival queues behind the hop's step and must get the lock
        # at the abort instant, not when the step timer fires.
        dest, log, lock = self._abort(
            "worker", at, rival=(landed + step / 4, step)
        )
        assert lock == ((1, 1), (1, 0))
        assert log == [("granted", at), ("released", at + step)]
        assert dest.states_synced == 1

    def test_dataflow_abort_inside_step(self):
        _, landed = _hop_times("dataflow")
        step = EngineConfig().dataflow_trigger_time
        dest, _, _ = self._abort("dataflow", landed + step / 2)
        assert dest.states_synced == 1

    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    def test_unaborted_hop_pays_one_step(self, engine):
        env, system, _ = _chain(engine)
        dest = system.engine("worker-1")
        applied = _spy_applies(dest)
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == InvocationStatus.OK
        assert applied == [(record.invocation_id, "f1")]
        assert dest.events_handled == 1
        assert dest.busy_time == pytest.approx(_step_time(system))
        assert system.registry.live_count == 0


class TestRegistryWithHops:
    def _in_flight(self, engine):
        sent, landed = _hop_times(engine)
        env, system, _ = _chain(engine)
        invoke = env.process(system.invoke("lin"))
        env.run(until=(sent + landed) / 2)
        (invocation_id,) = system._contexts
        (hop,) = system.registry.live(invocation_id)
        return env, system, invoke, invocation_id, hop, landed

    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    def test_live_lists_pending_hop_then_drops_it(self, engine):
        env, system, invoke, invocation_id, hop, landed = self._in_flight(
            engine
        )
        assert hop.is_alive
        env.run(until=landed + _step_time(system))
        assert not hop.is_alive
        assert hop not in system.registry.live(invocation_id)
        # f1's trigger handler is what is live now.
        assert system.registry.live(invocation_id)
        record = env.run(until=invoke)
        assert record.status == InvocationStatus.OK

    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    @pytest.mark.parametrize("node", ["worker-0", "worker-1"])
    def test_cancel_node_spares_invocation_bound_hop(self, engine, node):
        env, system, invoke, invocation_id, hop, _ = self._in_flight(engine)
        cause = CancelCause(CancelKind.NODE_STOP, detail=node)
        assert system.registry.cancel_node(node, cause) == 0
        assert hop.is_alive
        record = env.run(until=invoke)
        assert record.status == InvocationStatus.OK
        assert system.registry.live_count == 0

    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    def test_second_interrupt_is_a_no_op(self, engine):
        env, system, invoke, invocation_id, hop, _ = self._in_flight(engine)
        dest = system.engine("worker-1")
        applied = _spy_applies(dest)
        hop.interrupt(ABORT)
        hop.interrupt(ABORT)
        env.run(until=env.now)
        assert not hop.is_alive
        record = env.run(until=invoke)
        env.run()
        assert record.status == InvocationStatus.TIMEOUT
        assert applied == []
        assert dest.events_handled == 0
        assert system.registry.live_count == 0


class TestCrashReplay:
    @pytest.mark.parametrize("engine", sorted(SYSTEMS))
    @pytest.mark.parametrize("batch_control", [False, True])
    def test_each_deferred_entry_pays_one_step(self, engine, batch_control):
        # head (worker-0) fans out to three branches on worker-1, which
        # is down when the updates land; tail is back on worker-0.
        dag = fanout_dag(branches=3)
        placement = {name: "worker-1" for name in dag.node_names}
        placement["head"] = placement["tail"] = "worker-0"
        env, system, _ = _system(
            engine, dag, placement, batch_control=batch_control
        )
        dest = system.engine("worker-1")
        recovery_at = 2.0
        plan = FaultPlan(
            node_crashes=[
                NodeCrash(node="worker-1", at=0.001, recovery=recovery_at - 0.001)
            ]
        )
        FaultDriver(system.cluster, plan).attach(system).start()
        invoke = env.process(system.invoke("fan"))
        env.run(until=recovery_at - 0.5)
        assert dest.down
        deferred = len(dest._deferred)
        assert deferred == 3
        assert dest.events_handled == 0
        record = env.run(until=invoke)
        assert record.status == InvocationStatus.OK
        # Nothing but the replays steps worker-1's engine: the branches
        # report to tail on worker-0.
        assert dest.events_handled == deferred
        assert dest.busy_time == pytest.approx(deferred * _step_time(system))
        # worker-0: the invocation request, then one update per branch.
        assert system.engine("worker-0").events_handled == 1 + 3
        env.run()
        assert system.registry.live_count == 0


def _master(traced=False):
    """MasterSP running one function, f0, on worker-1."""
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=2, container=ContainerSpec(cold_start_time=0.1)),
    )
    spans = install_spans(cluster) if traced else None
    system = HyperFlowServerlessSystem(cluster, EngineConfig(ship_data=False))
    dag = linear_dag(n=1, service_time=0.5)
    system.register(
        dag, Placement(workflow=dag.name, assignment={"f0": "worker-1"})
    )
    return env, system, spans


def _master_times():
    """(sent, landed) of f0's assign and result messages, traced."""
    _, system, spans = _master(traced=True)
    record = run_closed_loop(system, "lin", 1)[0]
    assert record.status == InvocationStatus.OK
    hops = {
        span.attrs["role"]: (span.start, span.end)
        for span in spans.of_kind(SpanKind.STATE_SYNC)
    }
    assert sorted(hops) == ["assign", "result"]
    return hops["assign"], hops["result"]


class TestMasterTask:
    """MasterSP's task is the same chain: abort it in every hop state,
    crash its worker mid-execution."""

    def _abort(self, at, rival=None):
        """Run f0 and abort the invocation at ``at``.

        ``rival`` is ``(start, hold)`` for a process competing for the
        master's engine lock.  Checks what every abort must leave
        behind and returns the record, the engine steps taken before
        the abort, the rival's log and the lock's ``(in_use,
        queue_length)`` just before the abort and once the abort
        instant has drained.
        """
        env, system, _ = _master()
        lock = system._lock
        log = []
        if rival is not None:
            env.process(_lock_user(env, lock, *rival, log))
        invoke = env.process(system.invoke("lin"))
        env.run(until=at)
        before = (lock.in_use, lock.queue_length)
        steps = system.events_handled
        (invocation_id,) = system._contexts
        assert system.registry.live(invocation_id)
        system.registry.cancel_invocation(invocation_id, ABORT)
        env.run(until=at)  # drain the abort instant
        after = (lock.in_use, lock.queue_length)
        assert system.registry.live_count == 0
        record = env.run(until=invoke)
        env.run()
        assert record.status == InvocationStatus.TIMEOUT
        assert system.events_handled == steps
        assert system.registry.live_count == 0
        assert (lock.in_use, lock.queue_length) == (0, 0)
        return record, steps, log, (before, after)

    def test_assign_in_flight(self):
        (sent, landed), _ = _master_times()
        record, steps, _, _ = self._abort((sent + landed) / 2)
        assert steps == 1
        assert record.cold_starts == 0  # the worker never executed f0

    def test_result_in_flight(self):
        _, (sent, landed) = _master_times()
        record, steps, _, _ = self._abort((sent + landed) / 2)
        assert steps == 1
        assert record.cold_starts == 1

    def test_queued_on_busy_lock(self):
        _, (_, landed) = _master_times()
        step = EngineConfig().master_process_time
        at = landed + step / 2
        # The rival holds the lock across the landing, so the task's
        # second step queues.
        _, steps, log, lock = self._abort(at, rival=(landed - step, 4 * step))
        assert steps == 1
        # Withdrawn from the queue at the abort instant; the rival keeps
        # the lock until its own release.
        assert lock == ((1, 1), (1, 0))
        assert log == [
            ("granted", landed - step),
            ("released", landed + 3 * step),
        ]

    def test_holding_lock_hands_it_on_at_the_abort(self):
        _, (_, landed) = _master_times()
        step = EngineConfig().master_process_time
        at = landed + step / 2
        # The rival queues behind the task's second step and must get
        # the lock at the abort instant, not when the step timer fires.
        _, steps, log, lock = self._abort(at, rival=(landed + step / 4, step))
        assert steps == 1
        assert lock == ((1, 1), (1, 0))
        assert log == [("granted", at), ("released", at + step)]

    def test_abort_before_the_entry_link_runs(self):
        """Aborted in the instant it is triggered, the task still takes
        its queued entry link, as a spawned process would run its first
        segment, and gives the lock back at the abort."""
        env, system, _ = _master()
        invoke = env.process(system.invoke("lin"))
        env.step()  # the invocation launches: f0's entry link is queued
        (invocation_id,) = system._contexts
        assert system.registry.cancel_invocation(invocation_id, ABORT) == 1
        env.run(until=env.now)
        assert system.registry.live_count == 0
        record = env.run(until=invoke)
        env.run()
        assert record.status == InvocationStatus.TIMEOUT
        assert system.events_handled == 0
        assert system.messages_sent == 0
        assert (system._lock.in_use, system._lock.queue_length) == (0, 0)

    @pytest.mark.parametrize("hop", ["assign", "result"])
    def test_cancel_node_spares_the_task_between_executions(self, hop):
        times = dict(zip(("assign", "result"), _master_times()))
        sent, landed = times[hop]
        env, system, _ = _master()
        invoke = env.process(system.invoke("lin"))
        env.run(until=(sent + landed) / 2)
        (invocation_id,) = system._contexts
        (task,) = system.registry.live(invocation_id)
        for node in ("worker-0", "worker-1"):
            cause = CancelCause(CancelKind.NODE_CRASH, detail=node)
            assert system.registry.cancel_node(node, cause) == 0
        assert task.is_alive
        record = env.run(until=invoke)
        assert record.status == InvocationStatus.OK
        assert system.registry.live_count == 0

    def test_worker_crash_mid_execution_retries(self):
        (_, assigned), (returned, _) = _master_times()
        env, system, spans = _master(traced=True)
        crash_at = (assigned + returned) / 2
        plan = FaultPlan(
            node_crashes=[NodeCrash(node="worker-1", at=crash_at, recovery=0.5)]
        )
        FaultDriver(system.cluster, plan).attach(system).start()
        invoke = env.process(system.invoke("lin"))
        env.run(until=crash_at)
        (invocation_id,) = system._contexts
        (task,) = system.registry.live(invocation_id)
        record = env.run(until=invoke)
        env.run()
        # The crash killed the attempt, not the task: the execution
        # retried on the recovered worker and both hops still ran.
        assert record.status == InvocationStatus.OK
        assert record.retries >= 1
        assert record.finished_at > crash_at + 0.5
        assert not task.is_alive
        assert system.events_handled == 2
        assert system.messages_sent == 2
        assert system.registry.live_count == 0
        (execution,) = [
            span
            for span in spans.of_kind(SpanKind.FUNCTION)
            if span.function == "f0"
        ]
        assert execution.status == "ok"
