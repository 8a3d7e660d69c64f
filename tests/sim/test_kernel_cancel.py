"""Timeout cancellation semantics (lazy drop at heap pop)."""

import pytest

from repro.sim import Environment, SimulationError, Timeout


def test_cancelled_timeout_callbacks_never_run():
    env = Environment()
    fired = []
    timer = env.timeout(1.0)
    timer.callbacks.append(lambda ev: fired.append(ev))
    timer.cancel()
    env.run()
    assert fired == []
    # Tombstones never advance the clock: the final drain time is the
    # last *live* event's time (here: nothing), independent of
    # compaction timing.
    assert env.now == 0.0


def test_cancel_is_idempotent():
    env = Environment()
    timer = env.timeout(0.5)
    timer.cancel()
    timer.cancel()
    assert timer.cancelled
    env.run()


def test_cancel_after_processed_raises():
    env = Environment()
    timer = env.timeout(0.5)
    env.run()
    with pytest.raises(SimulationError, match="processed"):
        timer.cancel()


def test_cancelled_flag_resets_when_dropped():
    """After the drop, the event reads as processed-and-uncancelled so a
    pooled reuse starts clean."""
    env = Environment()
    timer = env.timeout(0.25)
    timer.cancel()
    assert timer.cancelled
    env.run()
    assert not timer.cancelled
    assert timer.processed


def test_uncancelled_timeouts_unaffected():
    env = Environment()
    fired = []
    keep = env.timeout(1.0, value="keep")
    keep.callbacks.append(lambda ev: fired.append(ev.value))
    drop = env.timeout(1.0, value="drop")
    drop.callbacks.append(lambda ev: fired.append(ev.value))
    drop.cancel()
    env.run()
    assert fired == ["keep"]


def test_process_waiting_on_cancelled_timeout_never_resumes():
    env = Environment()
    log = []

    def waiter(env, timer):
        yield timer
        log.append("resumed")

    timer = Timeout(env, 1.0)
    env.process(waiter(env, timer))
    env.run(until=0.0)  # bootstrap the process onto the timeout
    timer.cancel()
    env.run(until=5.0)
    assert log == []


def test_negative_delay_still_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Timeout(env, -1.0)


def test_cancelled_watchdogs_are_compacted_out_of_the_heap():
    """Long timers cancelled long before their deadline must not make
    the heap grow with throughput: past a threshold the environment
    rebuilds the queue without them."""
    env = Environment()
    for _ in range(500):
        watchdog = env.timeout(60.0)
        watchdog.cancel()
    assert env.queued_events < 130  # not 500
    env.run(until=1.0)  # and the survivors drop cleanly when popped
    assert env.now == 1.0


def test_compaction_keeps_live_timers():
    env = Environment()
    fired = []
    keep = env.timeout(30.0, value="keep")
    keep.callbacks.append(lambda ev: fired.append(ev.value))
    for _ in range(200):
        env.timeout(60.0).cancel()
    env.run(until=61.0)
    assert fired == ["keep"]


def test_double_cancel_counts_once():
    env = Environment()
    timer = env.timeout(10.0)
    timer.cancel()
    timer.cancel()  # no-op, and must not skew the compaction counter
    assert env._cancelled_timers == 1
    env.run(until=11.0)
    assert env._cancelled_timers == 0


def test_stale_resume_after_completion_is_dropped():
    """An interrupt that lands after the process's completion resume is
    already queued (yield on a processed event) must be discarded, not
    delivered into the exhausted generator."""
    env = Environment()
    log = []
    gate = env.event()
    gate.succeed("done")  # processed before anyone waits on it

    def waiter():
        yield env.timeout(0)
        # Yielding a processed event queues the resume instead of
        # delivering synchronously — the window the guard covers.
        value = yield gate
        log.append(value)

    proc = env.process(waiter())

    def racer():
        # Bootstrap ordering puts this after the waiter's re-entry, so
        # the interrupt is queued *behind* the pending value delivery.
        yield env.timeout(0)
        proc.interrupt("too late")

    env.process(racer())
    env.run(until=1.0)
    assert log == ["done"]
    assert proc.processed and proc.ok


def test_double_interrupt_same_timestep_is_safe():
    from repro.sim.kernel import Interrupt

    env = Environment()
    log = []

    def waiter():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append(interrupt.cause)

    proc = env.process(waiter())
    env.run(until=0.0)

    def racer():
        proc.interrupt("first")
        proc.interrupt("second")
        yield env.timeout(0)

    env.process(racer())
    env.run(until=1.0)
    # Only the first interrupt is delivered; the second hits a finished
    # process and is dropped.
    assert log == ["first"]
