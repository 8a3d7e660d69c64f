"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    StopProcess,
)


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_timeout_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_deadline_sets_now(self, env):
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_deadline_processes_earlier_events(self, env):
        fired = []
        t = env.timeout(2.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5.0)
        assert fired == [2.0]

    def test_run_until_past_deadline_is_noop(self, env):
        env.run(until=5.0)
        env.run(until=1.0)
        assert env.now == 5.0

    def test_back_to_back_run_until_never_rewinds(self, env):
        # Regression: a prior run(until=...) sets now to its deadline; a
        # later call with a smaller deadline must not rewind the clock or
        # disturb still-pending events.
        fired = []
        t = env.timeout(8.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=6.0)
        assert env.now == 6.0
        env.run(until=2.0)
        assert env.now == 6.0
        assert fired == []
        env.run(until=10.0)
        assert env.now == 10.0
        assert fired == [8.0]

    def test_peek_empty_queue(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)


class TestEvent:
    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed("payload")
        env.run()
        assert ev.processed
        assert ev.value == "payload"
        assert ev.ok is True

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callbacks_fire_in_registration_order(self, env):
        order = []
        ev = env.event()
        ev.callbacks.append(lambda e: order.append(1))
        ev.callbacks.append(lambda e: order.append(2))
        ev.succeed()
        env.run()
        assert order == [1, 2]


class TestProcess:
    def test_simple_process_runs(self, env):
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [1.0, 3.0]

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 99

        p = env.process(proc(env))
        assert env.run(until=p) == 99

    def test_process_waits_on_process(self, env):
        def child(env):
            yield env.timeout(5.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        p = env.process(parent(env))
        assert env.run(until=p) == "child-result"
        assert env.now == 5.0

    def test_yield_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()

        def proc(env):
            value = yield ev
            return value

        p = env.process(proc(env))
        assert env.run(until=p) == "early"

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as error:
                return f"caught {error}"

        p = env.process(waiter(env))
        assert env.run(until=p) == "caught boom"

    def test_unhandled_crash_surfaces(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("unseen")

        env.process(failing(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_yield_non_event_rejected(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_stop_process_exits_early(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise StopProcess("stopped")
            yield env.timeout(100.0)  # pragma: no cover

        p = env.process(proc(env))
        assert env.run(until=p) == "stopped"
        assert env.now == 1.0

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(env, name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((name, env.now))

        env.process(ticker(env, "a", 1.0))
        env.process(ticker(env, "b", 1.5))
        env.run()
        # At t=3.0 both tick; "b" scheduled its t=3.0 timeout first
        # (at t=1.5) so same-time FIFO order puts it ahead of "a".
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return interrupt.cause

        def attacker(env, target):
            yield env.timeout(1.0)
            target.interrupt("preempted")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        assert env.run(until=v) == "preempted"
        assert env.now == 1.0

    def test_interrupt_finished_process_rejected(self, env):
        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_ends_process(self, env):
        def victim(env):
            yield env.timeout(100.0)

        def attacker(env, target):
            yield env.timeout(1.0)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run(until=v)
        assert not v.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1, t2 = env.timeout(1.0, "one"), env.timeout(3.0, "two")

        def proc(env):
            results = yield env.all_of([t1, t2])
            return sorted(results.values())

        p = env.process(proc(env))
        assert env.run(until=p) == ["one", "two"]
        assert env.now == 3.0

    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(1.0, "fast"), env.timeout(3.0, "slow")

        def proc(env):
            results = yield env.any_of([t1, t2])
            return list(results.values())

        p = env.process(proc(env))
        assert env.run(until=p) == ["fast"]
        assert env.now == 1.0

    def test_empty_all_of_fires_immediately(self, env):
        def proc(env):
            yield env.all_of([])
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 0.0

    def test_all_of_fails_fast(self, env):
        ev = env.event()

        def failer(env, target):
            yield env.timeout(1.0)
            target.fail(RuntimeError("dead"))

        def proc(env):
            try:
                yield env.all_of([ev, env.timeout(10.0)])
            except RuntimeError:
                return env.now

        env.process(failer(env, ev))
        p = env.process(proc(env))
        assert env.run(until=p) == 1.0


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self, env):
        t = env.timeout(2.0, "done")
        assert env.run(until=t) == "done"

    def test_run_until_never_fires_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_run_until_failed_event_raises_its_error(self, env):
        def failer(env, target):
            yield env.timeout(1.0)
            target.fail(KeyError("missing"))

        ev = env.event()
        env.process(failer(env, ev))
        with pytest.raises(KeyError):
            env.run(until=ev)


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []
        for i in range(10):
            t = env.timeout(1.0)
            t.callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == list(range(10))

    def test_repeat_run_is_identical(self):
        def trace():
            env = Environment()
            log = []

            def worker(env, name):
                for i in range(5):
                    yield env.timeout(0.1 * (hash(name) % 7 + 1))
                    log.append((name, round(env.now, 6)))

            for name in ["a", "b", "c"]:
                env.process(worker(env, name))
            env.run()
            return log

        assert trace() == trace()


class TestUnwatchedExit:
    """A process nobody waits on completes in place, off the queue."""

    def test_unwatched_exit_leaves_no_queue_entry(self, env):

        def quick(env):
            return 7
            yield  # pragma: no cover - makes this a generator

        proc = env.process(quick(env))
        env.step()  # the bootstrap resume runs the generator to its end
        assert proc.processed and proc.ok and proc.value == 7
        assert env.queued_events == 0

    def test_late_waiter_gets_value_in_same_timestep(self, env):
        seen = []

        def child(env):
            yield env.timeout(1.0)
            return "done"

        def parent(env, proc):
            yield env.timeout(1.0)
            assert proc.processed  # exited before anyone waited on it
            value = yield proc
            seen.append((env.now, value))

        proc = env.process(child(env))
        env.process(parent(env, proc))
        env.run()
        assert seen == [(1.0, "done")]

    def test_unwatched_crash_still_raises(self, env):

        def crasher(env):
            yield env.timeout(1.0)
            raise KeyError("boom")

        env.process(crasher(env))
        with pytest.raises(SimulationError) as info:
            env.run()
        assert isinstance(info.value.__cause__, KeyError)


class TestEventQueue:
    """The heap's total order, exact injection, and tombstone handling."""

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=120,
        ),
        at_mask=st.lists(st.booleans(), min_size=1, max_size=120),
    )
    def test_same_timestamp_events_fire_in_eid_order(self, times, at_mask):
        # Duplicate roughly half the times so ties are common, and mix
        # relative (timeout) with absolute (schedule_at) scheduling.
        times = times + times[: len(times) // 2]
        env = Environment()
        fired = []
        for tag, when in enumerate(times):
            if at_mask[tag % len(at_mask)]:
                event = env.schedule_at(when)
            else:
                event = env.timeout(when)
            event.callbacks.append(lambda _e, t=tag: fired.append(t))
        env.run()
        assert sorted(fired) == list(range(len(times)))
        # Time order overall; ties fire in eid (creation) order.
        assert [(times[t], t) for t in fired] == sorted(
            (when, t) for t, when in enumerate(times)
        )

    def test_schedule_at_exact_injection(self, env):
        """Events injected at exact absolute timestamps (how transfer
        plans start their flows) interleave correctly with local timers
        scheduled before and after them."""
        fired = []
        env.timeout(2.0).callbacks.append(lambda _e: fired.append("local-2"))
        env.schedule_at(1.5).callbacks.append(lambda _e: fired.append("inj-1.5"))
        env.schedule_at(2.0).callbacks.append(lambda _e: fired.append("inj-2a"))
        env.timeout(2.0).callbacks.append(lambda _e: fired.append("local-2b"))
        env.schedule_at(2.0).callbacks.append(lambda _e: fired.append("inj-2c"))
        env.run()
        # t=2.0 ties resolve strictly by creation (eid) order.
        assert fired == ["inj-1.5", "local-2", "inj-2a", "local-2b", "inj-2c"]
        assert env.now == 2.0

    def test_final_drain_time_ignores_tombstones(self, env):
        env.timeout(1.0)
        late = env.timeout(50.0)
        late.cancel()
        env.run()
        assert env.now == 1.0

    def test_step_and_until_event_paths(self, env):
        fired = []
        env.timeout(1.0).callbacks.append(lambda _e: fired.append("a"))
        target = env.timeout(2.0)
        env.timeout(3.0).callbacks.append(lambda _e: fired.append("late"))
        env.step()
        assert fired == ["a"] and env.now == 1.0
        env.run(until=target)
        assert env.now == 2.0 and fired == ["a"]
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=env.event())

    def test_negative_times_rejected(self, env):
        env.timeout(1.0)
        env.run()
        assert env._timeout_pool  # the next timeout() takes the pooled path
        with pytest.raises(SimulationError, match=">= 0"):
            env.timeout(-0.5)

    def test_unschedulable_time_rejected(self, env):
        nan, inf = float("nan"), float("inf")
        assert not env._timeout_pool  # unpooled Timeout() path
        for bad in (nan, inf):
            with pytest.raises(SimulationError, match="finite and >= 0"):
                env.timeout(bad)
            with pytest.raises(SimulationError, match="cannot schedule"):
                env.schedule_at(bad)
        # Recycle a timeout so the pooled timeout() path is the one taken.
        env.timeout(1.0)
        env.run()
        assert env._timeout_pool
        for bad in (nan, inf):
            with pytest.raises(SimulationError, match="finite and >= 0"):
                env.timeout(bad)
        assert env.queued_events == 0
        # Nothing was queued, so the clock never jumps to infinity.
        env.timeout(1.0)
        env.run()
        assert env.now == 2.0


class TestTimeoutPooling:
    """_POOL_CAP recycling proves sole ownership before reusing a timeout."""

    def test_referenced_timeout_never_recycled(self, env):
        held = env.timeout(1.0)  # the test keeps this reference
        env.run()
        assert not env._timeout_pool or env._timeout_pool[0] is not held
        # A later timeout must be a fresh object, not `held` reused.
        fresh = env.timeout(1.0)
        assert fresh is not held

    def test_unreferenced_timeouts_are_pooled_and_reused(self, env):
        for _ in range(10):
            env.timeout(0.5)
        env.run()
        assert len(env._timeout_pool) == 10
        before = list(env._timeout_pool)
        again = env.timeout(0.5)
        assert again is before[-1]  # LIFO reuse from the free-list

    def test_cancelled_unreferenced_timeouts_are_pooled(self, env):
        for _ in range(8):
            env.timeout(5.0).cancel()
        env.timeout(6.0)
        env.run()
        # Tombstones dropped at pop still reach the free-list.
        assert len(env._timeout_pool) == 9

    def test_held_cancelled_timeout_not_pooled(self, env):
        held = env.timeout(5.0)
        held.cancel()
        env.timeout(6.0)
        env.run()
        assert held not in env._timeout_pool
        assert held.processed and not held.cancelled
