"""peek() vs lazily-cancelled timeouts, and the compaction threshold.

``Timeout.cancel()`` drops timers lazily (the heap entry stays until it
surfaces or compaction sweeps it), which used to let ``peek()`` report a
time that would never fire.  Any caller that steps to the next real
event or treats ``peek() == inf`` as "drained" would then wait on a
timer that never fires.  These tests pin the repaired contract, plus the heap's
``TIMER_COMPACTION_THRESHOLD`` and its behavior under container
keep-alive churn (the workload that generates cancelled timers by the
hundreds).
"""

import random

from repro.sim import sched
from repro.sim.container import ContainerPool, ContainerSpec
from repro.sim.kernel import Environment
from repro.sim.resources import CPUAllocator, MemoryAccount

MB = 1024.0 * 1024.0
INF = float("inf")


class TestPeekSkipsCancelled:
    def test_cancelled_head_is_skipped(self):
        env = Environment()
        first = env.timeout(1.0)
        env.timeout(2.0)
        first.cancel()
        assert env.peek() == 2.0

    def test_run_of_cancelled_heads_is_skipped(self):
        env = Environment()
        doomed = [env.timeout(t) for t in (1.0, 1.5, 2.0)]
        env.timeout(3.0)
        for timer in doomed:
            timer.cancel()
        assert env.peek() == 3.0

    def test_all_cancelled_reports_inf(self):
        env = Environment()
        timers = [env.timeout(t) for t in (1.0, 2.0, 3.0)]
        for timer in timers:
            timer.cancel()
        assert env.peek() == INF
        # The retired entries are really gone, not just skipped over.
        assert env.queued_events == 0
        assert env._cancelled_timers == 0

    def test_live_head_untouched(self):
        env = Environment()
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.peek() == 1.0
        assert env.queued_events == 2

    def test_peek_matches_next_fire_time(self):
        """Property: after arbitrary cancels, peek() == time of the next
        event that actually fires."""
        rng = random.Random(7)
        for _ in range(30):
            env = Environment()
            timers = [env.timeout(rng.uniform(0.1, 10.0)) for _ in range(20)]
            for timer in rng.sample(timers, rng.randrange(1, 20)):
                timer.cancel()
            predicted = env.peek()
            fired = []
            for timer in timers:
                if not timer._cancelled:
                    timer.callbacks.append(
                        lambda _e, t=timer: fired.append(env.now)
                    )
            env.run()
            if fired:
                assert predicted == fired[0]
            else:
                assert predicted == INF

    def test_peek_then_run_still_fires_survivors(self):
        env = Environment()
        doomed = env.timeout(1.0)
        keeper = env.timeout(2.0)
        doomed.cancel()
        assert env.peek() == 2.0
        hits = []
        keeper.callbacks.append(lambda _e: hits.append(env.now))
        env.run()
        assert hits == [2.0]
        assert env.now == 2.0


class TestCompactionThreshold:
    """``TIMER_COMPACTION_THRESHOLD`` is heap-only: the wheel scheduler
    drops tombstones bucket-locally and never compacts, so these tests
    pin ``scheduler="heap"`` explicitly."""

    def test_default_threshold(self):
        assert sched.TIMER_COMPACTION_THRESHOLD == 64

    def test_low_threshold_compacts_early(self, monkeypatch):
        monkeypatch.setattr(sched, "TIMER_COMPACTION_THRESHOLD", 1)
        env = Environment(scheduler="heap")
        timers = [env.timeout(float(t + 1)) for t in range(4)]
        timers[0].cancel()
        # 1 cancelled out of 4 queued: below the half-queue rule.
        assert env.queued_events == 4
        timers[1].cancel()
        # 2 out of 4 >= half the queue and >= threshold: swept eagerly.
        assert env.queued_events == 2
        assert env._cancelled_timers == 0

    def test_high_threshold_defers_compaction(self):
        env = Environment(scheduler="heap")
        timers = [env.timeout(float(t + 1)) for t in range(4)]
        timers[0].cancel()
        timers[1].cancel()
        # Below the count threshold: the heap keeps the dead entries
        # (until they surface at the head or the run loop pops them).
        assert env.queued_events == 4
        assert env._cancelled_timers == 2


def _make_pool(env, **spec_kwargs):
    defaults = dict(cold_start_time=0.1, keepalive=600.0, max_per_function=10)
    defaults.update(spec_kwargs)
    return ContainerPool(
        env,
        "worker-0",
        CPUAllocator(env, cores=8),
        MemoryAccount(env, capacity=32 * 1024 * MB),
        ContainerSpec(**defaults),
    )


class TestKeepAliveChurn:
    """Heavy warm-reuse churn: every release schedules a keep-alive
    expiry timer, every warm acquire cancels it.  Compaction must keep
    the heap bounded instead of letting dead entries pile up one per
    invocation."""

    CYCLES = 400

    def _churn(self, env, pool, max_queue):
        def driver():
            for _ in range(self.CYCLES):
                container = yield pool.acquire("fn")
                yield env.timeout(0.001)
                pool.release(container)
                yield env.timeout(0.001)
                max_queue[0] = max(max_queue[0], env.queued_events)

        env.process(driver())
        env.run()

    def test_queue_stays_bounded_default_threshold(self):
        # Heap-specific bound: the wheel parks tombstones in far-future
        # buckets (dropped in bulk at load) instead of sweeping early.
        env = Environment(scheduler="heap")
        pool = _make_pool(env)
        max_queue = [0]
        self._churn(env, pool, max_queue)
        assert pool.warm_reuses == self.CYCLES - 1
        # ~400 cancels happened; without compaction the heap would peak
        # near CYCLES entries.  With it, the peak stays around the
        # threshold plus the handful of live events.
        assert max_queue[0] <= 2 * sched.TIMER_COMPACTION_THRESHOLD + 8
        assert env.peek() == INF or env.peek() > env.now

    def test_tighter_threshold_means_tighter_bound(self, monkeypatch):
        monkeypatch.setattr(sched, "TIMER_COMPACTION_THRESHOLD", 8)
        env = Environment(scheduler="heap")
        pool = _make_pool(env)
        max_queue = [0]
        self._churn(env, pool, max_queue)
        assert pool.warm_reuses == self.CYCLES - 1
        assert max_queue[0] <= 2 * 8 + 8

    def test_churn_result_independent_of_threshold(self, monkeypatch):
        """The threshold is pure mechanism: simulated outcomes are
        identical whatever the sweep cadence."""
        finals = []
        for threshold in (1, 8, 64, 10_000):
            monkeypatch.setattr(sched, "TIMER_COMPACTION_THRESHOLD", threshold)
            env = Environment(scheduler="heap")
            pool = _make_pool(env)
            self._churn(env, pool, [0])
            finals.append(
                (env.now, pool.cold_starts, pool.warm_reuses)
            )
        assert len(set(finals)) == 1
