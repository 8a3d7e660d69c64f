"""Pluggable kernel schedulers: determinism, wheel internals, pooling.

The hard contract under test: the heap and the wheel realize the exact
same ``(when, eid)`` total order, so every observable simulation —
firing order, clock trajectory, engine records, telemetry, sharded
runs — is bit-identical under either scheduler.  The wheel-internal
tests pin the three-tier structure (near heap, rotation array, overflow
tier) through behavior visible at the ``Environment`` surface.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig_scale import make_plan
from repro.sim import (
    SCHEDULERS,
    Environment,
    HeapScheduler,
    SimulationError,
    WheelScheduler,
    make_scheduler,
    resolve_scheduler_name,
    set_default_scheduler,
)
from repro.sim import sched as sched_module
from repro.sim.sched import DEFAULT_SCHEDULER_ENV
from repro.sim.shard import run_network_single, run_network_sharded

BOTH = pytest.mark.parametrize("scheduler", ["heap", "wheel"])


def _abs_plan(nodes, flows, seed):
    plan = make_plan(nodes, flows, seed=seed)
    names = [f"n{i}" for i in range(nodes)]
    return (
        [(at, f"n{s}", f"n{d}", size) for at, s, d, size in plan],
        names,
    )


def _firing_order(scheduler, spec):
    """Schedule ``spec`` (list of (kind, time) entries), return the order
    tags fire in.  ``schedule_at`` entries model absolute-time
    injection (a transfer plan's start times): scheduled exactly as
    named."""
    env = Environment(scheduler=scheduler)
    fired = []
    for tag, (kind, when) in enumerate(spec):
        if kind == "at":
            event = env.schedule_at(when)
        else:
            event = env.timeout(when)
        event.callbacks.append(lambda _e, t=tag: fired.append(t))
    env.run()
    return fired


class TestTotalOrderParity:
    """Same (when, eid) total order under both schedulers."""

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
        # relative (timeout) with absolute (schedule_at, the cross-shard
        # injection primitive) scheduling.
        times = times + times[: len(times) // 2]
        spec = [
            ("at" if at_mask[i % len(at_mask)] else "rel", when)
            for i, when in enumerate(times)
        ]
        heap_order = _firing_order("heap", spec)
        wheel_order = _firing_order("wheel", spec)
        assert heap_order == wheel_order
        # Ties fire in eid (creation) order: the order restricted to any
        # equal-time group is increasing.
        by_time = {}
        for tag in heap_order:
            by_time.setdefault(times[tag], []).append(tag)
        for group in by_time.values():
            assert group == sorted(group)

    @BOTH
    def test_schedule_at_cross_shard_style_injection(self, scheduler):
        """Events injected at exact absolute timestamps (how transfer
        plans start their flows) interleave correctly with local timers
        scheduled before and after them."""
        env = Environment(scheduler=scheduler)
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

    @BOTH
    def test_final_drain_time_ignores_tombstones(self, scheduler):
        env = Environment(scheduler=scheduler)
        env.timeout(1.0)
        late = env.timeout(50.0)
        late.cancel()
        env.run()
        assert env.now == 1.0

    def test_workflow_run_bit_identical(self):
        from repro.runner import run_workflow
        from repro.workloads import build

        summaries = {}
        for scheduler in ("heap", "wheel"):
            s = run_workflow(
                build("genome"),
                invocations=3,
                workers=3,
                kernel_scheduler=scheduler,
                collect_telemetry=True,
            )
            summaries[scheduler] = s
        heap_s, wheel_s = summaries["heap"], summaries["wheel"]
        # invocation_id is a process-global counter (advances across the
        # two runs in this test); everything observable must match.
        key = lambda r: (
            r.started_at, r.finished_at, r.status, r.cold_starts, r.retries
        )
        assert [key(r) for r in heap_s.records] == [
            key(r) for r in wheel_s.records
        ]
        assert heap_s.mean_latency == wheel_s.mean_latency
        assert heap_s.p99_latency == wheel_s.p99_latency
        assert heap_s.cold_starts == wheel_s.cold_starts
        assert heap_s.telemetry == wheel_s.telemetry

    def test_network_records_bit_identical(self):
        plan, names = _abs_plan(32, 150, 11)
        heap_run = run_network_single(plan, names, scheduler="heap")
        wheel_run = run_network_single(plan, names, scheduler="wheel")
        assert wheel_run["records"] == heap_run["records"]
        assert wheel_run["makespan"] == heap_run["makespan"]
        assert wheel_run["nic_bytes"] == heap_run["nic_bytes"]

    def test_sharded_run_bit_identical_under_wheel(self):
        plan, names = _abs_plan(32, 150, 29)
        reference = run_network_single(plan, names, scheduler="heap")
        sharded = run_network_sharded(plan, names, 2, scheduler="wheel")
        assert sharded["records"] == reference["records"]
        assert sharded["makespan"] == reference["makespan"]
        assert sharded["cells"] == 2


class TestPeekParity:
    """peek() is the scheduler-owned skip of cancelled queue heads."""

    @BOTH
    def test_peek_skips_cancelled_head(self, scheduler):
        env = Environment(scheduler=scheduler)
        dead = env.timeout(1.0)
        env.timeout(2.0)
        dead.cancel()
        assert env.peek() == 2.0

    @BOTH
    def test_peek_empty_is_inf(self, scheduler):
        env = Environment(scheduler=scheduler)
        assert env.peek() == float("inf")
        only = env.timeout(4.0)
        only.cancel()
        # Only tombstones left: peek retires them and reports drained.
        assert env.peek() == float("inf")
        assert env.queued_events == 0


class TestWheelInternals:
    def test_overflow_tier_migrates_far_future_timers(self):
        env = Environment(scheduler="wheel")
        sched = env.scheduler
        fired = []
        # Default geometry: width 0.01 x 4096 buckets ~ 41s rotation.
        # 3600s is far beyond it -> overflow tier.
        env.timeout(3600.0).callbacks.append(lambda _e: fired.append("far"))
        env.timeout(0.5).callbacks.append(lambda _e: fired.append("near"))
        assert sched._ocount == 1
        env.run()
        assert fired == ["near", "far"]
        assert env.now == 3600.0
        assert sched._ocount == 0

    def test_rotation_wraps_across_many_revolutions(self):
        env = Environment(scheduler="wheel")
        fired = []
        # Spread across ~5 rotations of the default 41s window.
        for i in range(40):
            env.timeout(i * 5.0 + 0.25, value=i).callbacks.append(
                lambda ev: fired.append(ev.value)
            )
        env.run()
        assert fired == list(range(40))

    def test_same_timestep_resumes_go_through_near_heap(self):
        """Timers scheduled at (or before the end of) the active bucket
        by the very callbacks that bucket is firing still fire in key
        order — they merge through the near heap."""
        env = Environment(scheduler="wheel")
        fired = []

        def chain(ev):
            fired.append(ev.value)
            if ev.value < 5:
                env.timeout(0.0, value=ev.value + 1).callbacks.append(chain)

        env.timeout(1.0, value=0).callbacks.append(chain)
        env.timeout(1.0, value=100).callbacks.append(
            lambda ev: fired.append(ev.value)
        )
        env.run()
        # The zero-delay chain at t=1.0 interleaves after the value-100
        # timer created earlier (lower eid fires first at equal time).
        assert fired == [0, 100, 1, 2, 3, 4, 5]

    def test_bucket_local_tombstone_drop(self):
        env = Environment(scheduler="wheel")
        keep = env.timeout(10.0)
        for _ in range(50):
            env.timeout(10.0).cancel()
        assert env.queued_events == 51  # tombstones parked in their bucket
        env.run()
        assert env.queued_events == 0
        assert keep.processed and not keep.cancelled
        assert env._cancelled_timers == 0

    def test_len_counts_all_tiers(self):
        env = Environment(scheduler="wheel")
        env.timeout(0.0)  # near heap (at/below active bucket)
        env.timeout(1.0)  # rotation array
        env.timeout(9999.0)  # overflow tier
        assert env.queued_events == 3
        env.run(until=2.0)
        assert env.queued_events == 1

    def test_compaction_threshold_is_a_noop_under_wheel(self, monkeypatch):
        monkeypatch.setattr(sched_module, "TIMER_COMPACTION_THRESHOLD", 1)
        env = Environment(scheduler="wheel")
        for _ in range(20):
            env.timeout(30.0).cancel()
        # The heap would have compacted at threshold 1; the wheel leaves
        # tombstones parked for their bucket's local drop.
        assert env.queued_events == 20
        assert env._cancelled_timers == 20
        env.run()
        assert env.queued_events == 0
        assert env._cancelled_timers == 0

    def test_negative_initial_time_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            Environment(initial_time=-5.0, scheduler="wheel")

    def test_unschedulable_time_rejected(self):
        env = Environment(scheduler="wheel")
        with pytest.raises(SimulationError, match="cannot schedule"):
            env.timeout(float("inf"))

    def test_step_and_until_event_paths(self):
        env = Environment(scheduler="wheel")
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


class TestTimeoutPooling:
    """_POOL_CAP recycling proves sole ownership with events in buckets."""

    @BOTH
    def test_referenced_timeout_never_recycled(self, scheduler):
        env = Environment(scheduler=scheduler)
        held = env.timeout(1.0)  # the test keeps this reference
        env.run()
        assert not env._timeout_pool or env._timeout_pool[0] is not held
        # A later timeout must be a fresh object, not `held` reused.
        fresh = env.timeout(1.0)
        assert fresh is not held

    @BOTH
    def test_unreferenced_timeouts_are_pooled_and_reused(self, scheduler):
        env = Environment(scheduler=scheduler)
        for _ in range(10):
            env.timeout(0.5)
        env.run()
        assert len(env._timeout_pool) == 10
        before = list(env._timeout_pool)
        again = env.timeout(0.5)
        assert again is before[-1]  # LIFO reuse from the free-list

    @BOTH
    def test_cancelled_unreferenced_timeouts_are_pooled(self, scheduler):
        env = Environment(scheduler=scheduler)
        for _ in range(8):
            env.timeout(5.0).cancel()
        env.timeout(6.0)
        env.run()
        # Tombstones dropped (bucket-locally under the wheel, at pop or
        # compaction under the heap) still reach the free-list.
        assert len(env._timeout_pool) == 9

    @BOTH
    def test_held_cancelled_timeout_not_pooled(self, scheduler):
        env = Environment(scheduler=scheduler)
        held = env.timeout(5.0)
        held.cancel()
        env.timeout(6.0)
        env.run()
        assert held not in env._timeout_pool
        assert held.processed and not held.cancelled


class TestSelection:
    def test_default_is_heap(self, monkeypatch):
        # Isolate from any ambient FAASFLOW_SCHEDULER (e.g. a wheel-mode
        # full-suite run); the built-in default must stay the heap.
        monkeypatch.delenv(DEFAULT_SCHEDULER_ENV, raising=False)
        env = Environment()
        assert env.scheduler_name == "heap"
        assert isinstance(env.scheduler, HeapScheduler)

    def test_explicit_wheel(self):
        env = Environment(scheduler="wheel")
        assert env.scheduler_name == "wheel"
        assert isinstance(env.scheduler, WheelScheduler)
        assert env._queue is None  # heap fast path disabled

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError, match="unknown scheduler"):
            Environment(scheduler="splay")

    def test_env_var_default_and_reset(self):
        saved = os.environ.get(DEFAULT_SCHEDULER_ENV)
        try:
            set_default_scheduler("wheel")
            assert resolve_scheduler_name() == "wheel"
            assert Environment().scheduler_name == "wheel"
            # Explicit beats the process default.
            assert Environment(scheduler="heap").scheduler_name == "heap"
            set_default_scheduler(None)
            assert resolve_scheduler_name() == "heap"
        finally:
            if saved is None:
                os.environ.pop(DEFAULT_SCHEDULER_ENV, None)
            else:
                os.environ[DEFAULT_SCHEDULER_ENV] = saved

    def test_set_default_validates(self):
        with pytest.raises(SimulationError, match="unknown scheduler"):
            set_default_scheduler("fibheap")

    def test_factory_callable(self):
        env = Environment(scheduler=lambda e: WheelScheduler(e, width=0.5))
        assert isinstance(env.scheduler, WheelScheduler)
        fired = []
        env.timeout(1.0).callbacks.append(lambda _e: fired.append(1))
        env.run()
        assert fired == [1]

    def test_factory_missing_methods_rejected(self):
        with pytest.raises(SimulationError, match="not a HeapScheduler or WheelScheduler"):
            Environment(scheduler=lambda e: object())

    def test_registry_names(self):
        assert set(SCHEDULERS) >= {"heap", "wheel"}
        env = Environment()
        assert make_scheduler(env, "wheel").name == "wheel"

    def test_wheel_geometry_validation(self):
        env = Environment()
        with pytest.raises(SimulationError, match="width"):
            WheelScheduler(env, width=0.0)
        with pytest.raises(SimulationError, match="power of two"):
            WheelScheduler(env, buckets=100)
