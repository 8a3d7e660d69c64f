"""Unit tests for the container lifecycle and pool policy."""

import pytest

from repro.obs.spans import SpanTracer
from repro.sim.container import ContainerPool, ContainerSpec, ContainerState
from repro.sim.kernel import Environment, SimulationError
from repro.sim.resources import CPUAllocator, MemoryAccount

MB = 1024.0 * 1024.0


def make_pool(env, **spec_kwargs):
    defaults = dict(cold_start_time=0.5, keepalive=600.0, max_per_function=10)
    defaults.update(spec_kwargs)
    spec = ContainerSpec(**defaults)
    cpu = CPUAllocator(env, cores=8)
    memory = MemoryAccount(env, capacity=32 * 1024 * MB)
    return ContainerPool(env, "worker-0", cpu, memory, spec)


@pytest.fixture
def env():
    return Environment()


class TestColdStartAndReuse:
    def test_first_acquire_pays_cold_start(self, env):
        pool = make_pool(env)
        acq = pool.acquire("fn")
        container = env.run(until=acq)
        assert env.now == pytest.approx(0.5)
        assert container.state == ContainerState.BUSY
        assert pool.cold_starts == 1

    def test_warm_reuse_is_instant(self, env):
        pool = make_pool(env)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        t0 = env.now
        again = env.run(until=pool.acquire("fn"))
        assert again is container
        assert env.now == t0
        assert pool.warm_reuses == 1

    def test_different_functions_get_different_containers(self, env):
        pool = make_pool(env)
        c1 = env.run(until=pool.acquire("fn-a"))
        c2 = env.run(until=pool.acquire("fn-b"))
        assert c1 is not c2
        assert pool.count("fn-a") == 1
        assert pool.count("fn-b") == 1

    def test_memory_reserved_per_container(self, env):
        pool = make_pool(env)
        env.run(until=pool.acquire("fn"))
        assert pool.memory.reserved_by_tag("container") == pytest.approx(256 * MB)


class TestPerFunctionLimit:
    def test_limit_queues_excess_requests(self, env):
        pool = make_pool(env, max_per_function=2)
        c1 = env.run(until=pool.acquire("fn"))
        c2 = env.run(until=pool.acquire("fn"))
        third = pool.acquire("fn")
        env.run()
        assert not third.processed
        pool.release(c1)
        env.run()
        assert third.processed
        assert third.value is c1

    def test_limit_is_per_function(self, env):
        pool = make_pool(env, max_per_function=1)
        env.run(until=pool.acquire("fn-a"))
        acq_b = pool.acquire("fn-b")
        env.run()
        assert acq_b.processed  # other function unaffected


class TestKeepAlive:
    def test_idle_container_expires(self, env):
        pool = make_pool(env, keepalive=10.0)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        env.run(until=env.now + 11.0)
        assert container.state == ContainerState.DEAD
        assert pool.count("fn") == 0
        assert pool.memory.reserved_by_tag("container") == 0

    def test_reuse_resets_keepalive(self, env):
        pool = make_pool(env, keepalive=10.0)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)

        def reuser(env, pool):
            yield env.timeout(8.0)
            c = yield pool.acquire("fn")
            yield env.timeout(1.0)
            pool.release(c)

        env.process(reuser(env, pool))
        env.run(until=15.0)
        assert container.state == ContainerState.IDLE  # refreshed at t=9
        env.run(until=25.0)
        assert container.state == ContainerState.DEAD

    def test_busy_container_never_expires(self, env):
        pool = make_pool(env, keepalive=10.0)
        container = env.run(until=pool.acquire("fn"))
        env.run(until=50.0)
        assert container.state == ContainerState.BUSY

    # Exact semantics: a container is evicted ``keepalive`` after its
    # last release, to the float, and exactly once.

    def test_reuse_then_idle_evicts_at_last_release_plus_keepalive(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)  # t=0.5: the one timer, due at 10.5
        released = []

        def reuser(env, pool):
            for gap in (1.3, 2.7, 0.9):
                yield env.timeout(gap)
                c = yield pool.acquire("fn")
                yield env.timeout(0.35)
                pool.release(c)
                released.append(env.now)

        env.process(reuser(env, pool))
        env.run(until=8.0)
        # Three warm reuses armed no timer: one keep-alive timer queued.
        assert env.queued_events == 1
        env.run()
        assert pool.warm_reuses == 3
        assert destroyed() == [
            (container.container_id, "evict", released[-1] + 10.0)
        ]

    def test_busy_when_stale_timer_fires(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)  # timer due at 10.5
        released = []

        def holder(env, pool):
            yield env.timeout(2.0)
            c = yield pool.acquire("fn")
            yield env.timeout(13.1)  # busy across t=10.5
            pool.release(c)
            released.append(env.now)

        env.process(holder(env, pool))
        env.run(until=11.0)
        assert container.state == ContainerState.BUSY
        assert container._expiry_timer is None  # fired and did nothing
        env.run()
        assert destroyed() == [
            (container.container_id, "evict", released[0] + 10.0)
        ]

    def test_release_and_reacquire_at_same_instant(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        t0 = env.now
        pool.release(container)
        again = env.run(until=pool.acquire("fn"))
        assert again is container and env.now == t0
        pool.release(again)
        again = env.run(until=pool.acquire("fn"))
        assert again is container and env.now == t0
        # Busy when its timer fires at t0 + 10: survives.
        env.run(until=t0 + 12.25)
        assert container.state == ContainerState.BUSY
        released = env.now
        pool.release(container)
        pool.release(env.run(until=pool.acquire("fn")))
        assert env.queued_events == 1
        env.run()
        assert destroyed() == [
            (container.container_id, "evict", released + 10.0)
        ]

    def test_release_reacquire_release_at_one_instant(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        t0 = env.now
        pool.release(container)
        pool.release(env.run(until=pool.acquire("fn")))
        assert env.now == t0 and env.queued_events == 1
        env.run()
        assert destroyed() == [(container.container_id, "evict", t0 + 10.0)]

    @pytest.mark.parametrize("reused", [False, True])
    @pytest.mark.parametrize("how", ["fail_all", "recycle_version", "drain"])
    def test_destroy_with_pending_timer(self, env, how, reused):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        if reused:  # the pending timer is stale by now
            env.run(until=3.0)
            pool.release(env.run(until=pool.acquire("fn")))
        env.run(until=5.0)
        assert container._expiry_timer is not None
        if how == "fail_all":
            pool.set_offline(True)
            assert pool.fail_all() == 1
        elif how == "recycle_version":
            assert pool.recycle_version("fn", version=1) == 1
        else:
            assert pool.drain() == 1
        assert container.state == ContainerState.DEAD
        assert container._expiry_timer is None
        # Nothing left to fire: the timer is cancelled, not just ignored.
        assert env.peek() == float("inf")
        env.run(until=100.0)
        assert destroyed() == [(container.container_id, "evict", 5.0)]
        assert pool.memory.reserved_by_tag("container") == 0

    def test_crash_of_busy_container_with_stale_timer(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        env.run(until=2.0)
        container = env.run(until=pool.acquire("fn"))
        pool.crash(container)
        assert env.peek() == float("inf")
        env.run(until=100.0)
        assert destroyed() == [(container.container_id, "crash", 2.0)]

    def test_prewarmed_containers_expire_from_parking(self, env):
        pool = make_pool(env, keepalive=10.0)
        destroyed = _destroy_log(pool)
        assert pool.prewarm("fn", count=2) == 2
        first, second = pool._all["fn"]
        env.run(until=1.0)  # both parked at t=0.5, timers due at 10.5
        assert env.queued_events == 2
        released = []

        def user(env, pool):
            yield env.timeout(3.0)
            c = yield pool.acquire("fn")
            yield env.timeout(1.7)
            pool.release(c)
            released.append(env.now)

        env.process(user(env, pool))
        env.run()
        assert pool.cold_starts == 2 and pool.warm_reuses == 1
        # The warm pool is FIFO: the first parked container was reused.
        assert destroyed() == [
            (second.container_id, "evict", 0.5 + 10.0),
            (first.container_id, "evict", released[0] + 10.0),
        ]


def _destroy_log(pool):
    """Install a tracer on ``pool``; the returned callable lists every
    evict/crash so far as ``(container_id, lifecycle, time)``."""
    tracer = pool.spans = SpanTracer(pool.env)
    return lambda: [
        (s.attrs["container"], s.attrs["lifecycle"], s.start)
        for s in tracer.spans
        if s.attrs.get("lifecycle") in ("evict", "crash")
    ]


class TestRedBlackVersions:
    def test_acquire_skips_stale_version(self, env):
        pool = make_pool(env)
        old = env.run(until=pool.acquire("fn", version=1))
        pool.release(old)
        fresh = env.run(until=pool.acquire("fn", version=2))
        assert fresh is not old
        assert old.state == ContainerState.DEAD

    def test_recycle_version_destroys_stale_idle(self, env):
        pool = make_pool(env)
        c1 = env.run(until=pool.acquire("fn", version=1))
        pool.release(c1)
        destroyed = pool.recycle_version("fn", version=2)
        assert destroyed == 1
        assert c1.state == ContainerState.DEAD

    def test_recycle_version_spares_current(self, env):
        pool = make_pool(env)
        c = env.run(until=pool.acquire("fn", version=2))
        pool.release(c)
        assert pool.recycle_version("fn", version=2) == 0
        assert c.state == ContainerState.IDLE

    def test_busy_stale_container_recycled_on_release(self, env):
        pool = make_pool(env, max_per_function=1)
        old = env.run(until=pool.acquire("fn", version=1))
        new_req = pool.acquire("fn", version=2)
        env.run()
        assert not new_req.processed  # limit reached, old still busy
        pool.release(old)
        env.run()
        assert new_req.processed
        assert new_req.value is not old
        assert old.state == ContainerState.DEAD


class TestMemoryLimitUpdates:
    def test_reclaim_shrinks_reservation(self, env):
        pool = make_pool(env)
        container = env.run(until=pool.acquire("fn"))
        container.note_memory_use(100 * MB)
        released = container.set_memory_limit(120 * MB)
        assert released == pytest.approx(136 * MB)
        assert container.memory_limit == pytest.approx(120 * MB)
        assert pool.memory.reserved_by_tag("container") == pytest.approx(120 * MB)

    def test_limit_never_below_peak_use(self, env):
        pool = make_pool(env)
        container = env.run(until=pool.acquire("fn"))
        container.note_memory_use(200 * MB)
        container.set_memory_limit(50 * MB)
        assert container.memory_limit == pytest.approx(200 * MB)

    def test_resize_dead_container_rejected(self, env):
        pool = make_pool(env, keepalive=1.0)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            container.set_memory_limit(10 * MB)


class TestDrainAndStats:
    def test_drain_destroys_idle(self, env):
        pool = make_pool(env)
        cs = [env.run(until=pool.acquire(f"fn-{i}")) for i in range(3)]
        for c in cs:
            pool.release(c)
        assert pool.drain() == 3
        assert pool.total_containers == 0

    def test_capacity_left_respects_policy_and_memory(self, env):
        pool = make_pool(env, max_per_function=4)
        assert pool.capacity_left("fn") == 4
        env.run(until=pool.acquire("fn"))
        assert pool.capacity_left("fn") == 3

    def test_release_idle_container_rejected(self, env):
        pool = make_pool(env)
        container = env.run(until=pool.acquire("fn"))
        pool.release(container)
        with pytest.raises(SimulationError):
            pool.release(container)

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            ContainerSpec(memory_limit=0)
        with pytest.raises(SimulationError):
            ContainerSpec(max_per_function=0)
        with pytest.raises(SimulationError):
            ContainerSpec(cold_start_time=-1)
        for keepalive in (0.0, float("inf"), float("nan")):
            with pytest.raises(SimulationError, match="keepalive"):
                ContainerSpec(keepalive=keepalive)
