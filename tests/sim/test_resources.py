"""Unit tests for CPU/memory accounting and usage sampling."""

import pytest

from repro.sim.kernel import Environment, SimulationError
from repro.sim.resources import (
    CPUAllocator,
    MemoryAccount,
    OutOfMemoryError,
    UsageSampler,
)

MB = 1024.0 * 1024.0


@pytest.fixture
def env():
    return Environment()


class TestUsageSampler:
    def test_average_of_constant_signal(self, env):
        sampler = UsageSampler(env, initial=4.0)
        env.run(until=10.0)
        assert sampler.average() == pytest.approx(4.0)

    def test_average_of_step_signal(self, env):
        sampler = UsageSampler(env)

        def step(env, sampler):
            yield env.timeout(5.0)
            sampler.set(10.0)

        env.process(step(env, sampler))
        env.run(until=10.0)
        # 5 s at 0 + 5 s at 10 -> average 5.
        assert sampler.average() == pytest.approx(5.0)

    def test_average_since_midpoint(self, env):
        sampler = UsageSampler(env)

        def step(env, sampler):
            yield env.timeout(5.0)
            sampler.mark()
            sampler.set(10.0)

        env.process(step(env, sampler))
        env.run(until=10.0)
        assert sampler.average() == pytest.approx(10.0)

    def test_mark_restarts_the_average(self, env):
        sampler = UsageSampler(env, initial=2.0)

        def step(env, sampler):
            yield env.timeout(4.0)
            sampler.set(6.0)
            yield env.timeout(2.0)
            sampler.mark()
            yield env.timeout(1.0)
            sampler.set(0.0)

        env.process(step(env, sampler))
        env.run(until=10.0)
        # Since the mark at t=6: 1 s at 6 + 3 s at 0 -> average 1.5.
        assert sampler.average() == pytest.approx(1.5)
        assert sampler.peak == 6.0

    def test_peak_tracks_maximum(self, env):
        sampler = UsageSampler(env)
        sampler.set(3.0)
        sampler.set(8.0)
        sampler.set(2.0)
        assert sampler.peak == 8.0

    def test_add_accumulates(self, env):
        sampler = UsageSampler(env)
        sampler.add(2.0)
        sampler.add(3.0)
        assert sampler.value == 5.0


class TestCPUAllocator:
    def test_busy_count(self, env):
        cpu = CPUAllocator(env, cores=4)
        req = cpu.request(2)
        env.run()
        assert cpu.busy == 2
        cpu.release(req)
        assert cpu.busy == 0

    def test_contention_queues(self, env):
        cpu = CPUAllocator(env, cores=1)
        done = []

        def job(env, cpu, name):
            req = cpu.request()
            yield req
            yield env.timeout(2.0)
            cpu.release(req)
            done.append((name, env.now))

        env.process(job(env, cpu, "a"))
        env.process(job(env, cpu, "b"))
        env.run()
        assert done == [("a", 2.0), ("b", 4.0)]

    def test_cancel_releases_a_granted_request(self, env):
        cpu = CPUAllocator(env, cores=1)
        req = cpu.request()
        env.run()
        assert cpu.busy == 1 and cpu.usage.value == 1
        cpu.cancel(req)
        assert cpu.busy == 0 and cpu.usage.value == 0

    def test_cancel_withdraws_an_ungranted_request(self, env):
        cpu = CPUAllocator(env, cores=1)
        held = cpu.request()
        waiting = cpu.request()
        env.run()
        cpu.cancel(waiting)
        # The usage integral is untouched: only grants credit it.
        assert cpu.busy == 1 and cpu.usage.value == 1
        assert cpu.queue_length == 0
        cpu.release(held)
        env.run()
        assert cpu.busy == 0 and cpu.usage.value == 0

    def test_average_usage_integrates(self, env):
        cpu = CPUAllocator(env, cores=4)

        def job(env, cpu):
            req = cpu.request(4)
            yield req
            yield env.timeout(5.0)
            cpu.release(req)

        env.process(job(env, cpu))
        env.run(until=10.0)
        assert cpu.average_usage() == pytest.approx(2.0)

    def test_core_validation(self, env):
        with pytest.raises(SimulationError):
            CPUAllocator(env, cores=0)


class TestMemoryAccount:
    def test_reserve_and_free(self, env):
        mem = MemoryAccount(env, capacity=1024 * MB)
        handle = mem.reserve(256 * MB, tag="container")
        assert mem.reserved == 256 * MB
        assert mem.available == 768 * MB
        mem.free(handle)
        assert mem.reserved == 0

    def test_overcommit_raises(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        mem.reserve(80 * MB)
        with pytest.raises(OutOfMemoryError):
            mem.reserve(30 * MB)

    def test_resize_shrink_then_grow(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        handle = mem.reserve(80 * MB)
        mem.resize(handle, 40 * MB)
        assert mem.reserved == pytest.approx(40 * MB)
        mem.resize(handle, 90 * MB)
        assert mem.reserved == pytest.approx(90 * MB)

    def test_resize_overcommit_raises(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        handle = mem.reserve(50 * MB)
        mem.reserve(40 * MB)
        with pytest.raises(OutOfMemoryError):
            mem.resize(handle, 70 * MB)

    def test_unknown_handle_raises(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        with pytest.raises(SimulationError):
            mem.free(123)
        with pytest.raises(SimulationError):
            mem.resize(99, 10 * MB)

    def test_double_free_raises(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        handle = mem.reserve(10 * MB)
        mem.free(handle)
        with pytest.raises(SimulationError):
            mem.free(handle)

    def test_reserved_by_tag(self, env):
        mem = MemoryAccount(env, capacity=1024 * MB)
        mem.reserve(256 * MB, tag="container")
        mem.reserve(256 * MB, tag="container")
        mem.reserve(100 * MB, tag="faastore-pool")
        assert mem.reserved_by_tag("container") == pytest.approx(512 * MB)
        assert mem.reserved_by_tag("faastore-pool") == pytest.approx(100 * MB)

    def test_negative_reservation_rejected(self, env):
        mem = MemoryAccount(env, capacity=100 * MB)
        with pytest.raises(SimulationError):
            mem.reserve(-1)
