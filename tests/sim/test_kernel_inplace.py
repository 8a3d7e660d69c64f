"""In-place continuation: hops the kernel may skip, and the ones it keeps.

A process that yields an already-processed event, an uncontended
``Resource.request`` and a warm ``ContainerPool.acquire`` all used to
go through a queue entry that the dispatch loop popped straight back.
The kernel now skips that hop when it would be the very next dispatch
(``Environment._can_continue``).  These tests pin that the skip never
changes what the simulation does: the property test compares every
trace against the same program with the guard forced to refuse, which
is exactly the old hop path.
"""

from contextlib import nullcontext
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, FaaSFlowSystem
from repro.core.faults import CancelCause, CancelKind
from repro.sim import Cluster, ClusterConfig
from repro.sim.container import ContainerPool, ContainerSpec
from repro.sim.kernel import Environment, Interrupt
from repro.sim.network import MB, Network, NetworkConfig
from repro.sim.resources import CPUAllocator, MemoryAccount
from repro.sim.storage import RemoteKVStore
from repro.sim.sync import Resource

def _forced_hops():
    """The guard refusing every continuation: today's hop path."""
    return patch.object(Environment, "_can_continue", lambda self: False)


class TestInPlaceSites:
    def test_processed_yield_loops_without_recursion(self):
        env = Environment()
        done = env.event()
        done.succeed("v")
        env.run()
        n = 200_000
        seen = []

        def spinner(env):
            count = 0
            for _ in range(n):
                assert (yield done) == "v"
                count += 1
            seen.append(count)

        before = env._eid
        env.process(spinner(env))
        env.run()
        assert seen == [n]
        # Only the bootstrap hop was queued: every resume ran in place.
        assert env._eid - before == 1

    def test_uncontended_request_is_granted_in_place(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def worker(env):
            req = res.request()
            log.append(req.processed)
            with req:
                yield req
                log.append((env.now, res.holds(req)))

        env.process(worker(env))
        env.run()
        assert log == [True, (0.0, True)]
        assert res.in_use == 0

    def test_request_outside_a_process_is_queued(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = res.request()
        assert not req.processed
        assert res.holds(req)
        env.run()
        assert req.processed

    def test_in_place_cpu_grant_credits_usage(self):
        env = Environment()
        cpu = CPUAllocator(env, cores=2)

        def job(env):
            req = cpu.request(2)
            assert req.processed
            yield req
            yield env.timeout(4.0)
            cpu.release(req)

        env.process(job(env))
        env.run(until=8.0)
        assert cpu.usage.peak == 2.0
        assert cpu.average_usage() == pytest.approx(1.0)

    def test_free_kv_slot_still_runs_put_and_get_callbacks(self):
        env = Environment()
        net = Network(env, NetworkConfig(latency=0.0, message_threshold=0.0))
        store_nic = net.attach("storage", 10 * MB)
        worker_nic = net.attach("worker-0", 100 * MB)
        store = RemoteKVStore(env, net, store_nic, op_latency=0.0)
        log = []

        def client(env):
            # Called from a running process on an empty queue: exactly
            # where an in-place grant would apply if the store yielded.
            yield store.put("k", 10 * MB, src=worker_nic)
            log.append(("put", env.now))
            size = yield store.get("k", dst=worker_nic)
            log.append(("get", env.now, size))

        env.process(client(env))
        env.run()
        assert log == [
            ("put", pytest.approx(1.0)),
            ("get", pytest.approx(2.0), 10 * MB),
        ]
        assert store.stats.puts == 1 and store.stats.gets == 1

    def test_run_until_event_stops_before_later_continuations(self):
        env = Environment()
        stop = env.timeout(1.0)
        done = env.event()
        done.succeed()
        log = []

        def waiter(env):
            yield stop
            log.append("woken")
            # Without rule (c) this would continue in place while the
            # stop event dispatches, i.e. before run() returns.
            yield done
            log.append("continued")

        env.process(waiter(env))
        env.run(until=stop)
        assert log == ["woken"]
        env.run()
        assert log == ["woken", "continued"]

    def test_request_then_same_instant_work_keeps_grant_order(self):
        # The grant settled in place stands for the first entry at this
        # instant, so work queued between the request and its yield
        # still runs after the continuation, as with the queued grant.
        traces = []
        for forced in (False, True):
            env = Environment()
            res = Resource(env, capacity=1)
            log = []

            def other(env, side):
                yield side
                log.append(("side", env.now))

            def worker(env):
                req = res.request()
                side = env.event()
                env.process(other(env, side))
                side.succeed()
                with req:
                    yield req
                    log.append(("granted", env.now))

            with _forced_hops() if forced else nullcontext():
                env.process(worker(env))
                env.run()
            traces.append(log)
        assert traces[0] == traces[1]
        assert traces[0][0] == ("granted", 0.0)

    def test_warm_acquire_is_handed_over_in_place(self):
        env = Environment()
        pool = _pool(env, max_per_function=1)
        got = []

        def user(env):
            first = yield pool.acquire("fn")
            yield env.timeout(1.0)
            pool.release(first)
            acquire = pool.acquire("fn")
            got.append(acquire.processed)
            again = yield acquire
            got.append(again is first)
            pool.release(again)

        env.process(user(env))
        env.run(until=10.0)
        assert got == [True, True]


class TestEagerSpawn:
    def _system(self):
        cluster = Cluster(Environment(), ClusterConfig(workers=2))
        return FaaSFlowSystem(cluster, EngineConfig(ship_data=False))

    def test_sees_itself_active_and_restores_spawner(self):
        system = self._system()
        env = system.env
        seen = {}

        def child(env):
            seen["child"] = env.active_process
            yield env.timeout(1.0)

        def spawner(env):
            yield env.timeout(0.5)
            proc = system.spawn_registered(child(env), 7, name="child")
            seen["proc"] = proc
            seen["after"] = env.active_process
            seen["me"] = me

        me = env.process(spawner(env))
        env.run()
        assert seen["child"] is seen["proc"]
        assert seen["after"] is me
        assert env.active_process is None

    def test_first_segment_runs_at_spawn_time(self):
        system = self._system()
        env = system.env
        log = []

        def child(env):
            log.append(("child", env.now))
            yield env.timeout(1.0)

        def spawner(env):
            yield env.timeout(0.5)
            system.spawn_registered(child(env), 7)
            log.append(("spawner", env.now))

        env.process(spawner(env))
        env.run()
        assert log == [("child", 0.5), ("spawner", 0.5)]

    def test_cancel_invocation_interrupts_it(self):
        system = self._system()
        env = system.env
        log = []

        def child(env):
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                log.append(("interrupted", env.now, interrupt.cause.kind))

        def spawner(env):
            system.spawn_registered(child(env), 7, node="w0")
            yield env.timeout(1.0)
            cause = CancelCause(CancelKind.STRAGGLER)
            assert system.registry.cancel_invocation(7, cause) == 1

        env.process(spawner(env))
        env.run()
        assert log == [("interrupted", 1.0, CancelKind.STRAGGLER)]


def _pool(env, max_per_function=2):
    return ContainerPool(
        env,
        "n0",
        CPUAllocator(env, cores=4),
        MemoryAccount(env, capacity=4096 * MB),
        ContainerSpec(cold_start_time=0.5, max_per_function=max_per_function),
    )


# -- property: the in-place path and the forced hop path agree ---------

_GRID = st.sampled_from([0.0, 0.5, 1.0])
_LEAF_OP = st.one_of(
    st.tuples(st.just("r1"), _GRID),
    st.tuples(st.just("r2"), st.sampled_from([1, 2]), _GRID),
    st.tuples(st.just("pool"), st.sampled_from(["f", "g"]), _GRID),
    st.tuples(st.just("done")),
    st.tuples(st.just("now")),
    st.tuples(st.just("wait"), _GRID),
    st.tuples(st.just("gap")),
    st.tuples(st.just("gate"), st.sampled_from([0.5, 1.0, 1.5])),
)
_OP = st.one_of(
    _LEAF_OP,
    st.tuples(st.just("spawn"), st.lists(_LEAF_OP, min_size=1, max_size=4)),
)
_PROGRAM = st.lists(
    st.tuples(_GRID, st.lists(_OP, min_size=1, max_size=8)),
    min_size=1,
    max_size=5,
)


def _run_program(program, stop_on_first):
    env = Environment()
    r1 = Resource(env, capacity=1)
    r2 = CPUAllocator(env, cores=2)
    pool = _pool(env)
    done = env.event()
    done.succeed("done")
    # Shared timers: several processes waiting on one event make a
    # dispatch with more than one callback.
    gates = {t: env.timeout(t) for t in (0.5, 1.0, 1.5)}
    trace = []

    def body(pid, ops):
        for step, op in enumerate(ops):
            trace.append((env.now, pid, step))
            kind = op[0]
            if kind == "r1":
                with r1.request() as req:
                    yield req
                    trace.append((env.now, pid, step, "r1"))
                    yield env.timeout(op[1])
            elif kind == "r2":
                req = r2.request(op[1])
                yield req
                trace.append((env.now, pid, step, "r2"))
                yield env.timeout(op[2])
                r2.release(req)
            elif kind == "pool":
                container = yield pool.acquire(op[1])
                trace.append((env.now, pid, step, "pool", container.container_id))
                yield env.timeout(op[2])
                pool.release(container)
            elif kind == "done":
                yield done
            elif kind == "now":
                event = env.event()
                event.succeed()
                yield event
            elif kind == "wait":
                yield env.timeout(op[1])
            elif kind == "gate":
                yield gates[op[1]]
            elif kind == "gap":
                # Same-instant work queued between a request and its
                # yield: the child's bootstrap.
                with r1.request() as req:
                    env.process(body(f"{pid}.{step}", [("done",)]))
                    yield req
                    trace.append((env.now, pid, step, "gap"))
            else:  # spawn
                env.process(body(f"{pid}.{step}", op[1]))
        trace.append((env.now, pid, "end"))

    def starter(pid, start, ops):
        yield env.timeout(start)
        yield from body(pid, ops)

    procs = [
        env.process(starter(str(pid), start, ops))
        for pid, (start, ops) in enumerate(program)
    ]
    if stop_on_first:
        env.run(until=procs[0])
        trace.append("stopped")
    env.run()
    # Container ids come from a process-wide counter: keep them relative.
    first_id = min(
        (t[4] for t in trace if isinstance(t, tuple) and len(t) == 5),
        default=0,
    )
    trace = [
        t[:4] + (t[4] - first_id,) if isinstance(t, tuple) and len(t) == 5 else t
        for t in trace
    ]
    outcome = (
        env.now,
        r1.in_use,
        r2.busy,
        r2.usage.peak,
        r2.average_usage(),
        pool.cold_starts,
        pool.warm_reuses,
    )
    return trace, outcome, env._eid


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAM, stop_on_first=st.booleans())
def test_in_place_trace_matches_forced_hops(program, stop_on_first):
    fast = _run_program(program, stop_on_first)
    with _forced_hops():
        slow = _run_program(program, stop_on_first)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    # Skipped hops are the only difference: never more queue entries.
    assert fast[2] <= slow[2]
