"""Hypothesis stateful tests: random op sequences vs pool/store invariants.

The container pool and the local memory store sit under every
experiment; these state machines hammer them with arbitrary interleaved
operations and check the invariants that must hold after every step.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim.container import ContainerPool, ContainerSpec, ContainerState
from repro.sim.kernel import Environment
from repro.sim.resources import CPUAllocator, MemoryAccount
from repro.sim.storage import LocalMemStore

MB = 1024.0 * 1024.0
FUNCTIONS = ["fa", "fb", "fc"]


class ContainerPoolMachine(RuleBasedStateMachine):
    """Acquire/release/recycle/expire/drain/crash in arbitrary order."""

    @initialize()
    def setup(self):
        self.env = Environment()
        self.pool = ContainerPool(
            self.env,
            "worker-0",
            CPUAllocator(self.env, cores=8),
            MemoryAccount(self.env, capacity=1024 * MB),  # 4 containers
            ContainerSpec(
                cold_start_time=0.05, keepalive=50.0, max_per_function=3
            ),
        )
        self.busy = []
        self.pending = []
        # Every keep-alive eviction as (container, time).  Containers
        # bind ``pool._expire`` when created, so the spy sees them all.
        self.expired = []
        expire = self.pool._expire

        def spy(container, event):
            expire(container, event)
            if container.state == ContainerState.DEAD:
                self.expired.append((container, self.env.now))

        self.pool._expire = spy

    @rule(function=st.sampled_from(FUNCTIONS))
    def acquire(self, function):
        self.pending.append(self.pool.acquire(function))

    @rule()
    def settle(self):
        self.env.run(until=self.env.now + 0.2)
        still_pending = []
        for event in self.pending:
            if event.processed:
                self.busy.append(event.value)
            else:
                still_pending.append(event)
        self.pending = still_pending

    @rule(data=st.data())
    def release_one(self, data):
        alive = [c for c in self.busy if c.state == ContainerState.BUSY]
        if not alive:
            return
        container = data.draw(st.sampled_from(alive))
        self.busy.remove(container)
        self.pool.release(container)

    @rule(function=st.sampled_from(FUNCTIONS))
    def recycle(self, function):
        self.pool.recycle_version(function, version=1)

    @rule()
    def let_keepalive_expire(self):
        self.env.run(until=self.env.now + 60.0)

    @rule(
        function=st.sampled_from(FUNCTIONS),
        seconds=st.sampled_from([1.0, 60.0]),
    )
    def use_once(self, function, seconds):
        """Acquire, stay busy ``seconds`` (60: past any pending expiry),
        release."""
        event = self.pool.acquire(function)
        self.env.run(until=self.env.now + 0.2)
        if not event.processed:
            self.pending.append(event)
            return
        self.env.run(until=self.env.now + seconds)
        self.pool.release(event.value)

    @rule(seconds=st.sampled_from([10.0, 25.0, 49.9]))
    def idle_a_while(self, seconds):
        self.env.run(until=self.env.now + seconds)

    @rule()
    def drain(self):
        self.pool.drain()

    @rule()
    def crash_node(self):
        self.pool.set_offline(True)
        self.pool.fail_all()
        self.pool.set_offline(False)

    @invariant()
    def memory_never_overcommitted(self):
        assert self.pool.memory.reserved <= self.pool.memory.capacity + 1e-6

    @invariant()
    def per_function_cap_respected(self):
        for function in FUNCTIONS:
            assert self.pool.count(function) <= 3

    @invariant()
    def reservations_match_live_containers(self):
        live = sum(
            1
            for containers in self.pool._all.values()
            for c in containers
            if c.state != ContainerState.DEAD
        )
        reserved = self.pool.memory.reserved_by_tag("container")
        assert reserved == pytest.approx(live * 256 * MB)

    @invariant()
    def idle_containers_have_a_pending_timer(self):
        containers = [c for cs in self.pool._all.values() for c in cs]
        containers += [c for idle in self.pool._idle.values() for c in idle]
        for c in containers:
            if c.state == ContainerState.IDLE:
                timer = c._expiry_timer
                assert timer is not None
                assert not timer.cancelled and not timer.processed

    @invariant()
    def evicted_exactly_keepalive_after_last_use(self):
        for container, when in self.expired:
            assert container.last_used + 50.0 <= when
        now = self.env.now
        for containers in self.pool._all.values():
            for c in containers:
                if c.state == ContainerState.IDLE:
                    assert c.last_used + 50.0 >= now

    @invariant()
    def dead_containers_not_listed(self):
        for containers in self.pool._all.values():
            assert all(c.state != ContainerState.DEAD for c in containers)


class MemStoreMachine(RuleBasedStateMachine):
    """Put/get/delete with quota changes: usage accounting must balance."""

    @initialize()
    def setup(self):
        self.env = Environment()
        self.store = LocalMemStore(self.env, "worker-0", quota=10 * MB)
        self.expected = {}

    @rule(
        key=st.sampled_from(["k1", "k2", "k3", "k4"]),
        size=st.floats(min_value=0.1 * MB, max_value=6 * MB),
    )
    def put(self, key, size):
        event = self.store.try_put(key, size)
        if event is not None:
            self.env.run(until=event)
            # Re-putting an existing key is an idempotent no-op.
            self.expected.setdefault(key, size)

    @rule(key=st.sampled_from(["k1", "k2", "k3", "k4"]))
    def delete(self, key):
        self.store.delete(key)
        self.expected.pop(key, None)

    @rule(quota=st.floats(min_value=0, max_value=20 * MB))
    def resize_quota(self, quota):
        self.store.set_quota(quota)

    @invariant()
    def usage_matches_contents(self):
        assert self.store.used == pytest.approx(
            sum(self.expected.values()), abs=1e-6
        )
        assert self.store.key_count == len(self.expected)

    @invariant()
    def membership_consistent(self):
        for key in self.expected:
            assert key in self.store


TestContainerPoolStateful = ContainerPoolMachine.TestCase
TestContainerPoolStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestMemStoreStateful = MemStoreMachine.TestCase
TestMemStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
