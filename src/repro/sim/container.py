"""Container lifecycle: cold starts, warm pools, keep-alive, limits.

Reproduces the paper's container policy (Table 3): each function
container gets 1 core and 256 MB, lives 600 s after its last use, and at
most 10 containers per function may exist on one node.  A per-node
:class:`ContainerPool` hands containers to the workflow engines; reuse of
a warm container is free, a cold start pays ``cold_start_time``, and the
pool enforces the per-function cap by queueing excess requests.

Keep-alive expiry is lazy: a container has at most one pending expiry
timer.  A release records ``last_used`` and arms a ``keepalive`` timer
only if none is pending; a warm acquire cancels nothing.  When the timer
fires, an idle container whose ``last_used + keepalive`` has passed is
evicted, an idle one reused since is re-armed for exactly that instant,
and a busy one is left alone (its next release arms a fresh timer).
Eviction therefore happens ``keepalive`` after the last release, as if
every release had re-armed the timer, with at most one timer queued
per container instead of one armed (and mostly cancelled) per release.

FaaStore's memory reclamation (paper §4.3.2) is modeled through
:meth:`Container.set_memory_limit`, the cgroup-limit update that returns
over-provisioned container memory to the node's FaaStore pool.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional

from ..obs.spans import NULL_SPANS, SpanKind
from ..obs.telemetry import NULL_TELEMETRY
from .kernel import Environment, Event, SimulationError, Timeout
from .resources import CPUAllocator, MemoryAccount

__all__ = ["ContainerSpec", "Container", "ContainerPool", "ContainerState"]

_MBYTES = 1024.0 * 1024.0


@dataclass(frozen=True)
class ContainerSpec:
    """Platform-wide container policy (paper Table 3 defaults).

    ``sandbox`` selects the isolation technology (§4.3.2): plain
    containers support cgroup memory-limit updates, so FaaStore can
    reclaim over-provisioned memory per function; MicroVMs do not
    support stable memory hot-unplug, so per-function limit shrinking is
    unavailable and the in-memory storage must be provisioned
    statically.
    """

    memory_limit: float = 256 * _MBYTES
    cores: int = 1
    cold_start_time: float = 0.5
    keepalive: float = 600.0
    max_per_function: int = 10
    sandbox: str = "container"  # "container" | "microvm"

    def __post_init__(self) -> None:
        if self.memory_limit <= 0:
            raise SimulationError("memory_limit must be > 0")
        if self.cores < 1:
            raise SimulationError("cores must be >= 1")
        if self.cold_start_time < 0:
            raise SimulationError("cold_start_time must be >= 0")
        if not 0 < self.keepalive < math.inf:
            raise SimulationError("keepalive must be finite and > 0")
        if self.max_per_function < 1:
            raise SimulationError("max_per_function must be >= 1")
        if self.sandbox not in ("container", "microvm"):
            raise SimulationError(
                f"unknown sandbox kind {self.sandbox!r}"
            )


class ContainerState(Enum):
    COLD_STARTING = "cold-starting"
    IDLE = "idle"
    BUSY = "busy"
    DEAD = "dead"


class Container:
    """One function container on one node."""

    _ids = itertools.count(1)

    def __init__(
        self,
        pool: "ContainerPool",
        function: str,
        version: int,
        memory_handle: int,
        memory_limit: float,
    ):
        self.container_id = next(Container._ids)
        self.pool = pool
        self.function = function
        self.version = version
        self.state = ContainerState.COLD_STARTING
        self.memory_limit = memory_limit
        self.peak_memory_used = 0.0
        self.invocations = 0
        self.last_used = pool.env.now
        self._memory_handle = memory_handle
        # The one pending keep-alive timer, if any.  It may be stale (the
        # container was reused since it was armed); ``_expire`` sorts
        # that out when it fires.  Cancelled only on destroy.
        self._expiry_timer: Optional[Timeout] = None
        # Bound once: every timer armed for this container calls it.
        self._on_expiry = partial(pool._expire, self)

    @property
    def node_name(self) -> str:
        return self.pool.node_name

    def note_memory_use(self, used: float) -> None:
        """Record the invocation's working-set size (Eq. 1 history S)."""
        self.peak_memory_used = max(self.peak_memory_used, used)

    def set_memory_limit(self, new_limit: float) -> float:
        """cgroup-style limit update; returns bytes released (+) or taken (-).

        FaaStore calls this to reclaim over-provisioned memory.  The limit
        can never drop below the container's observed peak working set.
        MicroVM sandboxes reject it — memory hot-unplug is not stable
        (paper §4.3.2).
        """
        if self.pool.spec.sandbox == "microvm":
            raise SimulationError(
                "MicroVM sandboxes do not support memory-limit updates"
            )
        if self.state == ContainerState.DEAD:
            raise SimulationError("cannot resize a dead container")
        floor = self.peak_memory_used
        effective = max(new_limit, floor)
        released = self.memory_limit - effective
        self.pool.memory.resize(self._memory_handle, effective)
        self.memory_limit = effective
        return released

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Container #{self.container_id} fn={self.function} "
            f"v{self.version} {self.state.value} on {self.node_name}>"
        )


class _PoolRequest:
    __slots__ = ("event", "function", "version", "seq")
    _seq = itertools.count(1)

    def __init__(self, event: Event, function: str, version: int):
        self.event = event
        self.function = function
        self.version = version
        self.seq = next(_PoolRequest._seq)


class ContainerPool:
    """Per-node container manager with warm reuse and keep-alive expiry."""

    def __init__(
        self,
        env: Environment,
        node_name: str,
        cpu: CPUAllocator,
        memory: MemoryAccount,
        spec: Optional[ContainerSpec] = None,
    ):
        self.env = env
        self.node_name = node_name
        self.cpu = cpu
        self.memory = memory
        self.spec = spec or ContainerSpec()
        self._idle: dict[str, deque[Container]] = {}
        self._all: dict[str, list[Container]] = {}
        self._waiting: dict[str, deque[_PoolRequest]] = {}
        # Per-function reclaimed limits (paper Fig. 10(b)): containers of
        # these functions are created with a shrunk cgroup limit, the
        # difference having been handed to the FaaStore pool.
        self._function_limits: dict[str, float] = {}
        # Acquire events whose waiter was interrupted while a cold start
        # was in flight for them: the container joins the pool unclaimed.
        self._abandoned: set[int] = set()
        self.offline = False
        self.cold_starts = 0
        self.warm_reuses = 0
        self.node_failures = 0
        self.spans = NULL_SPANS
        self.telemetry = NULL_TELEMETRY

    def set_function_limit(self, function: str, limit: float) -> None:
        """Create future containers of ``function`` with ``limit`` bytes.

        MicroVM sandboxes cannot shrink memory (§4.3.2); the call is
        rejected there.  Existing containers are unaffected (they will
        recycle through keep-alive or red-black rollout).
        """
        if self.spec.sandbox == "microvm":
            raise SimulationError(
                "MicroVM sandboxes provision memory statically"
            )
        if limit <= 0 or limit > self.spec.memory_limit:
            raise SimulationError(
                f"function limit {limit} outside (0, {self.spec.memory_limit}]"
            )
        self._function_limits[function] = float(limit)

    def function_limit(self, function: str) -> float:
        return self._function_limits.get(function, self.spec.memory_limit)

    # -- capacity ------------------------------------------------------
    def count(self, function: str) -> int:
        """Live containers (cold-starting, idle, or busy) for ``function``."""
        return len(self._all.get(function, []))

    @property
    def total_containers(self) -> int:
        return sum(len(cs) for cs in self._all.values())

    def capacity_left(self, function: str) -> int:
        """How many more containers of ``function`` this node may create."""
        by_policy = self.spec.max_per_function - self.count(function)
        by_memory = int(self.memory.available // self.spec.memory_limit)
        return max(0, min(by_policy, by_memory))

    # -- acquire / release ----------------------------------------------
    def acquire(self, function: str, version: int = 0) -> Event:
        """Event that fires with a ready :class:`Container`.

        Reuses an idle warm container of the same function and version if
        one exists; otherwise cold-starts a new one, unless the
        per-function cap is hit, in which case the request queues until a
        container frees up.
        """
        event = self.env.event()
        idle = self._idle.get(function)
        while idle:
            container = idle.popleft()
            if container.state != ContainerState.IDLE:
                continue
            if container.version != version:
                # Out-of-date (red-black) container: recycle it.
                self._destroy(container)
                continue
            container.state = ContainerState.BUSY
            container.invocations += 1
            self.warm_reuses += 1
            if self.telemetry.enabled:
                self._warm_reuse_handle(function).inc(1.0)
            if self.spans.enabled:
                self.spans.event(
                    SpanKind.CONTAINER, node=self.node_name,
                    function=function, lifecycle="warm-reuse",
                    container=container.container_id,
                )
            # The acquiring process yields this at once: hand it over in
            # place when the queued grant would be the next dispatch.
            if not self.env._settle_in_place(event, container):
                event.succeed(container)
            return event
        if self._can_cold_start(function):
            self._cold_start(function, version, event)
            return event
        # Either the per-function cap or the node's memory is exhausted:
        # queue until a container frees a slot (or its memory).
        self._waiting.setdefault(function, deque()).append(
            _PoolRequest(event, function, version)
        )
        return event

    def _can_cold_start(self, function: str) -> bool:
        return (
            not self.offline
            and self.count(function) < self.spec.max_per_function
            and self.memory.available >= self.function_limit(function)
        )

    def set_offline(self, offline: bool) -> None:
        """Stop (or resume) creating containers on this node.

        While offline every acquire queues; coming back online serves
        the backlog with fresh cold starts.
        """
        self.offline = bool(offline)
        if not self.offline:
            self._serve_waiting()

    def fail_all(self) -> int:
        """Node crash: every container dies at once; returns the count.

        Busy containers' memory frees immediately (the processes holding
        them are interrupted separately and must not release a dead
        container); cold-starting containers die too, their waiters get
        back in line for a fresh start.  Take the pool offline first so
        the freed capacity is not instantly re-consumed.
        """
        destroyed = 0
        for containers in list(self._all.values()):
            for container in list(containers):
                self._destroy(container, serve_waiting=False)
                destroyed += 1
        for idle in self._idle.values():
            idle.clear()
        if destroyed:
            self.node_failures += 1
        return destroyed

    def abandon(self, event: Event) -> None:
        """A waiter gave up on an acquire (it was interrupted).

        Safe at any stage of the request: still queued (withdrawn), cold
        start in flight (the container joins the warm pool when ready),
        or granted-but-undelivered (the container is released).
        """
        if event.triggered:
            container = event.value
            if (
                isinstance(container, Container)
                and container.state == ContainerState.BUSY
            ):
                self.release(container)
            return
        for queue in self._waiting.values():
            for request in queue:
                if request.event is event:
                    queue.remove(request)
                    return
        # Pending but not queued: a cold start is running for it.
        self._abandoned.add(id(event))

    def release(self, container: Container) -> None:
        """Return a container to the warm pool (or hand it to a waiter)."""
        if container.state != ContainerState.BUSY:
            raise SimulationError(f"release of non-busy {container!r}")
        container.last_used = self.env.now
        waiting = self._waiting.get(container.function)
        if waiting:
            request = waiting.popleft()
            if request.version == container.version:
                container.invocations += 1
                self.warm_reuses += 1
                if self.telemetry.enabled:
                    self._warm_reuse_handle(container.function).inc(1.0)
                if self.spans.enabled:
                    self.spans.event(
                        SpanKind.CONTAINER, node=self.node_name,
                        function=container.function, lifecycle="warm-reuse",
                        container=container.container_id,
                    )
                request.event.succeed(container)
            else:
                # Waiter wants a newer (red-black) version: recycle this
                # container and use its slot for a fresh cold start.
                self._destroy(container, serve_waiting=False)
                self._cold_start(request.function, request.version, request.event)
            return
        container.state = ContainerState.IDLE
        self._idle.setdefault(container.function, deque()).append(container)
        if container._expiry_timer is None:
            self._arm_expiry(container, self.env.timeout(self.spec.keepalive))

    def crash(self, container: Container) -> None:
        """A busy container died (OOM, runtime fault): destroy it.

        Its memory frees immediately and queued requests may cold-start
        into the slot.
        """
        if container.state != ContainerState.BUSY:
            raise SimulationError(f"crash of non-busy {container!r}")
        self._destroy(container)

    def recycle_version(self, function: str, version: int) -> int:
        """Destroy idle containers of ``function`` older than ``version``.

        Red-black deployment support: busy containers finish their current
        invocation and are recycled at release time (version mismatch).
        Returns the number destroyed now.
        """
        idle = self._idle.get(function)
        if not idle:
            return 0
        stale = [c for c in idle if c.version < version]
        for container in stale:
            idle.remove(container)
            self._destroy(container)
        return len(stale)

    def prewarm(self, function: str, count: int = 1, version: int = 0) -> int:
        """Start containers ahead of demand (the §7 prewarm strategies).

        Creates up to ``count`` additional containers for ``function``;
        they pay their cold start now and join the warm pool when ready.
        Returns how many were actually started (capped by the
        per-function limit and node memory).
        """
        if count < 0:
            raise SimulationError(f"negative prewarm count {count}")
        started = 0
        for _ in range(count):
            if not self._can_cold_start(function):
                break
            ready = self.env.event()
            self._cold_start(function, version, ready)

            def _park(event: Event) -> None:
                # The container joins the warm pool (or serves a waiter
                # directly).  Its invocation count stays at 1 so later
                # acquisitions read as warm reuses — the cold start was
                # paid here, ahead of any invocation.
                self.release(event.value)

            ready.callbacks.append(_park)
            started += 1
        return started

    def drain(self) -> int:
        """Destroy every idle container on the node; returns count."""
        destroyed = 0
        for idle in self._idle.values():
            while idle:
                self._destroy(idle.popleft())
                destroyed += 1
        return destroyed

    # -- internals -------------------------------------------------------
    def _cold_start(self, function: str, version: int, event: Event) -> None:
        limit = self.function_limit(function)
        handle = self.memory.reserve(limit, tag="container")
        container = Container(self, function, version, handle, limit)
        self._all.setdefault(function, []).append(container)
        self.cold_starts += 1
        started = self.env.now
        timer = self.env.timeout(self.spec.cold_start_time)

        def _ready(_: Event) -> None:
            if container.state == ContainerState.DEAD:
                # The node died mid cold start.  The waiter (unless it
                # was interrupted too) gets back in line to start fresh
                # once the node is reachable again.
                if not self._take_abandoned(event):
                    self._requeue(function, version, event)
                return
            container.state = ContainerState.BUSY
            container.invocations += 1
            if self.telemetry.enabled:
                self.telemetry.inc(
                    "container.cold_starts", 1.0,
                    node=self.node_name, function=function,
                )
                self.telemetry.observe(
                    "container.cold_start_seconds", self.env.now - started,
                    node=self.node_name, function=function,
                )
            if self.spans.enabled:
                self.spans.record(
                    SpanKind.CONTAINER, started, node=self.node_name,
                    function=function, lifecycle="cold-start",
                    container=container.container_id,
                )
            if self._take_abandoned(event):
                # Nobody is waiting any more: park the container warm.
                self.release(container)
                return
            event.succeed(container)

        timer.callbacks.append(_ready)

    def _take_abandoned(self, event: Event) -> bool:
        key = id(event)
        if key in self._abandoned:
            self._abandoned.remove(key)
            return True
        return False

    def _requeue(self, function: str, version: int, event: Event) -> None:
        if self._can_cold_start(function):
            self._cold_start(function, version, event)
        else:
            self._waiting.setdefault(function, deque()).append(
                _PoolRequest(event, function, version)
            )

    def _destroy(self, container: Container, serve_waiting: bool = True) -> None:
        if container.state == ContainerState.DEAD:
            return
        was_busy = container.state == ContainerState.BUSY
        container.state = ContainerState.DEAD
        timer = container._expiry_timer
        if timer is not None:
            timer.cancel()
            container._expiry_timer = None
        self.memory.free(container._memory_handle)
        if self.telemetry.enabled:
            self.telemetry.inc(
                "container.crashes" if was_busy else "container.evictions",
                1.0, node=self.node_name, function=container.function,
            )
        if self.spans.enabled:
            self.spans.event(
                SpanKind.CONTAINER, node=self.node_name,
                function=container.function,
                lifecycle="crash" if was_busy else "evict",
                container=container.container_id,
            )
        peers = self._all.get(container.function, [])
        if container in peers:
            peers.remove(container)
        if not serve_waiting:
            return
        # Memory and possibly a per-function slot opened up: serve the
        # oldest queued request that can now cold-start (any function).
        self._serve_waiting()

    def _serve_waiting(self) -> None:
        while True:
            candidates = [
                queue[0]
                for function, queue in self._waiting.items()
                if queue and self._can_cold_start(function)
            ]
            if not candidates:
                return
            request = min(candidates, key=lambda r: r.seq)
            self._waiting[request.function].popleft()
            self._cold_start(request.function, request.version, request.event)

    def _warm_reuse_handle(self, function: str):
        cache = self.telemetry.site_cache("container.warm_reuses")
        handle = cache.get((self.node_name, function))
        if handle is None:
            handle = cache[self.node_name, function] = self.telemetry.bind_counter(
                "container.warm_reuses", node=self.node_name, function=function
            )
        return handle

    def _arm_expiry(self, container: Container, timer: Timeout) -> None:
        timer.callbacks.append(container._on_expiry)
        container._expiry_timer = timer

    def _expire(self, container: Container, _: Event) -> None:
        """A keep-alive timer fired: evict ``container`` if it is due.

        The timer was armed at some release; the container may have been
        reused since.  Busy: nothing to do, its next release arms a new
        timer.  Idle but released later than the timer assumed: re-arm
        at ``last_used + keepalive`` (the exact float the release's own
        ``now + keepalive`` timer would have carried).  Otherwise evict.
        """
        container._expiry_timer = None
        if container.state != ContainerState.IDLE:
            return
        deadline = container.last_used + self.spec.keepalive
        if deadline > self.env.now:
            self._arm_expiry(container, self.env.schedule_at(deadline))
            return
        idle = self._idle.get(container.function)
        if idle and container in idle:
            idle.remove(container)
        self._destroy(container)
