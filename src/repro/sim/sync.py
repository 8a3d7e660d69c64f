"""Synchronization primitives built on the simulation kernel.

Provides the queueing abstractions the cluster model needs:

- :class:`Resource` — a capacity-limited resource with FIFO request
  queueing (CPU cores, concurrent-connection limits).
- :class:`Store` — an unbounded or bounded FIFO object queue
  (task queues that containers pull work from).
- :class:`Level` — a continuous quantity that can be drawn down and
  refilled (memory pools, storage quotas).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Level"]


class _Request(Event):
    """Pending acquisition of one resource slot.

    Usable as a context manager so callers release even on interrupt::

        with resource.request() as req:
            yield req
            ...

    ``granted`` is True from the grant until the release.
    """

    __slots__ = ("resource", "amount", "granted")

    def __init__(self, resource: "Resource", amount: int):
        if amount < 1 or amount > resource.capacity:
            raise SimulationError(
                f"request of {amount} outside [1, {resource.capacity}]"
            )
        super().__init__(resource.env)
        self.resource = resource
        self.amount = amount
        self.granted = False

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with FIFO granting.

    >>> env = Environment()
    >>> cpu = Resource(env, capacity=2)
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[_Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, amount: int = 1) -> _Request:
        """Return an event that fires when ``amount`` slots are granted.

        Asked from a running process while a slot is free and nobody
        waits, the request may come back already granted and processed
        (an in-place grant, ``Environment._settle_in_place``) when its
        queued grant would have been the very next dispatch.  Yield it
        as usual; callbacks appended to it would never run, which is why
        callback-style waiters use :meth:`_take` and
        :meth:`_queued_request`.
        """
        req = _Request(self, amount)
        if (
            not self._waiting
            and self._in_use + amount <= self.capacity
            and self.env._settle_in_place(req, req)
        ):
            self._in_use += amount
            req.granted = True
            return req
        self._waiting.append(req)
        self._grant()
        return req

    def _queued_request(self, amount: int = 1) -> _Request:
        """:meth:`request` that always grants through the queue.

        For waiters that attach callbacks to the request instead of
        yielding it.
        """
        req = _Request(self, amount)
        self._waiting.append(req)
        self._grant()
        return req

    def _take(self, amount: int = 1) -> bool:
        """Take ``amount`` slots in place, with no request, if allowed.

        The request-free form of :meth:`request`'s in-place grant, under
        the same conditions (a slot free, nobody waiting, and
        ``Environment._can_continue``), for a waiter that runs as a kernel
        callback rather than a process.  On False nothing changed: queue
        a :meth:`_queued_request` instead.  Give the slots back with
        :meth:`_put_back`.
        """
        if (
            self._waiting
            or self._in_use + amount > self.capacity
            or not self.env._can_continue()
        ):
            return False
        self._in_use += amount
        return True

    def _put_back(self, amount: int = 1) -> None:
        """Return slots taken by :meth:`_take`; grant the next waiters."""
        self._in_use -= amount
        self._grant()

    def holds(self, request: _Request) -> bool:
        """Whether ``request`` has been granted and not yet released."""
        return request.granted and request.resource is self

    def release(self, request: _Request) -> None:
        """Return the slots held by ``request`` (idempotent).

        An ungranted request is withdrawn from the queue instead.
        """
        if request.granted and request.resource is self:
            request.granted = False
            self._in_use -= request.amount
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request: _Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self._waiting:
            head = self._waiting[0]
            if self._in_use + head.amount > self.capacity:
                break
            self._waiting.popleft()
            self._in_use += head.amount
            head.granted = True
            head.succeed(head)


class _StoreGet(Event):
    __slots__ = ()


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any):
        super().__init__(env)
        self.item = item


class Store:
    """FIFO object queue with blocking ``get`` and (optionally) ``put``."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[_StoreGet] = deque()
        self._putters: deque[_StorePut] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> _StorePut:
        """Return an event that fires once ``item`` is enqueued."""
        put = _StorePut(self.env, item)
        self._putters.append(put)
        self._settle()
        return put

    def get(self) -> _StoreGet:
        """Return an event that fires with the next item."""
        get = _StoreGet(self.env)
        self._getters.append(get)
        self._settle()
        return get

    def cancel_get(self, get: _StoreGet) -> None:
        try:
            self._getters.remove(get)
        except ValueError:
            pass

    def _settle(self) -> None:
        moved = True
        while moved:
            moved = False
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                put = self._putters.popleft()
                self._items.append(put.item)
                put.succeed()
                moved = True
            while self._getters and self._items:
                get = self._getters.popleft()
                get.succeed(self._items.popleft())
                moved = True


class _LevelGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class Level:
    """A continuous quantity with blocking draw-down.

    ``get`` blocks until the requested amount is available; ``put`` never
    blocks but cannot exceed ``capacity``.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        initial: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        if initial < 0 or initial > capacity:
            raise SimulationError(
                f"initial level {initial} outside [0, {capacity}]"
            )
        self.env = env
        self.capacity = capacity
        self._level = float(initial)
        self._getters: deque[_LevelGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> None:
        if amount < 0:
            raise SimulationError(f"cannot put negative amount {amount}")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError(
                f"put of {amount} exceeds capacity {self.capacity} "
                f"(level {self._level})"
            )
        self._level = min(self.capacity, self._level + amount)
        self._settle()

    def get(self, amount: float) -> _LevelGet:
        if amount < 0:
            raise SimulationError(f"cannot get negative amount {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"get of {amount} can never be satisfied "
                f"(capacity {self.capacity})"
            )
        get = _LevelGet(self.env, amount)
        self._getters.append(get)
        self._settle()
        return get

    def try_get(self, amount: float) -> bool:
        """Non-blocking draw; returns whether it succeeded."""
        if amount < 0:
            raise SimulationError(f"cannot get negative amount {amount}")
        if self._getters or amount > self._level + 1e-9:
            return False
        self._level -= amount
        return True

    def _settle(self) -> None:
        while self._getters and self._getters[0].amount <= self._level + 1e-9:
            get = self._getters.popleft()
            self._level -= get.amount
            get.succeed(get.amount)
