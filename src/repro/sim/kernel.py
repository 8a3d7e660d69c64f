"""Discrete-event simulation kernel.

This module is the foundation of the cluster substrate: a small,
self-contained discrete-event engine in the style of SimPy.  Simulation
actors (workflow engines, containers, network flows, clients) are written
as Python generator functions that ``yield`` events; the
:class:`Environment` advances a virtual clock and resumes each process
when the event it waits on fires.

The event queue is one binary heap of ``(when, eid, event)`` entries,
dispatched by one loop in :meth:`Environment.run` (and one event at a
time by :meth:`Environment.step`).  Cancelled timeouts stay queued as
tombstones and are dropped unprocessed; the heap is compacted once they
make up most of it.

Example
-------
>>> env = Environment()
>>> def hello(env, log):
...     yield env.timeout(5.0)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(hello(env, log))
>>> env.run()
>>> log
[5.0]
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

# CPython refcount introspection lets ``step()`` prove that a processed
# Timeout has no remaining referents and can be recycled.  On runtimes
# without ``sys.getrefcount`` the free-list simply stays empty.
_getrefcount = getattr(sys, "getrefcount", None)

# Upper bound on the per-environment Timeout free-list; beyond this,
# processed timers are left for the garbage collector as usual.
_POOL_CAP = 128

# Cancelled timers the queue tolerates before it considers compacting
# (see ``Environment._note_cancelled_timer``).
TIMER_COMPACTION_THRESHOLD = 64

_INF = float("inf")

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopProcess",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party may attach a ``cause`` explaining why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised to exit a process early with a return value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the event queue, not yet processed
PROCESSED = 2  # callbacks have run


class Event:
    """An occurrence at a point in simulated time that processes wait on.

    Events move through three states: *pending* (created, not fired),
    *triggered* (value set, callbacks scheduled), and *processed*
    (callbacks executed).  Waiting processes register themselves in
    :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok: Optional[bool] = None

    # -- inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """Whether the event succeeded.  ``None`` until triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- firing ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def _process_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        if len(callbacks) < 2:
            if callbacks:
                callbacks[0](self)
            return
        # Only the last callback may continue a process in place (see
        # Environment._can_continue): the earlier ones still have
        # siblings to run after them.
        env = self.env
        last = callbacks.pop()
        env._tail = False
        for callback in callbacks:
            callback(self)
        env._tail = True
        last(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.env.now}>"


# What ``run`` stops on when ``until`` is not an event: never processed.
_NO_STOP = Event.__new__(Event)
_NO_STOP._state = PENDING


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay", "_cancelled")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Born triggered: initialize every slot directly rather than
        # paying for Event.__init__ and then overwriting half of it.
        if not 0 <= delay < _INF:  # NaN or inf would corrupt the clock
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay}"
            )
        self.env = env
        self.callbacks = []
        self._state = TRIGGERED
        self._value = value
        self._ok = True
        self._cancelled = False
        self.delay = delay
        # _schedule inlined: this is the pool-miss half of the hottest
        # allocation path in the kernel (timeout() handles the pool-hit
        # half), and the extra call level is measurable at millions of
        # timers per run.
        env._eid += 1
        heappush(env._queue, (env._now + delay, env._eid, self))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Discard the timeout: its callbacks will never run.

        The queue entry becomes a *tombstone*: it is dropped unprocessed
        — no callback invocation, and the simulation clock never
        advances to its deadline.  The entry usually stays queued until
        its scheduled time surfaces, and is compacted out in bulk when
        tombstones come to dominate the queue; either way the observable
        simulation — clock, callback order, final drain time — is the
        same.  This is for timers that get superseded before they fire
        (the network's completion wake-up, an invocation's execution
        watchdog).  The caller is responsible for not cancelling a
        timeout some process still waits on (that process would never
        resume).  Cancelling twice is a no-op; cancelling an
        already-processed timeout is an error.
        """
        if self._state == PROCESSED:
            raise SimulationError("cannot cancel a processed timeout")
        if self._cancelled:
            return
        self._cancelled = True
        self.env._note_cancelled_timer()

    def _process_callbacks(self) -> None:
        if self._cancelled:
            # Dropped without running callbacks.  The state still moves
            # to PROCESSED (the lifecycle other kernel paths and the
            # free-list expect) and the flag resets so a pooled reuse
            # starts clean.
            self._cancelled = False
            self.env._cancelled_timers -= 1
            self._state = PROCESSED
            self.callbacks.clear()
            return
        Event._process_callbacks(self)


class _Resume:
    """Minimal queue entry that re-enters one callback without a full Event.

    The kernel schedules these wherever it used to allocate a throwaway
    trampoline :class:`Event` (process bootstrap, resuming a process that
    yielded an already-processed event when it cannot continue in place,
    interrupt delivery).  It quacks like a triggered event for the one
    consumer it has: ``Process._resume`` reads ``ok`` and ``_value``.
    """

    __slots__ = ("_callback", "ok", "_value")

    def __init__(self, callback: Callable[["_Resume"], None], ok: bool, value: Any):
        self._callback = callback
        self.ok = ok
        self._value = value

    def _process_callbacks(self) -> None:
        self._callback(self)


# The value a process's first segment receives when it starts at once
# (``Environment._start_now``): never queued, never recycled.
_START = _Resume(None, True, None)


class _ConditionValue(dict):
    """Mapping of event -> value for condition events (AllOf / AnyOf)."""


class _Condition(Event):
    """Base for composite events over several child events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self._on_empty()
            return
        if len(self._events) == 1:
            # Single-event fast path: AllOf and AnyOf degenerate to the
            # same "mirror the one child" behavior, so skip the counting
            # machinery and the _collect_values scan entirely.
            event = self._events[0]
            if event.env is not env:
                raise SimulationError("events from different environments")
            if event.processed:
                self._mirror_single(event)
            else:
                event.callbacks.append(self._mirror_single)
            return
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _on_empty(self) -> None:
        """Hook for the zero-event case; AllOf succeeds, AnyOf raises."""
        self.succeed(_ConditionValue())

    def _mirror_single(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event.ok:
            value = _ConditionValue()
            value[event] = event._value
            self.succeed(value)
        else:
            self.fail(event._value)

    def _collect_values(self) -> _ConditionValue:
        result = _ConditionValue()
        for event in self._events:
            # Timeouts are born triggered; only events whose callbacks ran
            # have actually occurred in simulated time.
            if event.processed and event.ok:
                result[event] = event._value
        return result

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once all child events have fired; fails fast on any failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Fires as soon as any child event fires.

    An ``AnyOf`` over zero events is rejected: "any of nothing" can never
    fire, and silently succeeding (the ``AllOf`` vacuous-truth semantics)
    hides bugs where a waiter list was accidentally empty.
    """

    __slots__ = ()

    def _on_empty(self) -> None:
        raise SimulationError("AnyOf requires at least one event")

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.succeed(self._collect_values())


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers (with the generator's return
    value) when the generator exits, so processes can wait on each other.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        self._bind(env, generator, name)
        # Kick off the process at the current simulation time.
        env._schedule_resume(self._resume, True, None)

    def _bind(
        self, env: "Environment", generator: Generator[Event, Any, Any], name: str
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        Event.__init__(self, env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process currently waits on.
        target = self._target
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        self.env._schedule_resume(self._resume, False, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            # Stale wake-up: the process finished earlier in this
            # timestep (its awaited value was already queued when an
            # interrupt was scheduled, or two parties interrupted it).
            # Sending into the exhausted generator would re-trigger the
            # event; dropping the delivery is the correct semantics.
            return
        env = self.env
        self._target = None
        ok = event.ok
        value = event._value
        # A loop, not recursion: each pass is one segment, and a yield
        # of an already-processed event continues here when the kernel
        # proves the hop through the queue would be the very next
        # dispatch anyway (see Environment._can_continue).
        while True:
            env._active_process = self
            env._settled = None
            try:
                if ok:
                    next_target = self._generator.send(value)
                else:
                    next_target = self._generator.throw(value)
            except StopIteration as stop:
                env._active_process = None
                self._exit(True, stop.value)
                return
            except StopProcess as stop:
                env._active_process = None
                self._generator.close()
                self._exit(True, stop.value)
                return
            except Interrupt:
                # The process let an interrupt escape: treat as normal exit.
                env._active_process = None
                self._exit(True, None)
                return
            except BaseException as error:
                env._active_process = None
                if not self.callbacks:
                    # Nobody is waiting for this process; surface the crash.
                    env._crashed.append((self, error))
                self._exit(False, error)
                return
            env._active_process = None
            if not isinstance(next_target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {next_target!r}, "
                    "which is not an Event"
                )
            if next_target._state != PROCESSED:
                self._target = next_target
                next_target.callbacks.append(self._resume)
                return
            # An event settled in place during this very segment stands
            # for a queued grant that would have been the first entry
            # at this instant, so continuing is exact even if the
            # segment queued more same-instant work after asking for it.
            if next_target is not env._settled and not env._can_continue():
                # The event already fired; resume in the same timestep
                # through a bare _Resume instead of a trampoline Event.
                env._schedule_resume(
                    self._resume, next_target._ok, next_target._value
                )
                return
            ok = next_target._ok
            value = next_target._value

    def _exit(self, ok: bool, value: Any) -> None:
        """Trigger the process's own event with its outcome.

        With no waiters yet, the completion is marked processed in
        place instead of going through the queue: there are no
        callbacks to run, dropping a queue entry never reorders the
        others, and a later ``yield`` on the process resumes in the
        same timestep like any yield of a processed event.
        """
        if self.callbacks:
            if ok:
                self.succeed(value)
            else:
                self.fail(value)
            return
        self._ok = ok
        self._value = value
        self._state = PROCESSED


class Environment:
    """Holds the event queue and the simulation clock.

    The queue is a binary heap (``heapq`` on the plain list ``_queue``)
    of ``(when, eid, event)`` entries.  ``eid`` is a monotonically
    increasing tie-breaker, so same-instant entries fire in creation
    order and tuple comparison never reaches the event object.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_process",
        "_crashed",
        "_timeout_pool",
        "_cancelled_timers",
        "_tail",
        "_stop",
        "_settled",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._crashed: list[tuple[Process, BaseException]] = []
        self._cancelled_timers = 0
        # Never rebound: compaction filters it in place, because run()
        # holds a local alias while it dispatches.
        self._queue: list[tuple[float, int, Event]] = []
        # Free-list for the hottest allocation: Timeout events, recycled
        # only once provably unreferenced.
        self._timeout_pool: list[Timeout] = []
        # In-place continuation state (see _can_continue): whether the
        # running callback is the last one of the event being
        # dispatched, the event ``run(until=event)`` stops on (``_NO_STOP``
        # otherwise), and the event settled in place during the current
        # process segment.
        self._tail = True
        self._stop: Event = _NO_STOP
        self._settled: Optional[Event] = None

    # -- clock -------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def queued_events(self) -> int:
        """Entries queued, including cancelled-but-queued tombstones."""
        return len(self._queue)

    # -- event factories ----------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if not 0 <= delay < _INF:
                raise SimulationError(
                    f"timeout delay must be finite and >= 0, got {delay}"
                )
            event = pool.pop()
            event._state = TRIGGERED
            event._ok = True
            event._value = value
            event.delay = delay
            self._eid += 1
            heappush(self._queue, (self._now + delay, self._eid, event))
            return event
        return Timeout(self, delay, value)

    def schedule_at(self, when: float, value: Any = None) -> Timeout:
        """Schedule a timeout at an *absolute* simulation time.

        Unlike ``timeout(when - now)``, the heap entry carries ``when``
        exactly — no ``now + delay`` round-trip through floating point —
        so two environments that agree on ``when`` fire the event at
        bit-identical times regardless of what their local clocks read
        when it was scheduled.  Transfer plans use it to start flows at
        exact times (a traffic cell fires its slice of a plan at the
        same timestamps as one environment running all of it), and the
        network model uses it for flow-completion timers.  ``when`` must
        be finite and not in the past.
        """
        when = float(when)
        if not self._now <= when < _INF:
            raise SimulationError(
                f"cannot schedule at t={when}: it must be finite and not "
                f"before the clock ({self._now})"
            )
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event._state = TRIGGERED
            event._ok = True
            event._value = value
        else:
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = []
            event._state = TRIGGERED
            event._value = value
            event._ok = True
            event._cancelled = False
        event.delay = when - self._now
        self._eid += 1
        heappush(self._queue, (when, self._eid, event))
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, self._eid, event))

    def _schedule_resume(
        self, callback: Callable[[Any], None], ok: bool, value: Any
    ) -> None:
        """Schedule a bare callback re-entry at the current time.

        Replaces the old pattern of allocating a trampoline ``Event`` +
        callback list + succeed/fail just to hop through the queue.
        """
        self._eid += 1
        heappush(
            self._queue, (self._now, self._eid, _Resume(callback, ok, value))
        )

    def _can_continue(self) -> bool:
        """Whether a continuation may run in place instead of hopping.

        A hop through the queue at the current instant may be skipped
        only when it would be the very next dispatch, which takes three
        things:

        (a) nothing is queued at the current instant: the heap is empty
            or its head lies in the future (a cancelled timer at the
            head counts as queued, which only makes the answer
            conservative);
        (b) the running callback is the last callback of the event
            being dispatched;
        (c) the event being dispatched is not the one ``run(until=...)``
            stops on, so the continuation cannot run past the return.

        This is the one guard every in-place site asks: a process
        yielding an already-processed event (``Process._resume``) and
        an event settled in place (``_settle_in_place``).
        """
        if not self._tail or self._stop._state == PROCESSED:
            return False
        queue = self._queue
        return not queue or queue[0][0] > self._now

    def _settle_in_place(self, event: Event, value: Any) -> bool:
        """Mark a fresh, callback-free ``event`` processed with ``value``.

        The in-place form of ``event.succeed(value)`` for an event the
        running process is about to yield: instead of a queue entry that
        the dispatch loop would pop straight back, the event is
        processed now and the process continues past its ``yield``.
        Returns False, leaving the event untouched, when no process is
        running or :meth:`_can_continue` refuses; the caller then
        succeeds it through the queue as before.  Callbacks appended to
        the event afterwards never run, so only sites whose waiter is
        the running process use this.
        """
        if self._active_process is None or not self._can_continue():
            return False
        event._ok = True
        event._value = value
        event._state = PROCESSED
        self._settled = event
        return True

    def _new_process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """A process that has not started: no bootstrap is queued.

        Start it with :meth:`_start_now`.
        """
        process = Process.__new__(Process)
        process._bind(self, generator, name)
        return process

    def _start_now(self, process: Process) -> None:
        """Run the first segment of an unstarted process right here.

        The caller's process (if any) stays the active one afterwards.
        Unlike the bootstrap hop of :meth:`process`, the segment runs
        ahead of same-instant work already queued, so this is only for
        spawns that are the last action of a yield-free section.  The
        segment asks :meth:`_can_continue` in the spawner's context, so
        it goes on in place only while nothing is queued at this
        instant.
        """
        active = self._active_process
        settled = self._settled
        try:
            process._resume(_START)
        finally:
            self._active_process = active
            self._settled = settled

    def _note_cancelled_timer(self) -> None:
        """Bookkeeping hook for :meth:`Timeout.cancel`: compaction.

        Long-deadline watchdogs that are cancelled on every completion
        (one 60 s execution timeout per invocation, say) would otherwise
        stay queued for their full nominal delay and make the heap grow
        with throughput instead of with live work.  Once the cancelled
        population reaches ``TIMER_COMPACTION_THRESHOLD`` AND makes up
        at least half of the queue, the heap is rebuilt without them.
        """
        self._cancelled_timers += 1
        count = self._cancelled_timers
        queue = self._queue
        if count < TIMER_COMPACTION_THRESHOLD or count * 2 < len(queue):
            return
        keep = []
        for entry in queue:
            event = entry[2]
            if type(event) is Timeout and event._cancelled:
                self._retire_cancelled(event)
                self._recycle(event)
            else:
                keep.append(entry)
        heapify(keep)
        # In place: run() holds a local alias of the queue.
        queue[:] = keep
        self._cancelled_timers = 0

    def _retire_cancelled(self, event: Timeout) -> None:
        """Retire a cancelled timer dropped without being dispatched.

        Same lifecycle a tombstone takes when the dispatch loop pops it:
        the state moves to PROCESSED (what other kernel paths and the
        free-list expect) and the flag resets so a pooled reuse starts
        clean.  The caller recycles separately, so the refcount proof
        in :meth:`_recycle` sees exactly the frames it expects.
        """
        event._cancelled = False
        event._state = PROCESSED
        event.callbacks.clear()
        self._cancelled_timers -= 1

    def peek(self) -> float:
        """Time of the next event that will actually fire, or ``inf``.

        Lazily-cancelled timeouts parked at the head of the queue are
        retired on the way: they would otherwise make ``peek`` report a
        time at which nothing observable happens, and a drained
        environment would look busy forever.  Callers use it to step a
        simulation to its next real event or to test whether anything
        is left to run.
        """
        queue = self._queue
        while queue:
            when, _, event = queue[0]
            if type(event) is Timeout and event._cancelled:
                heappop(queue)
                self._retire_cancelled(event)
                # Separate call so the refcount proof sees exactly one
                # caller frame holding the event (see _recycle).
                self._recycle(event)
                continue
            return when
        return _INF

    def step(self) -> None:
        """Process the next live event; raises if the queue is empty.

        Cancelled tombstones ahead of the next live event are retired
        silently, without advancing the clock.  If the queue held only
        tombstones they are all retired and the call returns without
        processing anything.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        while True:
            if not queue:
                # The queue held only tombstones; all retired.
                return
            when, _, event = heappop(queue)
            if type(event) is Timeout and event._cancelled:
                self._retire_cancelled(event)
                self._recycle(event)
                continue
            break
        self._now = when
        event._process_callbacks()
        if self._crashed:
            process, error = self._crashed.pop()
            raise SimulationError(
                f"process {process.name!r} crashed at t={self._now}"
            ) from error
        self._recycle(event)

    def _recycle(self, event: Event) -> None:
        """Return a processed ``Timeout`` to the free-list when safe.

        It is recycled only when the refcount proves this frame holds the
        sole remaining references (nobody kept the object, put it in a
        condition's ``_events``, or stored it in a result dict).
        """
        if (
            type(event) is Timeout
            and _getrefcount is not None
            and len(self._timeout_pool) < _POOL_CAP
            and _getrefcount(event) == 3  # self._recycle arg + local + getrefcount arg
        ):
            self._timeout_pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a simulation time (run up to and including that
        time) or an :class:`Event` (run until it has been processed, then
        return its value).

        The clock is monotonic: a numeric ``until`` in the past (e.g. a
        second ``run(until=...)`` call with a smaller deadline after the
        first set ``now`` to its deadline) is a no-op — nothing is
        processed and ``now`` is left where it was, never rewound.

        Cancelled tombstones are dropped without running callbacks and
        without advancing the clock, so the observable clock trajectory
        (including the final ``now`` after a full drain) is independent
        of compaction timing.
        """
        # A callback or crash that raised out of an earlier run may have
        # left the in-place state of its dispatch behind.
        self._tail = True
        self._stop = _NO_STOP
        if isinstance(until, Event):
            stop = until
            deadline = _INF
            if not stop.processed:
                # run() is a waiter: a failure of the awaited event is
                # handled (re-raised below), not an unhandled crash.
                stop.callbacks.append(lambda _event: None)
            # Nothing continues in place while the stop event dispatches
            # (see _can_continue): that work belongs after the return.
            self._stop = stop
        else:
            stop = _NO_STOP
            deadline = _INF if until is None else float(until)
            if deadline < self._now:
                # Deadline already in the past: never rewind the clock.
                return None
        # The dispatch body below is step() inlined (including the
        # tombstone drop and free-list recycling) — the per-event
        # method-call overhead is measurable at millions of events per
        # run.  Keep it in sync with step()/_recycle().
        queue = self._queue
        crashed = self._crashed
        timeout_pool = self._timeout_pool
        while stop._state != PROCESSED:
            if not queue or queue[0][0] > deadline:
                break
            when, _, event = heappop(queue)
            cls = type(event)
            if cls is Timeout and event._cancelled:
                event._cancelled = False
                event._state = PROCESSED
                event.callbacks.clear()
                self._cancelled_timers -= 1
                if (
                    _getrefcount is not None
                    and len(timeout_pool) < _POOL_CAP
                    and _getrefcount(event) == 2  # loop local + getrefcount arg
                ):
                    timeout_pool.append(event)
                continue
            self._now = when
            event._process_callbacks()
            if crashed:
                process, error = crashed.pop()
                raise SimulationError(
                    f"process {process.name!r} crashed at t={self._now}"
                ) from error
            if (
                cls is Timeout
                and _getrefcount is not None
                and len(timeout_pool) < _POOL_CAP
                and _getrefcount(event) == 2  # loop local + getrefcount arg
            ):
                timeout_pool.append(event)
        if stop is _NO_STOP:
            if deadline != _INF:
                self._now = deadline
            return None
        self._stop = _NO_STOP
        if stop._state != PROCESSED:
            raise SimulationError(
                "event queue drained before the awaited event fired"
            )
        if stop.ok:
            return stop._value
        raise stop._value
