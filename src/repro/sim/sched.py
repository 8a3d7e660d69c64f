"""Pluggable event schedulers for the simulation kernel.

The :class:`~repro.sim.kernel.Environment` keeps simulated time moving
by repeatedly extracting the minimum ``(when, eid)`` entry from a
priority structure.  This module provides that structure behind a small
:class:`Scheduler` interface with two implementations:

- :class:`HeapScheduler` — the binary heap the kernel has always used
  (``heapq`` on a plain list).  O(log n) insert/extract with a very
  small C constant; the default.
- :class:`WheelScheduler` — a calendar-queue / hierarchical timer
  wheel: an array of buckets covering the active rotation, an overflow
  tier for far-future timers, and lazy per-bucket sorting.  O(1)
  amortized insert and bucket-local tombstone dropping, which is the
  shape discrete-event literature (and the Netherite/DFlow-style
  orchestrators we benchmark against) uses once timer populations get
  large and churny — exactly what container keep-alives and per-
  invocation watchdogs produce at millions of invocations.

**Determinism is the hard contract**: both schedulers realize the exact
same total order over ``(when, eid)`` keys — ``eid`` is the kernel's
monotonically increasing tie-breaker, so the order is total and
identical no matter which structure holds the entries.  Engine records,
telemetry snapshots, and sharded runs are therefore bit-identical under
either scheduler; ``benchmarks/test_bench_sched.py`` and
``tests/sim/test_scheduler.py`` assert this.

Entries are the same ``(when, eid, event)`` tuples the heap has always
used; ``eid`` uniqueness guarantees tuple comparison never falls
through to the (uncomparable) event object.

Select a scheduler per environment (``Environment(scheduler="wheel")``),
via ``--scheduler`` in ``faasflow-run`` / ``faasflow-experiment``, or
process-wide with the ``FAASFLOW_SCHEDULER`` environment variable
(inherited by ``--jobs`` / ``--shards`` worker processes).
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Union

from .kernel import PROCESSED, SimulationError, Timeout, _POOL_CAP, _getrefcount

__all__ = [
    "Scheduler",
    "HeapScheduler",
    "WheelScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "resolve_scheduler_name",
    "set_default_scheduler",
    "DEFAULT_SCHEDULER_ENV",
    "TIMER_COMPACTION_THRESHOLD",
]

_INF = float("inf")

# Process-wide default, inherited by worker processes (fork and spawn
# both pass the OS environment down), so one ``--scheduler wheel`` at a
# CLI covers every Environment a run constructs — including shard
# workers and ``--jobs`` pool children.
DEFAULT_SCHEDULER_ENV = "FAASFLOW_SCHEDULER"

# Cancelled timers the heap tolerates before it considers compacting
# (see ``HeapScheduler.note_cancelled``).
TIMER_COMPACTION_THRESHOLD = 64


class Scheduler:
    """Interface the kernel's event queue hides behind.

    Implementations hold ``(when, eid, event)`` tuples and must realize
    the exact total order by ``(when, eid)`` — ties in ``when`` fire in
    ``eid`` (creation) order.  The environment owns ``eid`` assignment
    and the free-list recycling; schedulers call back into
    ``env._retire_cancelled`` when they drop a lazily-cancelled timer
    without dispatching it.
    """

    name = "scheduler"

    def __init__(self, env):
        self.env = env

    def insert(self, when: float, eid: int, event: Any) -> None:
        """Add an entry.  ``when`` must be ``>= env.now``."""
        raise NotImplementedError

    def pop(self) -> tuple:
        """Remove and return the minimum entry; IndexError when empty.

        Cancelled-but-queued timers are returned like any other entry
        (the dispatch loop drops them without running callbacks), so the
        observable clock/order behavior is identical across schedulers.
        """
        raise NotImplementedError

    def pop_until(self, deadline: float) -> Optional[tuple]:
        """Pop the minimum entry if its time is ``<= deadline``.

        Returns ``None`` when the queue is empty or the head is beyond
        the deadline — the one call per event the deadline-bounded run
        loop needs.
        """
        raise NotImplementedError

    def peek(self) -> float:
        """Time of the next entry that will actually fire, or ``inf``.

        Lazily-cancelled timeouts parked at the head are retired on the
        way (through ``env._retire_cancelled``): they would otherwise
        make ``peek`` report a time at which nothing observable happens.
        The shard coordinator's conservative-window lookahead depends on
        this — a stale head would both shrink windows needlessly and,
        worse, keep a drained shard looking busy forever.  This is the
        single shared implementation of the skip; ``Environment.peek``
        and the barrier protocol both delegate here.
        """
        raise NotImplementedError

    def note_cancelled(self, count: int) -> bool:
        """React to a lazily-cancelled timer (``count`` pending total).

        Returns True when the scheduler compacted its structure and the
        environment should reset its cancelled-timer counter.  The heap
        rebuilds itself past ``TIMER_COMPACTION_THRESHOLD``; the
        wheel never needs to — tombstones are dropped bucket-locally
        when their bucket is loaded, so this is a no-op there.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        """Entries queued, including cancelled-but-queued tombstones."""
        raise NotImplementedError


class HeapScheduler(Scheduler):
    """The classic binary-heap event queue (the default).

    ``heap`` is a plain list the environment aliases as ``_queue`` so
    its inlined dispatch loops (see ``Environment.run``) can keep using
    C-level ``heappush``/``heappop`` directly — the interface methods
    here serve ``step``/``peek``/compaction and any code that treats the
    scheduler generically.
    """

    name = "heap"

    __slots__ = ("env", "heap")

    def __init__(self, env):
        self.env = env
        self.heap: list[tuple] = []

    def insert(self, when, eid, event):
        heappush(self.heap, (when, eid, event))

    def pop(self):
        heap = self.heap
        if not heap:
            raise IndexError("pop from empty scheduler")
        return heappop(heap)

    def pop_until(self, deadline):
        heap = self.heap
        if not heap or heap[0][0] > deadline:
            return None
        return heappop(heap)

    def peek(self):
        heap = self.heap
        env = self.env
        while heap:
            when, _, event = heap[0]
            if type(event) is Timeout and event._cancelled:
                heappop(heap)
                env._retire_cancelled(event)
                # Separate call so the refcount proof sees exactly one
                # caller frame holding the event (see _recycle).
                env._recycle(event)
                continue
            return when
        return _INF

    def note_cancelled(self, count):
        """Rebuild the heap without tombstones once they dominate.

        Long-deadline watchdogs that are cancelled on every completion
        (one 60 s execution timeout per invocation, say) would otherwise
        accumulate for their full nominal delay and make the heap grow
        with throughput instead of with live work.  Triggers once the
        cancelled population passes ``TIMER_COMPACTION_THRESHOLD`` AND
        makes up more than half of the queue.
        """
        env = self.env
        heap = self.heap
        if count < TIMER_COMPACTION_THRESHOLD or count * 2 < len(heap):
            return False
        keep = []
        retire = env._retire_cancelled
        recycle = env._recycle
        for entry in heap:
            event = entry[2]
            if type(event) is Timeout and event._cancelled:
                retire(event)
                recycle(event)
            else:
                keep.append(entry)
        heapify(keep)
        # In-place: the environment's inlined dispatch loops hold a
        # local alias of this list, so the identity must not change.
        heap[:] = keep
        return True

    def __len__(self):
        return len(self.heap)


class WheelScheduler(Scheduler):
    """Calendar-queue / timer-wheel scheduler with O(1) amortized insert.

    Structure (three tiers, nearest to farthest):

    - ``_cur`` — the *active bucket*: entries sorted descending by
      ``(when, eid)`` and consumed from the tail, so extraction is an
      O(1) ``list.pop()`` and the per-bucket sort amortizes to
      O(log k) C-speed comparisons per entry.
    - ``_near`` — a small binary heap for entries that land at or
      before the active bucket *after* it was sorted (the dominant
      pattern: zero-delay resumes and sub-width timers scheduled by the
      very callbacks the active bucket is firing).  It drains
      continuously, so it stays tiny.
    - the *rotation array*: ``buckets`` unsorted lists covering
      absolute buckets ``(cur, cur + buckets)``; insert is an index
      computation plus ``list.append``.
    - the *overflow tier*: far-future entries (beyond one rotation)
      keyed by absolute bucket number in a dict, with a lazy min-heap
      of bucket numbers.  Overflow buckets migrate into the rotation
      array exactly once, when the window slides over them — and when
      the whole rotation is empty the wheel jumps straight to the
      earliest overflow bucket instead of scanning empty slots.

    Cancelled timers are tombstones wherever they sit; they are dropped
    *bucket-locally* when their bucket is loaded (no global compaction
    pass — ``note_cancelled`` is a no-op and
    ``TIMER_COMPACTION_THRESHOLD`` applies to the heap only).

    ``width`` is a pure performance knob (bucket span in simulated
    seconds): the extraction order is always the exact ``(when, eid)``
    total order, bit-identical to the heap, because entries carry their
    full keys and every bucket is sorted before it drains.
    """

    name = "wheel"

    __slots__ = (
        "env",
        "_width",
        "_inv",
        "_nb",
        "_mask",
        "_buckets",
        "_acount",
        "_cur",
        "_near",
        "_cur_bucket",
        "_overflow",
        "_oheap",
        "_ocount",
    )

    def __init__(self, env, width: float = 0.01, buckets: int = 4096):
        if width <= 0:
            raise SimulationError(f"wheel width must be > 0, got {width}")
        if buckets < 2 or buckets & (buckets - 1):
            raise SimulationError(
                f"wheel bucket count must be a power of two >= 2, got {buckets}"
            )
        if env.now < 0:
            raise SimulationError(
                "wheel scheduler requires a non-negative clock "
                f"(int-truncation bucketing), got initial time {env.now}"
            )
        self.env = env
        self._width = float(width)
        self._inv = 1.0 / self._width
        self._nb = buckets
        self._mask = buckets - 1
        self._buckets: list[list[tuple]] = [[] for _ in range(buckets)]
        self._acount = 0
        # Stable list/heap objects: the environment's inlined wheel
        # dispatch loop aliases them, so they are filled in place and
        # never rebound.
        self._cur: list[tuple] = []
        self._near: list[tuple] = []
        # int() truncation is monotonic nondecreasing over floats, which
        # is all bucketing needs (order comes from the full keys).
        self._cur_bucket = int(env.now * self._inv)
        self._overflow: dict[int, list[tuple]] = {}
        self._oheap: list[int] = []
        self._ocount = 0

    # -- insert -------------------------------------------------------
    def insert(self, when, eid, event):
        try:
            b = int(when * self._inv)
        except (OverflowError, ValueError):
            raise SimulationError(
                f"wheel scheduler cannot schedule at t={when}"
            ) from None
        cur = self._cur_bucket
        if b <= cur:
            # At or before the active bucket (same-timestep resumes,
            # sub-width timers): merge through the near heap.  ``when``
            # can never be in the simulated past, so these fire in
            # correct order ahead of everything still in the rotation.
            heappush(self._near, (when, eid, event))
        elif b - cur < self._nb:
            self._buckets[b & self._mask].append((when, eid, event))
            self._acount += 1
        else:
            lst = self._overflow.get(b)
            if lst is None:
                self._overflow[b] = [(when, eid, event)]
                heappush(self._oheap, b)
            else:
                lst.append((when, eid, event))
            self._ocount += 1

    # -- bucket machinery ---------------------------------------------
    def _pull_overflow(self):
        """Migrate overflow buckets that slid into the rotation window.

        Each overflow bucket migrates at most once (the current bucket
        only ever advances), keeping the far-future tier O(1) amortized
        per entry.
        """
        oheap = self._oheap
        if not oheap:
            return
        horizon = self._cur_bucket + self._nb
        overflow = self._overflow
        buckets = self._buckets
        mask = self._mask
        while oheap and oheap[0] < horizon:
            b = heappop(oheap)
            lst = overflow.pop(b, None)
            if lst is None:  # stale heap entry; bucket already migrated
                continue
            slot = buckets[b & mask]
            if slot:
                slot.extend(lst)
            else:
                buckets[b & mask] = lst
            self._acount += len(lst)
            self._ocount -= len(lst)

    def _fill_cur(self, entries):
        """Sort a raw bucket into the active slot, dropping tombstones.

        This is the bucket-local lazy cancellation: cancelled timers
        are retired here in bulk (same lifecycle bookkeeping as a
        tombstone popped by the dispatch loop) instead of flowing
        through the queue to their nominal deadline.
        """
        cur = self._cur
        keep = [
            e for e in entries
            if not (type(e[2]) is Timeout and e[2]._cancelled)
        ]
        n_dropped = len(entries) - len(keep)
        if n_dropped:
            dropped = [
                e[2] for e in entries
                if type(e[2]) is Timeout and e[2]._cancelled
            ]
            # Release the entry tuples before retiring so the free-list
            # refcount proof can see sole ownership and actually pool.
            # Retirement is inlined (same lifecycle as
            # Environment._retire_cancelled + _recycle, minus the two
            # method calls per tombstone): churn-heavy workloads drop
            # thousands per bucket and the calls dominate.
            del entries[:]
            env = self.env
            env._cancelled_timers -= n_dropped
            pool = env._timeout_pool
            while dropped:
                event = dropped.pop()
                event._cancelled = False
                event._state = PROCESSED
                event.callbacks.clear()
                if (
                    _getrefcount is not None
                    and len(pool) < _POOL_CAP
                    and _getrefcount(event) == 2  # loop local + getrefcount arg
                ):
                    pool.append(event)
        if keep:
            keep.sort(reverse=True)
            cur.extend(keep)
            return True
        return False

    def _load_next(self):
        """Advance to the next nonempty bucket; False when drained."""
        while True:
            if self._acount:
                b = self._cur_bucket
                buckets = self._buckets
                mask = self._mask
                while True:
                    b += 1
                    lst = buckets[b & mask]
                    if lst:
                        break
                self._cur_bucket = b
                buckets[b & mask] = []
                self._acount -= len(lst)
                self._pull_overflow()
            else:
                oheap = self._oheap
                overflow = self._overflow
                while oheap:
                    b0 = heappop(oheap)
                    lst = overflow.pop(b0, None)
                    if lst is not None:
                        break
                else:
                    return False
                self._cur_bucket = b0
                self._ocount -= len(lst)
                self._pull_overflow()
            if self._fill_cur(lst):
                return True
            # Bucket was all tombstones; keep advancing.

    def _head_entry(self):
        """The minimum entry without removing it, or ``None``."""
        while True:
            cur = self._cur
            near = self._near
            if cur:
                if near and near[0] < cur[-1]:
                    return near[0]
                return cur[-1]
            if near:
                return near[0]
            if not self._load_next():
                return None

    # -- interface ----------------------------------------------------
    def pop(self):
        entry = self._head_entry()
        if entry is None:
            raise IndexError("pop from empty scheduler")
        near = self._near
        if near and near[0] is entry:
            return heappop(near)
        return self._cur.pop()

    def pop_until(self, deadline):
        entry = self._head_entry()
        if entry is None or entry[0] > deadline:
            return None
        near = self._near
        if near and near[0] is entry:
            return heappop(near)
        return self._cur.pop()

    def peek(self):
        while True:
            entry = self._head_entry()
            if entry is None:
                return _INF
            event = entry[2]
            if type(event) is Timeout and event._cancelled:
                near = self._near
                if near and near[0] is entry:
                    heappop(near)
                else:
                    self._cur.pop()
                entry = None  # drop the tuple so retirement can pool
                env = self.env
                env._retire_cancelled(event)
                env._recycle(event)
                continue
            return entry[0]

    def note_cancelled(self, count):
        # Tombstones are dropped bucket-locally in _fill_cur; a global
        # compaction pass would be pure overhead.
        return False

    def __len__(self):
        return (
            len(self._cur) + len(self._near) + self._acount + self._ocount
        )


SCHEDULERS: dict[str, Callable[..., Scheduler]] = {
    "heap": HeapScheduler,
    "wheel": WheelScheduler,
}


def resolve_scheduler_name(spec: Optional[str] = None) -> str:
    """Resolve a scheduler name: explicit > $FAASFLOW_SCHEDULER > heap."""
    name = spec or os.environ.get(DEFAULT_SCHEDULER_ENV) or "heap"
    if name not in SCHEDULERS:
        raise SimulationError(
            f"unknown scheduler {name!r} (choose from {sorted(SCHEDULERS)}, "
            f"or pass a factory callable)"
        )
    return name


def set_default_scheduler(name: Optional[str]) -> None:
    """Set the process-wide default scheduler (and for worker children).

    ``None`` clears the override back to the heap default.  Exported so
    the CLIs can make one ``--scheduler`` flag cover every environment
    a run constructs, including ``--jobs`` pool children and shard
    worker processes (both inherit the OS environment).
    """
    if name is None:
        os.environ.pop(DEFAULT_SCHEDULER_ENV, None)
        return
    resolve_scheduler_name(name)  # validate
    os.environ[DEFAULT_SCHEDULER_ENV] = name


def make_scheduler(
    env, spec: Union[str, Callable[..., Scheduler], None] = None
) -> Scheduler:
    """Build the scheduler for an environment.

    ``spec`` may be a name (``"heap"``/``"wheel"``), ``None`` (resolve
    the process default), or a callable ``factory(env) -> Scheduler``
    for custom implementations.
    """
    if callable(spec):
        sched = spec(env)
        for method in ("insert", "pop", "pop_until", "peek", "note_cancelled"):
            if not callable(getattr(sched, method, None)):
                raise SimulationError(
                    f"scheduler factory {spec!r} returned {sched!r} "
                    f"without a callable {method}()"
                )
        return sched
    return SCHEDULERS[resolve_scheduler_name(spec)](env)
