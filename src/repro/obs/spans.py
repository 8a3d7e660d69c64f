"""Causal spans: the tree-structured execution trace.

Every invocation becomes a span tree — one ``invocation`` root, one
``function`` span per function task, and child spans for each stage the
task passed through (``queue-wait``, ``cold-start``, ``execute``,
``put``/``get``) — plus control-plane ``state-sync`` spans and
node-track spans from the simulation substrate itself (network
transfers with their contention-induced slowdown, container lifecycle
events, FaaStore spills).  ``Network.message`` records no span, so each
control message has exactly one, the ``state-sync`` span its sender
records (``repro.core.control.send_control``); a FaaStore eager push
sent the same way has its ``put`` span (``eager=True``).

The tracer is opt-in and *zero-cost when disabled*: every producer
holds :data:`NULL_SPANS`, a :class:`NullSpanTracer` whose methods are
no-ops, and guards any attribute collection behind ``spans.enabled``.

Completed spans live in a bounded ring (drop-oldest, ``dropped``
counted) so long runs keep their tail instead of losing it.  The ring
holds flat rows of atoms, not :class:`Span` objects (see
:mod:`repro.obs.rows`), so the garbage collector never re-scans it:
the span's fields, then its attrs as alternating key/value items.  A
leaf span (``record``/``event``) is built straight into its row; only
open spans, which producers hold as parent handles, are :class:`Span`
objects.  ``SpanTracer.spans`` builds a fresh :class:`Span` per access.

:func:`decompose` turns one invocation's spans into a measured latency
breakdown whose components sum *exactly* to the end-to-end latency: the
invocation window is partitioned into segments, each segment is labeled
with the highest-priority span category active during it, and whatever
no span covers is the residual ``engine`` time (scheduling overhead +
idle) — the quantity the paper's §2.3 estimates by static subtraction.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .rows import RecordView, row_fields, row_of

__all__ = [
    "Span",
    "SpanKind",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
    "BREAKDOWN_COMPONENTS",
    "category_of",
    "decompose",
    "span_tree",
    "format_span_tree",
]


class SpanKind:
    """Span kinds emitted by the instrumented producers."""

    INVOCATION = "invocation"
    FUNCTION = "function"
    QUEUE_WAIT = "queue-wait"
    COLD_START = "cold-start"
    EXECUTE = "execute"
    STATE_SYNC = "state-sync"
    PUT = "put"
    GET = "get"
    # Node-track spans from the substrate (not part of the breakdown —
    # the data plane's puts/gets already account for the wire time).
    # A ``net`` span covers a flow, a local copy or a small transfer(),
    # never a ``Network.message`` (its sender records the one span).
    NET = "net"
    CONTAINER = "container"
    SPILL = "spill"
    # Fault-tolerance annotations: infrastructure faults fired by a
    # FaultDriver and retry/cancellation decisions in the task runtime.
    FAULT = "fault"
    RETRY = "retry"


@dataclass
class Span:
    """One timed, attributed, causally-linked occurrence."""

    span_id: int
    parent_id: Optional[int]
    kind: str
    start: float
    end: Optional[float] = None  # None while the span is open
    workflow: str = ""
    invocation_id: int = 0
    function: str = ""
    node: str = ""
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def __repr__(self) -> str:  # pragma: no cover
        tail = f" fn={self.function}" if self.function else ""
        return (
            f"<Span #{self.span_id} {self.kind} "
            f"[{self.start:.4f}, {self.end}]{tail}>"
        )


# Ring rows (see repro.obs.rows): every Span field but ``attrs`` in
# declaration order, then the attrs flattened to key, value, key, ...
# ``SpanTracer.record`` and ``event`` spell the fields out in this order.
_ROW_FIELDS = row_fields(Span, omit=("attrs",))
_row_of_span = row_of(Span, omit=("attrs",))
_WIDTH = len(_ROW_FIELDS)
_KIND = _ROW_FIELDS.index("kind")
_INVOCATION_ID = _ROW_FIELDS.index("invocation_id")


def _flat(attrs: dict) -> tuple:
    """``attrs`` as a row tail: key, value, key, value, ..."""
    return tuple(itertools.chain.from_iterable(attrs.items()))


def _span_of(row: tuple) -> Span:
    tail = iter(row[_WIDTH:])
    return Span(*row[:_WIDTH], attrs=dict(zip(tail, tail)))


# Breakdown categories, highest priority first: an instant covered by
# several span categories is attributed to the first one listed.
_PRIORITY = (
    SpanKind.EXECUTE,
    SpanKind.COLD_START,
    "transfer",
    SpanKind.QUEUE_WAIT,
    "sync",
)

BREAKDOWN_COMPONENTS = (
    "execute",
    "cold_start",
    "transfer",
    "queue_wait",
    "sync",
    "engine",
)

_CATEGORY = {
    SpanKind.EXECUTE: "execute",
    SpanKind.COLD_START: "cold_start",
    SpanKind.PUT: "transfer",
    SpanKind.GET: "transfer",
    SpanKind.QUEUE_WAIT: "queue_wait",
    SpanKind.STATE_SYNC: "sync",
}

_RANK = {
    SpanKind.EXECUTE: 0,
    SpanKind.COLD_START: 1,
    SpanKind.PUT: 2,
    SpanKind.GET: 2,
    SpanKind.QUEUE_WAIT: 3,
    SpanKind.STATE_SYNC: 4,
}

_RANK_TO_COMPONENT = ("execute", "cold_start", "transfer", "queue_wait", "sync")


def category_of(kind: str) -> Optional[str]:
    """Breakdown component a span kind contributes to (None: excluded)."""
    return _CATEGORY.get(kind)


def decompose(
    spans: Iterable[Span], window: tuple[float, float]
) -> dict[str, float]:
    """Measured latency decomposition of one invocation.

    Sweeps the ``window`` (usually ``[started_at, finished_at]``),
    attributing each elementary segment to the highest-priority span
    category active during it; uncovered time is ``engine``.  The
    returned components sum to ``window[1] - window[0]`` exactly (up to
    float summation error), whatever the spans' overlap structure.
    """
    lo, hi = window
    components = dict.fromkeys(BREAKDOWN_COMPONENTS, 0.0)
    if hi <= lo:
        return components
    # Boundary events: (time, +1/-1, rank), clamped to the window.
    events: list[tuple[float, int, int]] = []
    for span in spans:
        rank = _RANK.get(span.kind)
        if rank is None:
            continue
        end = span.end if span.end is not None else hi
        start = max(span.start, lo)
        end = min(end, hi)
        if end <= start:
            continue
        events.append((start, +1, rank))
        events.append((end, -1, rank))
    if not events:
        components["engine"] = hi - lo
        return components
    events.sort(key=lambda e: (e[0], e[1]))
    active = [0] * len(_RANK_TO_COMPONENT)
    cursor = lo
    index = 0
    while index < len(events):
        time = events[index][0]
        if time > cursor:
            label = "engine"
            for rank, count in enumerate(active):
                if count > 0:
                    label = _RANK_TO_COMPONENT[rank]
                    break
            components[label] += time - cursor
            cursor = time
        while index < len(events) and events[index][0] == time:
            _, delta, rank = events[index]
            active[rank] += delta
            index += 1
    if hi > cursor:
        label = "engine"
        for rank, count in enumerate(active):
            if count > 0:
                label = _RANK_TO_COMPONENT[rank]
                break
        components[label] += hi - cursor
    return components


# Span attrs format_span_tree shows in the status suffix when true.
_MARKS = ("virtual", "skipped")


def span_tree(spans: Iterable[Span]) -> list[tuple[int, Span]]:
    """Depth-first (depth, span) pairs of a span list.

    Orphans (spans whose parent is absent — e.g. evicted from the ring)
    appear at depth 0 alongside the proper roots.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    ids = {s.span_id for s in ordered}
    by_parent: dict[Optional[int], list[Span]] = {}
    for span in ordered:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    out: list[tuple[int, Span]] = []

    def walk(span: Span, depth: int) -> None:
        out.append((depth, span))
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return out


def format_span_tree(spans: Iterable[Span]) -> str:
    """Human-readable rendering of :func:`span_tree`.

    The bracketed suffix lists a status other than ``ok`` and marks a
    ``function`` span that ran nothing: ``virtual`` (a step marker) or
    ``skipped`` (a non-selected switch arm).
    """
    lines = []
    for depth, span in span_tree(spans):
        subject = f" {span.function}" if span.function else ""
        location = f" @{span.node}" if span.node else ""
        marks = [span.status] if span.status != "ok" else []
        marks += [mark for mark in _MARKS if span.attrs.get(mark)]
        status = f" [{', '.join(marks)}]" if marks else ""
        lines.append(
            f"{span.start:10.4f} {span.duration * 1000:9.3f}ms  "
            f"{'  ' * depth}{span.kind}{subject}{location}{status}"
        )
    return "\n".join(lines)


class SpanTracer:
    """Collects causal spans against a simulation environment's clock."""

    enabled = True

    def __init__(self, env, limit: int = 1_000_000):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.env = env
        self.limit = limit
        # Completed spans, bounded ring: at capacity the *oldest* span
        # is evicted so the tail of a long run survives.  One flat row
        # per span, attrs folded in; ``spans`` reads them back.
        self._rows: deque[tuple] = deque(maxlen=limit)
        self.spans = RecordView(_span_of, self._rows)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._open: dict[int, Span] = {}
        # Invocation roots: the open Span, then, once it has ended, its
        # ring position counted from the first span ever appended.
        self._roots: dict[int, Span | int] = {}
        self._contexts: dict[tuple[int, str], Span] = {}

    # -- recording -------------------------------------------------------
    def start(
        self,
        kind: str,
        *,
        workflow: str = "",
        invocation_id: int = 0,
        function: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            start=self.env.now,
            workflow=workflow,
            invocation_id=invocation_id,
            function=function,
            node=node,
            attrs=attrs,
        )
        self._open[span.span_id] = span
        return span

    def end(self, span: Span, status: str = "ok", **attrs) -> Span:
        """Close an open span; the ring keeps a row copy, attrs included."""
        if span.end is not None:
            return span
        span.end = self.env.now
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self._close(span)
        return span

    def record(
        self,
        kind: str,
        start: float,
        end: Optional[float] = None,
        *,
        workflow: str = "",
        invocation_id: int = 0,
        function: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        status: str = "ok",
        **attrs,
    ) -> None:
        """Append a retrospective (already finished) span.

        The span goes straight into the ring as a row; no :class:`Span`
        is built, so read it back through ``spans`` or the queries.
        """
        row = (
            next(self._ids),
            parent.span_id if parent is not None else None,
            kind,
            start,
            self.env.now if end is None else end,
            workflow,
            invocation_id,
            function,
            node,
            status,
        )
        self._append(row + _flat(attrs) if attrs else row)

    def event(
        self,
        kind: str,
        *,
        workflow: str = "",
        invocation_id: int = 0,
        function: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        status: str = "ok",
        **attrs,
    ) -> None:
        """Append a zero-duration marker span at the current simulated time."""
        now = self.env.now
        row = (
            next(self._ids),
            parent.span_id if parent is not None else None,
            kind,
            now,
            now,
            workflow,
            invocation_id,
            function,
            node,
            status,
        )
        self._append(row + _flat(attrs) if attrs else row)

    def _close(self, span: Span) -> None:
        """Move an open span into the ring, and its root entry with it."""
        row = _row_of_span(span)
        self._append(row + _flat(span.attrs) if span.attrs else row)
        invocation_id = span.invocation_id
        if self._roots.get(invocation_id) is span:
            self._roots[invocation_id] = self.dropped + len(self._rows) - 1

    def _append(self, row: tuple) -> None:
        rows = self._rows
        if len(rows) >= self.limit:
            evicted = rows[0]
            if evicted[_KIND] == SpanKind.INVOCATION:
                self._roots.pop(evicted[_INVOCATION_ID], None)
            self.dropped += 1
        rows.append(row)

    # -- invocation / function context -----------------------------------
    def start_invocation(
        self, invocation_id: int, *, workflow: str = "", **attrs
    ) -> Span:
        span = self.start(
            SpanKind.INVOCATION,
            workflow=workflow,
            invocation_id=invocation_id,
            **attrs,
        )
        self._roots[invocation_id] = span
        return span

    def root_of(self, invocation_id: int) -> Optional[Span]:
        root = self._roots.get(invocation_id)
        if isinstance(root, int):
            return _span_of(self._rows[root - self.dropped])
        return root

    def set_context(
        self, invocation_id: int, function: str, span: Span
    ) -> None:
        """Register ``span`` as the parent for the task's data-plane ops."""
        self._contexts[(invocation_id, function)] = span

    def clear_context(self, invocation_id: int, function: str) -> None:
        self._contexts.pop((invocation_id, function), None)

    def context_of(
        self, invocation_id: int, function: str
    ) -> Optional[Span]:
        return self._contexts.get((invocation_id, function))

    # -- lifecycle -------------------------------------------------------
    def finalize(self) -> int:
        """Close any still-open spans (timeout stragglers) at ``now``.

        Returns how many spans were force-closed; they keep
        ``status="open"`` so exports can tell them apart.
        """
        closed = 0
        for span in list(self._open.values()):
            span.end = self.env.now
            span.status = "open"
            self._close(span)
            closed += 1
        self._open.clear()
        return closed

    def clear(self) -> None:
        self._rows.clear()
        self._open.clear()
        self._roots.clear()
        self._contexts.clear()
        self.dropped = 0

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows) + len(self._open)

    def all_spans(self) -> list[Span]:
        """Completed + still-open spans, in recording order."""
        return list(self.spans) + list(self._open.values())

    def _where(self, field: str, value) -> list[Span]:
        """Spans whose ``field`` equals ``value``, in recording order.

        Filters the ring's rows first and builds only the matches.
        """
        at = _ROW_FIELDS.index(field)
        found = [_span_of(row) for row in self._rows if row[at] == value]
        found += [s for s in self._open.values() if getattr(s, field) == value]
        return found

    def spans_of(self, invocation_id: int) -> list[Span]:
        return self._where("invocation_id", invocation_id)

    def of_kind(self, kind: str) -> list[Span]:
        return self._where("kind", kind)

    def invocation_ids(self) -> list[int]:
        """Ids of the invocations whose root span is in the ring."""
        return list(
            dict.fromkeys(
                row[_INVOCATION_ID]
                for row in self._rows
                if row[_KIND] == SpanKind.INVOCATION
            )
        )

    def children_of(self, span_id: int) -> list[Span]:
        return self._where("parent_id", span_id)

    def tree(self, invocation_id: int) -> list[tuple[int, Span]]:
        """Depth-first (depth, span) pairs of one invocation's tree."""
        return span_tree(self.spans_of(invocation_id))

    def format_tree(self, invocation_id: int) -> str:
        """Human-readable span tree of one invocation."""
        return format_span_tree(self.spans_of(invocation_id))

    def breakdown_of(self, invocation_id: int) -> Optional[dict[str, float]]:
        """Measured decomposition over the invocation root's interval."""
        root = self.root_of(invocation_id)
        if root is None or root.end is None:
            return None
        return decompose(
            self.spans_of(invocation_id), (root.start, root.end)
        )


class NullSpanTracer:
    """The disabled tracer: every operation is a no-op.

    Producers hold this singleton by default so instrumentation costs
    one truthiness check (``spans.enabled``) — or, at worst, one no-op
    method call — when tracing is off.
    """

    enabled = False
    dropped = 0
    limit = 0
    spans = RecordView(_span_of, [])

    _NULL_SPAN = Span(span_id=0, parent_id=None, kind="null", start=0.0, end=0.0)

    def start(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def end(self, span, *args, **kwargs) -> Span:
        return span

    def record(self, *args, **kwargs) -> None:
        return None

    def event(self, *args, **kwargs) -> None:
        return None

    def start_invocation(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def root_of(self, invocation_id: int) -> Optional[Span]:
        return None

    def set_context(self, *args, **kwargs) -> None:
        return None

    def clear_context(self, *args, **kwargs) -> None:
        return None

    def context_of(self, *args, **kwargs) -> Optional[Span]:
        return None

    def finalize(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def all_spans(self) -> list[Span]:
        return []

    def spans_of(self, invocation_id: int) -> list[Span]:
        return []

    def of_kind(self, kind: str) -> list[Span]:
        return []

    def invocation_ids(self) -> list[int]:
        return []

    def children_of(self, span_id: int) -> list[Span]:
        return []

    def tree(self, invocation_id: int) -> list[tuple[int, Span]]:
        return []

    def format_tree(self, invocation_id: int) -> str:
        return ""

    def breakdown_of(self, invocation_id: int) -> Optional[dict[str, float]]:
        return None


NULL_SPANS = NullSpanTracer()
