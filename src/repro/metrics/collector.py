"""Measurement: invocation records, transfer ledger, aggregation.

The experiments (paper §5) report scheduling overhead, data-movement
latency, tail latency, and throughput degradation.  Everything they
need is recorded here: one :class:`InvocationRecord` per workflow
invocation and one :class:`TransferEvent` per data-plane storage
operation, plus aggregation helpers (percentiles, averages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..obs.rows import RecordView, row_fields, row_of
from ..obs.spans import BREAKDOWN_COMPONENTS, decompose

__all__ = [
    "InvocationRecord",
    "TransferEvent",
    "MetricsCollector",
    "percentile",
    "InvocationStatus",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    if len(data) == 1:
        return data[0]
    rank = (q / 100) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    # data[low] + f * (delta) is exact when both values are equal and
    # monotone in q, unlike the a*(1-f) + b*f form.
    return data[low] + fraction * (data[high] - data[low])


class InvocationStatus:
    OK = "ok"
    TIMEOUT = "timeout"
    FAILED = "failed"


@dataclass
class InvocationRecord:
    """End-to-end measurement of one workflow invocation."""

    workflow: str
    invocation_id: int
    mode: str  # "master-sp", "worker-sp", "monolithic"
    started_at: float
    finished_at: float = 0.0
    status: str = InvocationStatus.OK
    # Static execution time of the critical path's function nodes —
    # subtracted from e2e latency to obtain scheduling overhead (§2.3).
    critical_path_exec: float = 0.0
    cold_starts: int = 0
    retries: int = 0  # task attempts beyond the first, summed over tasks

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at

    @property
    def scheduling_overhead(self) -> float:
        return max(0.0, self.latency - self.critical_path_exec)


@dataclass(frozen=True)
class TransferEvent:
    """One data-plane storage operation (put or get)."""

    workflow: str
    invocation_id: int
    producer: str
    consumer: str  # "" for puts (not yet consumed)
    size: float
    duration: float
    phase: str  # "put" or "get"
    local: bool  # served by the node-local memory store


# Ledger rows (see repro.obs.rows): TransferEvent's fields in order.
_transfer_row = row_of(TransferEvent)
_FIELDS = row_fields(TransferEvent)
_WORKFLOW = _FIELDS.index("workflow")
_INVOCATION_ID = _FIELDS.index("invocation_id")
_SIZE = _FIELDS.index("size")
_DURATION = _FIELDS.index("duration")
_LOCAL = _FIELDS.index("local")


def _transfer_event(row: tuple) -> TransferEvent:
    return TransferEvent(*row)


class MetricsCollector:
    """Accumulates records during a run and aggregates them afterwards.

    ``transfers`` is a read-only view: the collector keeps each
    :class:`TransferEvent` as a row of atoms and builds an equal (not
    the same) event per access.
    """

    def __init__(self) -> None:
        self.invocations: list[InvocationRecord] = []
        self._transfer_rows: list[tuple] = []
        self.transfers = RecordView(_transfer_event, self._transfer_rows)
        # A SpanTracer attached by an engine when span tracing is on;
        # enables the measured latency decomposition below.
        self.spans = None

    # -- recording -------------------------------------------------------
    def record_invocation(self, record: InvocationRecord) -> None:
        self.invocations.append(record)

    def record_transfer(self, event: TransferEvent) -> None:
        self._transfer_rows.append(_transfer_row(event))

    # -- selection -------------------------------------------------------
    def invocations_of(self, workflow: str) -> list[InvocationRecord]:
        return [r for r in self.invocations if r.workflow == workflow]

    def completed(self, workflow: Optional[str] = None) -> list[InvocationRecord]:
        records = (
            self.invocations
            if workflow is None
            else self.invocations_of(workflow)
        )
        return [r for r in records if r.status == InvocationStatus.OK]

    def timeouts(self, workflow: Optional[str] = None) -> list[InvocationRecord]:
        records = (
            self.invocations
            if workflow is None
            else self.invocations_of(workflow)
        )
        return [r for r in records if r.status == InvocationStatus.TIMEOUT]

    def failures(self, workflow: Optional[str] = None) -> list[InvocationRecord]:
        records = (
            self.invocations
            if workflow is None
            else self.invocations_of(workflow)
        )
        return [r for r in records if r.status == InvocationStatus.FAILED]

    # -- aggregation ------------------------------------------------------
    def latencies(self, workflow: Optional[str] = None) -> list[float]:
        records = (
            self.invocations
            if workflow is None
            else self.invocations_of(workflow)
        )
        return [r.latency for r in records]

    def mean_latency(self, workflow: Optional[str] = None) -> float:
        values = self.latencies(workflow)
        if not values:
            raise ValueError("no invocations recorded")
        return sum(values) / len(values)

    def tail_latency(self, workflow: Optional[str] = None, q: float = 99.0) -> float:
        return percentile(self.latencies(workflow), q)

    def mean_scheduling_overhead(self, workflow: Optional[str] = None) -> float:
        records = self.completed(workflow)
        if not records:
            raise ValueError("no completed invocations recorded")
        return sum(r.scheduling_overhead for r in records) / len(records)

    # -- latency decomposition ---------------------------------------------
    def record_of(self, invocation_id: int) -> Optional[InvocationRecord]:
        for record in self.invocations:
            if record.invocation_id == invocation_id:
                return record
        return None

    def breakdown(self, invocation_id: int) -> dict:
        """Latency decomposition of one invocation.

        With a span tracer attached (``self.spans``), sweeps the
        invocation's spans over its ``[started_at, finished_at]`` window
        so the returned components — ``execute``, ``cold_start``,
        ``transfer``, ``queue_wait``, ``sync``, ``engine`` — sum to the
        end-to-end latency exactly (``measured=True``).  Without spans
        it falls back to the paper's §2.3 static subtraction: the
        critical path's execution time is ``execute`` and everything
        else is ``engine`` (``measured=False``).
        """
        record = self.record_of(invocation_id)
        if record is None:
            raise KeyError(f"unknown invocation {invocation_id!r}")
        e2e = record.latency
        spans = self.spans
        if spans is not None and getattr(spans, "enabled", False):
            inv_spans = spans.spans_of(invocation_id)
            if inv_spans:
                parts = decompose(
                    inv_spans, (record.started_at, record.finished_at)
                )
                parts["e2e"] = e2e
                parts["measured"] = True
                return parts
        parts = dict.fromkeys(BREAKDOWN_COMPONENTS, 0.0)
        parts["execute"] = min(record.critical_path_exec, e2e)
        parts["engine"] = e2e - parts["execute"]
        parts["e2e"] = e2e
        parts["measured"] = False
        return parts

    def mean_breakdown(self, workflow: Optional[str] = None) -> dict:
        """Per-component means over all completed invocations."""
        records = self.completed(workflow)
        if not records:
            raise ValueError("no completed invocations recorded")
        totals = dict.fromkeys((*BREAKDOWN_COMPONENTS, "e2e"), 0.0)
        for record in records:
            parts = self.breakdown(record.invocation_id)
            for key in totals:
                totals[key] += parts[key]
        return {key: value / len(records) for key, value in totals.items()}

    # -- data movement -----------------------------------------------------
    def _rows_of(self, workflow: str, invocation_id: Optional[int] = None):
        return [
            row
            for row in self._transfer_rows
            if row[_WORKFLOW] == workflow
            and (invocation_id is None or row[_INVOCATION_ID] == invocation_id)
        ]

    def transfers_of(self, workflow: str, invocation_id: Optional[int] = None):
        return [
            _transfer_event(row) for row in self._rows_of(workflow, invocation_id)
        ]

    def data_moved(
        self, workflow: str, invocation_id: Optional[int] = None
    ) -> float:
        """Bytes through the storage layer (puts + gets)."""
        return sum(row[_SIZE] for row in self._rows_of(workflow, invocation_id))

    def remote_data_moved(
        self, workflow: str, invocation_id: Optional[int] = None
    ) -> float:
        return sum(
            row[_SIZE]
            for row in self._rows_of(workflow, invocation_id)
            if not row[_LOCAL]
        )

    def transfer_latency(
        self, workflow: str, invocation_id: Optional[int] = None
    ) -> float:
        """Total data-movement latency over all edges (Table 4 metric)."""
        return sum(
            row[_DURATION] for row in self._rows_of(workflow, invocation_id)
        )

    def mean_transfer_latency_per_invocation(self, workflow: str) -> float:
        # One pass: each invocation's latencies are summed in ledger
        # order, exactly as transfer_latency(workflow, id) would, and the
        # totals in the iteration order of the set of ids, as before, so
        # the mean is bit-identical.
        totals: dict[int, float] = {}
        for row in self._rows_of(workflow):
            key = row[_INVOCATION_ID]
            totals[key] = totals.get(key, 0) + row[_DURATION]
        if not totals:
            return 0.0
        return sum(totals[key] for key in set(totals)) / len(totals)

    def local_fraction(self, workflow: str) -> float:
        """Fraction of storage bytes served locally (FaaStore hit rate)."""
        rows = self._rows_of(workflow)
        total = sum(row[_SIZE] for row in rows)
        if total == 0:
            return 0.0
        return sum(row[_SIZE] for row in rows if row[_LOCAL]) / total

    def clear(self) -> None:
        self.invocations.clear()
        self.transfers.clear()
