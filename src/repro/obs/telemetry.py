"""Streaming telemetry: mergeable metric sketches on simulated time.

The dashboard layer the per-run span traces cannot be: spans keep one
object per occurrence (bounded ring, post-hoc analysis), while a
:class:`MetricsRegistry` folds every event into constant-memory
instruments the moment it happens — counters, gauges, and log-bucketed
histograms with exact count/sum and bounded-relative-error quantiles —
keyed by labeled dimensions (tenant, workflow, function, node, engine,
phase) and windowed into a time series on *simulated* time.

Three properties carry the design:

- **Zero-cost off.**  Producers hold :data:`NULL_TELEMETRY` (a
  :class:`NullRegistry`) by default and guard every emit behind
  ``telemetry.enabled`` — exactly the ``NULL_SPANS`` discipline, so an
  uninstrumented run pays one truthiness check per emit point.
- **Mergeable.**  Every instrument has an exact, deterministic merge:
  counters and histogram buckets add, gauges are last-writer-wins on
  the simulated clock.  A sharded run collects one registry per shard
  and merges their :meth:`~MetricsRegistry.snapshot`\\ s with
  :func:`merge_snapshots`; because the merge runs in a deterministic
  order (shard/cell order) over per-shard values that are themselves
  bit-identical to a single-process run's, merged sharded telemetry is
  value-identical to the unsharded aggregate (asserted in the test
  suite and in ``benchmarks/test_bench_obs.py``).
- **Bounded error.**  Histogram buckets grow geometrically (default
  ``growth=1.1``), so any quantile read off a bucket's upper bound is
  within a factor ``growth`` of the true order statistic while
  ``count``/``sum``/``min``/``max`` stay exact.

Snapshots are plain JSON-able dicts (see :meth:`MetricsRegistry
.snapshot`) written as ``*-telemetry.json`` files and inspected with
``faasflow-trace report`` / ``faasflow-trace slo``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "LogHistogram",
    "Counter",
    "Gauge",
    "BoundCounter",
    "BoundHistogram",
    "BoundGauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_TELEMETRY",
    "merge_snapshots",
    "write_telemetry_json",
    "read_telemetry_json",
    "validate_snapshot",
    "metric_key",
    "find_metrics",
    "record_invocation_metrics",
]

PathLike = Union[str, Path]

DEFAULT_GROWTH = 1.1
DEFAULT_WINDOW = 1.0


def metric_key(name: str, labels: dict) -> tuple:
    """Canonical instrument identity: name + sorted label items."""
    return (name, tuple(sorted(labels.items())))


class LogHistogram:
    """Log-bucketed streaming histogram with exact count/sum/min/max.

    Positive values land in bucket ``ceil(log(v) / log(growth))`` (the
    bucket covering ``(growth**(i-1), growth**i]``); zeros are counted
    separately; negative values are rejected.  Quantiles come off a
    bucket's upper bound, clamped to the exact observed ``[min, max]``,
    so their relative error is bounded by ``growth - 1``.
    """

    __slots__ = (
        "growth", "count", "sum", "min", "max", "zeros", "buckets",
        "windows", "_log_growth", "_sorted",
    )

    def __init__(self, growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0
        self.buckets: dict[int, int] = {}
        # Sorted bucket indices, rebuilt lazily by quantile(): most
        # observations hit existing buckets, so quantile sweeps over
        # large snapshots stop paying O(B log B) per call.
        self._sorted: Optional[list[int]] = None
        # window index -> [count, sum]: the simulated-time series.
        self.windows: dict[int, list] = {}

    def bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_growth - 1e-12))

    def bucket_upper(self, index: int) -> float:
        return self.growth ** index

    def observe(self, value: float, window: Optional[int] = None) -> None:
        if value < 0:
            raise ValueError(f"histogram value must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
        else:
            index = self.bucket_index(value)
            existing = self.buckets.get(index)
            if existing is None:
                self.buckets[index] = 1
                self._sorted = None  # a new bucket key invalidates the order
            else:
                self.buckets[index] = existing + 1
        if window is not None:
            slot = self.windows.get(window)
            if slot is None:
                self.windows[window] = [1, value]
            else:
                slot[0] += 1
                slot[1] += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic bounded-error quantile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"quantile q={q} outside [0, 100]")
        if self.count == 0:
            raise ValueError("quantile of empty histogram")
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.buckets)
        for index in self._sorted:
            seen += self.buckets[index]
            if rank <= seen:
                # Clamp to the exact envelope so e.g. a single-bucket
                # histogram still reports values it actually saw.
                return min(max(self.bucket_upper(index), self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def fraction_below(self, threshold: float) -> float:
        """Fraction of observations whose bucket bound is <= threshold.

        Deterministic and conservative: the bucket containing
        ``threshold`` counts only if its upper bound fits, so the answer
        never overstates attainment by more than one bucket's width.
        """
        if self.count == 0:
            return 1.0
        if threshold < 0:
            return 0.0
        attained = self.zeros
        for index, count in self.buckets.items():
            if self.bucket_upper(index) <= threshold:
                attained += count
        return attained / self.count

    def merge(self, other: "LogHistogram") -> None:
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} != "
                f"{other.growth}"
            )
        self.count += other.count
        self.sum += other.sum
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        self.zeros += other.zeros
        if other.buckets:
            self._sorted = None
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        for window, (count, total) in other.windows.items():
            slot = self.windows.get(window)
            if slot is None:
                self.windows[window] = [count, total]
            else:
                slot[0] += count
                slot[1] += total

    def to_dict(self) -> dict:
        out = {
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "zeros": self.zeros,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
            "windows": {
                str(window): list(self.windows[window])
                for window in sorted(self.windows)
            },
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        hist = cls(growth=data.get("growth", DEFAULT_GROWTH))
        hist.count = data["count"]
        hist.sum = data["sum"]
        hist.zeros = data.get("zeros", 0)
        hist.min = data.get("min", math.inf)
        hist.max = data.get("max", -math.inf)
        hist.buckets = {
            int(index): count for index, count in data["buckets"].items()
        }
        hist.windows = {
            int(window): list(pair)
            for window, pair in data.get("windows", {}).items()
        }
        return hist


class Counter:
    """A monotone float total with a per-window delta series."""

    __slots__ = ("total", "windows")

    def __init__(self):
        self.total = 0.0
        self.windows: dict[int, float] = {}

    def inc(self, value: float = 1.0, window: Optional[int] = None) -> None:
        if value < 0:
            raise ValueError(f"counter increments must be >= 0, got {value}")
        self.total += value
        if window is not None:
            self.windows[window] = self.windows.get(window, 0.0) + value

    def merge(self, other: "Counter") -> None:
        self.total += other.total
        for window, value in other.windows.items():
            self.windows[window] = self.windows.get(window, 0.0) + value

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "windows": {
                str(window): self.windows[window]
                for window in sorted(self.windows)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Counter":
        counter = cls()
        counter.total = data["total"]
        counter.windows = {
            int(window): value
            for window, value in data.get("windows", {}).items()
        }
        return counter


class Gauge:
    """A last-writer-wins instantaneous value on the simulated clock.

    The merge rule (keep the larger ``(time, value)`` pair) is
    deterministic but order-free, so gauges are safe to merge across
    shards — at the cost of only ever reflecting the latest writer.
    """

    __slots__ = ("value", "time")

    def __init__(self):
        self.value = 0.0
        self.time = -math.inf

    def set(self, value: float, time: float) -> None:
        if time >= self.time:
            self.value = value
            self.time = time

    def merge(self, other: "Gauge") -> None:
        if (other.time, other.value) > (self.time, self.value):
            self.value = other.value
            self.time = other.time

    def to_dict(self) -> dict:
        return {"value": self.value, "time": self.time}

    @classmethod
    def from_dict(cls, data: dict) -> "Gauge":
        gauge = cls()
        gauge.value = data["value"]
        gauge.time = data["time"]
        return gauge


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": LogHistogram}


class _Handle:
    """One (kind, name, labels) resolved once, emitted into many times.

    The instrument is created on the first emit, so binding a handle
    never adds an instrument to the snapshot.  :meth:`MetricsRegistry
    .clear` detaches the instrument; the next emit re-creates it.
    """

    __slots__ = ("_registry", "_key", "_labels", "_instrument")
    kind = ""

    def __init__(self, registry: "MetricsRegistry", key: tuple, labels: dict):
        self._registry = registry
        self._key = key
        self._labels = labels
        self._instrument = None

    def _create(self):
        self._instrument = self._registry._resolve(
            self.kind, self._key, self._labels
        )
        return self._instrument


class BoundCounter(_Handle):
    """A counter handle: ``inc(value)``."""

    __slots__ = ()
    kind = "counter"

    def inc(self, value: float = 1.0) -> None:
        # Counter.inc inlined: counters are the hottest emit.
        if value < 0:
            raise ValueError(f"counter increments must be >= 0, got {value}")
        counter = self._instrument
        if counter is None:
            counter = self._create()
        registry = self._registry
        window = int(registry.clock() // registry.window)
        counter.total += value
        windows = counter.windows
        windows[window] = windows.get(window, 0.0) + value


class BoundHistogram(_Handle):
    """A histogram handle: ``observe(value)``."""

    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        histogram = self._instrument
        if histogram is None:
            histogram = self._create()
        registry = self._registry
        histogram.observe(value, int(registry.clock() // registry.window))


class BoundGauge(_Handle):
    """A gauge handle: ``set(value)`` at the current simulated time."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        gauge = self._instrument
        if gauge is None:
            gauge = self._create()
        gauge.set(value, self._registry.clock())


_HANDLES = {
    "counter": BoundCounter,
    "gauge": BoundGauge,
    "histogram": BoundHistogram,
}


class MetricsRegistry:
    """Get-or-create instrument store keyed by (name, labels).

    ``clock`` is a zero-argument callable returning the current
    *simulated* time (usually ``lambda: env.now``); observations fall
    into window ``int(now // window)`` of that clock.

    Emits go through bound handles (:meth:`bind_counter`,
    :meth:`bind_histogram`, :meth:`bind_gauge`): a handle resolves its
    (kind, name, labels) once and afterwards updates its instrument
    directly.  The keyword shortcuts (:meth:`inc`, :meth:`observe`,
    :meth:`set_gauge`) look the handle up per call; hot call sites keep
    their handles in a :meth:`site_cache`, which lives on the registry
    so a newly installed registry starts with no stale handles.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        window: float = DEFAULT_WINDOW,
        growth: float = DEFAULT_GROWTH,
    ):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.window = float(window)
        self.growth = float(growth)
        # (name, labels-tuple) -> (kind, labels-dict, instrument)
        self._instruments: dict[tuple, tuple] = {}
        # kind -> (name, labels-tuple) -> bound handle
        self._handles: dict[str, dict[tuple, _Handle]] = {
            kind: {} for kind in _KINDS
        }
        # call-site name -> that site's handle cache
        self._sites: dict[str, dict] = {}

    def _resolve(self, kind: str, key: tuple, labels: dict):
        entry = self._instruments.get(key)
        if entry is None:
            if kind == "histogram":
                instrument = LogHistogram(growth=self.growth)
            else:
                instrument = _KINDS[kind]()
            self._instruments[key] = (kind, dict(labels), instrument)
            return instrument
        if entry[0] != kind:
            raise ValueError(
                f"metric {key[0]!r} {labels} already registered as "
                f"{entry[0]}, requested as {kind}"
            )
        return entry[2]

    def _bind(self, kind: str, name: str, labels: dict) -> _Handle:
        key = metric_key(name, labels)
        handles = self._handles[kind]
        handle = handles.get(key)
        if handle is None:
            handle = handles[key] = _HANDLES[kind](self, key, dict(labels))
        return handle

    # -- instrument access ----------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._resolve("counter", metric_key(name, labels), labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._resolve("gauge", metric_key(name, labels), labels)

    def histogram(self, name: str, **labels) -> LogHistogram:
        return self._resolve("histogram", metric_key(name, labels), labels)

    # -- bound handles ----------------------------------------------------
    def bind_counter(self, name: str, **labels) -> BoundCounter:
        return self._bind("counter", name, labels)

    def bind_histogram(self, name: str, **labels) -> BoundHistogram:
        return self._bind("histogram", name, labels)

    def bind_gauge(self, name: str, **labels) -> BoundGauge:
        return self._bind("gauge", name, labels)

    def site_cache(self, site: str) -> dict:
        """A call site's private dict for caching its bound handles."""
        cache = self._sites.get(site)
        if cache is None:
            cache = self._sites[site] = {}
        return cache

    # -- emit shortcuts ---------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        self._bind("counter", name, labels).inc(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self._bind("histogram", name, labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._bind("gauge", name, labels).set(value)

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Deterministic JSON-able dump of every instrument."""
        metrics = []
        for key in sorted(self._instruments):
            kind, labels, instrument = self._instruments[key]
            metrics.append(
                {
                    "kind": kind,
                    "name": key[0],
                    "labels": {k: labels[k] for k in sorted(labels)},
                    **instrument.to_dict(),
                }
            )
        return {
            "type": "telemetry",
            "window": self.window,
            "growth": self.growth,
            "metrics": metrics,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot's instruments into this registry."""
        for entry in snapshot.get("metrics", []):
            kind = entry["kind"]
            labels = entry["labels"]
            instrument = self._resolve(
                kind, metric_key(entry["name"], labels), labels
            )
            instrument.merge(_KINDS[kind].from_dict(entry))

    def clear(self) -> None:
        """Drop every instrument; bound handles re-create theirs on use."""
        self._instruments.clear()
        for handles in self._handles.values():
            for handle in handles.values():
                handle._instrument = None


class NullRegistry:
    """The disabled registry: every operation is a no-op.

    Producers hold :data:`NULL_TELEMETRY` by default and guard emits
    behind ``telemetry.enabled``, mirroring :data:`NULL_SPANS` — an
    uninstrumented run costs one truthiness check per emit point.  Every
    ``bind_*`` call returns the same shared no-op handle.
    """

    enabled = False
    window = DEFAULT_WINDOW
    growth = DEFAULT_GROWTH

    class _NullInstrument:
        __slots__ = ()

        def inc(self, *args, **kwargs) -> None:
            return None

        def observe(self, *args, **kwargs) -> None:
            return None

        def set(self, *args, **kwargs) -> None:
            return None

        def merge(self, *args, **kwargs) -> None:
            return None

    _NULL = _NullInstrument()

    def counter(self, name: str, **labels):
        return self._NULL

    def gauge(self, name: str, **labels):
        return self._NULL

    def histogram(self, name: str, **labels):
        return self._NULL

    def bind_counter(self, name: str, **labels):
        return self._NULL

    def bind_histogram(self, name: str, **labels):
        return self._NULL

    def bind_gauge(self, name: str, **labels):
        return self._NULL

    def site_cache(self, site: str) -> dict:
        # Never kept: caching no-op handles would only grow memory.
        return {}

    def inc(self, *args, **kwargs) -> None:
        return None

    def observe(self, *args, **kwargs) -> None:
        return None

    def set_gauge(self, *args, **kwargs) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {
            "type": "telemetry",
            "window": self.window,
            "growth": self.growth,
            "metrics": [],
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        return None

    def clear(self) -> None:
        return None


NULL_TELEMETRY = NullRegistry()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge telemetry snapshots in the given (deterministic) order.

    Counters and histogram buckets add; gauges are last-writer-wins on
    simulated time.  Merging per-shard snapshots in shard order (or
    per-cell snapshots in cell order) performs the identical float
    addition sequence no matter how many processes produced them, which
    is what makes merged sharded telemetry value-identical to a
    single-process run.
    """
    snapshots = list(snapshots)
    window = DEFAULT_WINDOW
    growth = DEFAULT_GROWTH
    for snapshot in snapshots:
        window = snapshot.get("window", window)
        growth = snapshot.get("growth", growth)
        break
    registry = MetricsRegistry(window=window, growth=growth)
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


def record_invocation_metrics(
    telemetry, record, tenant: str, engine: str
) -> None:
    """Fold one finished invocation into the registry.

    Called once per invocation, where
    :meth:`repro.core.lifecycle.WorkflowSystem.invoke` closes the record
    for every engine: latency and scheduling overhead into histograms,
    plus status / cold-start / retry counters, all labeled (tenant,
    workflow, engine).
    """
    status = record.status
    cache = telemetry.site_cache("workflow")
    handles = cache.get((tenant, record.workflow, engine, status))
    if handles is None:
        labels = dict(tenant=tenant, workflow=record.workflow, engine=engine)
        handles = cache[tenant, record.workflow, engine, status] = (
            telemetry.bind_histogram("workflow.latency", **labels),
            telemetry.bind_histogram("workflow.scheduling_overhead", **labels),
            telemetry.bind_counter("workflow.invocations", status=status, **labels),
            telemetry.bind_counter("workflow.cold_starts", **labels),
            telemetry.bind_counter("workflow.retries", **labels),
        )
    latency, overhead, invocations, cold_starts, retries = handles
    latency.observe(record.latency)
    overhead.observe(record.scheduling_overhead)
    invocations.inc(1.0)
    if record.cold_starts:
        cold_starts.inc(float(record.cold_starts))
    if record.retries:
        retries.inc(float(record.retries))


def find_metrics(
    snapshot: dict, name: str, **label_filter
) -> list[dict]:
    """Metric entries matching ``name`` and every given label value."""
    out = []
    for entry in snapshot.get("metrics", []):
        if entry["name"] != name:
            continue
        labels = entry["labels"]
        if all(labels.get(k) == v for k, v in label_filter.items()):
            out.append(entry)
    return out


def validate_snapshot(snapshot: dict) -> list[str]:
    """Structural invariant checks on a snapshot; returns problems."""
    problems: list[str] = []
    if snapshot.get("type") != "telemetry":
        problems.append("missing type=telemetry marker")
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, list):
        return problems + ["metrics missing or not a list"]
    seen: set[tuple] = set()
    for index, entry in enumerate(metrics):
        where = f"metric {index} ({entry.get('name', '?')})"
        kind = entry.get("kind")
        if kind not in _KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        key = metric_key(entry.get("name", ""), entry.get("labels", {}))
        if key in seen:
            problems.append(f"{where}: duplicate (name, labels) entry")
        seen.add(key)
        if kind == "histogram":
            bucket_total = sum(entry["buckets"].values()) + entry.get(
                "zeros", 0
            )
            if bucket_total != entry["count"]:
                problems.append(
                    f"{where}: bucket counts sum to {bucket_total}, "
                    f"count says {entry['count']}"
                )
            window_count = sum(
                pair[0] for pair in entry.get("windows", {}).values()
            )
            if entry.get("windows") and window_count != entry["count"]:
                problems.append(
                    f"{where}: window counts sum to {window_count}, "
                    f"count says {entry['count']}"
                )
            window_sum = sum(
                pair[1] for pair in entry.get("windows", {}).values()
            )
            if entry.get("windows") and not math.isclose(
                window_sum, entry["sum"], rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"{where}: window sums total {window_sum}, "
                    f"sum says {entry['sum']}"
                )
            if entry["count"] and entry.get("min", 0) > entry.get("max", 0):
                problems.append(f"{where}: min > max")
        elif kind == "counter":
            window_total = sum(entry.get("windows", {}).values())
            if entry.get("windows") and not math.isclose(
                window_total, entry["total"], rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"{where}: window deltas total {window_total}, "
                    f"total says {entry['total']}"
                )
    return problems


def write_telemetry_json(path: PathLike, snapshot) -> Path:
    """Write a snapshot (or a live registry) as a telemetry JSON file."""
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return path


def read_telemetry_json(path: PathLike) -> dict:
    """Load a telemetry snapshot written by :func:`write_telemetry_json`."""
    return json.loads(Path(path).read_text())
