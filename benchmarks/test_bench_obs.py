"""Instrumentation-overhead A/B bench: telemetry and spans vs off.

Runs the same engine workload (a spread of realworld + synthetic cells
through ``run_workflow_cells``) three times over:

- **off** — the default ``NULL_TELEMETRY`` and ``NULL_SPANS`` path:
  every producer holds the null objects and pays one ``enabled``
  attribute check per would-be emit or span;
- **on** — ``collect_telemetry=True``: a ``MetricsRegistry`` on the
  simulated clock receives every engine/runtime/faastore/network/
  container emit and each cell ships a full snapshot;
- **spans** — ``trace=True`` with telemetry off: a ``SpanTracer``
  records every invocation's span tree into its ring.

The headline number is the telemetry-over-off wall-clock ratio.  The
sides are interleaved: each round runs off, telemetry and spans once
each, back to back, and the order rotates by one side per round, so
host drift during the bench lands on every side alike instead of on
whichever side happened to run last.  Each round yields its own
``on/off`` and ``spans/off`` ratios (``*_per_round``); the reported
``overhead_ratio`` and ``spans_overhead_ratio`` are their medians, so
no single outlying round sets them.  CI gates both under
``_MAX_OVERHEAD_RATIO``.  The full size is 1000 invocations per cell,
4000 in all, the size of one perfbench ``observed`` round, so the cost
is measured at serving scale.  Wall and GC seconds (time in CPython's
cyclic garbage collector, through ``gc.callbacks``) are per-side
medians over the rounds.  The bench also
re-asserts the sharded merge contract — per-cell snapshots merged in
cell order at S=2 must be bit-identical to the shards=1 run — so a
determinism regression invalidates the bench, not just a test.

Run directly (``PYTHONPATH=src python benchmarks/test_bench_obs.py``)
to refresh the committed ``BENCH_obs.json``; ``--quick`` is the CI
smoke variant (fewer invocations, one round, same gates).  The JSON
records the git commit (``-dirty`` when the tree had changes),
``cpu_count`` and ``quick``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from repro.obs.telemetry import merge_snapshots
from repro.sim.shard import make_workflow_cell, run_workflow_cells

_HERE = Path(__file__).resolve().parent
_ROUNDS = 5
# Acceptance gate: the instrumented run may cost at most this multiple
# of the zero-cost-off run's wall clock.  Generous on purpose — CI
# machines are noisy and the quick workload is small — while still
# catching an accidental hot-path regression (an unguarded emit or a
# per-event allocation shows up as 3-10x, not 1.x).
_MAX_OVERHEAD_RATIO = 2.0
_INVOCATIONS = 1000
_QUICK_INVOCATIONS = 25

_WORKLOADS = [
    (("layered_random", {"seed": 3}), "worker", 13, 3),
    ("cycles", "worker", 7, 3),
    ("video-ffmpeg", "worker", 29, 4),
    ("genome", "master", 17, 4),
]


def _cells(invocations: int, **extra) -> list[dict]:
    return [
        make_workflow_cell(
            workload, engine=engine, seed=seed,
            invocations=invocations, workers=workers, **extra,
        )
        for workload, engine, seed, workers in _WORKLOADS
    ]


class _GCTimer:
    """Seconds spent in the cyclic garbage collector, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "_GCTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _interleaved_rounds(sides: dict, rounds: int) -> dict:
    """Wall and GC seconds of every side's run in each of ``rounds``.

    ``sides`` maps a name to a zero-argument callable; the result maps
    it to one ``(wall, gc)`` pair per round.  Every round runs each side
    once; round ``r`` starts at side ``r mod len(sides)``.
    """
    names = list(sides)
    runs = {name: [] for name in names}
    for round_index in range(rounds):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            gc.collect()
            with _GCTimer() as timer:
                start = time.perf_counter()
                sides[name]()
                wall = time.perf_counter() - start
            runs[name].append((wall, timer.seconds))
    return runs


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=_HERE, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _canon(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


def _measure(invocations: int, rounds: int = _ROUNDS) -> dict:
    off_cells = _cells(invocations)
    on_cells = _cells(invocations, collect_telemetry=True)
    spans_cells = _cells(invocations, trace=True)
    total_invocations = invocations * len(_WORKLOADS)

    # Merge contract first: cells sharded at S=2 must merge to the exact
    # snapshot the serial layout produces.  A failure here means the
    # overhead number would be measuring a broken subsystem.
    serial = run_workflow_cells(on_cells, jobs=1)
    sharded = run_workflow_cells(on_cells, jobs=2)
    merged_serial = merge_snapshots([r["telemetry"] for r in serial])
    merged_sharded = merge_snapshots([r["telemetry"] for r in sharded])
    if _canon(merged_sharded) != _canon(merged_serial):
        raise AssertionError(
            "sharded telemetry merge diverged from the serial run"
        )
    series = len(merged_serial["metrics"])

    runs = _interleaved_rounds(
        {
            "off": lambda: run_workflow_cells(off_cells, jobs=1),
            "on": lambda: run_workflow_cells(on_cells, jobs=1),
            "spans": lambda: run_workflow_cells(spans_cells, jobs=1),
        },
        rounds,
    )
    wall = {name: [w for w, _ in side] for name, side in runs.items()}
    gc_s = {name: [g for _, g in side] for name, side in runs.items()}
    ratios = {
        "overhead_ratio": [
            on / off for on, off in zip(wall["on"], wall["off"])
        ],
        "spans_overhead_ratio": [
            spans / off for spans, off in zip(wall["spans"], wall["off"])
        ],
    }
    off_wall = median(wall["off"])
    on_wall = median(wall["on"])
    result = {
        "invocations_per_cell": invocations,
        "cells": len(_WORKLOADS),
        "total_invocations": total_invocations,
        "metric_series": series,
        "off_wall_seconds": round(off_wall, 6),
        "on_wall_seconds": round(on_wall, 6),
        "off_gc_seconds": round(median(gc_s["off"]), 6),
        "on_gc_seconds": round(median(gc_s["on"]), 6),
        "spans_wall_seconds": round(median(wall["spans"]), 6),
        "spans_gc_seconds": round(median(gc_s["spans"]), 6),
        "off_invocations_per_sec": round(total_invocations / off_wall, 2),
        "on_invocations_per_sec": round(total_invocations / on_wall, 2),
    }
    for name, per_round in ratios.items():
        result[name] = round(median(per_round), 4)
        result[f"{name}_per_round"] = [round(r, 4) for r in per_round]
    result["sharded_merge_identical"] = True
    return result


def test_telemetry_overhead_bounded(benchmark):
    result = benchmark.pedantic(
        lambda: _measure(_QUICK_INVOCATIONS, rounds=1),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(result)
    assert result["sharded_merge_identical"]
    assert result["metric_series"] > 0
    assert result["overhead_ratio"] < _MAX_OVERHEAD_RATIO
    assert result["spans_overhead_ratio"] < _MAX_OVERHEAD_RATIO


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    invocations = _QUICK_INVOCATIONS if quick else _INVOCATIONS
    rounds = 1 if quick else _ROUNDS
    result = _measure(invocations, rounds=rounds)
    payload = {
        "bench": "engine wall clock with streaming telemetry on, and with "
        f"spans on, vs off ({rounds} interleaved round(s), side order "
        "rotated each round; ratios are medians of the per-round ratios)",
        "baseline": "NULL_TELEMETRY and NULL_SPANS zero-cost-off path (one "
        "enabled-check per would-be emit or span)",
        "instrumented": "MetricsRegistry on the simulated clock: engines, "
        "runtime, faastore, network, and containers all emitting",
        "spans": "SpanTracer (trace=True) with telemetry off: every "
        "invocation's span tree recorded into the ring",
        "workload": "run_workflow_cells over layered_random/cycles/"
        "video-ffmpeg/genome cells, both engine modes",
        "invariant": "S=2 sharded per-cell snapshots merged in cell order "
        "are bit-identical to the shards=1 run",
        "max_overhead_ratio": _MAX_OVERHEAD_RATIO,
        "git_sha": _git_sha(),
        "quick": quick,
        "cpu_count": os.cpu_count(),
        **result,
    }
    out = _HERE.parent / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    status = 0
    for side, key in (("telemetry", "overhead_ratio"),
                      ("spans", "spans_overhead_ratio")):
        if not payload[key] < _MAX_OVERHEAD_RATIO:
            print(
                f"WARNING: {side} overhead ratio {payload[key]} exceeds "
                f"bound {_MAX_OVERHEAD_RATIO}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
