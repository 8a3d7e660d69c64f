"""Telemetry-overhead A/B bench: instrumented engines vs NullRegistry.

Runs the same engine workload (a spread of realworld + synthetic cells
through ``run_workflow_cells``) twice over:

- **off** — the default ``NULL_TELEMETRY`` path: every producer holds
  the null registry and pays one ``enabled`` attribute check per
  would-be emit;
- **on** — ``collect_telemetry=True``: a ``MetricsRegistry`` on the
  simulated clock receives every engine/runtime/faastore/network/
  container emit and each cell ships a full snapshot.

The headline number is the instrumented-over-off wall-clock ratio
(best-of rounds on both sides); CI gates on ``overhead_ratio`` staying
under ``_MAX_OVERHEAD_RATIO``.  The bench also re-asserts the sharded
merge contract — per-cell snapshots merged in cell order at S=2 must be
bit-identical to the shards=1 run — so a determinism regression
invalidates the bench, not just a test.

Run directly (``python benchmarks/test_bench_obs.py``) to refresh the
committed ``BENCH_obs.json``; ``--quick`` is the CI smoke variant
(fewer invocations, one round, same gates).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.obs.telemetry import merge_snapshots
from repro.sim.shard import make_workflow_cell, run_workflow_cells

_HERE = Path(__file__).resolve().parent
_ROUNDS = 3
# Acceptance gate: the instrumented run may cost at most this multiple
# of the zero-cost-off run's wall clock.  Generous on purpose — CI
# machines are noisy and the quick workload is small — while still
# catching an accidental hot-path regression (an unguarded emit or a
# per-event allocation shows up as 3-10x, not 1.x).
_MAX_OVERHEAD_RATIO = 2.0
_INVOCATIONS = 6
_QUICK_INVOCATIONS = 2

_WORKLOADS = [
    (("layered_random", {"seed": 3}), "worker", 13, 3),
    ("cycles", "worker", 7, 3),
    ("video-ffmpeg", "worker", 29, 4),
    ("genome", "master", 17, 4),
]


def _cells(invocations: int, telemetry: bool) -> list[dict]:
    extra = {"collect_telemetry": True} if telemetry else {}
    return [
        make_workflow_cell(
            workload, engine=engine, seed=seed,
            invocations=invocations, workers=workers, **extra,
        )
        for workload, engine, seed, workers in _WORKLOADS
    ]


def _best_of(fn, rounds: int) -> float:
    wall = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        wall = min(wall, time.perf_counter() - start)
    return wall


def _canon(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


def _measure(invocations: int, rounds: int = _ROUNDS) -> dict:
    off_cells = _cells(invocations, telemetry=False)
    on_cells = _cells(invocations, telemetry=True)
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

    off_wall = _best_of(
        lambda: run_workflow_cells(off_cells, jobs=1), rounds
    )
    on_wall = _best_of(
        lambda: run_workflow_cells(on_cells, jobs=1), rounds
    )
    return {
        "invocations_per_cell": invocations,
        "cells": len(_WORKLOADS),
        "total_invocations": total_invocations,
        "metric_series": series,
        "off_wall_seconds": round(off_wall, 6),
        "on_wall_seconds": round(on_wall, 6),
        "off_invocations_per_sec": round(total_invocations / off_wall, 2),
        "on_invocations_per_sec": round(total_invocations / on_wall, 2),
        "overhead_ratio": round(on_wall / off_wall, 4),
        "sharded_merge_identical": True,
    }


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    invocations = _QUICK_INVOCATIONS if quick else _INVOCATIONS
    rounds = 1 if quick else _ROUNDS
    result = _measure(invocations, rounds=rounds)
    payload = {
        "bench": "engine wall clock with streaming telemetry on vs off "
        f"(best of {rounds} round(s) per side)",
        "baseline": "NULL_TELEMETRY zero-cost-off path (one enabled-check "
        "per would-be emit)",
        "instrumented": "MetricsRegistry on the simulated clock: engines, "
        "runtime, faastore, network, and containers all emitting",
        "workload": "run_workflow_cells over layered_random/cycles/"
        "video-ffmpeg/genome cells, both engine modes",
        "invariant": "S=2 sharded per-cell snapshots merged in cell order "
        "are bit-identical to the shards=1 run",
        "max_overhead_ratio": _MAX_OVERHEAD_RATIO,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        **result,
    }
    out = _HERE.parent / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    if payload["overhead_ratio"] >= _MAX_OVERHEAD_RATIO:
        print(
            f"WARNING: telemetry overhead ratio "
            f"{payload['overhead_ratio']} exceeds bound "
            f"{_MAX_OVERHEAD_RATIO}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
