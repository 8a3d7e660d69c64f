"""Sharded-vs-single-process A/B bench for traffic-cell sharding.

Drives the ``fig_scale`` cluster workload two ways over the same
byte-exact arrival plan:

- **single-process** — ``drive_network_sharded`` with ``shards=1``,
  i.e. ``run_network_single``: one environment, the baseline and the
  exactness reference every sharded run must match bit-for-bit;
- **sharded** — ``run_network_sharded`` at S ∈ {2, 4, 8}: the plan's
  traffic groups packed into S cells, each run in its own worker
  process, results merged in cell order (``repro/sim/shard.py``).

Every sharded run's merged transfer records are asserted tuple-identical
to the single-process run — the bench is invalid on a single bit of
drift.  The headline number is S=4 wall clock versus the single-process
run on the 128-node cells.

Run directly (``python benchmarks/test_bench_shard.py``) to refresh the
committed ``BENCH_shard.json``; pass ``--quick`` for the small sweep the
CI smoke job uses (bit-identity asserted, speedup recorded but not
gated — small cells are dominated by process-spawn overhead).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.experiments.fig_scale import drive_network_sharded

_HERE = Path(__file__).resolve().parent
_ROUNDS = 2
# Acceptance gate (full mode only): S=4 must at least halve the
# single-process wall clock on a 100+ node cell.
_TARGET_S4_SPEEDUP = 2.0
_CELLS = [
    (128, 8000),
    (128, 16000),
]
_QUICK_CELLS = [
    (32, 600),
    (64, 1200),
]
_SHARDS = (2, 4, 8)
_QUICK_SHARDS = (2, 4)


def _measure(cells, shard_counts, rounds: int = _ROUNDS):
    results = []
    for nodes, flows in cells:
        # Baseline and exactness reference: the single-process run.
        reference = drive_network_sharded(
            nodes, flows, 1, collect_records=True
        )
        ref_records = reference["records"]
        single_wall = reference["wall_seconds"]
        for _ in range(rounds - 1):
            single_wall = min(
                single_wall,
                drive_network_sharded(nodes, flows, 1)["wall_seconds"],
            )

        cell = {
            "nodes": nodes,
            "flows": flows,
            "events": 2 * flows,
            "single_wall_seconds": round(single_wall, 6),
            "records_identical": True,
            "sharded": {},
        }
        for shards in shard_counts:
            first = drive_network_sharded(
                nodes, flows, shards, collect_records=True
            )
            if first["records"] != ref_records:
                raise AssertionError(
                    f"sharded run diverged from the single-process run "
                    f"at nodes={nodes} flows={flows} shards={shards}"
                )
            wall = first["wall_seconds"]
            for _ in range(rounds - 1):
                wall = min(
                    wall,
                    drive_network_sharded(nodes, flows, shards)[
                        "wall_seconds"
                    ],
                )
            cell["sharded"][str(shards)] = {
                "wall_seconds": round(wall, 6),
                "speedup_vs_single": round(single_wall / wall, 3),
                "cells": first["cells"],
            }
        results.append(cell)
    return results


def _aggregate(results) -> dict:
    s4 = [
        r["sharded"]["4"]["speedup_vs_single"]
        for r in results
        if "4" in r["sharded"]
    ]
    big_s4 = [
        r["sharded"]["4"]["speedup_vs_single"]
        for r in results
        if "4" in r["sharded"] and r["nodes"] >= 100
    ]
    return {
        "best_s4_speedup_vs_single": max(s4) if s4 else None,
        "best_s4_speedup_100plus_nodes": max(big_s4) if big_s4 else None,
    }


def test_sharded_records_bit_identical(benchmark):
    def run_ab():
        results = _measure(_QUICK_CELLS, _QUICK_SHARDS, rounds=1)
        return results, _aggregate(results)

    results, aggregate = benchmark.pedantic(run_ab, rounds=1, iterations=1)
    benchmark.extra_info["cells"] = results
    benchmark.extra_info.update(aggregate)
    # The invariant, not the speedup, is what CI gates on: small quick
    # cells are dominated by process-spawn overhead.
    assert all(r["records_identical"] for r in results)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    cells = _QUICK_CELLS if quick else _CELLS
    shard_counts = _QUICK_SHARDS if quick else _SHARDS
    rounds = 1 if quick else _ROUNDS
    results = _measure(cells, shard_counts, rounds=rounds)
    aggregate = _aggregate(results)
    payload = {
        "bench": "sharded cluster simulation vs single-process (wall clock "
        f"per sweep cell, best of {rounds} round(s))",
        "baseline": "single-process run (fig_scale.drive_network_sharded "
        "with shards=1), also the exactness reference",
        "workload": "fig_scale.make_plan: worker-group transfers with a "
        "per-group collector hotspot (group_size=8), split into traffic "
        "cells (no flow crosses a cell)",
        "invariant": "merged sharded records bit-identical to the "
        "single-process run at every shard count",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "cells": results,
        **aggregate,
    }
    out = _HERE.parent / "BENCH_shard.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    if not quick and (
        (payload["best_s4_speedup_100plus_nodes"] or 0.0)
        < _TARGET_S4_SPEEDUP
    ):
        print("WARNING: S=4 speedup target not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
