"""Sharded-vs-single-process A/B bench for the conservative shard runtime.

Drives the ``fig_scale`` cluster workload three ways over the same
byte-exact arrival plan:

- **single-process (stepped)** — today's default path:
  ``drive_network`` with ``progress="stepped"``;
- **single-process (analytic)** — ``run_network_single``: one
  environment in ``progress="analytic"`` mode, the exactness reference
  every sharded run must match bit-for-bit;
- **sharded** — ``run_network_sharded`` at S ∈ {2, 4, 8}: NICs
  partitioned across shard processes synchronized with conservative
  time windows (``repro/sim/shard.py``).

Every sharded run's merged transfer records are asserted tuple-identical
to the analytic single-process run — the bench is invalid on a single
bit of drift.  The headline number is S=4 wall clock versus the
single-process path on the 128-node cells; ``shards=1`` is also timed to
show the passthrough adds no overhead.

Run directly (``python benchmarks/test_bench_shard.py``) to refresh the
committed ``BENCH_shard.json``; pass ``--quick`` for the small sweep the
CI smoke job uses (bit-identity asserted, speedup recorded but not
gated — small cells are dominated by process-spawn overhead).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.experiments.fig_scale import drive_network, drive_network_sharded

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


def _best_of(fn, rounds: int) -> float:
    wall = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        wall = min(wall, time.perf_counter() - start)
    return wall


def _measure(cells, shard_counts, rounds: int = _ROUNDS):
    results = []
    for nodes, flows in cells:
        # Exactness reference: single-process analytic run.
        reference = drive_network_sharded(
            nodes, flows, 1, collect_records=True
        )
        ref_records = reference["records"]

        # Today's single-process path (stepped mode), timed as-is.
        stepped = drive_network(nodes, flows)
        stepped_rounds = 1 if stepped["wall_seconds"] > 5.0 else rounds
        stepped_wall = stepped["wall_seconds"]
        for _ in range(stepped_rounds - 1):
            stepped_wall = min(
                stepped_wall, drive_network(nodes, flows)["wall_seconds"]
            )

        analytic_wall = _best_of(
            lambda: drive_network_sharded(nodes, flows, 1), rounds
        )
        # shards=1 through the sharded entry point (the passthrough).
        passthrough_wall = _best_of(
            lambda: drive_network_sharded(nodes, flows, 1), rounds
        )

        cell = {
            "nodes": nodes,
            "flows": flows,
            "events": 2 * flows,
            "single_stepped_wall_seconds": round(stepped_wall, 6),
            "single_analytic_wall_seconds": round(analytic_wall, 6),
            "shards1_wall_seconds": round(passthrough_wall, 6),
            "shards1_passthrough_ratio": round(
                passthrough_wall / analytic_wall, 3
            ),
            "records_identical": True,
            "sharded": {},
        }
        for shards in shard_counts:
            first = drive_network_sharded(
                nodes, flows, shards, collect_records=True
            )
            if first["records"] != ref_records:
                raise AssertionError(
                    f"sharded run diverged from single-process analytic "
                    f"run at nodes={nodes} flows={flows} shards={shards}"
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
                "speedup_vs_single_process": round(stepped_wall / wall, 3),
                "speedup_vs_single_analytic": round(analytic_wall / wall, 3),
                "barrier_rounds": first["rounds"],
                "cross_flows": first["cross_flows"],
                "backend": first["backend"],
            }
        results.append(cell)
    return results


def _aggregate(results) -> dict:
    s4 = [
        r["sharded"]["4"]["speedup_vs_single_process"]
        for r in results
        if "4" in r["sharded"]
    ]
    big_s4 = [
        r["sharded"]["4"]["speedup_vs_single_process"]
        for r in results
        if "4" in r["sharded"] and r["nodes"] >= 100
    ]
    return {
        "best_s4_speedup_vs_single_process": max(s4) if s4 else None,
        "best_s4_speedup_100plus_nodes": max(big_s4) if big_s4 else None,
        "max_shards1_passthrough_ratio": max(
            r["shards1_passthrough_ratio"] for r in results
        ),
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
    assert all(
        s["cross_flows"] == 0
        for r in results
        for s in r["sharded"].values()
    )


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
        "baseline": "single-process fig_scale.drive_network (stepped "
        "mode); exactness reference is the single-process analytic run",
        "workload": "fig_scale.make_plan: worker-group transfers with a "
        "per-group collector hotspot (group_size=8), partition aligned "
        "on group boundaries (strict, zero cross-shard flows)",
        "invariant": "merged sharded records bit-identical to the "
        "single-process analytic run at every shard count",
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
