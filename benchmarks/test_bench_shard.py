"""Sharded-vs-single-process A/B bench for traffic-cell sharding.

Drives the ``fig_scale`` cluster workload two ways over the same
byte-exact arrival plan:

- **single-process** — ``drive_network_sharded`` with ``shards=1``,
  i.e. ``run_network_single``: one environment, the baseline and the
  exactness reference every sharded run must match bit-for-bit;
- **sharded** — ``run_network_sharded`` at S ∈ {2, 4, 8}: the plan's
  traffic groups packed into S cells, each run in its own worker
  process, results merged in cell order (``repro/sim/shard.py``);
- **serial cells** — the same S traffic cells run one after another in
  this process.

Every sharded run's merged transfer records are asserted tuple-identical
to the single-process run — the bench is invalid on a single bit of
drift.  The headline number is S=4 wall clock versus the single-process
run on the 128-node cells.  That speedup is the product of two terms,
reported separately: ``split_gain_vs_single`` (single-process wall over
serial-cells wall: smaller cells are cheaper per flow, since an event's
cost grows with the flows active in its environment) and
``speedup_vs_serial_cells`` (serial-cells wall over sharded wall: what
the worker processes add).  Each round times the three runs of one
shard count back to back, so each ratio is taken within a round; the
bench records every round's ratios (``*_per_round``) and reports their
median.

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

from repro.experiments.fig_scale import drive_network_sharded, named_plan
from repro.sim.shard import run_network_single, split_plan

_HERE = Path(__file__).resolve().parent
_ROUNDS = 5
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


def _serial_cells_wall(nodes: int, flows: int, shards: int) -> float:
    """Wall clock of the sharded run's traffic cells, run in this process."""
    start = time.perf_counter()
    plan, names = named_plan(nodes, flows)
    for part, cell in split_plan(plan, names, shards):
        run_network_single(part, cell)
    return time.perf_counter() - start


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _measure(cells, shard_counts, rounds: int = _ROUNDS):
    """Time single, sharded and serial-cells runs back to back.

    Each round measures the three walls of one shard count one right
    after another, so host drift over minutes cannot leak into their
    ratios; the ratios are taken per round and reported with their
    median over the rounds.
    """
    results = []
    for nodes, flows in cells:
        # Exactness reference: the single-process run's records.
        ref_records = drive_network_sharded(
            nodes, flows, 1, collect_records=True
        )["records"]
        cell = {
            "nodes": nodes,
            "flows": flows,
            "events": 2 * flows,
            "records_identical": True,
            "sharded": {},
        }
        singles = []
        for shards in shard_counts:
            first = drive_network_sharded(
                nodes, flows, shards, collect_records=True
            )
            if first["records"] != ref_records:
                raise AssertionError(
                    f"sharded run diverged from the single-process run "
                    f"at nodes={nodes} flows={flows} shards={shards}"
                )
            walls = {"single": [], "sharded": [], "serial": []}
            for _ in range(rounds):
                walls["single"].append(
                    drive_network_sharded(nodes, flows, 1)["wall_seconds"]
                )
                walls["sharded"].append(
                    drive_network_sharded(nodes, flows, shards)[
                        "wall_seconds"
                    ]
                )
                walls["serial"].append(
                    _serial_cells_wall(nodes, flows, shards)
                )
            singles += walls["single"]
            ratios = {
                "speedup_vs_single": [
                    single / sharded
                    for single, sharded in zip(
                        walls["single"], walls["sharded"]
                    )
                ],
                "split_gain_vs_single": [
                    single / serial
                    for single, serial in zip(walls["single"], walls["serial"])
                ],
                "speedup_vs_serial_cells": [
                    serial / sharded
                    for serial, sharded in zip(
                        walls["serial"], walls["sharded"]
                    )
                ],
            }
            entry = {
                "wall_seconds": round(_median(walls["sharded"]), 6),
                "single_wall_seconds": round(_median(walls["single"]), 6),
                "serial_cells_wall_seconds": round(
                    _median(walls["serial"]), 6
                ),
            }
            for name, per_round in ratios.items():
                entry[name] = round(_median(per_round), 3)
                entry[f"{name}_per_round"] = [
                    round(ratio, 3) for ratio in per_round
                ]
            entry["cells"] = first["cells"]
            cell["sharded"][str(shards)] = entry
        cell["single_wall_seconds"] = round(_median(singles), 6)
        results.append(cell)
    return results


def _aggregate(results) -> dict:
    s4 = [
        r["sharded"]["4"]["speedup_vs_single"]
        for r in results
        if "4" in r["sharded"]
    ]
    big = [
        r["sharded"]["4"]
        for r in results
        if "4" in r["sharded"] and r["nodes"] >= 100
    ]
    best = max(big, key=lambda s: s["speedup_vs_single"]) if big else None
    return {
        "best_s4_speedup_vs_single": max(s4) if s4 else None,
        "best_s4_speedup_100plus_nodes": best and best["speedup_vs_single"],
        # The same S=4 cell, its speedup split into its two factors.
        "best_s4_split_gain_100plus_nodes": best and best["split_gain_vs_single"],
        "best_s4_speedup_vs_serial_cells_100plus_nodes": (
            best and best["speedup_vs_serial_cells"]
        ),
        "s4_target_speedup": _TARGET_S4_SPEEDUP,
        "s4_target_met": bool(
            best and best["speedup_vs_single"] >= _TARGET_S4_SPEEDUP
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
        f"per sweep cell; {rounds} round(s), each timing the single, "
        "sharded and serial-cells runs back to back; ratios are the "
        "median of the per-round ratios)",
        "baseline": "single-process run (fig_scale.drive_network_sharded "
        "with shards=1), also the exactness reference; serial cells: the "
        "sharded run's traffic cells run one after another in one process",
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
