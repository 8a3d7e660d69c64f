"""fig_scale — cluster-scale throughput sweep of the fluid network model.

Not a figure from the paper: the paper's testbed stops at 8 nodes, while
related DAG engines (DFlow; Wukong, "In Search of a Fast and Efficient
Serverless DAG Engine") evaluate at hundreds of concurrent invocations.
This sweep drives the fluid network model alone — no engines, no
containers — across cluster sizes and concurrent-flow counts and reports
how fast the simulator itself processes flow events.  Its simulated
results are pinned by ``tests/test_golden_digests.py``.

The workload models FaaSFlow's locality structure: the cluster is
partitioned into worker groups of ``group_size`` nodes (one deployed
workflow per group, paper §4.1), each flow moves data between two nodes
of one group, and a configurable fraction of each group's traffic aims
at the group's first node — the per-workflow collector/storage hotspot
of the paper's Figs. 12-14 regime.  ``group_size >= nodes`` collapses
the partitioning and yields uniform all-to-all traffic, the worst case
for the incremental allocator (one connected component, no route
repetition).
"""

from __future__ import annotations

import random
import time

from ..sim import MB
from .common import ExperimentResult, ParallelRunner

__all__ = [
    "run",
    "drive_network_sharded",
    "make_plan",
    "named_plan",
    "DEFAULT_NODES",
    "DEFAULT_FLOWS",
]

DEFAULT_NODES = (8, 32, 64, 128)
DEFAULT_FLOWS = (10, 100, 500, 1000)


def make_plan(
    nodes: int,
    flows: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
) -> list[tuple[float, int, int, float]]:
    """Generate the arrival plan: ``(at, src, dst, size)`` entries.

    ``at`` is an absolute start time.  Pre-generating the plan keeps
    RNG consumption identical no matter which module or shard layout
    executes it.
    """
    rng = random.Random(seed)
    window = max(0.25, flows / 400.0)  # arrival burst, simulated seconds
    group_size = min(group_size, nodes)
    groups = [
        range(base, min(base + group_size, nodes))
        for base in range(0, nodes, group_size)
    ]
    plan = []
    t = 0.0
    for _ in range(flows):
        group = groups[rng.randrange(len(groups))]
        src, dst = rng.sample(group, 2)
        if rng.random() < hotspot_fraction and src != group[0]:
            dst = group[0]
        size = rng.uniform(4.0, 40.0) * MB
        t = t + rng.uniform(0.0, window / flows)
        plan.append((t, src, dst, size))
    return plan


def named_plan(nodes: int, flows: int, **plan_kwargs) -> tuple[list, list]:
    """:func:`make_plan` with node names: ``(plan, node_names)``.

    Entries are ``(at, src, dst, size)`` over nodes ``n0 .. n{nodes-1}``,
    the form :mod:`repro.sim.shard` runs.
    """
    plan = make_plan(nodes, flows, **plan_kwargs)
    names = [f"n{i}" for i in range(nodes)]
    return (
        [(at, f"n{src}", f"n{dst}", size) for at, src, dst, size in plan],
        names,
    )


def drive_network_sharded(
    nodes: int,
    flows: int,
    shards: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
    bandwidth: float = 100 * MB,
    collect_records: bool = False,
    telemetry: bool = False,
) -> dict:
    """Run one sweep cell as up to ``shards`` traffic cells.

    Executes the :func:`make_plan` arrival plan through
    ``repro.sim.shard``: the plan's ``group_size`` traffic groups never
    exchange bytes, so they pack into ``min(shards, groups)`` cells that
    run in separate processes, and the merged records are bit-identical
    to a single-process run.  ``shards=1`` is one single-process
    environment.
    """
    from ..sim.shard import run_network_sharded

    abs_plan, names = named_plan(
        nodes, flows, seed=seed,
        group_size=group_size, hotspot_fraction=hotspot_fraction,
    )
    start = time.perf_counter()
    result = run_network_sharded(
        abs_plan, names, shards, bandwidth=bandwidth, telemetry=telemetry
    )
    wall = time.perf_counter() - start
    events = 2 * flows
    out = {
        "nodes": nodes,
        "flows": flows,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else float("inf"),
        "sim_makespan": result["makespan"],
        "shards": shards,
        "cells": result["cells"],
    }
    if collect_records:
        out["records"] = result["records"]
    if telemetry:
        out["telemetry"] = result["telemetry"]
    return out


def _cell(task: tuple) -> dict:
    """One sweep cell against the live network model (pool-shippable)."""
    nodes, flows, seed, telemetry = task
    return drive_network_sharded(nodes, flows, 1, seed=seed, telemetry=telemetry)


def run(
    nodes: tuple[int, ...] = DEFAULT_NODES,
    flows: tuple[int, ...] = DEFAULT_FLOWS,
    seed: int = 11,
    jobs: int = 1,
    shards: int = 1,
    telemetry_out: str | None = None,
) -> ExperimentResult:
    cells = [
        (n, f, seed + index)
        for index, (n, f) in enumerate(
            (n, f) for n in nodes for f in flows
        )
    ]
    telemetry = telemetry_out is not None
    if shards > 1:
        # Traffic cells provide the parallelism inside each sweep cell,
        # so the sweep cells themselves run serially regardless of
        # --jobs.  With telemetry on, each traffic cell collects its own
        # registry and the snapshots merge (value-identical to shards=1).
        results = [
            drive_network_sharded(n, f, shards, seed=s, telemetry=telemetry)
            for n, f, s in cells
        ]
    else:
        results = ParallelRunner(jobs).map(
            _cell, [(n, f, s, telemetry) for n, f, s in cells]
        )
    if telemetry_out is not None:
        from pathlib import Path

        from ..obs.telemetry import write_telemetry_json

        directory = Path(telemetry_out)
        directory.mkdir(parents=True, exist_ok=True)
        for stats in results:
            snapshot = stats.pop("telemetry", None)
            if snapshot is not None:
                write_telemetry_json(
                    directory
                    / (
                        f"fig_scale-n{stats['nodes']}-f{stats['flows']}"
                        f"-telemetry.json"
                    ),
                    snapshot,
                )
    rows = []
    for stats in results:
        row = [
            stats["nodes"],
            stats["flows"],
            round(stats["wall_seconds"] * 1000, 2),
            round(stats["events_per_sec"]),
            round(stats["sim_makespan"], 3),
        ]
        if shards > 1:
            row += [stats["shards"], stats["cells"]]
        rows.append(row)
    headers = [
        "nodes",
        "flows",
        "wall (ms)",
        "events/sec",
        "sim makespan (s)",
    ]
    if shards > 1:
        headers += ["shards", "cells"]
    return ExperimentResult(
        experiment="fig_scale",
        title="Fluid network model throughput vs cluster size x concurrent flows",
        headers=headers,
        rows=rows,
        notes=[
            "events/sec = flow arrivals + completions over real wall time; "
            "simulated results are wall-time independent",
        ]
        + (
            [
                "sharded cells split the plan into traffic groups that "
                "share no flows; records are bit-identical to a "
                "single-process run"
            ]
            if shards > 1
            else []
        ),
        data={"cells": list(results)},
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
