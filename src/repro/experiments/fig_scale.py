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

from ..sim import MB, Environment, Network, NetworkConfig
from .common import ExperimentResult, ParallelRunner

__all__ = [
    "run",
    "drive_network",
    "drive_network_sharded",
    "make_plan",
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
) -> list[tuple[float, float, int, int, float]]:
    """Generate the arrival plan: ``(gap, at, src, dst, size)`` entries.

    ``gap`` is the inter-arrival delay consumed by the serial driver's
    timeout loop; ``at`` is the same instant as an absolute timestamp
    (``at = previous at + gap``, the identical float-addition sequence the
    kernel performs when accumulating timeouts, so both representations
    land on bit-identical start times).  Pre-generating the plan keeps
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
        gap = rng.uniform(0.0, window / flows)
        t = t + gap
        plan.append((gap, t, src, dst, size))
    return plan


def drive_network(
    nodes: int,
    flows: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
    bandwidth: float = 100 * MB,
    collect_records: bool = False,
    telemetry: bool = False,
) -> dict:
    """Run one sweep cell on a single-process network and time it."""
    plan = make_plan(
        nodes, flows, seed=seed,
        group_size=group_size, hotspot_fraction=hotspot_fraction,
    )

    env = Environment()
    net = Network(env, NetworkConfig())
    registry = None
    if telemetry:
        from ..obs.telemetry import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: env.now)
        net.telemetry = registry
    nics = [net.attach(f"n{i}", bandwidth) for i in range(nodes)]

    def starter(env):
        for gap, _at, src, dst, size in plan:
            yield env.timeout(gap)
            net.transfer(nics[src], nics[dst], size)

    start = time.perf_counter()
    env.process(starter(env))
    env.run()
    wall = time.perf_counter() - start
    events = 2 * flows  # one arrival + one completion rebalance each
    out = {
        "nodes": nodes,
        "flows": flows,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else float("inf"),
        "sim_makespan": env.now,
    }
    if collect_records:
        out["records"] = [
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind, r.tag)
            for r in net.records
        ]
    if registry is not None:
        out["telemetry"] = registry.snapshot()
    return out


def drive_network_sharded(
    nodes: int,
    flows: int,
    shards: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
    bandwidth: float = 100 * MB,
    processes: bool = True,
    strict: bool = True,
    collect_records: bool = False,
    telemetry: bool = False,
) -> dict:
    """Run one sweep cell on ``shards`` conservatively-synchronized shards.

    Uses the same byte-exact arrival plan as :func:`drive_network` but in
    its absolute-time form, executed through ``repro.sim.shard``.  The
    default partition keeps each ``group_size`` traffic group whole, so
    no flow crosses a shard boundary and records come out bit-identical
    to a single analytic run (``strict=True`` enforces exactly that).
    """
    from ..sim.shard import run_network_sharded

    plan = make_plan(
        nodes, flows, seed=seed,
        group_size=group_size, hotspot_fraction=hotspot_fraction,
    )
    names = [f"n{i}" for i in range(nodes)]
    abs_plan = [
        (at, f"n{src}", f"n{dst}", size)
        for _gap, at, src, dst, size in plan
    ]
    group_size = min(group_size, nodes)
    n_groups = -(-nodes // group_size)
    shards = min(shards, n_groups)  # a group can never straddle shards
    start = time.perf_counter()
    result = run_network_sharded(
        abs_plan,
        names,
        shards,
        bandwidth=bandwidth,
        group_size=group_size,
        processes=processes,
        strict=strict,
        telemetry=telemetry,
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
        "shards": result["shards"],
        "rounds": result["rounds"],
        "cross_flows": result["cross_flows"],
        "backend": result["backend"],
    }
    if collect_records:
        out["records"] = result["records"]
    if telemetry:
        out["telemetry"] = result["telemetry"]
    return out


def _cell(task: tuple) -> dict:
    """One sweep cell against the live network model (pool-shippable)."""
    nodes, flows, seed, telemetry = task
    return drive_network(nodes, flows, seed=seed, telemetry=telemetry)


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
        # Shard workers provide the parallelism inside each cell, so the
        # cells themselves run serially regardless of --jobs.  With
        # telemetry on, each shard collects its own registry and the
        # snapshots merge at drain (value-identical to shards=1).
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
            row += [stats["shards"], stats["rounds"]]
        rows.append(row)
    headers = [
        "nodes",
        "flows",
        "wall (ms)",
        "events/sec",
        "sim makespan (s)",
    ]
    if shards > 1:
        headers += ["shards", "rounds"]
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
                "sharded cells use the analytic progress mode with "
                "conservative windows; records are bit-identical to a "
                "single analytic run (strict partition alignment)"
            ]
            if shards > 1
            else []
        ),
        data={"cells": list(results)},
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
