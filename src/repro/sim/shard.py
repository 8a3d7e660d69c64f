"""Sharded simulation: causally independent cells across worker processes.

The cluster model has the shape Netherite and DataFlower exploit in real
engines: almost everything (container lifecycles, FaaStore traffic,
engine scheduling) is node-local, and only inter-node network traffic
couples nodes.  FaaSFlow deploys each workflow onto its own worker group
(paper §4.1), so a cluster splits into groups that share no traffic.
This module shards a simulation along exactly those splits: every shard
runs whole *cells* — pieces that share no simulated state — each in its
own :class:`~repro.sim.kernel.Environment`, fanned out through
:class:`~repro.parallel.ParallelRunner`, and the results merge in a
fixed order.  No message ever crosses a cell, so there is no
synchronization protocol and nothing is approximated: every sharded
result is bit-identical to one environment running everything.

Two kinds of cell:

- **Traffic cells** (:func:`run_network_sharded`): a union-find over the
  transfer plan's ``(src, dst)`` pairs splits the nodes into groups that
  share no traffic, and :func:`traffic_cells` packs the groups into at
  most S cells.  The fluid network settles a flow class only at its own
  component's events (see ``network.py``), so a group's completion
  times do not depend on which other groups share its environment.  A
  plan whose traffic connects every node is one cell and runs
  single-process.
- **Workflow cells** (:func:`run_workflow_cells`): full engine runs
  cannot be split at node boundaries — the remote store's slot queue
  and the storage NIC couple every node — so whole independent
  scenarios are the cells, each with its invocation-id range pinned by
  :func:`~repro.core.state.reset_invocation_ids` so records are
  bit-identical no matter how many worker processes ran them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .kernel import Environment, SimulationError
from .network import MB, Network, NetworkConfig

__all__ = [
    "traffic_cells",
    "run_network_single",
    "run_network_sharded",
    "run_workflow_cells",
    "make_workflow_cell",
]

# Every workflow cell owns a disjoint invocation-id range this wide.
_CELL_ID_STRIDE = 10_000_000

# Summed across traffic cells when their results merge.
_NETWORK_TOTALS = ("total_bytes", "nonlocal_bytes", "message_count", "flow_count")


# ---------------------------------------------------------------------------
# Traffic cells
# ---------------------------------------------------------------------------

def traffic_cells(
    plan: Sequence[tuple], node_names: Sequence[str], shards: int
) -> list[list[str]]:
    """Split ``node_names`` into at most ``shards`` cells sharing no traffic.

    Nodes joined by any ``(at, src, dst, size)`` plan entry land in the
    same group.  Groups are dealt heaviest flow count first (ties in
    first-node order) to the cell with the fewest flows so far (ties to
    the lowest index).  Only groups that carry traffic open a cell;
    idle nodes ride along in the lightest one.  Each cell lists its
    nodes in ``node_names`` order.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    parent = {name: name for name in node_names}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    for _at, src, dst, _size in plan:
        a, b = find(src), find(dst)
        if a != b:
            parent[b] = a
    flows: dict[str, int] = {}  # group root -> flow count, first-node order
    for name in node_names:
        flows.setdefault(find(name), 0)
    for _at, src, _dst, _size in plan:
        flows[find(src)] += 1
    count = min(shards, max(1, sum(1 for n in flows.values() if n)))
    load = [0] * count
    cell_of: dict[str, int] = {}
    for root in sorted(flows, key=lambda root: -flows[root]):
        index = load.index(min(load))
        cell_of[root] = index
        load[index] += flows[root]
    cells: list[list[str]] = [[] for _ in range(count)]
    for name in node_names:
        cells[cell_of[find(name)]].append(name)
    return cells


def run_network_single(
    plan: Sequence[tuple],
    node_names: Sequence[str],
    bandwidth: float = 100 * MB,
    net_kwargs: Optional[dict] = None,
    telemetry: bool = False,
    scheduler: Optional[str] = None,
) -> dict:
    """Run a transfer plan in one environment (also one traffic cell).

    ``plan`` entries are ``(at, src, dst, size)`` with absolute start
    times and node *names*; each start is scheduled with
    :meth:`Environment.schedule_at`, so a group's events carry the same
    timestamps in any environment that runs it — under either kernel
    scheduler.
    """
    env = Environment(scheduler=scheduler)
    net = Network(env, NetworkConfig(**(net_kwargs or {})))
    registry = None
    if telemetry:
        from ..obs.telemetry import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: env.now)
        net.telemetry = registry
    for name in node_names:
        net.attach(name, bandwidth)
    nic = net.nic
    transfer = net.transfer
    for at, src, dst, size in plan:
        event = env.schedule_at(at)
        event.callbacks.append(
            lambda _e, s=nic(src), d=nic(dst), z=size: transfer(s, d, z)
        )
    env.run()
    return {
        "records": sorted(
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind, r.tag)
            for r in net.records
        ),
        "total_bytes": net.total_bytes,
        "nonlocal_bytes": net.nonlocal_bytes,
        "message_count": net.message_count,
        "flow_count": net.flow_count,
        "nic_bytes": {
            name: (n.bytes_sent, n.bytes_received) for name, n in net.nics.items()
        },
        "makespan": env.now,
        "cells": 1,
        "telemetry": registry.snapshot() if registry is not None else None,
    }


def run_network_sharded(
    plan: Sequence[tuple],
    node_names: Sequence[str],
    shards: int,
    bandwidth: float = 100 * MB,
    net_kwargs: Optional[dict] = None,
    telemetry: bool = False,
    scheduler: Optional[str] = None,
) -> dict:
    """Run a transfer plan as up to ``shards`` traffic cells.

    The plan is split by :func:`traffic_cells`; every cell runs
    :func:`run_network_single` on its own nodes and plan slice in a
    worker process.  Results merge in cell order: records sorted,
    ``nic_bytes`` unioned in ``node_names`` order, makespan as the
    maximum, byte and flow totals summed, and telemetry through
    :func:`~repro.obs.telemetry.merge_snapshots` — every network metric
    is labeled by its source node, so the cells' label-sets are
    disjoint and the merge equals the single-environment snapshot.
    One cell is the single-environment run itself.
    """
    cells = [list(node_names)] if shards == 1 else traffic_cells(
        plan, node_names, shards
    )
    if len(cells) == 1:
        return run_network_single(
            plan, node_names, bandwidth, net_kwargs, telemetry, scheduler
        )
    from ..parallel import ParallelRunner

    cell_of = {name: index for index, cell in enumerate(cells) for name in cell}
    slices: list[list[tuple]] = [[] for _ in cells]
    for entry in plan:
        slices[cell_of[entry[1]]].append(entry)
    results = ParallelRunner(len(cells)).starmap(
        run_network_single,
        [
            (part, cell, bandwidth, net_kwargs, telemetry, scheduler)
            for part, cell in zip(slices, cells)
        ],
    )
    nic_bytes = {}
    for result in results:
        nic_bytes.update(result["nic_bytes"])
    merged = {
        "records": sorted(r for result in results for r in result["records"]),
        **{key: sum(r[key] for r in results) for key in _NETWORK_TOTALS},
        "nic_bytes": {name: nic_bytes[name] for name in node_names},
        "makespan": max(result["makespan"] for result in results),
        "cells": len(cells),
        "telemetry": None,
    }
    if telemetry:
        from ..obs.telemetry import merge_snapshots

        merged["telemetry"] = merge_snapshots(r["telemetry"] for r in results)
    return merged


# ---------------------------------------------------------------------------
# Workflow cells
# ---------------------------------------------------------------------------

def make_workflow_cell(
    workload,
    engine: str = "worker",
    seed: int = 13,
    invocations: int = 3,
    workers: int = 3,
    bandwidth_mb: float = 50.0,
    **extra,
) -> dict:
    """Describe one independent engine scenario (picklable spec).

    ``workload`` is anything ``faasflow-run`` accepts — a WDL path or a
    benchmark name (``"video-ffmpeg"``) — or a tuple
    ``("layered_random", {"seed": 3, ...})`` naming a builder in
    ``repro.workloads.synthetic`` plus its kwargs.
    """
    return {
        "workload": workload,
        "engine": engine,
        "seed": seed,
        "invocations": invocations,
        "workers": workers,
        "bandwidth_mb": bandwidth_mb,
        **extra,
    }


def _run_workflow_cell(spec: dict) -> dict:
    """Run one cell (pool-shippable: module-level, lazy heavy imports)."""
    from ..core.state import reset_invocation_ids
    from ..runner import _SCALAR_FIELDS, _load_dag, run_workflow

    spec = dict(spec)
    cell_index = spec.pop("cell_index", 0)
    workload = spec.pop("workload")
    # Deterministic, disjoint id range per cell: records come out
    # identical no matter which worker ran the cell.
    reset_invocation_ids(cell_index * _CELL_ID_STRIDE + 1)
    summary = run_workflow(_load_dag(workload), **spec)
    out = {field: summary[field] for field in _SCALAR_FIELDS}
    out.update(
        cell_index=cell_index,
        records=[
            (
                r.workflow,
                r.invocation_id,
                r.mode,
                r.started_at,
                r.finished_at,
                r.status,
                r.critical_path_exec,
                r.cold_starts,
                r.retries,
            )
            for r in summary["records"]
        ],
    )
    if summary.get("telemetry") is not None:
        # One fresh registry per cell: cell runs are bit-identical for
        # any worker count, so merging these snapshots in cell order
        # replays the exact same float additions regardless of which
        # worker ran which cell.
        out["telemetry"] = summary["telemetry"]
    return out


def run_workflow_cells(cells: Sequence[dict], jobs: int = 1) -> list[dict]:
    """Run independent workflow cells across ``jobs`` worker processes.

    ``jobs`` follows ``--jobs`` (``0`` = all cores).  Results come back
    in cell order and are bit-identical for any ``jobs`` (each cell is
    causally closed; see the module docstring for why engine runs shard
    at cell rather than node granularity).
    """
    from ..parallel import ParallelRunner

    specs = [dict(cell, cell_index=index) for index, cell in enumerate(cells)]
    return ParallelRunner(jobs).map(_run_workflow_cell, specs)
