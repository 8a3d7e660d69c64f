"""§5.7 — per-worker engine overhead and cluster scaling.

Two measurements:

1. **Engine overhead under load** — the per-worker workflow engine's
   CPU occupancy (busy seconds of its serialized event loop divided by
   elapsed time) and the size of its live *Workflow* bookkeeping
   structures.  The paper reports ≈ 0.12 core and ≈ 47 MB per worker
   (process RSS; our structure-size figure excludes the interpreter
   baseline, so it is smaller in absolute terms).

2. **Cluster scaling** — the same measurement on clusters of 1 to 100
   workers with a proportional workflow load: per-worker usage must
   stay flat (total scales linearly), i.e. WorkerSP adds no
   super-linear overhead as the cluster grows.
"""

from __future__ import annotations

import sys

from ..clients import ClosedLoopClient
from ..workloads import build
from .common import ExperimentResult, deploy_with_feedback, make_cluster, make_faasflow

__all__ = ["run"]

DEFAULT_WORKER_COUNTS = (1, 5, 10, 25, 50, 100)


def _deep_size(obj, seen=None) -> int:
    """Approximate recursive in-memory size of the engine structures."""
    seen = seen if seen is not None else set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            _deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            _deep_size(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size


def _run_load(workers: int, workflows_per_worker: float, invocations: int):
    """A cluster under proportional closed-loop load; returns stats."""
    cluster = make_cluster(workers=workers)
    system, scheduler = make_faasflow(cluster, ship_data=True)
    count = max(1, int(workers * workflows_per_worker))
    names = []
    for index in range(count):
        dag = build("file-processing")
        dag.name = f"file-processing-{index}"
        deploy_with_feedback(system, scheduler, dag, warmup_invocations=0)
        names.append(dag.name)
    env = cluster.env
    start = env.now
    processes = [
        env.process(ClosedLoopClient(system, name, invocations).run())
        for name in names
    ]
    env.run(until=env.all_of(processes))
    elapsed = env.now - start
    engines = list(system.engines.values())
    busy = sum(e.busy_time for e in engines)
    events = sum(e.events_handled for e in engines)
    structures = sum(
        _deep_size(e.structures()) for e in engines
    )
    return {
        "workers": workers,
        "elapsed": elapsed,
        "cpu_per_worker": busy / elapsed / workers if elapsed else 0.0,
        "events": events,
        "structure_kb_per_worker": structures / 1024 / workers,
    }


def run(
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    invocations: int = 10,
    workflows_per_worker: float = 1.0,
) -> ExperimentResult:
    rows = []
    per_worker_cpu = []
    for workers in worker_counts:
        stats = _run_load(workers, workflows_per_worker, invocations)
        per_worker_cpu.append(stats["cpu_per_worker"])
        rows.append(
            [
                workers,
                round(stats["cpu_per_worker"], 4),
                round(stats["structure_kb_per_worker"], 1),
                stats["events"],
                round(stats["elapsed"], 1),
            ]
        )
    spread = (
        max(per_worker_cpu) / min(per_worker_cpu)
        if min(per_worker_cpu) > 0
        else float("inf")
    )
    notes = [
        f"per-worker engine CPU varies only {spread:.1f}x across 1-"
        f"{max(worker_counts)} workers (flat = linear total scaling)",
        "paper: ~0.12 core and ~47 MB per worker engine (process RSS "
        "including interpreter; the structure sizes above exclude it)",
    ]
    return ExperimentResult(
        experiment="sec57",
        title="Per-worker engine overhead while the cluster scales",
        headers=[
            "workers",
            "engine CPU (cores/worker)",
            "structures (KB/worker)",
            "engine events",
            "elapsed (s)",
        ],
        rows=rows,
        notes=notes,
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
