"""Command-line entry point: ``faasflow-experiment <id> [--quick]``.

Runs one (or all) of the paper-reproduction experiments and prints the
regenerated table/series.  ``--quick`` shrinks invocation counts for a
fast smoke pass; the defaults match the settings EXPERIMENTS.md
records.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable

from ..parallel import add_jobs_argument

from . import (
    fig04_master_overhead,
    fig05_data_movement,
    fig11_sched_overhead,
    fig12_bandwidth_sweep,
    fig13_tail_latency,
    fig14_colocation,
    fig15_grouping,
    fig16_scheduler_scalability,
    fig_scale,
    sec57_component_overhead,
    sec6_memory_vs_network,
    ablations,
    ext_dataflow_overlap,
    ext_fault_resilience,
    ext_scale_serve,
)

__all__ = ["main", "EXPERIMENTS"]

# id -> (module runner, quick-mode kwargs)
EXPERIMENTS: dict[str, tuple[Callable, dict]] = {
    "fig04": (fig04_master_overhead.run, {"invocations": 5}),
    "fig05": (fig05_data_movement.run, {}),
    "fig11": (fig11_sched_overhead.run, {"invocations": 5}),
    "tab04": (None, {"invocations": 2}),  # resolved lazily below
    "fig12": (
        fig12_bandwidth_sweep.run,
        {"invocations": 8, "rates": (2.0, 6.0), "bandwidths": None},
    ),
    "fig13": (fig13_tail_latency.run, {"invocations": 10}),
    "fig14": (fig14_colocation.run, {"invocations": 3}),
    "fig15": (fig15_grouping.run, {}),
    "fig16": (fig16_scheduler_scalability.run, {"sizes": (10, 25, 50)}),
    "fig_scale": (fig_scale.run, {"nodes": (8, 16), "flows": (10, 50)}),
    "sec57": (
        sec57_component_overhead.run,
        {"worker_counts": (1, 5, 10), "invocations": 3},
    ),
    "sec6": (sec6_memory_vs_network.run, {"invocations": 8}),
    "ablations": (ablations.run, {"invocations": 2}),
    "dataflow": (
        ext_dataflow_overlap.run,
        {"invocations": 4, "benchmarks": ("genome",)},
    ),
    "faults": (ext_fault_resilience.run, {"invocations": 4}),
    "faults-nodes": (
        ext_fault_resilience.run_node_crashes,
        {"invocations": 3, "crashes": (1,), "degradations": 1},
    ),
    "faults-backoff": (
        ext_fault_resilience.run_backoff,
        {"invocations": 3, "bases": (0.0, 0.1)},
    ),
    "scale-serve": (
        ext_scale_serve.run,
        {"invocations": 20_000, "tenants": 4},
    ),
}


def _resolve(name: str) -> Callable:
    if name == "tab04":
        from . import tab04_transfer_latency

        return tab04_transfer_latency.run
    runner, _ = EXPERIMENTS[name]
    return runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="faasflow-experiment",
        description="Regenerate a table/figure of the FaaSFlow paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small invocation counts for a fast smoke pass",
    )
    add_jobs_argument(parser)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run shard-aware experiments (fig_scale) as up to N traffic "
        "cells in separate processes; others ignore this flag",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each result's table to DIR/<id>.csv",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render an ASCII bar chart of each result's first metric",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="write all results as a markdown report to FILE",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="record spans + resource samples for every cluster the "
        "experiments build and write trace bundles to DIR "
        "(serial runs only: --jobs children are not traced)",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=0.25,
        metavar="SEC",
        help="resource-sampler cadence in simulated seconds (default 0.25)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        default=None,
        help="collect a streaming metrics snapshot for every cluster the "
        "experiments build (and for fig_scale's network cells, sharded "
        "or not) and write *-telemetry.json files to DIR",
    )
    args = parser.parse_args(argv)
    collector = None
    if args.trace_out or args.telemetry_out:
        from ..obs.context import TraceCollector, activate

        collector = TraceCollector(
            args.trace_out or args.telemetry_out,
            sample_interval=args.sample_interval,
            spans=bool(args.trace_out),
            telemetry=bool(args.telemetry_out),
            telemetry_directory=args.telemetry_out,
        )
        activate(collector)
    markdown_sections = []
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = _resolve(name)
        if collector is not None:
            collector.set_label(name)
        _, quick_kwargs = EXPERIMENTS[name]
        kwargs = dict(quick_kwargs) if args.quick else {}
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if name == "fig12" and args.quick:
            kwargs.setdefault("bandwidths", (25 * 1024 * 1024, 100 * 1024 * 1024))
        parameters = inspect.signature(runner).parameters
        if args.jobs != 1 and "jobs" in parameters:
            # Sweep-style experiments fan their independent cells out
            # across a process pool; the rest ignore --jobs.
            kwargs["jobs"] = args.jobs
        if args.shards != 1 and "shards" in parameters:
            kwargs["shards"] = args.shards
        if args.telemetry_out and "telemetry_out" in parameters:
            # Experiments that build their own sharded/network cells
            # (fig_scale) write their snapshots directly; the ambient
            # collector covers everything built through make_cluster.
            kwargs["telemetry_out"] = args.telemetry_out
        result = runner(**kwargs)
        print(result.format())
        if args.chart:
            from .charts import chart_for_result

            chart = chart_for_result(result)
            if chart:
                print()
                print(chart)
        if args.csv:
            from pathlib import Path

            from ..metrics.export import write_result_csv

            directory = Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            write_result_csv(result, directory / f"{name}.csv")
        if args.markdown:
            markdown_sections.append(result.to_markdown())
        print()
    if args.markdown and markdown_sections:
        from pathlib import Path

        Path(args.markdown).write_text("\n\n".join(markdown_sections) + "\n")
        print(f"markdown report written to {args.markdown}")
    if collector is not None:
        from ..obs.context import deactivate

        paths = collector.flush()
        deactivate()
        where = args.trace_out or args.telemetry_out
        print(
            f"trace bundles: {len(paths)} files in {where} "
            f"(inspect with faasflow-trace)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
