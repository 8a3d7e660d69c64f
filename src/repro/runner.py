"""``faasflow-run``: execute a workflow definition end-to-end.

The front door for trying the system on your own workflow::

    faasflow-run my-workflow.yaml --invocations 20
    faasflow-run my-workflow.yaml --engine master --open-loop 6
    faasflow-run Cyc --trace --prewarm

The positional argument is a WDL YAML file or the name/abbreviation of
a built-in benchmark.  By default the workflow runs on FaaSFlow
(WorkerSP + FaaStore) through the full scheduler feedback loop; pass
``--engine master`` for the HyperFlow-serverless baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clients import run_closed_loop, run_open_loop
from .metrics import percentile
from .core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultInjector,
    GraphScheduler,
    HyperFlowServerlessSystem,
    hash_partition,
)
from .parallel import add_jobs_argument, derive_seed
from .sim import Cluster, ClusterConfig, Environment, MB
from .wdl import WDLError, load_workflow
from .workloads import ALL_BENCHMARKS, build

__all__ = ["main", "run_workflow", "run_trials", "RunSummary"]


class RunSummary(dict):
    """Result of one ``run_workflow`` call (a dict with attribute sugar)."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _load_dag(source):
    """Resolve a workflow source to a DAG.

    ``source`` is a WDL path (tried first), a benchmark name or
    abbreviation, or a ``(builder, kwargs)`` tuple naming a
    ``repro.workloads.synthetic`` builder.  An unknown source raises
    ``ValueError``, which crosses a process pool as a task error.
    """
    if isinstance(source, (tuple, list)):
        from .workloads import synthetic

        builder = getattr(synthetic, source[0], None)
        if builder is None:
            raise ValueError(f"unknown synthetic builder {source[0]!r}")
        return builder(**(dict(source[1]) if len(source) > 1 else {}))
    path = Path(source)
    if path.exists():
        return load_workflow(path)
    try:
        return build(source)
    except KeyError:
        raise ValueError(
            f"{source!r} is neither a readable WDL file nor a "
            f"benchmark name (choose from {ALL_BENCHMARKS})"
        ) from None


def run_workflow(
    dag,
    engine: str = "worker",
    invocations: int = 10,
    workers: int = 7,
    bandwidth_mb: float = 50.0,
    open_loop_rate: float | None = None,
    prewarm: bool = False,
    ship_data: bool = True,
    trace: bool = False,
    feedback: bool = True,
    fault_rate: float = 0.0,
    max_retries: int = 2,
    eager_ship: bool = True,
    batch_control: bool = False,
    seed: int = 13,
    trace_out: str | Path | None = None,
    sample_interval: float = 0.25,
    telemetry_out: str | Path | None = None,
    collect_telemetry: bool = False,
    tenant: str = "default",
) -> RunSummary:
    """Run ``dag`` and return a summary of what happened.

    ``trace`` turns on span tracing; the tracer is returned as
    ``summary.spans``.  ``trace_out`` turns on the same tracer plus
    resource sampling and writes the trace bundle (JSONL spans,
    Perfetto JSON, samples CSV, metrics CSVs) into that directory.

    ``telemetry_out`` turns on the streaming metrics registry and
    writes its snapshot as ``<workflow>-telemetry.json`` into that
    directory (or to the path itself if it ends in ``.json``);
    ``collect_telemetry`` collects the same snapshot without writing,
    returning it as ``summary.telemetry`` — the form sharded trial
    cells use, merged deterministically in cell order afterwards.
    """
    if engine not in ("worker", "master", "dataflow"):
        raise ValueError("engine must be 'worker', 'master', or 'dataflow'")
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=workers, storage_bandwidth=bandwidth_mb * MB),
    )
    span_tracer = None
    sampler = None
    if trace or trace_out is not None:
        from .obs import ResourceSampler, SpanTracer

        # Must precede system construction: engines snapshot
        # cluster.spans when they are built.
        span_tracer = SpanTracer(env)
        cluster.install_spans(span_tracer)
        if trace_out is not None:
            sampler = ResourceSampler(cluster, interval=sample_interval)
            sampler.start()
    registry = None
    if collect_telemetry or telemetry_out is not None:
        from .obs.telemetry import MetricsRegistry

        # Same rule as spans: engines snapshot cluster.telemetry when
        # they are built, so install before system construction.
        registry = MetricsRegistry(clock=lambda: env.now)
        cluster.install_telemetry(registry)
    faults = (
        FaultInjector(default_rate=fault_rate, seed=seed)
        if fault_rate > 0
        else None
    )
    config = EngineConfig(
        ship_data=ship_data, max_retries=max_retries, tenant=tenant,
        eager_ship=eager_ship, batch_control=batch_control,
    )
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config, faults=faults)
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        # WorkerSP and DataflowSP share the placement-driven deployment
        # path (scheduler, quotas, feedback); only the triggering
        # paradigm behind the deployed sub-graphs differs.
        system_class = DataflowSystem if engine == "dataflow" else FaaSFlowSystem
        system = system_class(cluster, config, faults=faults)
        scheduler = GraphScheduler(cluster)
        placement, quotas, _ = scheduler.schedule(dag)
        system.deploy(dag, placement, quotas=quotas, prewarm=1 if prewarm else 0)
        if feedback:
            run_closed_loop(system, dag.name, 2)
            scheduler.absorb_feedback(dag, system.metrics)
            placement, quotas, _ = scheduler.schedule(dag)
            system.deploy(
                dag,
                placement,
                quotas=quotas,
                prewarm=1 if prewarm else 0,
                container_limits=scheduler.container_limits(dag),
            )
            system.metrics.clear()
            if registry is not None:
                # The feedback bootstrap is calibration, not load: drop
                # its telemetry along with its collector records.
                registry.clear()
    if prewarm:
        # Let the prewarmed containers finish booting before load starts.
        env.run(until=env.now + cluster.config.container.cold_start_time + 0.01)
    if open_loop_rate is not None:
        records = run_open_loop(
            system, dag.name, invocations, open_loop_rate, seed=seed
        )
    else:
        records = run_closed_loop(system, dag.name, invocations)
    metrics = system.metrics
    trace_paths = None
    if trace_out is not None:
        from .obs.export import export_trace

        trace_paths = export_trace(
            trace_out, span_tracer, sampler=sampler, metrics=metrics,
            prefix=dag.name, telemetry=registry,
        )
    telemetry_snapshot = registry.snapshot() if registry is not None else None
    telemetry_path = None
    if telemetry_out is not None:
        from .obs.telemetry import write_telemetry_json

        out = Path(telemetry_out)
        if out.suffix == ".json":
            out.parent.mkdir(parents=True, exist_ok=True)
            telemetry_path = out
        else:
            out.mkdir(parents=True, exist_ok=True)
            telemetry_path = out / f"{dag.name}-telemetry.json"
        write_telemetry_json(telemetry_path, telemetry_snapshot)
    latencies = sorted(r.latency for r in records)
    return RunSummary(
        workflow=dag.name,
        engine=engine,
        invocations=len(records),
        completed=len([r for r in records if r.status == "ok"]),
        timeouts=len([r for r in records if r.status == "timeout"]),
        failures=len([r for r in records if r.status == "failed"]),
        mean_latency=sum(latencies) / len(latencies),
        p50_latency=percentile(latencies, 50),
        p99_latency=metrics.tail_latency(dag.name, q=99),
        mean_scheduling_overhead=(
            metrics.mean_scheduling_overhead(dag.name)
            if metrics.completed(dag.name)
            else float("nan")
        ),
        data_moved_mb=metrics.data_moved(dag.name) / len(records) / MB,
        local_fraction=metrics.local_fraction(dag.name),
        cold_starts=sum(r.cold_starts for r in records),
        records=records,
        metrics=metrics,
        spans=span_tracer,
        trace_paths=trace_paths,
        telemetry=telemetry_snapshot,
        telemetry_path=telemetry_path,
        system=system,
    )


# Fields of a RunSummary that survive the trip back from a worker
# process (the live system/metrics/spans objects hold simulation
# generators and are neither picklable nor meaningful across trials).
_SCALAR_FIELDS = (
    "workflow",
    "engine",
    "invocations",
    "completed",
    "timeouts",
    "failures",
    "mean_latency",
    "p50_latency",
    "p99_latency",
    "mean_scheduling_overhead",
    "data_moved_mb",
    "local_fraction",
    "cold_starts",
)


def run_trials(
    source,
    trials: int = 3,
    jobs: int = 1,
    seed: int = 13,
    **run_kwargs,
) -> list[RunSummary]:
    """Run ``trials`` independent repetitions of a workflow run.

    Each trial is one workflow cell (``repro.sim.shard.run_workflow_cells``)
    with a seed derived from ``seed`` and the trial index and its own
    pinned invocation-id range, so the returned summaries — scalar
    fields, ``records`` tuples and any telemetry snapshot — are
    bit-identical whether the trials run serially or fan out over
    ``jobs`` worker processes (``0`` = all cores).  ``source`` is
    anything :func:`_load_dag` resolves, re-loaded per worker: live
    DAG/system objects never cross the process boundary.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from .sim.shard import run_workflow_cells

    # Build cell specs directly (not via make_workflow_cell) so that
    # omitted kwargs keep run_workflow's own defaults.
    cells = [
        dict(workload=source, seed=derive_seed(seed, "trial", index), **run_kwargs)
        for index in range(trials)
    ]
    return [RunSummary(result) for result in run_workflow_cells(cells, jobs)]


def _format_trials(summaries: list[RunSummary]) -> str:
    def stats(values):
        mean = sum(values) / len(values)
        return mean, min(values), max(values)

    lines = [
        f"{'trial':>5}  {'mean (ms)':>10}  {'p99 (ms)':>10}  "
        f"{'ok':>4}  {'timeout':>7}  {'failed':>6}  {'cold':>4}"
    ]
    for index, s in enumerate(summaries):
        lines.append(
            f"{index:>5}  {s.mean_latency * 1000:>10,.1f}  "
            f"{s.p99_latency * 1000:>10,.1f}  {s.completed:>4}  "
            f"{s.timeouts:>7}  {s.failures:>6}  {s.cold_starts:>4}"
        )
    mean_mean, mean_lo, mean_hi = stats([s.mean_latency for s in summaries])
    p99_mean, p99_lo, p99_hi = stats([s.p99_latency for s in summaries])
    lines.append(
        f"across {len(summaries)} trials: "
        f"mean latency {mean_mean * 1000:,.1f} ms "
        f"[{mean_lo * 1000:,.1f}-{mean_hi * 1000:,.1f}], "
        f"p99 {p99_mean * 1000:,.1f} ms "
        f"[{p99_lo * 1000:,.1f}-{p99_hi * 1000:,.1f}]"
    )
    return "\n".join(lines)


_ENGINE_NAMES = {
    "worker": "FaaSFlow (WorkerSP+FaaStore)",
    "master": "HyperFlow-serverless (MasterSP)",
    "dataflow": "DataflowSP (function-level triggering + eager shipping)",
}


def _format_summary(summary: RunSummary) -> str:
    lines = [
        f"workflow            {summary.workflow}",
        f"engine              {_ENGINE_NAMES.get(summary.engine, summary.engine)}",
        f"invocations         {summary.invocations} "
        f"({summary.completed} ok, {summary.timeouts} timed out, "
        f"{summary.failures} failed)",
        f"mean latency        {summary.mean_latency * 1000:,.1f} ms",
        f"p99 latency         {summary.p99_latency * 1000:,.1f} ms",
        f"sched overhead      {summary.mean_scheduling_overhead * 1000:,.1f} ms",
        f"data moved          {summary.data_moved_mb:,.2f} MB/invocation "
        f"({summary.local_fraction * 100:.0f}% node-local)",
        f"cold starts         {summary.cold_starts}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="faasflow-run",
        description="Run a WDL workflow (or built-in benchmark) end-to-end.",
    )
    parser.add_argument("workflow", help="WDL YAML file or benchmark name")
    parser.add_argument(
        "--engine", choices=["worker", "master", "dataflow"], default="worker",
        help="worker = FaaSFlow (default); master = HyperFlow-serverless; "
        "dataflow = DataflowSP (function-level dataflow triggering with "
        "eager data shipping)",
    )
    parser.add_argument("--invocations", type=int, default=10)
    parser.add_argument("--workers", type=int, default=7)
    parser.add_argument(
        "--bandwidth", type=float, default=50.0,
        help="storage-node bandwidth in MB/s (default 50)",
    )
    parser.add_argument(
        "--open-loop", type=float, metavar="RATE", default=None,
        help="open-loop arrivals at RATE invocations/minute",
    )
    parser.add_argument(
        "--no-data", action="store_true",
        help="pre-packed inputs: skip the data plane",
    )
    parser.add_argument(
        "--no-feedback", action="store_true",
        help="stay on the hash bootstrap placement",
    )
    parser.add_argument("--prewarm", action="store_true")
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="crash each function execution with probability P",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per function task (default 2)",
    )
    parser.add_argument(
        "--no-eager-ship", action="store_true",
        help="with --engine dataflow: trigger-only dataflow (disable "
        "eager output shipping; the ablation baseline)",
    )
    parser.add_argument(
        "--batch-control", action="store_true",
        help="coalesce same-destination control messages emitted in one "
        "engine step into a single transfer and handler wakeup (changes "
        "per-hop timing, never outcomes; default off)",
    )
    parser.add_argument(
        "--trials", type=int, default=1, metavar="K",
        help="repeat the whole run K times with per-trial derived seeds "
        "and report the spread (default 1)",
    )
    add_jobs_argument(parser)
    parser.add_argument(
        "--seed", type=int, default=13,
        help="base seed for arrivals/faults (trials derive from it)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record causal spans and print the first measured "
        "invocation's span tree (shares the tracer with --trace-out)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="export metrics CSVs to DIR"
    )
    parser.add_argument(
        "--trace-out", metavar="DIR", default=None,
        help="record causal spans + resource samples and write the "
        "trace bundle (Perfetto JSON, JSONL spans, samples CSV) to DIR",
    )
    parser.add_argument(
        "--sample-interval", type=float, default=0.25, metavar="SEC",
        help="resource-sampler cadence in simulated seconds (default 0.25)",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="collect streaming metrics (counters/gauges/histograms on "
        "simulated time) and write the snapshot to PATH (a directory, "
        "or a .json file); with --trials the per-trial snapshots are "
        "merged deterministically in trial order",
    )
    parser.add_argument(
        "--tenant", default="default",
        help="tenant label on telemetry and SLO reports (default 'default')",
    )
    args = parser.parse_args(argv)
    try:
        dag = _load_dag(args.workflow)
    except WDLError as error:
        print(f"error: invalid workflow definition: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    run_kwargs = dict(
        engine=args.engine,
        invocations=args.invocations,
        workers=args.workers,
        bandwidth_mb=args.bandwidth,
        open_loop_rate=args.open_loop,
        prewarm=args.prewarm,
        ship_data=not args.no_data,
        feedback=not args.no_feedback,
        fault_rate=args.fault_rate,
        max_retries=args.max_retries,
        eager_ship=not args.no_eager_ship,
        batch_control=args.batch_control,
        tenant=args.tenant,
    )
    if args.trials > 1:
        if args.trace or args.trace_out:
            print(
                "note: --trace and --trace-out are ignored with --trials > 1 "
                "(trials run in worker processes)",
                file=sys.stderr,
            )
        if args.telemetry_out:
            run_kwargs["collect_telemetry"] = True
        summaries = run_trials(
            args.workflow,
            trials=args.trials,
            jobs=args.jobs,
            seed=args.seed,
            **run_kwargs,
        )
        print(_format_trials(summaries))
        if args.telemetry_out:
            from .obs.telemetry import merge_snapshots, write_telemetry_json

            merged = merge_snapshots(
                s["telemetry"] for s in summaries
                if s.get("telemetry") is not None
            )
            out = Path(args.telemetry_out)
            if out.suffix == ".json":
                out.parent.mkdir(parents=True, exist_ok=True)
            else:
                out.mkdir(parents=True, exist_ok=True)
                out = out / f"{args.workflow}-telemetry.json"
            write_telemetry_json(out, merged)
            print(f"telemetry snapshot: {out}")
        return 0
    summary = run_workflow(
        dag,
        trace=args.trace,
        seed=args.seed,
        trace_out=args.trace_out,
        sample_interval=args.sample_interval,
        telemetry_out=args.telemetry_out,
        **run_kwargs,
    )
    print(_format_summary(summary))
    if args.trace and summary.records:
        print("\nfirst invocation span tree:")
        print(summary.spans.format_tree(summary.records[0].invocation_id))
    if args.csv:
        from .metrics.export import export_metrics

        paths = export_metrics(summary.metrics, args.csv, prefix=dag.name)
        print(f"\nmetrics exported: {paths['invocations']}, {paths['transfers']}")
    if summary.trace_paths:
        print(
            f"\ntrace bundle: {summary.trace_paths['perfetto']} "
            f"(open in https://ui.perfetto.dev; inspect with faasflow-trace)"
        )
    if summary.telemetry_path:
        print(
            f"telemetry snapshot: {summary.telemetry_path} "
            f"(inspect with faasflow-trace report / slo)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
