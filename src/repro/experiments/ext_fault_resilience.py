"""Extension — workflow success under function crashes.

Not a paper artifact: an extension study enabled by the library's fault
injector.  Function executions crash with probability ``p``; the engine
retries each task up to its budget.  The study reports the invocation
success rate and the latency cost of retries for both schedule
patterns, and how the retry budget moves the success curve.

The structural expectation: success rate falls roughly like
``(1 - p^(r+1))^n`` for n tasks and r retries, so even modest budgets
rescue large workflows from per-task crash rates that would otherwise
doom nearly every invocation.
"""

from __future__ import annotations

from ..clients import run_closed_loop
from ..core import (
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultInjector,
    FaultPlan,
    HyperFlowServerlessSystem,
    hash_partition,
)
from ..core.state import reset_invocation_ids
from ..workloads import build
from .common import ExperimentResult, make_cluster

__all__ = ["run", "run_node_crashes", "run_backoff"]


def _build_system(engine: str, config: EngineConfig, cluster, faults=None):
    dag = build("epigenomics")
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config, faults=faults)
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        system = FaaSFlowSystem(cluster, config, faults=faults)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
    return system, dag


def _measure(engine: str, rate: float, retries: int, invocations: int):
    cluster = make_cluster()
    faults = FaultInjector(default_rate=rate, seed=42)
    config = EngineConfig(ship_data=False, max_retries=retries)
    dag = build("epigenomics")
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config, faults=faults)
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        system = FaaSFlowSystem(cluster, config, faults=faults)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()))
    records = run_closed_loop(system, dag.name, invocations)
    ok = [r for r in records if r.status == "ok"]
    return {
        "success_rate": len(ok) / len(records),
        "mean_ok_latency": (
            sum(r.latency for r in ok) / len(ok) if ok else float("nan")
        ),
        "injected": faults.injected,
    }


def run(
    invocations: int = 10,
    rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    retry_budgets: tuple[int, ...] = (0, 2),
) -> ExperimentResult:
    rows = []
    for engine in ("worker", "master"):
        for rate in rates:
            for retries in retry_budgets:
                stats = _measure(engine, rate, retries, invocations)
                rows.append(
                    [
                        "FaaSFlow" if engine == "worker" else "HyperFlow",
                        f"{100 * rate:.0f}%",
                        retries,
                        f"{100 * stats['success_rate']:.0f}%",
                        round(stats["mean_ok_latency"], 2),
                        stats["injected"],
                    ]
                )
    notes = [
        "retries rescue success rates at the cost of latency on the "
        "crashed paths; both schedule patterns degrade alike (failure "
        "handling is orthogonal to trigger placement)",
    ]
    return ExperimentResult(
        experiment="ext-faults",
        title="Extension: invocation success under function crash rates",
        headers=[
            "engine",
            "crash rate",
            "retry budget",
            "success rate",
            "mean ok latency (s)",
            "crashes injected",
        ],
        rows=rows,
        notes=notes,
    )


def _crash_measure(
    engine: str,
    invocations: int,
    crashes: int,
    recovery: float,
    degradations: int,
    seed: int,
):
    """One fault-plan scenario against a no-fault baseline of equal size."""
    # The baseline run doubles as the horizon estimate for the plan, so
    # injected faults land while the workload is actually running.
    # Crash scenarios keep data out of the (volatile) local stores —
    # the crash model kills the compute plane only; degradation-only
    # scenarios ship data so the throttled links actually carry load.
    config = EngineConfig(
        ship_data=(crashes == 0), max_retries=3, execution_timeout=120.0
    )
    base_system, base_dag = _build_system(engine, config, make_cluster())
    baseline = run_closed_loop(base_system, base_dag.name, invocations)
    horizon = max(r.finished_at for r in baseline)
    base_ok = [r for r in baseline if r.status == "ok"]
    cluster = make_cluster()
    system, dag = _build_system(engine, config, cluster)
    plan = FaultPlan.random(
        cluster.worker_names(),
        horizon,
        crashes=crashes,
        recovery=recovery,
        degradations=degradations,
        seed=seed,
    )
    driver = FaultDriver(cluster, plan).attach(system)
    driver.start()
    records = run_closed_loop(system, dag.name, invocations)
    ok = [r for r in records if r.status == "ok"]
    return {
        "success_rate": len(ok) / len(records),
        "mean_ok_latency": (
            sum(r.latency for r in ok) / len(ok) if ok else float("nan")
        ),
        "baseline_latency": sum(r.latency for r in base_ok) / len(base_ok),
        "crashes_fired": driver.node_crashes_fired,
        "degradations_fired": driver.degradations_fired,
        "retries": sum(r.retries for r in records),
        "retriggered": getattr(system, "retriggered", 0),
    }


def run_node_crashes(
    invocations: int = 8,
    crashes: tuple[int, ...] = (1, 2),
    recovery: float = 3.0,
    degradations: int = 1,
    seed: int = 7,
) -> ExperimentResult:
    """Node crashes and network degradation against both engines.

    Exercises the recovery asymmetry: WorkerSP re-triggers the crashed
    node's pending sub-graph tasks at engine level (visible in the
    ``retriggered`` column), while MasterSP retries inside the runtime's
    ladder (visible in ``retries``).  Deterministic under ``seed``.
    """
    rows = []
    for engine in ("worker", "master"):
        scenarios = [(c, 0) for c in crashes] + [(0, degradations)]
        for crash_count, degrade_count in scenarios:
            stats = _crash_measure(
                engine, invocations, crash_count, recovery, degrade_count, seed
            )
            label = (
                f"{crash_count} crash(es)"
                if crash_count
                else f"{degrade_count} degradation(s)"
            )
            rows.append(
                [
                    "FaaSFlow" if engine == "worker" else "HyperFlow",
                    label,
                    f"{100 * stats['success_rate']:.0f}%",
                    round(stats["mean_ok_latency"], 2),
                    round(stats["baseline_latency"], 2),
                    stats["crashes_fired"] + stats["degradations_fired"],
                    stats["retries"],
                    stats["retriggered"],
                ]
            )
    notes = [
        "WorkerSP recovers crashed nodes by re-triggering their pending "
        "sub-graph tasks at engine level (retriggered column); MasterSP "
        "survives at the master and retries inside the runtime "
        "(retries column)",
        "network degradation slows transfers without killing tasks, so "
        "success stays at 100% and only latency moves",
    ]
    return ExperimentResult(
        experiment="ext-faults-nodes",
        title="Extension: worker crashes and degraded links",
        headers=[
            "engine",
            "scenario",
            "success rate",
            "mean ok latency (s)",
            "baseline (s)",
            "faults fired",
            "retries",
            "retriggered",
        ],
        rows=rows,
        notes=notes,
    )


def run_backoff(
    invocations: int = 8,
    rate: float = 0.08,
    bases: tuple[float, ...] = (0.0, 0.05, 0.2),
    jitter: float = 0.1,
) -> ExperimentResult:
    """Retry-backoff sweep at a fixed crash rate for both engines.

    Backoff trades latency on crashed paths for pressure relief; in the
    simulator (retries always succeed in grabbing a container) the
    visible effect is the added mean latency per backoff step.  Retry
    jitter is keyed on the invocation id, so every cell restarts the
    ids: a cell's rows do not depend on what ran before it.
    """
    rows = []
    for engine in ("worker", "master"):
        for base in bases:
            reset_invocation_ids(1)
            cluster = make_cluster()
            faults = FaultInjector(default_rate=rate, seed=42)
            config = EngineConfig(
                ship_data=False,
                max_retries=3,
                retry_backoff_base=base,
                # Jitter multiplies the base, so base 0 (the immediate-
                # retry sweep point) must not configure jitter — the
                # combination is a validation warning.
                retry_jitter=jitter if base > 0 else 0.0,
            )
            system, dag = _build_system(engine, config, cluster, faults=faults)
            records = run_closed_loop(system, dag.name, invocations)
            ok = [r for r in records if r.status == "ok"]
            rows.append(
                [
                    "FaaSFlow" if engine == "worker" else "HyperFlow",
                    base,
                    f"{100 * len(ok) / len(records):.0f}%",
                    round(
                        sum(r.latency for r in ok) / len(ok), 2
                    ) if ok else float("nan"),
                    round(sum(r.retries for r in records) / len(records), 2),
                    faults.injected,
                ]
            )
    notes = [
        "exponential backoff (base * factor^(attempt-1), jittered) "
        "delays each retry; at simulator crash rates the success rate "
        "is set by the budget, so larger bases only add latency",
    ]
    return ExperimentResult(
        experiment="ext-faults-backoff",
        title="Extension: retry backoff sweep under function crashes",
        headers=[
            "engine",
            "backoff base (s)",
            "success rate",
            "mean ok latency (s)",
            "mean retries",
            "crashes injected",
        ],
        rows=rows,
        notes=notes,
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
    run_node_crashes().print()
    run_backoff().print()
