"""Kernel scheduler A/B bench: calendar-queue wheel vs binary heap.

Runs the same frozen-seed timer workloads against ``scheduler="heap"``
and ``scheduler="wheel"`` environments, interleaved, and reports the
events/sec ratio per workload:

- **keepalive_standing** — a large standing population of far-future
  container keep-alive timers while invocation-scale short timers churn
  underneath.  The heap's worst case: every push/pop of a short timer
  sifts through the standing population (O(log n) with cache-hostile
  access); the wheel parks the standing timers in its overflow tier and
  never touches them.
- **watchdog_churn** — per-invocation execution watchdogs, 90%
  cancelled on completion, over a standing keep-alive population.  The
  wheel drops tombstones bucket-locally at C speed; the heap either
  carries them to their nominal deadline or pays global compaction
  passes over the standing population.
- **small_run** — a few thousand timers, no standing population: the
  no-regression guard for workloads where the heap is already tiny.

**Bit-identity is asserted before any timing**: firing order on a
frozen-seed mixed timeout/schedule_at spec, engine records + telemetry
snapshots from a real workflow run, and a sharded network run under the
wheel against the single-process heap reference.  A single bit of drift
invalidates the bench.

Run directly (``python benchmarks/test_bench_sched.py``) to refresh the
committed ``BENCH_sched.json``; pass ``--quick`` for the small sweep the
CI smoke job uses (identity asserted, speedups recorded but not gated —
small populations are exactly where the wheel has nothing to win).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.sim import Environment

_HERE = Path(__file__).resolve().parent
_ROUNDS = 3
# Acceptance gate (full mode only): geomean events/sec ratio of the
# timer-churn workloads (small_run is a no-regression guard, not part
# of the geomean).
_TARGET_GEOMEAN = 1.5
_SMALL_FLOOR = 0.85

_FULL_SIZES = {
    "keepalive_standing": dict(n_standing=400_000, n_churn=300_000),
    "watchdog_churn": dict(n_standing=200_000, n_watchdog=250_000),
    "small_run": dict(n=5_000),
}
_QUICK_SIZES = {
    "keepalive_standing": dict(n_standing=20_000, n_churn=15_000),
    "watchdog_churn": dict(n_standing=10_000, n_watchdog=12_000),
    "small_run": dict(n=2_000),
}


# -- workloads -----------------------------------------------------------
# Each builds its standing state untimed, then returns (timed_seconds,
# events_dispatched) for the churn phase.

def keepalive_standing(env, n_standing, n_churn):
    rng = random.Random(23)
    to = env.timeout
    for _ in range(n_standing):
        to(3600.0 + rng.random())  # warm-container keep-alives
    start = time.perf_counter()
    for _ in range(n_churn):
        to(rng.random() * 60.0)  # invocation-scale events
    env.run(until=61.0)
    return time.perf_counter() - start, n_churn


def watchdog_churn(env, n_standing, n_watchdog):
    rng = random.Random(7)
    to = env.timeout
    for _ in range(n_standing):
        to(3600.0 + rng.random())
    start = time.perf_counter()
    batch = []
    for i in range(n_watchdog):
        watchdog = to(60.0 + rng.random())
        if i % 10:  # 90% of invocations finish before their watchdog
            batch.append(watchdog)
        to(rng.random() * 0.5)  # the invocation's own completion event
        if len(batch) >= 64:
            for cancelled in batch:
                cancelled.cancel()
            del batch[:]
    for cancelled in batch:
        cancelled.cancel()
    env.run(until=62.0)
    return time.perf_counter() - start, 2 * n_watchdog


def small_run(env, n):
    rng = random.Random(3)
    to = env.timeout
    start = time.perf_counter()
    for _ in range(n):
        to(rng.random() * 5.0)
    env.run()
    return time.perf_counter() - start, n


WORKLOADS = {
    "keepalive_standing": keepalive_standing,
    "watchdog_churn": watchdog_churn,
    "small_run": small_run,
}
_CHURN_WORKLOADS = ("keepalive_standing", "watchdog_churn")


# -- bit-identity preflight ----------------------------------------------

def _firing_order(scheduler, spec):
    env = Environment(scheduler=scheduler)
    fired = []
    for tag, (kind, when) in enumerate(spec):
        event = env.schedule_at(when) if kind == "at" else env.timeout(when)
        event.callbacks.append(lambda _e, t=tag: fired.append(t))
    env.run()
    return fired, env.now


def assert_bit_identity(quick: bool) -> dict:
    """Heap-vs-wheel identity on order, records, telemetry, shards."""
    checks = {}

    # 1. Firing order on a frozen-seed mixed spec with heavy ties,
    # including absolute-time (cross-shard style) injection.
    rng = random.Random(99)
    times = [round(rng.random() * 50.0, 2) for _ in range(2_000)]
    times += times[:1_000]  # guaranteed ties
    spec = [("at" if rng.random() < 0.3 else "rel", t) for t in times]
    heap_order, heap_now = _firing_order("heap", spec)
    wheel_order, wheel_now = _firing_order("wheel", spec)
    assert heap_order == wheel_order, "firing order diverged"
    assert heap_now == wheel_now, "final drain time diverged"
    checks["firing_order_events"] = len(spec)

    # 2. Engine records + telemetry snapshot from a real workflow run.
    from repro.runner import run_workflow
    from repro.workloads import build

    invocations = 2 if quick else 4
    runs = {
        scheduler: run_workflow(
            build("genome"),
            invocations=invocations,
            workers=3,
            kernel_scheduler=scheduler,
            collect_telemetry=True,
        )
        for scheduler in ("heap", "wheel")
    }
    key = lambda r: (
        r.started_at, r.finished_at, r.status, r.cold_starts, r.retries
    )
    assert [key(r) for r in runs["heap"].records] == [
        key(r) for r in runs["wheel"].records
    ], "engine records diverged"
    assert runs["heap"].telemetry == runs["wheel"].telemetry, (
        "telemetry snapshots diverged"
    )
    checks["engine_invocations"] = invocations

    # 3. Sharded network run under the wheel vs single-process heap.
    from repro.experiments.fig_scale import make_plan
    from repro.sim.shard import run_network_sharded, run_network_single

    nodes, flows = (16, 80) if quick else (32, 200)
    plan = make_plan(nodes, flows, seed=11)
    abs_plan = [(at, f"n{s}", f"n{d}", z) for at, s, d, z in plan]
    names = [f"n{i}" for i in range(nodes)]
    reference = run_network_single(abs_plan, names, scheduler="heap")
    sharded = run_network_sharded(abs_plan, names, 2, scheduler="wheel")
    assert sharded["records"] == reference["records"], (
        "sharded wheel records diverged from single-process heap run"
    )
    assert sharded["makespan"] == reference["makespan"]
    checks["sharded_flows"] = flows
    return checks


# -- measurement ---------------------------------------------------------

def _measure(sizes, rounds: int = _ROUNDS):
    """Best-of-``rounds`` events/sec under both schedulers, interleaved
    A/B so thermal/scheduler drift hits both sides equally.  The garbage
    collector is paused during timing (the standing populations are
    stable object graphs; collector passes add identical,
    scheduler-independent noise)."""
    results = {}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, fn in WORKLOADS.items():
            kwargs = sizes[name]
            best = {"heap": 0.0, "wheel": 0.0}
            for _ in range(rounds):
                for scheduler in ("heap", "wheel"):
                    gc.collect()
                    env = Environment(scheduler=scheduler)
                    seconds, events = fn(env, **kwargs)
                    best[scheduler] = max(best[scheduler], events / seconds)
            results[name] = {
                **kwargs,
                "heap_events_per_sec": round(best["heap"]),
                "wheel_events_per_sec": round(best["wheel"]),
                "speedup": round(best["wheel"] / best["heap"], 3),
            }
    finally:
        if was_enabled:
            gc.enable()
    geomean = math.exp(
        sum(math.log(results[n]["speedup"]) for n in _CHURN_WORKLOADS)
        / len(_CHURN_WORKLOADS)
    )
    return results, round(geomean, 3)


def test_sched_speedup_and_identity(benchmark):
    """Full A/B: identity preflight, then the gated churn geomean."""
    def run_ab():
        checks = assert_bit_identity(quick=False)
        results, geomean = _measure(_FULL_SIZES)
        return checks, results, geomean

    checks, results, geomean = benchmark(run_ab)
    benchmark.extra_info["identity_checks"] = checks
    benchmark.extra_info["workloads"] = results
    benchmark.extra_info["geomean_churn_speedup"] = geomean
    assert geomean >= _TARGET_GEOMEAN, (
        f"wheel churn geomean {geomean:.2f}x below target "
        f"{_TARGET_GEOMEAN}x: {results}"
    )
    assert results["small_run"]["speedup"] >= _SMALL_FLOOR, (
        f"wheel regressed small runs: {results['small_run']}"
    )


def main(argv: list[str] | None = None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    sizes = _QUICK_SIZES if quick else _FULL_SIZES
    checks = assert_bit_identity(quick=quick)
    results, geomean = _measure(sizes, rounds=2 if quick else _ROUNDS)
    payload = {
        "bench": "kernel scheduler A/B: calendar-queue wheel vs binary "
        f"heap (events/sec, best of {2 if quick else _ROUNDS} "
        "interleaved rounds, gc paused during timing)",
        "mode": "quick" if quick else "full",
        "cpu_count": os.cpu_count(),
        "identity_checks": {
            **checks,
            "note": "firing order, engine records, telemetry snapshots, "
            "and sharded-vs-single records asserted bit-identical "
            "heap vs wheel before timing",
        },
        "workloads": results,
        "geomean_churn_speedup": geomean,
        "target_geomean": _TARGET_GEOMEAN,
        "gated": not quick,
    }
    if not quick and geomean < _TARGET_GEOMEAN:
        print(json.dumps(payload, indent=2))
        print(
            f"\nFAIL: churn geomean {geomean}x below {_TARGET_GEOMEAN}x",
            file=sys.stderr,
        )
        return 1
    out = _HERE.parent / "BENCH_sched.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
