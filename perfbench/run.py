"""End-to-end benchmark of the FaaSFlow simulator, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--workload`` is ``serve``, ``dataplane`` or ``observed`` (see
``scenarios.py``).  A run is a sequence of *rounds*.  A round builds the
workload's simulated clusters from scratch, deploys and warms them
(set-up), then drives its seeded open-loop arrivals to completion.  The
run first plays each of the workload's distinct round seeds once, then
cycles through them again until ``--seconds`` have passed; a repeated
seed must reproduce its round's outcome digest and work counts exactly.

``--trace 0`` reports the end-to-end metrics: invocations per host
second (median over rounds), set-up seconds (the median import time of
a few fresh interpreters plus the median round set-up), peak resident
memory, and the median and tail simulated latency pooled over the
distinct rounds.  Host seconds are reference
seconds (see ``hostspeed.py``); the raw wall-clock rate is printed too.

``--trace 1`` runs the first seed once plainly and twice under
``cProfile`` and reports every per-layer metric (see ``layers.py``); the
attribution, the counts and the hottest functions are also written to
``.perfbench/<workload>-seed<seed>-trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("serve", "dataplane", "observed")
DEFAULT_SEED = 1
PLAIN_ROUNDS = 1
TRACED_ROUNDS = 2
IMPORT_PROBES = 3
# Run in a fresh interpreter: import the simulator, then measure host
# speed; prints the import time in reference seconds.
IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = {paths!r}
import scenarios
seconds = time.perf_counter() - started
import hostspeed
clock = hostspeed.HostClock()
for _ in range(20):
    clock.pause()
print(seconds * clock.speed)
"""


@dataclass
class Round:
    """Measurements of one round."""

    setup_s: float  # host seconds to build, deploy and warm the cells
    wall_s: float  # host seconds spent simulating
    speed: float  # host speed relative to the reference (1.0 if unmeasured)
    attempted: int
    failed: int
    digest: str
    latencies: list[float]
    counters: dict
    problems: list[str]
    profile: Optional[cProfile.Profile] = None
    calls: dict = field(default_factory=dict)

    @property
    def inv_per_ref_s(self) -> float:
        return self.attempted / (self.wall_s * self.speed)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(quick: bool) -> dict:
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "quick": quick,
    }


def run_round(modules, args, seed: int, checks: bool, traced: bool = False) -> Round:
    """Build, drive and check one round; ``checks`` adds the costly checks.

    A plain round interleaves reference blocks with the simulation to
    measure host speed; a traced round runs under ``cProfile`` instead.
    """
    scenarios, layers, hostspeed = modules
    gc.collect()
    started = time.perf_counter()
    cells = scenarios.build_cells(args.workload, seed, args.quick)
    setup_s = time.perf_counter() - started
    before = [scenarios.substrate_counters(cell) for cell in cells]
    clock = None if traced else hostspeed.HostClock()
    profile = cProfile.Profile() if traced else None
    calls = {"executions": 0}
    counting = layers.counting_executions(calls) if traced else contextlib.nullcontext()
    wall_s = 0.0
    with counting:
        for cell in cells:
            if profile is not None:
                profile.enable()
            wall_s += scenarios.drive(cell, pause=clock and clock.pause)
            if profile is not None:
                profile.disable()
    counters: dict = {}
    for cell, start in zip(cells, before):
        deltas = {key: cell.counters[key] - start[key] for key in start}
        for key, value in (*deltas.items(), *scenarios.outcome_counters(cell).items()):
            counters[key] = counters.get(key, 0) + value
    records = [record for cell in cells for record in cell.records]
    return Round(
        setup_s=setup_s,
        wall_s=wall_s,
        speed=clock.speed if clock is not None else 1.0,
        attempted=sum(len(cell.arrivals) for cell in cells),
        failed=sum(cell.crashed for cell in cells)
        + sum(1 for r in records if r.status != scenarios.InvocationStatus.OK),
        digest=scenarios.outcome_digest(cells),
        latencies=[record.latency for record in records],
        counters=counters,
        problems=[p for cell in cells for p in scenarios.check_cell(cell, checks)],
        profile=profile,
        calls=calls if traced else {},
    )


def import_seconds() -> float:
    """Reference seconds a fresh interpreter takes to import the
    simulator and the benchmark (median of a few probes)."""
    code = IMPORT_PROBE.format(paths=[str(ROOT / "src"), str(HERE)])
    probes = [
        float(
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
        for _ in range(IMPORT_PROBES)
    ]
    return statistics.median(probes)


def consistency_problems(rounds: list[Round], period: int) -> list[str]:
    """Round ``i`` repeats the seed of round ``i - period``: it must
    reproduce that round's outcomes and work counts exactly."""
    problems = []
    for index in range(period, len(rounds)):
        again, first = rounds[index], rounds[index - period]
        for what, same in (
            ("outcome digest", again.digest == first.digest),
            ("work counters", again.counters == first.counters),
        ):
            if not same:
                problems.append(
                    f"round {index + 1} {what} differ from round "
                    f"{index - period + 1}, which had the same seed"
                )
    return problems


def end_to_end(scenarios, rounds: list[Round], period: int):
    """End-to-end metrics, plus printable notes on how they were read."""
    latencies = [latency for r in rounds[:period] for latency in r.latencies]
    tail_q, tail, samples = scenarios.tail_percentile(latencies)
    speed = statistics.median(r.speed for r in rounds)
    metrics = {
        "inv_per_s": (statistics.median(r.inv_per_ref_s for r in rounds), "1/s"),
        "setup_s": (
            import_seconds() + statistics.median(r.setup_s * r.speed for r in rounds),
            "s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_mean_s": (statistics.fmean(latencies), "sim_s"),
        "sim_p99_s": (tail, "sim_s"),
    }
    wall_rate = statistics.median(r.attempted / r.wall_s for r in rounds)
    notes = [
        # Not a gated metric: where most invocations run uncontended the
        # median is one uncontended latency, the same for every seed.
        f"sim_p50_s {statistics.median(latencies)!r} sim_s",
        f"sim_p99_s is p{tail_q:.2f} of {samples} latencies",
        f"host speed {speed:.3f}x reference (median of rounds); "
        f"raw wall-clock rate {wall_rate:.1f} inv/s",
        "inv_per_s by round "
        + " ".join(f"{r.inv_per_ref_s:.1f}" for r in rounds),
    ]
    return metrics, notes


def per_layer(layers, plain: list[Round], traced: list[Round]):
    """Per-layer metrics from the traced rounds, plus the detail to save."""
    layer_map = layers.LayerMap(ROOT)
    stats = pstats.Stats(traced[0].profile)
    for extra in traced[1:]:
        stats.add(extra.profile)
    counts = dict(traced[0].counters)
    problems = []
    per_round = {"executions": [r.calls["executions"] for r in traced]}
    for key, entries in (
        ("rebalances", layers.REBALANCE_ENTRIES),
        ("telemetry_emits", layers.TELEMETRY_EMITS),
    ):
        per_round[key] = [
            layers.call_count(pstats.Stats(r.profile), entries) for r in traced
        ]
    for key, values in per_round.items():
        if len(set(values)) != 1:
            problems.append(f"{key} differ between the traced rounds: {values}")
        counts[key] = values[0]
    seconds = layers.self_seconds(stats, layer_map)
    overhead = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    )
    metrics = layers.metrics(seconds, counts, overhead)
    detail = {
        "self_seconds": seconds,
        "counts": counts,
        "top_self_time": layers.top_functions(stats, layer_map),
    }
    return metrics, detail, problems


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny rounds, for the self-test"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    modules = tuple(
        importlib.import_module(name) for name in ("scenarios", "layers", "hostspeed")
    )
    scenarios, layers, _ = modules
    stamp = provenance(args.quick)

    seeds = scenarios.round_seeds(args.workload, args.seed, args.quick)
    if args.trace:
        # Every round of a traced run repeats the first seed.
        period = 1
        plain = [
            run_round(modules, args, seeds[0], checks=index == 0)
            for index in range(PLAIN_ROUNDS)
        ]
        traced = [
            run_round(modules, args, seeds[0], checks=False, traced=True)
            for _ in range(TRACED_ROUNDS)
        ]
        rounds = plain + traced
    else:
        # Every seed once, then around again until the time is up; the
        # first repeat always runs, so determinism is always checked.
        period = len(seeds)
        rounds = []
        measuring = time.perf_counter()
        while len(rounds) <= period or time.perf_counter() - measuring < args.seconds:
            index = len(rounds)
            rounds.append(
                run_round(modules, args, seeds[index % period], checks=index < period)
            )

    problems = [p for r in rounds for p in r.problems]
    problems += consistency_problems(rounds, period)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    digest = hashlib.sha256("".join(r.digest for r in rounds[:period]).encode())
    print(
        f"perfbench {args.workload} seed={args.seed} rounds={len(rounds)} "
        + " ".join(f"{key}={value}" for key, value in stamp.items())
    )
    print(f"  outcome digest {digest.hexdigest()}")
    print(f"  error_rate {failed / attempted!r} ratio ({failed} of {attempted})")
    if args.trace:
        metrics, detail, trace_problems = per_layer(layers, plain, traced)
        problems += trace_problems
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        report = {"workload": args.workload, "seed": args.seed, **stamp}
        report.update(metrics=metrics, **detail)
        out.write_text(json.dumps(report, indent=1))
        print(f"  attribution written to {out.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(scenarios, rounds, period)
        for note in notes:
            print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
