"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload with ``--quick`` on the default seed and on a
held-out seed, plain and traced, each in its own process, and checks
that:

- the result line has exactly ``correct``/``attempted``/``failed``/
  ``metrics``, the outputs are correct and nothing failed;
- every metric ``BENCHMARK.json`` names is present with a unit, and
  every name matches ``[A-Za-z0-9_.-]+``;
- the layers' ``self_share`` values sum to 1 within rounding;
- layers that are off cost nothing: ``telemetry.*`` and ``spans.*`` read
  exactly 0 on ``dataplane``, ``spans.*`` on ``serve``;
- a second traced run of the same seed, in a fresh process, reports the
  same outcome digest and exactly the same per-layer counts.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 9001)  # the default seed and one held out from tuning
NAME = re.compile(r"[A-Za-z0-9_.-]+")
ZERO_WHEN_OFF = {"dataplane": ("telemetry.", "spans."), "serve": ("spans.",)}
# Per-layer metrics that are timings rather than counts.
TIMED = re.compile(r".*\.self_share|trace\.overhead_ratio")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One quick benchmark run: its result object and outcome digest."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed={seed} trace={trace} exited "
            f"{completed.returncode}:\n{completed.stderr}"
        )
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "outcome digest" in line)
    return json.loads(lines[-1]), digest


def check(workload: str, seed: int, trace: int, spec: dict) -> tuple[list, dict, str]:
    result, digest = run(workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}"
        )
    for name, entry in metrics.items():
        if not NAME.fullmatch(name) or not entry.get("unit"):
            problems.append(f"{where}: bad name or missing unit: {name} {entry}")
    if trace:
        shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
        if abs(shares - 1.0) > 1e-9:
            problems.append(f"{where}: self shares sum to {shares!r}")
        for prefix in ZERO_WHEN_OFF.get(workload, ()):
            for name, entry in metrics.items():
                if name.startswith(prefix) and entry["value"] != 0:
                    problems.append(f"{where}: {name} is {entry['value']!r}, not 0")
    return problems, metrics, digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("serve", "dataplane", "observed"):
        for seed in SEEDS:
            for trace in (0, 1):
                found, metrics, digest = check(workload, seed, trace, spec)
                problems += found
                print(f"{workload} seed={seed} trace={trace}: {len(found)} problems")
            again, metrics_again, digest_again = check(workload, seed, 1, spec)
            problems += again
            counts = {k: v for k, v in metrics.items() if not TIMED.fullmatch(k)}
            counts_again = {
                k: v for k, v in metrics_again.items() if not TIMED.fullmatch(k)
            }
            if digest != digest_again or counts != counts_again:
                problems.append(
                    f"{workload} seed={seed}: a second traced run differs "
                    "in outcome digest or per-layer counts"
                )
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
