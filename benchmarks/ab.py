"""A/B the working tree against any git ref.

    python benchmarks/ab.py --base <ref> [--rounds N] <driver> [args...]

Checks ``<ref>`` out as a detached ``git worktree`` in a temporary
directory (local, no network), then runs ``python <driver> args`` in
both trees -- each tree runs its own copy of the driver, with
``cwd=<tree>`` and ``PYTHONPATH=<tree>/src`` -- for ``N`` interleaved
rounds that alternate which side goes first.  The last line of each
run's standard output must be one JSON object; its numeric leaves are
flattened to dotted keys and reported as per-key medians with the
change/base ratio.  The last line printed is the same table as JSON.
The worktree is removed on exit.

Example::

    python benchmarks/ab.py --base HEAD~1 perfbench/run.py --workload serve --quick
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--rounds", type=int, default=3, help="runs per side")
    parser.add_argument("driver", help="script path, relative to the repo root")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def run_driver(tree: Path, driver: str, args: list[str]) -> dict:
    """One run of ``driver`` in ``tree``; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, driver, *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{driver} failed in {tree} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise SystemExit(f"{driver}: last line is not a JSON object")
    return result


def flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON value, keyed by dotted path."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{prefix}{key}."))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix.rstrip("."): float(value)}
    return {}


def compare(base_runs: list[dict], change_runs: list[dict]) -> dict[str, dict]:
    base = [flatten(run) for run in base_runs]
    change = [flatten(run) for run in change_runs]
    table = {}
    for key in dict.fromkeys(k for run in base + change for k in run):
        b = [run[key] for run in base if key in run]
        c = [run[key] for run in change if key in run]
        row = {
            "base": statistics.median(b) if b else None,
            "change": statistics.median(c) if c else None,
        }
        row["ratio"] = row["change"] / row["base"] if b and c and row["base"] else None
        table[key] = row
    return table


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    driver = Path(args.driver)
    if driver.is_absolute():
        driver = driver.resolve().relative_to(ROOT)
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    base_tree = scratch / "base"
    # SIGTERM unwinds through ``finally`` like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        git("worktree", "add", "--detach", str(base_tree), sha)
        runs = {"base": [], "change": []}
        trees = {"base": base_tree, "change": ROOT}
        for index in range(args.rounds):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_driver(trees[side], str(driver), args.args))
                print(f"round {index + 1}/{args.rounds} {side} done", flush=True)
    finally:
        if base_tree.exists():
            git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune")

    table = compare(runs["base"], runs["change"])
    print(f"base {args.base} ({sha[:12]}) vs working tree, "
          f"median of {args.rounds} run(s) per side")
    for side, results in runs.items():
        wrong = sum(1 for result in results if result.get("correct") is False)
        if wrong:
            print(f"WARNING: {wrong} {side} run(s) reported correct=false")
    width = max((len(key) for key in table), default=3)
    print(f"{'key':<{width}}  {'base':>12}  {'change':>12}  {'ratio':>8}")
    for key, row in table.items():
        print(f"{key:<{width}}  {_fmt(row['base']):>12}  "
              f"{_fmt(row['change']):>12}  {_fmt(row['ratio']):>8}")
    print(json.dumps({"base": sha, "rounds": args.rounds, "medians": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
