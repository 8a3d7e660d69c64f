"""Kernel hot-path microbenchmarks: events/sec of the simulation kernel.

Four microbenchmarks time the kernel's hottest patterns, best of
``_ROUNDS`` rounds each.  Run directly to print the rates; the last line
of output is one JSON object mapping each microbenchmark to events/sec,
so ``benchmarks/ab.py`` can compare them across commits::

    python benchmarks/ab.py --base <ref> benchmarks/test_bench_kernel.py
"""

from __future__ import annotations

import json
import time

from repro.sim.kernel import Environment

_ROUNDS = 5


def bench_timeout_churn(n=100_000):
    """One process burning through n short timeouts (the dominant
    pattern in the simulator: container timers, transfer completions)."""
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(ticker(env))
    start = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - start)


def bench_processed_event_yield(n=100_000):
    """Yielding an already-processed event n times (the resume path
    that must not allocate a throwaway Event per resume)."""
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()

    def spinner(env):
        for _ in range(n):
            yield ev

    env.process(spinner(env))
    start = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - start)


def bench_process_spawn(n=30_000):
    """Spawning and awaiting n short-lived child processes (one
    bootstrap resume + one zero-delay timeout each)."""
    env = Environment()

    def leaf(env):
        yield env.timeout(0.0)
        return 1

    def parent(env):
        for _ in range(n):
            yield env.process(leaf(env))

    env.process(parent(env))
    start = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - start)


def bench_single_condition(n=60_000):
    """all_of over a single event — the short-circuit mirror path."""
    env = Environment()

    def waiter(env):
        for _ in range(n):
            yield env.all_of([env.timeout(0.001)])

    env.process(waiter(env))
    start = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - start)


BENCHES = [
    ("timeout_churn", bench_timeout_churn),
    ("processed_event_yield", bench_processed_event_yield),
    ("process_spawn", bench_process_spawn),
    ("single_condition", bench_single_condition),
]


def measure(rounds: int = _ROUNDS) -> dict[str, int]:
    """Best-of-``rounds`` events/sec per microbenchmark."""
    return {
        name: round(max(fn() for _ in range(rounds))) for name, fn in BENCHES
    }


def test_kernel_events_per_sec(benchmark):
    rates = benchmark.pedantic(measure, args=(1,), rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = rates
    assert all(rate > 0 for rate in rates.values())


if __name__ == "__main__":
    print(json.dumps(measure()))
