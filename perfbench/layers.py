"""Per-layer attribution of a traced round, measured from outside ``src/``.

Self time comes from ``cProfile``: every profiled function's own time
(its span minus its callees) is charged to the layer that owns its
source module.  Work counts come from the simulator's public counters,
read before and after each cell runs, plus profiler call counts at a few
layer entry points.  ``cProfile`` counts every resume of a generator as
a call, so the one generator entry point counted here
(``FunctionRuntime.execute``) is counted by a wrapper installed on the
class for the duration of the traced round instead.
"""

from __future__ import annotations

import os
import pstats
from contextlib import contextmanager
from pathlib import Path

from repro.core import FunctionRuntime
from repro.obs.telemetry import MetricsRegistry
from repro.sim.network import Network

# Layer -> modules under ``src/repro`` whose self time it owns.  Time in
# builtins, the standard library and third-party packages is ``python``;
# every other ``repro`` module and the benchmark's own files are
# ``other``.
LAYER_MODULES = {
    "kernel": ("sim/kernel.py", "sim/sched.py"),
    "sync": ("sim/sync.py", "sim/resources.py"),
    "network": ("sim/network.py",),
    "container": ("sim/container.py",),
    "storage": ("sim/storage.py",),
    "faastore": ("core/faastore.py",),
    "runtime": ("core/runtime.py", "core/faults.py"),
    "engine": (
        "core/worker_engine.py",
        "core/master_engine.py",
        "core/dataflow_engine.py",
        "core/state.py",
        "core/scheduler.py",
        "core/grouping.py",
    ),
    "telemetry": ("obs/telemetry.py",),
    "spans": ("obs/spans.py", "obs/sampler.py", "obs/context.py"),
    "metrics": ("metrics/collector.py",),
}
LAYERS = (*LAYER_MODULES, "python", "other")

_MODULE_LAYER = {
    module: layer for layer, modules in LAYER_MODULES.items() for module in modules
}

# Entry points whose profiler call counts are read.
REBALANCE_ENTRIES = (Network._rebalance, Network._rebalance_analytic)
TELEMETRY_EMITS = (MetricsRegistry.inc, MetricsRegistry.observe, MetricsRegistry.set_gauge)


class LayerMap:
    """Maps a profiled function's source file to its layer."""

    def __init__(self, root: Path):
        self.package = str(root / "src" / "repro") + os.sep
        self.bench = str(root / "perfbench") + os.sep

    def module(self, filename: str) -> str:
        """``sim/kernel.py`` for a file of the package, else ``""``."""
        if filename.startswith(self.package):
            return filename[len(self.package):].replace(os.sep, "/")
        return ""

    def layer(self, filename: str) -> str:
        module = self.module(filename)
        if module:
            return _MODULE_LAYER.get(module, "other")
        if filename.startswith(self.bench):
            return "other"
        return "python"


def self_seconds(stats: pstats.Stats, layers: LayerMap) -> dict[str, float]:
    """Profiled self time per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        totals[layers.layer(filename)] += tottime
    return totals


def call_count(stats: pstats.Stats, functions) -> int:
    """Profiler call count summed over ``functions``."""
    total = 0
    for function in functions:
        code = function.__code__
        entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if entry is not None:
            total += entry[1]
    return total


def metrics(seconds: dict[str, float], counts: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``seconds`` is profiled self time per layer; ``counts`` holds one
    round's work counts (see ``scenarios.substrate_counters`` and
    ``scenarios.outcome_counters``, plus ``executions``, ``rebalances``
    and ``telemetry_emits`` from call counts).
    """
    total = sum(seconds.values())
    per_inv = 1.0 / counts["invocations"]
    acquisitions = counts["cold_starts"] + counts["warm_reuses"]
    gets = counts["faastore_gets"]
    flows = counts["flows"]
    out = {f"{layer}.self_share": (seconds[layer] / total, "ratio") for layer in LAYERS}
    out.update(
        {
            "kernel.events_per_inv": (counts["events"] * per_inv, "count/inv"),
            "engine.steps_per_inv": (counts["engine_steps"] * per_inv, "count/inv"),
            "runtime.executions_per_inv": (counts["executions"] * per_inv, "count/inv"),
            "runtime.retries_per_inv": (counts["retries"] * per_inv, "count/inv"),
            "container.cold_starts_per_inv": (
                counts["cold_starts"] * per_inv, "count/inv"
            ),
            "container.warm_reuse_ratio": (
                counts["warm_reuses"] / acquisitions if acquisitions else 0.0, "ratio"
            ),
            "network.flows_per_inv": (flows * per_inv, "count/inv"),
            "network.rebalances_per_flow": (
                counts["rebalances"] / flows if flows else 0.0, "count/flow"
            ),
            "network.messages_per_inv": (counts["messages"] * per_inv, "count/inv"),
            "network.mb_per_inv": (
                counts["network_bytes"] / (1024.0 * 1024.0) * per_inv, "MB/inv"
            ),
            "faastore.local_read_ratio": (
                counts["faastore_local_gets"] / gets if gets else 0.0, "ratio"
            ),
            "faastore.eager_pushes_per_inv": (
                counts["eager_pushes"] * per_inv, "count/inv"
            ),
            "storage.gets_per_inv": (counts["storage_gets"] * per_inv, "count/inv"),
            "telemetry.emits_per_inv": (
                counts["telemetry_emits"] * per_inv, "count/inv"
            ),
            "spans.per_inv": (counts["spans"] * per_inv, "count/inv"),
            "spans.retained": (counts["spans_retained"], "count"),
            "sim.engine_s_per_inv": (counts["engine_wait_s"] * per_inv, "sim_s/inv"),
            "sim.transfer_s_per_inv": (counts["transfer_s"] * per_inv, "sim_s/inv"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    return out


def top_functions(stats: pstats.Stats, layers: LayerMap, limit: int = 40) -> list:
    """The ``limit`` functions with the most self time, with their layer."""
    rows = sorted(
        (
            (tottime, layers.layer(filename), layers.module(filename) or filename, name)
            for (filename, _, name), (_, _, tottime, _, _) in stats.stats.items()
        ),
        reverse=True,
    )[:limit]
    return [
        {"function": f"{module}:{name}", "layer": layer, "self_s": tottime}
        for tottime, layer, module, name in rows
    ]


@contextmanager
def counting_executions(counts: dict):
    """Count ``FunctionRuntime.execute`` calls in ``counts["executions"]``
    inside the block."""
    original = FunctionRuntime.execute

    def counted(*args, **kwargs):
        counts["executions"] += 1
        return original(*args, **kwargs)

    FunctionRuntime.execute = counted
    try:
        yield
    finally:
        FunctionRuntime.execute = original
