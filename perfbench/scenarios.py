"""The benchmark's three workloads, built on the simulator's public API.

A workload is a list of *cells*.  A cell is one simulated cluster with
one workflow system on it and an open-loop arrival schedule that the
benchmark generated from its seed; :func:`drive` feeds the schedule to
``system.invoke`` and collects one record per arrival.

- ``serve``: the ``ext-scale-serve`` experiment's cluster and tenants --
  eight tenants x {chain12, fan8, diamond6, tree-d3} on WorkerSP,
  1200 Poisson arrivals/min/tenant, no data shipping, the telemetry
  registry on and spans off.
- ``dataplane``: Fig. 12 cells -- ``genome`` at 1/min and
  ``video-ffmpeg`` at 8/min, 50 MB/s storage bandwidth, data shipped --
  each run on MasterSP, WorkerSP (after the feedback deploy) and
  DataflowSP with identical arrivals.  Telemetry and spans are off.
- ``observed``: the ``serve`` tenants on DataflowSP with a span tracer,
  the telemetry registry and a resource sampler installed.

Engine, cluster and workflow settings are the experiments' own, with
nominal service times (no jitter), so the simulated latencies depend on
the arrival schedule alone.  Cells are rebuilt from scratch for every
round, and invocation ids are reset per cell, so a round's outcome is a
pure function of the seed.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
    hash_partition,
)
from repro.core.state import reset_invocation_ids
from repro.experiments.common import (
    deploy_with_feedback,
    make_cluster,
    make_dataflow,
    make_faasflow,
)
from repro.experiments.ext_scale_serve import _SHAPES as SERVE_SHAPES
from repro.experiments.ext_scale_serve import _make_dag as make_serve_dag
from repro.metrics import InvocationStatus
from repro.obs import (
    BREAKDOWN_COMPONENTS,
    MetricsRegistry,
    ResourceSampler,
    SpanTracer,
)
from repro.obs.telemetry import find_metrics
from repro.sim import MB, Cluster, ClusterConfig, ContainerSpec, Environment
from repro.workloads import build

STATUSES = (InvocationStatus.OK, InvocationStatus.FAILED, InvocationStatus.TIMEOUT)

SERVE_TENANTS = 8
SERVE_WORKERS = 8
SERVE_RATE_PER_MIN = 1200.0

DATAPLANE_BANDWIDTH = 50 * MB
# (benchmark, arrivals per minute).  Video runs at Fig. 12's top load
# point.  Genome saturates into the 60 s watchdog at 6/min.  Its
# simulated tail is set by how often invocations overlap, so it moves
# from seed to seed: at Fig. 12's lowest point, 2/min, the p99 pooled
# over 12 rounds of 24 moved by 13% (quartile distance over median, ten
# seeds); at 1/min, pooled over 12 rounds of 48, by 3-7%.
DATAPLANE_MIX = (("genome", 1.0), ("video-ffmpeg", 8.0))
DATAPLANE_ENGINES = ("master-sp", "worker-sp", "dataflow")

# Invocations per round and distinct rounds per run.  ``serve`` and
# ``observed`` count all tenants together; a round is long enough that
# per-invocation state left behind shows in the peak resident memory.
# ``dataplane`` counts per benchmark, and every benchmark runs on each of
# the three engines.  A run pools the latencies of its distinct rounds,
# so the simulated tail rests on thousands of samples.
FULL_SIZES = {
    "serve": {"invocations": 6000, "rounds": 2},
    "observed": {"invocations": 4000, "rounds": 2},
    "dataplane": {"genome": 48, "video-ffmpeg": 192, "rounds": 12},
}
QUICK_SIZES = {
    "serve": {"invocations": 160, "rounds": 2},
    "observed": {"invocations": 160, "rounds": 2},
    "dataplane": {"genome": 2, "video-ffmpeg": 8, "rounds": 2},
}

# Host seconds of simulation between two host-speed reference blocks.
SLICE_S = 0.02

# Invocations whose latency decomposition is checked per ``observed``
# round (the check scans every span, so it samples).
BREAKDOWN_SAMPLES = 12


def derive_seed(seed: int, *key) -> int:
    """A stable 63-bit seed for one arrival stream of one workload."""
    digest = hashlib.sha256(repr((int(seed), key)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def poisson_arrivals(seed: int, rate_per_minute: float, count: int) -> list[float]:
    """``count`` Poisson arrival times (simulated seconds from 0)."""
    rng = random.Random(seed)
    mean_gap = 60.0 / rate_per_minute
    now = 0.0
    times = []
    for _ in range(count):
        now += rng.expovariate(1.0 / mean_gap)
        times.append(now)
    return times


@dataclass
class Cell:
    """One simulated cluster, its system, and its arrival schedule."""

    name: str
    env: Environment
    cluster: Cluster
    system: object
    arrivals: list[tuple[float, str]]
    telemetry: Optional[MetricsRegistry] = None
    spans: Optional[SpanTracer] = None
    sampler: Optional[ResourceSampler] = None
    records: list = field(default_factory=list)
    crashed: int = 0
    counters: dict = field(default_factory=dict)


def _serve_cell(name: str, seed: int, invocations: int, observed: bool) -> Cell:
    reset_invocation_ids(1)
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(
            workers=SERVE_WORKERS,
            container=ContainerSpec(cold_start_time=0.05),
        ),
    )
    spans = sampler = None
    if observed:
        spans = SpanTracer(env)
        cluster.install_spans(spans)
        sampler = ResourceSampler(cluster)
        sampler.start()
    telemetry = MetricsRegistry(clock=lambda: env.now)
    cluster.install_telemetry(telemetry)
    # The engine and container settings of ``ext_scale_serve.run``.
    config = EngineConfig(
        ship_data=False,
        worker_process_time=0.001,
        master_process_time=0.001,
        dataflow_trigger_time=0.0005,
        local_trigger_time=0.0002,
    )
    system_class = DataflowSystem if observed else FaaSFlowSystem
    system = system_class(cluster, config)
    tenants = {}
    arrivals = []
    per_tenant = max(1, invocations // SERVE_TENANTS)
    for index in range(SERVE_TENANTS):
        shape = SERVE_SHAPES[index % len(SERVE_SHAPES)]
        workflow = f"{shape}-{index}"
        dag = make_serve_dag(shape, workflow)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()), prewarm=2)
        tenants[workflow] = f"tenant-{index}"
        times = poisson_arrivals(
            derive_seed(seed, name, index), SERVE_RATE_PER_MIN, per_tenant
        )
        arrivals.extend((t, index, workflow) for t in times)
    system.set_tenants(tenants)
    arrivals.sort()
    return Cell(
        name=name,
        env=env,
        cluster=cluster,
        system=system,
        arrivals=[(t, workflow) for t, _, workflow in arrivals],
        telemetry=telemetry,
        spans=spans,
        sampler=sampler,
    )


def _dataplane_cells(seed: int, sizes: dict) -> list[Cell]:
    cells = []
    for benchmark, rate in DATAPLANE_MIX:
        times = poisson_arrivals(
            derive_seed(seed, "dataplane", benchmark), rate, sizes[benchmark]
        )
        for engine in DATAPLANE_ENGINES:
            reset_invocation_ids(1)
            cluster = make_cluster(storage_bandwidth=DATAPLANE_BANDWIDTH)
            dag = build(benchmark)
            if engine == "master-sp":
                system = HyperFlowServerlessSystem(
                    cluster, EngineConfig(ship_data=True)
                )
                system.register(dag, hash_partition(dag, cluster.worker_names()))
            else:
                make = make_faasflow if engine == "worker-sp" else make_dataflow
                system, scheduler = make(cluster, ship_data=True)
                deploy_with_feedback(system, scheduler, dag, warmup_invocations=1)
                system.metrics.clear()
            cells.append(
                Cell(
                    name=f"{benchmark}/{engine}",
                    env=cluster.env,
                    cluster=cluster,
                    system=system,
                    arrivals=[(t, dag.name) for t in times],
                )
            )
    return cells


def round_seeds(workload: str, seed: int, quick: bool = False) -> list[int]:
    """The seeds of the distinct rounds of one run."""
    sizes = (QUICK_SIZES if quick else FULL_SIZES)[workload]
    return [derive_seed(seed, "round", index) for index in range(sizes["rounds"])]


def build_cells(workload: str, seed: int, quick: bool = False) -> list[Cell]:
    """Every cell of one round of ``workload``, deployed and warmed."""
    sizes = (QUICK_SIZES if quick else FULL_SIZES)[workload]
    if workload == "serve":
        return [_serve_cell("serve", seed, sizes["invocations"], observed=False)]
    if workload == "observed":
        return [_serve_cell("observed", seed, sizes["invocations"], observed=True)]
    if workload == "dataplane":
        return _dataplane_cells(seed, sizes)
    raise ValueError(f"unknown workload {workload!r}")


def drive(cell: Cell, pause: Optional[Callable[[], None]] = None) -> float:
    """Run the cell's arrivals open-loop until every invocation resolved.

    Each arrival is due at its scheduled simulated time; the simulated
    clock never runs behind schedule, so the generator is never late.
    The substrate counters are read the moment the last invocation
    resolves (``cell.counters``).

    With ``pause``, the simulation advances in slices of simulated time
    sized to take about ``SLICE_S`` host seconds each, and ``pause`` runs
    between slices.  Returns the host seconds spent simulating.
    """
    env = cell.env
    system = cell.system
    done = env.event()
    outstanding = [len(cell.arrivals)]

    def resolved(event) -> None:
        if event.ok:
            cell.records.append(event.value)
        else:
            cell.crashed += 1
        outstanding[0] -= 1
        if outstanding[0] == 0:
            cell.counters = substrate_counters(cell)
            done.succeed()

    def source():
        start = env.now
        for due, workflow in cell.arrivals:
            delay = start + due - env.now
            if delay > 0:
                yield env.timeout(delay)
            env.process(system.invoke(workflow)).callbacks.append(resolved)

    env.process(source(), name="perfbench:arrivals")
    busy = 0.0
    horizon = 1e-3
    while pause is not None and not done.triggered:
        started = time.perf_counter()
        env.run(until=env.now + horizon)
        spent = time.perf_counter() - started
        busy += spent
        horizon *= min(2.0, max(0.5, SLICE_S / spent)) if spent > 0 else 2.0
        pause()
    started = time.perf_counter()
    env.run(until=done)
    # Same-timestep stragglers (last cleanup callbacks) settle here.
    env.run(until=env.now)
    return busy + time.perf_counter() - started


def check_cell(cell: Cell, breakdowns: bool = True) -> list[str]:
    """Correctness problems of one driven cell (empty when correct)."""
    problems = []
    attempted = len(cell.arrivals)
    ids = {record.invocation_id for record in cell.records}
    if cell.crashed:
        problems.append(f"{cell.name}: {cell.crashed} invoke processes crashed")
    if len(cell.records) + cell.crashed != attempted or len(ids) != len(cell.records):
        problems.append(
            f"{cell.name}: {attempted} attempted but {len(cell.records)} "
            f"records with {len(ids)} distinct ids"
        )
    bad = [r for r in cell.records if r.status not in STATUSES]
    if bad:
        problems.append(f"{cell.name}: {len(bad)} records with unknown status")
    if cell.system.registry.live_count:
        problems.append(
            f"{cell.name}: {cell.system.registry.live_count} live processes left"
        )
    if cell.telemetry is not None:
        counted = {status: 0.0 for status in STATUSES}
        snapshot = cell.telemetry.snapshot()
        for entry in find_metrics(snapshot, "workflow.invocations"):
            counted[entry["labels"]["status"]] += entry["total"]
        tally = {status: 0 for status in STATUSES}
        for record in cell.records:
            tally[record.status] += 1
        if any(counted[s] != tally[s] for s in STATUSES):
            problems.append(
                f"{cell.name}: telemetry invocations{{status}} {counted} "
                f"!= benchmark tally {tally}"
            )
    if isinstance(cell.system, FaaSFlowSystem) and cell.system.config.ship_data:
        left = [
            worker.name
            for worker in cell.cluster.workers
            if worker.memstore.key_count
        ]
        if left:
            problems.append(f"{cell.name}: FaaStore not drained on {left}")
    if breakdowns and cell.spans is not None:
        problems.extend(_check_breakdowns(cell))
    return problems


def _check_breakdowns(cell: Cell) -> list[str]:
    metrics = cell.system.metrics
    completed = [r for r in cell.records if r.status == InvocationStatus.OK]
    if not completed:
        return [f"{cell.name}: no completed invocation to decompose"]
    step = max(1, len(completed) // BREAKDOWN_SAMPLES)
    problems = []
    for record in completed[::step]:
        parts = metrics.breakdown(record.invocation_id)
        total = sum(parts[key] for key in BREAKDOWN_COMPONENTS)
        if not parts["measured"] or abs(total - record.latency) > 1e-9:
            problems.append(
                f"{cell.name}: breakdown of invocation {record.invocation_id} "
                f"sums to {total!r}, latency is {record.latency!r}"
            )
    return problems


def substrate_counters(cell: Cell) -> dict[str, float]:
    """Cumulative public work counters of one cell's simulator layers.

    Read before and after :func:`drive`; the difference is the round's
    work.  ``events`` is the kernel's event sequence number, i.e. the
    number of events ever scheduled on the environment.
    """
    cluster = cell.cluster
    network = cluster.network
    system = cell.system
    pools = [node.containers for node in (*cluster.workers, cluster.storage_node)]
    engines = list(getattr(system, "engines", {}).values())
    if engines:
        steps = sum(engine.events_handled for engine in engines)
    else:
        steps = system.events_handled
    spans = cell.spans
    return {
        "events": cell.env._eid,
        "engine_steps": steps,
        "messages": network.message_count,
        "flows": network.flow_count,
        "network_bytes": network.nonlocal_bytes,
        "cold_starts": sum(pool.cold_starts for pool in pools),
        "warm_reuses": sum(pool.warm_reuses for pool in pools),
        "storage_gets": cluster.remote_store.stats.gets,
        "eager_pushes": sum(getattr(e, "pushes_started", 0) for e in engines),
        "spans": len(spans) + spans.dropped if spans is not None else 0,
        "spans_retained": len(spans.spans) if spans is not None else 0,
    }


def outcome_counters(cell: Cell) -> dict[str, float]:
    """Work and simulated-time totals read off a driven cell's records."""
    gets = [t for t in cell.system.metrics.transfers if t.phase == "get"]
    return {
        "invocations": len(cell.records),
        "retries": sum(r.retries for r in cell.records),
        "engine_wait_s": sum(r.scheduling_overhead for r in cell.records),
        "transfer_s": sum(t.duration for t in cell.system.metrics.transfers),
        "faastore_gets": len(gets),
        "faastore_local_gets": sum(1 for t in gets if t.local),
    }


def outcome_digest(cells: list[Cell]) -> str:
    """SHA-256 over every invocation's (cell, workflow, id, status, latency)."""
    digest = hashlib.sha256()
    for cell in cells:
        for record in sorted(cell.records, key=lambda r: r.invocation_id):
            digest.update(
                f"{cell.name}|{record.workflow}|{record.invocation_id}|"
                f"{record.status}|{record.latency.hex()}\n".encode()
            )
    return digest.hexdigest()


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile (at most p99) with >= 10 samples beyond it.

    Returns ``(percentile, value, samples)`` by nearest rank over the
    sorted latencies, so the value is one observed latency.
    """
    data = sorted(latencies)
    n = len(data)
    nearest_p99 = -(-99 * n // 100) - 1
    index = max(0, min(nearest_p99, n - 11))
    return 100.0 * (index + 1) / n, data[index], n
