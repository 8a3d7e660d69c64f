"""Golden digests: simulated behaviour pinned bit-for-bit across commits.

Every cell below runs a small, fixed scenario and hashes three canonical
streams with SHA-256:

- the invocation records, in per-tenant completion order;
- the transfer records: the network ledger plus the FaaStore/remote
  storage puts and gets;
- the telemetry snapshot, as sorted JSON.

Floats enter the hash through ``float.hex``, so a change in the last bit
of any simulated timestamp changes the digest.  One digest per cell is
committed in ``golden_digests.json``, and every variant of a cell must
hash to it: the heap and the wheel kernel schedulers, and one and two
shards.  Engine cells shard at cell granularity (as ``run_trials``
runs them: cells spread over worker processes); the network cell also
splits its plan into two traffic cells.

A change that alters simulated behaviour on purpose regenerates the file
and says why in its commit::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.clients import OpenLoopClient, run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultPlan,
    HyperFlowServerlessSystem,
    NodeCrash,
    hash_partition,
)
from repro.core.state import reset_invocation_ids
from repro.experiments.common import (
    deploy_with_feedback,
    make_cluster,
    make_dataflow,
    make_faasflow,
)
from repro.experiments.fig_scale import drive_network_sharded
from repro.obs.telemetry import MetricsRegistry
from repro.parallel import ParallelRunner
from repro.sim import MB, Cluster, ClusterConfig, ContainerSpec, Environment
from repro.sim.sched import DEFAULT_SCHEDULER_ENV
from repro.workloads import build, chain, diamond, fan, tree

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

ENGINES = ("master", "worker", "dataflow")

# Four tenants, one paper-scale shape each (FaaSFlow's workflows have
# 8-16 functions), served open-loop on one shared cluster.  Step costs
# are small and no data is shipped: the control plane does the work.
_TENANTS = ("chain", "fan", "diamond", "tree")
_SERVE_PER_TENANT = 25
# Arrivals per minute per tenant; MasterSP's central loop serializes
# every assignment, so it runs at a lower rate.
_SERVE_RATE = {"master": 300.0, "worker": 1800.0, "dataflow": 1800.0}

_NETWORK_NODES = 16
_NETWORK_FLOWS = 200


def _line(*values) -> bytes:
    return "|".join(
        v.hex() if type(v) is float else str(v) for v in values
    ).encode() + b"\n"


def _record_lines(records):
    for r in records:
        yield _line(
            r.workflow, r.invocation_id, r.mode, r.started_at, r.finished_at,
            r.status, r.critical_path_exec, r.cold_starts, r.retries,
        )


def _digest(records, transfers, telemetry) -> str:
    """SHA-256 over the three canonical streams of one cell."""
    digest = hashlib.sha256()
    digest.update(b"records\n")
    for line in records:
        digest.update(line)
    digest.update(b"transfers\n")
    for line in transfers:
        digest.update(line)
    digest.update(b"telemetry\n")
    digest.update(json.dumps(telemetry, sort_keys=True).encode())
    return digest.hexdigest()


def _system_digest(cluster, system, records, registry) -> str:
    transfers = [
        _line(t.src, t.dst, t.size, t.started_at, t.finished_at, t.kind, t.tag)
        for t in cluster.network.records
    ]
    transfers += [
        _line(
            t.workflow, t.invocation_id, t.producer, t.consumer, t.size,
            t.duration, t.phase, t.local,
        )
        for t in system.metrics.transfers
    ]
    return _digest(records, transfers, registry.snapshot())


def _with_telemetry(cluster) -> MetricsRegistry:
    env = cluster.env
    registry = MetricsRegistry(clock=lambda: env.now)
    cluster.install_telemetry(registry)
    return registry


def _serve_cell(engine: str, batch: bool) -> str:
    """Multi-tenant open-loop serving, ~100 invocations.  Four workers
    make fan-outs share destinations, so ``batch_control`` coalesces."""
    cluster = Cluster(
        Environment(),
        ClusterConfig(workers=4, container=ContainerSpec(cold_start_time=0.05)),
    )
    registry = _with_telemetry(cluster)
    config = EngineConfig(
        ship_data=False,
        worker_process_time=0.001,
        master_process_time=0.001,
        dataflow_trigger_time=0.0005,
        local_trigger_time=0.0002,
        batch_control=batch,
    )
    dags = {
        "chain": chain(length=12, service_time=0.01, output_size=0.0),
        "fan": fan(
            width=8, service_time=0.01, hub_output=0.0, branch_output=0.0
        ),
        "diamond": diamond(width=6, service_time=0.01, output_size=0.0),
        "tree": tree(depth=3, fanout=2, service_time=0.01, output_size=0.0),
    }
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config)
    else:
        system_class = FaaSFlowSystem if engine == "worker" else DataflowSystem
        system = system_class(cluster, config)
    for shape in _TENANTS:
        dag = dags[shape]
        placement = hash_partition(dag, cluster.worker_names())
        if engine == "master":
            system.register(dag, placement)
        else:
            system.deploy(dag, placement, prewarm=4)
    clients = [
        OpenLoopClient(
            system, shape, _SERVE_PER_TENANT, _SERVE_RATE[engine],
            seed=13 + index,
        )
        for index, shape in enumerate(_TENANTS)
    ]
    reset_invocation_ids(1)
    env = cluster.env
    env.run(until=env.all_of([env.process(c.run()) for c in clients]))
    records = [line for c in clients for line in _record_lines(c.records)]
    return _system_digest(cluster, system, records, registry)


def _genome_cell(engine: str) -> str:
    """Fig. 12's genome at 50 MB/s with data shipped (eager shipping on
    for DataflowSP), deployed after the feedback iteration."""
    reset_invocation_ids(1)
    cluster = make_cluster(storage_bandwidth=50 * MB)
    registry = _with_telemetry(cluster)
    dag = build("genome")
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, EngineConfig(ship_data=True))
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        make = make_faasflow if engine == "worker" else make_dataflow
        system, scheduler = make(cluster, ship_data=True)
        deploy_with_feedback(system, scheduler, dag, warmup_invocations=1)
    records = run_closed_loop(system, dag.name, 2)
    cluster.env.run(until=cluster.env.now)
    return _system_digest(cluster, system, _record_lines(records), registry)


def _crash_cell(engine: str) -> str:
    """A scripted worker crash mid-run: each engine's recovery path."""
    reset_invocation_ids(1)
    cluster = Cluster(
        Environment(),
        ClusterConfig(workers=3, container=ContainerSpec(cold_start_time=0.1)),
    )
    registry = _with_telemetry(cluster)
    config = EngineConfig(ship_data=False, max_retries=3, execution_timeout=120.0)
    dag = build("epigenomics")
    placement = hash_partition(dag, cluster.worker_names())
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config)
        system.register(dag, placement)
    else:
        system_class = FaaSFlowSystem if engine == "worker" else DataflowSystem
        system = system_class(cluster, config)
        system.deploy(dag, placement)
    plan = FaultPlan(node_crashes=(NodeCrash(node="worker-1", at=1.0, recovery=3.0),))
    FaultDriver(cluster, plan).attach(system).start()
    records = run_closed_loop(system, dag.name, 4)
    cluster.env.run(until=cluster.env.now)
    return _system_digest(cluster, system, _record_lines(records), registry)


def _network_digest(out: dict) -> str:
    transfers = [_line(*record) for record in out["records"]]
    return _digest([_line(out["sim_makespan"])], transfers, out["telemetry"])


def _network_cell(shards: int) -> str:
    return _network_digest(
        drive_network_sharded(
            _NETWORK_NODES, _NETWORK_FLOWS, shards,
            collect_records=True, telemetry=True,
        )
    )


def cell_digest(name: str, shards: int = 1) -> str:
    """The digest of one named cell (``shards`` partitions network cells)."""
    kind, _, variant = name.partition("/")
    if kind == "serve":
        engine, _, batch = variant.partition("/")
        return _serve_cell(engine, batch == "batched")
    if kind == "genome":
        return _genome_cell(variant)
    if kind == "crash":
        return _crash_cell(variant)
    if name == "network/analytic":
        return _network_cell(shards)
    raise KeyError(name)


CELLS = (
    *(
        f"serve/{engine}/{batch}"
        for engine in ENGINES
        for batch in ("default", "batched")
    ),
    *(f"genome/{engine}" for engine in ENGINES),
    *(f"crash/{engine}" for engine in ENGINES),
    "network/analytic",
)


def all_digests(shards: int = 1) -> dict[str, str]:
    """Every cell's digest; with ``shards > 1`` cells spread over that
    many worker processes, and network cells split into traffic cells."""
    tasks = [(name, shards) for name in CELLS]
    return dict(zip(CELLS, ParallelRunner(shards).starmap(cell_digest, tasks)))


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_cells_match_golden_digests(scheduler, golden, monkeypatch):
    monkeypatch.setenv(DEFAULT_SCHEDULER_ENV, scheduler)
    assert all_digests() == golden


def test_two_shards_match_golden_digests(golden, monkeypatch):
    monkeypatch.setenv(DEFAULT_SCHEDULER_ENV, "heap")
    assert all_digests(shards=2) == golden


def main() -> None:
    payload = {
        "about": "SHA-256 of each cell's records, transfers and telemetry; "
        "regenerate with `PYTHONPATH=src python tests/test_golden_digests.py`",
        "digests": all_digests(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
