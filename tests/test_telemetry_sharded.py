"""Sharded telemetry merges are value-identical to single-process runs.

The observability tentpole's determinism contract, pinned both ways
the simulator shards:

- **traffic cells** label every network metric by the owning source
  node, and every node lives in exactly one cell, so per-cell
  label-sets are disjoint and the merged snapshot is a pure union —
  bit-identical to one environment running the whole plan;
- **workflow cells** each collect a fresh registry and the snapshots
  merge in cell order, replaying the exact same float additions no
  matter which worker ran which cell.

Satellite: ``MetricsCollector.breakdown()`` keeps its exact-sum
invariant (components sum to end-to-end latency) on records coming out
of sharded cell runs, and decomposes identically to a serial run.
"""

import json

import pytest

from repro.metrics import InvocationRecord, MetricsCollector
from repro.obs.spans import BREAKDOWN_COMPONENTS
from repro.obs.telemetry import merge_snapshots, validate_snapshot
from repro.sim.shard import (
    make_workflow_cell,
    run_network_sharded,
    run_network_single,
    run_workflow_cells,
)


def canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


class TestNetworkShardTelemetry:
    """Disjoint per-node labels across traffic cells = union merge."""

    NODES, FLOWS, GROUP = 16, 120, 4

    @pytest.fixture(scope="class")
    def plan(self):
        from repro.experiments.fig_scale import make_plan

        plan = make_plan(
            self.NODES, self.FLOWS, seed=23, group_size=self.GROUP
        )
        names = [f"n{i}" for i in range(self.NODES)]
        abs_plan = [
            (at, f"n{s}", f"n{d}", size) for at, s, d, size in plan
        ]
        return abs_plan, names

    @pytest.fixture(scope="class")
    def single(self, plan):
        abs_plan, names = plan
        return run_network_single(abs_plan, names, telemetry=True)

    def test_single_snapshot_valid(self, single):
        snapshot = single["telemetry"]
        assert validate_snapshot(snapshot) == []
        assert {m["name"] for m in snapshot["metrics"]} == {
            "net.bytes", "net.transfers",
        }

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_merge_bit_identical(self, shards, plan, single):
        abs_plan, names = plan
        sharded = run_network_sharded(abs_plan, names, shards, telemetry=True)
        assert sharded["records"] == single["records"]
        assert canon(sharded["telemetry"]) == canon(single["telemetry"])

    def test_bytes_match_plan_per_node(self, plan, single):
        # Counters increment at flow completion, so the addition order
        # differs from plan order — per-node sums match to float
        # tolerance, and transfer counts match exactly.
        abs_plan, _ = plan
        expected: dict[str, float] = {}
        counts: dict[str, int] = {}
        for _at, src, _dst, size in abs_plan:
            expected[src] = expected.get(src, 0.0) + size
            counts[src] = counts.get(src, 0) + 1
        metrics = single["telemetry"]["metrics"]
        observed = {
            m["labels"]["node"]: m["total"]
            for m in metrics
            if m["name"] == "net.bytes"
        }
        assert observed == pytest.approx(expected, rel=1e-12)
        assert {
            m["labels"]["node"]: int(m["total"])
            for m in metrics
            if m["name"] == "net.transfers"
        } == counts


CELLS = [
    make_workflow_cell(
        ("layered_random", {"seed": 3}),
        engine="worker", seed=13, invocations=2, workers=3,
        collect_telemetry=True,
    ),
    make_workflow_cell(
        ("chain", {"length": 5}),
        engine="master", seed=17, invocations=2, workers=3,
        collect_telemetry=True,
    ),
    make_workflow_cell(
        "video-ffmpeg", engine="worker", seed=29, invocations=2, workers=4,
        collect_telemetry=True,
    ),
    make_workflow_cell(
        "cycles", engine="master", seed=7, invocations=2, workers=3,
        collect_telemetry=True,
    ),
]


@pytest.fixture(scope="module")
def serial_cells():
    return run_workflow_cells(CELLS, jobs=1)


class TestWorkflowCellTelemetry:
    """Per-cell registries merged in cell order: layout-independent."""

    def test_every_cell_carries_a_valid_snapshot(self, serial_cells):
        for result in serial_cells:
            snapshot = result["telemetry"]
            assert validate_snapshot(snapshot) == []
            names = {m["name"] for m in snapshot["metrics"]}
            assert "workflow.latency" in names
            assert "function.execute_seconds" in names

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_cells_bit_identical(self, shards, serial_cells):
        sharded = run_workflow_cells(CELLS, jobs=shards)
        assert sharded == serial_cells  # includes the telemetry dicts

    def test_merged_snapshot_matches_serial_merge(self, serial_cells):
        sharded = run_workflow_cells(CELLS, jobs=2)
        merged_serial = merge_snapshots(
            [r["telemetry"] for r in serial_cells]
        )
        merged_sharded = merge_snapshots(
            [r["telemetry"] for r in sharded]
        )
        assert canon(merged_sharded) == canon(merged_serial)
        assert validate_snapshot(merged_serial) == []

    def test_telemetry_agrees_with_records(self, serial_cells):
        for result in serial_cells:
            entries = [
                m
                for m in result["telemetry"]["metrics"]
                if m["name"] == "workflow.invocations"
            ]
            assert sum(int(m["total"]) for m in entries) == len(
                result["records"]
            )


class TestShardedBreakdownInvariant:
    """Satellite: breakdown() exact-sum on records from sharded runs."""

    @staticmethod
    def collector_from(results):
        collector = MetricsCollector()
        for result in results:
            for tup in result["records"]:
                collector.record_invocation(InvocationRecord(*tup))
        return collector

    def breakdowns(self, results):
        collector = self.collector_from(results)
        return [
            collector.breakdown(r.invocation_id)
            for r in collector.invocations
        ]

    def test_components_sum_to_e2e(self, serial_cells):
        parts_list = self.breakdowns(serial_cells)
        assert parts_list
        for parts in parts_list:
            total = sum(parts[c] for c in BREAKDOWN_COMPONENTS)
            assert total == pytest.approx(parts["e2e"], abs=1e-9)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_decomposition_identical(self, shards, serial_cells):
        sharded = run_workflow_cells(CELLS, jobs=shards)
        assert self.breakdowns(sharded) == self.breakdowns(serial_cells)
