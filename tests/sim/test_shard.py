"""Traffic-cell sharding: the node split, and exactness of every split.

The network tests drive the same absolute-time transfer plan through one
environment and through its traffic cells (groups of nodes that share
no traffic, run in separate processes), and require the merged records,
per-NIC byte counters, makespan and telemetry to be bit-identical.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.fig_scale import make_plan
from repro.sim.kernel import Environment, SimulationError
from repro.sim.network import MB
from repro.sim.shard import run_network_sharded, run_network_single, traffic_cells


def _abs_plan(nodes: int, flows: int, seed: int, group_size: int = 8):
    plan = make_plan(nodes, flows, seed=seed, group_size=group_size)
    names = [f"n{i}" for i in range(nodes)]
    return (
        [(at, f"n{s}", f"n{d}", size) for at, s, d, size in plan],
        names,
    )


def _pairs_plan(pairs):
    """One 1 MB flow per ``(src, dst)`` pair, a millisecond apart."""
    return [(0.001 * i, s, d, MB) for i, (s, d) in enumerate(pairs)]


def _canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


def _assert_exact(split, single):
    assert split["records"] == single["records"]
    assert split["nic_bytes"] == single["nic_bytes"]
    assert list(split["nic_bytes"]) == list(single["nic_bytes"])
    assert split["makespan"] == single["makespan"]
    assert split["message_count"] == single["message_count"]
    assert split["flow_count"] == single["flow_count"]
    assert _canon(split["telemetry"]) == _canon(single["telemetry"])
    # Totals are summed per cell, so only the addition order differs
    # from the single run.
    assert math.isclose(
        split["total_bytes"], single["total_bytes"], rel_tol=1e-12
    )


class TestPartitionNodes:
    """``traffic_cells``: nodes split along traffic, packed into cells."""

    def test_even_split(self):
        names = [f"n{i}" for i in range(8)]
        plan = _pairs_plan([("n0", "n1"), ("n2", "n3"), ("n4", "n5"), ("n6", "n7")])
        assert traffic_cells(plan, names, 4) == [
            ["n0", "n1"], ["n2", "n3"], ["n4", "n5"], ["n6", "n7"]
        ]

    def test_remainder_goes_to_leading_shards(self):
        names = [f"n{i}" for i in range(10)]
        plan = _pairs_plan([(f"n{i}", f"n{i + 1}") for i in range(0, 10, 2)])
        cells = traffic_cells(plan, names, 4)
        assert [len(c) for c in cells] == [4, 2, 2, 2]
        assert cells[0] == ["n0", "n1", "n8", "n9"]

    def test_groups_never_straddle_shards(self):
        plan, names = _abs_plan(48, 400, 7, group_size=4)
        cells = traffic_cells(plan, names, 5)
        assert len(cells) == 5
        cell_of = {name: i for i, cell in enumerate(cells) for name in cell}
        assert sorted(cell_of) == sorted(names)
        for _at, src, dst, _size in plan:
            assert cell_of[src] == cell_of[dst]
        for cell in cells:
            assert cell == [name for name in names if name in cell]

    def test_cells_capped_at_group_count(self):
        plan, names = _abs_plan(24, 200, 3)
        assert len(traffic_cells(plan, names, 8)) == 3

    def test_heaviest_group_first(self):
        names = ["a", "b", "c", "d", "e", "f"]
        plan = _pairs_plan(
            [("a", "b"), ("c", "d"), ("c", "d"), ("c", "d"), ("e", "f"),
             ("e", "f")]
        )
        # c-d (3 flows) opens cell 0, e-f (2) cell 1, a-b (1) joins the
        # lighter cell 1.
        assert traffic_cells(plan, names, 2) == [["c", "d"], ["a", "b", "e", "f"]]

    def test_idle_nodes_open_no_cell(self):
        names = ["a", "b", "idle1", "c", "d", "idle2"]
        plan = _pairs_plan([("a", "b"), ("c", "d"), ("c", "d")])
        assert traffic_cells(plan, names, 8) == [
            ["c", "d"], ["a", "b", "idle1", "idle2"]
        ]
        assert traffic_cells([], names, 4) == [names]

    def test_one_component_is_one_cell(self):
        names = [f"n{i}" for i in range(8)]
        plan = _pairs_plan([(f"n{i}", f"n{(i + 1) % 8}") for i in range(8)])
        assert traffic_cells(plan, names, 4) == [names]

    def test_bad_arguments_raise(self):
        with pytest.raises(SimulationError):
            traffic_cells([], ["a"], 0)
        with pytest.raises(SimulationError):
            run_network_sharded([], ["a"], 0)


class TestScheduleAt:
    def test_fires_at_exact_time(self):
        env = Environment()
        fired = []
        event = env.schedule_at(1.25, value="x")
        event.callbacks.append(lambda e: fired.append((env.now, e._value)))
        env.run()
        assert fired == [(1.25, "x")]

    def test_past_time_raises(self):
        env = Environment()
        env.run(until=2.0)
        with pytest.raises(SimulationError):
            env.schedule_at(1.0)

    def test_peek_sees_scheduled_time(self):
        env = Environment()
        env.schedule_at(3.5)
        assert env.peek() == 3.5


class TestAlignedNetworkExactness:
    """The fig_scale plan's 8-node worker groups: merged records are
    bit-identical to the single-process run at every cell count."""

    @pytest.mark.parametrize("seed", [11, 29, 97])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_bit_identical_records(self, seed, shards):
        plan, names = _abs_plan(64, 300, seed)
        single = run_network_single(plan, names, telemetry=True)
        sharded = run_network_sharded(plan, names, shards, telemetry=True)
        assert sharded["cells"] == shards
        _assert_exact(sharded, single)

    def test_shards1_is_passthrough(self):
        plan, names = _abs_plan(32, 100, 11)
        direct = run_network_single(plan, names)
        via_sharded = run_network_sharded(plan, names, 1)
        assert via_sharded == direct
        assert via_sharded["cells"] == 1


class TestMisalignedPartition:
    """The layout that used to cut traffic groups — 3 shards over the
    64-node plan's eight 8-node groups — is exact: groups, not node
    ranges, are what gets dealt to shards."""

    @pytest.fixture(scope="class")
    def runs(self):
        plan, names = _abs_plan(64, 300, 11)
        return (
            plan,
            names,
            run_network_single(plan, names, telemetry=True),
            run_network_sharded(plan, names, 3, telemetry=True),
        )

    def test_no_flow_crosses_cells(self, runs):
        plan, names, _single, sharded = runs
        assert sharded["cells"] == 3
        cells = traffic_cells(plan, names, 3)
        cell_of = {name: i for i, cell in enumerate(cells) for name in cell}
        assert all(cell_of[src] == cell_of[dst] for _t, src, dst, _z in plan)

    def test_counters_and_accounting(self, runs):
        _plan, _names, single, sharded = runs
        _assert_exact(sharded, single)


@st.composite
def _grouped_plans(draw):
    """Random clusters: traffic groups (possibly one giant component),
    idle nodes, same-instant arrivals, and flows below and above the
    message threshold."""
    nodes = draw(st.integers(min_value=1, max_value=20))
    groups = draw(st.integers(min_value=1, max_value=6))
    # Label ``groups`` marks an idle node: it never sends or receives.
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=groups),
            min_size=nodes,
            max_size=nodes,
        )
    )
    names = [f"n{i}" for i in range(nodes)]
    members = [
        [name for name, label in zip(names, labels) if label == group]
        for group in range(groups)
    ]
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.001, 0.02, 0.3]),
                st.integers(min_value=0, max_value=groups - 1),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
                st.sampled_from([0.001, 0.5, 2.0, 7.5, 30.0]),
            ),
            max_size=60,
        )
    )
    plan = []
    at = 0.0
    for gap, group, a, b, size_mb in entries:
        if not members[group]:
            continue
        at += gap
        group_nodes = members[group]
        plan.append(
            (
                at,
                group_nodes[a % len(group_nodes)],
                group_nodes[b % len(group_nodes)],
                size_mb * MB,
            )
        )
    return plan, names


# A 30 MB flow used to retire on the timer of an unrelated n2->n3 flow
# in the single run (one float ulp early) but not in the split run.
_CROSS_COMPONENT_TIMER = (
    [
        (0.0, "n0", "n0", 0.001 * MB),
        (0.6, "n1", "n0", 0.5 * MB),
        (0.6, "n1", "n0", 30.0 * MB),
        (0.8999999999999999, "n2", "n3", 0.5 * MB),
    ],
    ["n0", "n1", "n2", "n3"],
)


class TestAnySplitIsExact:
    @settings(max_examples=30, deadline=None)
    @given(
        _grouped_plans(),
        st.integers(min_value=1, max_value=8),
    )
    @example(_CROSS_COMPONENT_TIMER, 2)
    def test_split_matches_single(self, grouped, shards):
        plan, names = grouped
        single = run_network_single(plan, names, telemetry=True)
        split = run_network_sharded(plan, names, shards, telemetry=True)
        assert 1 <= split["cells"] <= shards
        _assert_exact(split, single)
