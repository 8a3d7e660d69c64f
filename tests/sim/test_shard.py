"""Conservative shard runtime: protocol, partitioning, and exactness.

The network exactness tests drive the same absolute-time transfer plan
through one environment and through S shard environments under
the barrier protocol, and require the merged records to be
bit-identical.  The relay tests exercise the reactive path — messages
crossing shards mid-run through conservative windows — and pin hop
timestamps against a single-environment reference.
"""

import math

import pytest

from repro.experiments.fig_scale import make_plan
from repro.sim.kernel import Environment, SimulationError
from repro.sim.network import MB
from repro.sim.shard import (
    DEFAULT_LOOKAHEAD,
    ShardAPI,
    ShardCoordinator,
    partition_nodes,
    run_network_single,
    run_network_sharded,
)

INF = float("inf")


def _abs_plan(nodes: int, flows: int, seed: int):
    plan = make_plan(nodes, flows, seed=seed)
    names = [f"n{i}" for i in range(nodes)]
    return (
        [(at, f"n{s}", f"n{d}", size) for at, s, d, size in plan],
        names,
    )


class TestPartitionNodes:
    def test_even_split(self):
        parts = partition_nodes([f"n{i}" for i in range(8)], 4)
        assert parts == [
            ["n0", "n1"], ["n2", "n3"], ["n4", "n5"], ["n6", "n7"]
        ]

    def test_remainder_goes_to_leading_shards(self):
        parts = partition_nodes([f"n{i}" for i in range(10)], 4)
        assert [len(p) for p in parts] == [3, 3, 2, 2]

    def test_groups_never_straddle_shards(self):
        names = [f"n{i}" for i in range(48)]
        parts = partition_nodes(names, 5, group_size=4)
        for part in parts:
            assert len(part) % 4 == 0
        # Order and membership preserved.
        assert [n for p in parts for n in p] == names

    def test_too_many_shards_raises(self):
        with pytest.raises(SimulationError):
            partition_nodes(["a", "b", "c"], 2, group_size=3)

    def test_bad_arguments_raise(self):
        with pytest.raises(SimulationError):
            partition_nodes(["a"], 0)
        with pytest.raises(SimulationError):
            partition_nodes(["a"], 1, group_size=0)


class TestShardAPI:
    def test_default_timestamp_is_lookahead_away(self):
        env = Environment()
        api = ShardAPI(env, 0, 0.5)
        api.send(1, "hello")
        assert api._outbox == [(1, 0.5, "hello")]

    def test_lookahead_violation_raises(self):
        env = Environment()
        api = ShardAPI(env, 0, 0.5)
        with pytest.raises(SimulationError):
            api.send(1, "too soon", ts=0.4)

    def test_explicit_legal_timestamp(self):
        env = Environment()
        api = ShardAPI(env, 0, 0.5)
        api.send(1, "later", ts=2.0)
        assert api._outbox == [(1, 2.0, "later")]


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


class TestCoordinatorValidation:
    def test_no_programs_raises(self):
        with pytest.raises(SimulationError):
            ShardCoordinator([])

    def test_nonpositive_lookahead_raises(self):
        with pytest.raises(SimulationError):
            ShardCoordinator([(lambda e, a, p: None, {})], lookahead=0.0)


class TestAlignedNetworkExactness:
    """Partition aligned on traffic-group boundaries: zero cross-shard
    flows, merged records bit-identical to the single-process run."""

    @pytest.mark.parametrize("seed", [11, 29, 97])
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_bit_identical_records(self, seed, shards):
        plan, names = _abs_plan(64, 300, seed)
        single = run_network_single(plan, names)
        sharded = run_network_sharded(
            plan, names, shards, group_size=8, processes=False, strict=True
        )
        assert sharded["records"] == single["records"]
        assert sharded["cross_flows"] == 0
        assert sharded["nic_bytes"] == single["nic_bytes"]
        assert sharded["makespan"] == single["makespan"]
        # Totals are summed per shard, so only the addition order
        # differs from the single run.
        assert math.isclose(
            sharded["total_bytes"], single["total_bytes"], rel_tol=1e-12
        )
        # The whole plan is known up front (causally closed): the
        # coordinator grants one drain-to-completion window.
        assert sharded["rounds"] == 1

    def test_process_backend_matches_inproc(self):
        plan, names = _abs_plan(64, 300, 11)
        single = run_network_single(plan, names)
        sharded = run_network_sharded(
            plan, names, 4, group_size=8, processes=True, strict=True
        )
        assert sharded["records"] == single["records"]
        assert sharded["backend"] in ("process", "inproc")

    def test_shards1_is_passthrough(self):
        plan, names = _abs_plan(32, 100, 11)
        direct = run_network_single(plan, names)
        via_sharded = run_network_sharded(plan, names, 1)
        assert via_sharded["records"] == direct["records"]
        assert via_sharded["backend"] == "single"
        assert via_sharded["rounds"] == 0


class TestMisalignedPartition:
    """Partition that splits traffic groups: cross-shard flows are
    simulated source-side (documented divergence), the merge reports the
    risk counters, and strict mode refuses the layout."""

    def _run(self, **kwargs):
        plan, names = _abs_plan(64, 300, 11)
        # group_size=1 lets the partitioner cut inside the 8-node
        # traffic groups; 3 shards over 64 nodes guarantees a cut.
        return plan, names, run_network_sharded(
            plan, names, 3, group_size=1, processes=False, **kwargs
        )

    def test_strict_refuses_cross_flows(self):
        plan, names = _abs_plan(64, 300, 11)
        with pytest.raises(SimulationError):
            run_network_sharded(
                plan, names, 3, group_size=1, processes=False, strict=True
            )

    def test_counters_and_accounting(self):
        plan, names, sharded = self._run()
        single = run_network_single(plan, names)
        assert sharded["cross_flows"] > 0
        assert sharded["remote_ingests"] == sharded["cross_flows"]
        assert sharded["divergence_risk"] >= 0
        assert len(sharded["records"]) == len(single["records"])
        # Accounting stays complete: every byte of every flow lands on
        # its destination NIC (via barrier ingest for cross flows), even
        # though contention-coupled timings may diverge.
        for name in names:
            assert math.isclose(
                sharded["nic_bytes"][name][1],
                single["nic_bytes"][name][1],
                rel_tol=1e-9,
                abs_tol=1.0,
            )
        assert math.isclose(
            sharded["total_bytes"], single["total_bytes"], rel_tol=1e-9
        )


class _RelayProgram:
    """Passes a token around the shards, one conservative hop at a time."""

    may_send = True

    def __init__(self, env, api, payload):
        self.env = env
        self.api = api
        self.shard_id = payload["shard_id"]
        self.shards = payload["shards"]
        self.hops = payload["hops"]
        self.log = []
        if self.shard_id == 0:
            event = env.schedule_at(payload["start"])
            event.callbacks.append(lambda _e: self._hop(0))

    def _hop(self, count):
        self.log.append((count, self.env.now))
        if count + 1 < self.hops:
            self.api.send((self.shard_id + 1) % self.shards, count + 1)

    def on_message(self, payload, ts):
        event = self.env.schedule_at(ts)
        event.callbacks.append(lambda _e, count=payload: self._hop(count))

    def result(self):
        return self.log


def _relay_factory(env, api, payload):
    return _RelayProgram(env, api, payload)


class TestReactiveRelay:
    """Messages generated mid-run cross shards without ever arriving in
    a receiver's past, and hop timestamps are bit-exact."""

    @pytest.mark.parametrize("processes", [False, True])
    def test_hop_times_match_single_env(self, processes):
        shards, hops, start, look = 3, 7, 0.1, DEFAULT_LOOKAHEAD
        outcome = ShardCoordinator(
            [
                (
                    _relay_factory,
                    {
                        "shard_id": i,
                        "shards": shards,
                        "hops": hops,
                        "start": start,
                    },
                )
                for i in range(shards)
            ],
            lookahead=look,
            processes=processes,
        ).run()
        merged = sorted(
            entry for log in outcome["results"] for entry in log
        )

        # Single-environment reference: the same chain of
        # now + lookahead accumulations in one event queue.
        env = Environment()
        reference = []

        def hop(count):
            reference.append((count, env.now))
            if count + 1 < hops:
                event = env.schedule_at(env.now + look)
                event.callbacks.append(lambda _e, c=count + 1: hop(c))

        first = env.schedule_at(start)
        first.callbacks.append(lambda _e: hop(0))
        env.run()

        assert merged == sorted(reference)
        assert outcome["messages"] == hops - 1

    def test_monotone_delivery(self):
        """Every hop lands strictly later than the previous one."""
        outcome = ShardCoordinator(
            [
                (
                    _relay_factory,
                    {"shard_id": i, "shards": 2, "hops": 5, "start": 0.0},
                )
                for i in range(2)
            ],
            processes=False,
        ).run()
        merged = sorted(
            entry for log in outcome["results"] for entry in log
        )
        times = [ts for _count, ts in merged]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))
