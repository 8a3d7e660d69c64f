"""Unit and property tests for the max-min fair fluid network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import (
    KB,
    MB,
    Network,
    NetworkConfig,
    SimulationError,
    record_transfers,
)


def make_net(latency=0.0, threshold=0.0):
    env = Environment()
    net = Network(env, NetworkConfig(latency=latency, message_threshold=threshold))
    return env, net


class TestSingleTransfer:
    def test_duration_matches_bandwidth(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        done = net.transfer(a, b, 10 * MB)
        env.run(until=done)
        assert env.now == pytest.approx(1.0, rel=1e-6)

    def test_slower_nic_is_bottleneck(self):
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 10 * MB)
        done = net.transfer(a, b, 10 * MB)
        env.run(until=done)
        assert env.now == pytest.approx(1.0, rel=1e-6)

    def test_latency_added(self):
        env, net = make_net(latency=0.01)
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        done = net.transfer(a, b, 10 * MB)
        env.run(until=done)
        # tail latency after the last byte
        assert env.now == pytest.approx(1.01, rel=1e-4)

    def test_local_transfer_is_memcpy_speed(self):
        env, net = make_net(latency=0.01)
        a = net.attach("a", 10 * MB)
        done = net.transfer(a, a, 100 * MB)
        env.run(until=done)
        assert env.now < 0.1  # far faster than the NIC

    def test_zero_byte_transfer_completes(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        done = net.transfer(a, b, 0)
        env.run(until=done)
        assert done.processed

    def test_negative_size_rejected(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        with pytest.raises(SimulationError):
            net.transfer(a, b, -1)

    def test_duplicate_nic_name_rejected(self):
        _, net = make_net()
        net.attach("a", 10 * MB)
        with pytest.raises(SimulationError):
            net.attach("a", 10 * MB)


class TestFairSharing:
    def test_two_flows_share_common_destination(self):
        """Two senders into one 10 MB/s NIC each get 5 MB/s."""
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        c = net.attach("c", 10 * MB)
        d1 = net.transfer(a, c, 10 * MB)
        d2 = net.transfer(b, c, 10 * MB)
        env.run(until=env.all_of([d1, d2]))
        assert env.now == pytest.approx(2.0, rel=1e-6)

    def test_flow_speeds_up_when_competitor_finishes(self):
        """10 MB and 30 MB sharing 10 MB/s: short one done at 2 s,
        long one gets full bandwidth afterwards -> done at 4 s."""
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        c = net.attach("c", 10 * MB)
        short = net.transfer(a, c, 10 * MB)
        long = net.transfer(b, c, 30 * MB)
        env.run(until=short)
        t_short = env.now
        env.run(until=long)
        t_long = env.now
        assert t_short == pytest.approx(2.0, rel=1e-5)
        assert t_long == pytest.approx(4.0, rel=1e-5)

    def test_unrelated_flows_do_not_interfere(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        c = net.attach("c", 10 * MB)
        d = net.attach("d", 10 * MB)
        f1 = net.transfer(a, b, 10 * MB)
        f2 = net.transfer(c, d, 10 * MB)
        env.run(until=env.all_of([f1, f2]))
        assert env.now == pytest.approx(1.0, rel=1e-6)

    def test_late_arrival_slows_existing_flow(self):
        """Flow of 20 MB at 10 MB/s; at t=1 a second flow joins.
        First flow: 10 MB done + 10 MB at 5 MB/s -> finishes at t=3."""
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        c = net.attach("c", 10 * MB)
        first = net.transfer(a, c, 20 * MB)
        log = {}

        def late(env, net):
            yield env.timeout(1.0)
            second = net.transfer(b, c, 20 * MB)
            yield second
            log["second"] = env.now

        env.process(late(env, net))
        env.run(until=first)
        assert env.now == pytest.approx(3.0, rel=1e-5)
        env.run()
        # Second flow: 10 MB at 5 MB/s (t=1..3) + 10 MB at 10 MB/s -> t=4.
        assert log["second"] == pytest.approx(4.0, rel=1e-5)

    def test_egress_bottleneck(self):
        """One sender fanning out to two receivers splits its egress."""
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 100 * MB)
        c = net.attach("c", 100 * MB)
        d1 = net.transfer(a, b, 10 * MB)
        d2 = net.transfer(a, c, 10 * MB)
        env.run(until=env.all_of([d1, d2]))
        assert env.now == pytest.approx(2.0, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=0.5 * MB, max_value=50 * MB),
            min_size=1,
            max_size=6,
        )
    )
    def test_total_time_bounded_by_serialization(self, sizes):
        """N concurrent flows into one link finish no later than strictly
        serial transfers would, and no earlier than the link allows."""
        env, net = make_net()
        dst = net.attach("dst", 10 * MB)
        events = []
        for i, size in enumerate(sizes):
            src = net.attach(f"src-{i}", 100 * MB)
            events.append(net.transfer(src, dst, size))
        env.run(until=env.all_of(events))
        lower = sum(sizes) / (10 * MB)
        assert env.now == pytest.approx(lower, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=0.5 * MB, max_value=50 * MB),
            min_size=2,
            max_size=5,
        )
    )
    def test_conservation_of_bytes(self, sizes):
        env, net = make_net()
        dst = net.attach("dst", 10 * MB)
        events = []
        for i, size in enumerate(sizes):
            src = net.attach(f"src-{i}", 100 * MB)
            events.append(net.transfer(src, dst, size))
        env.run(until=env.all_of(events))
        assert net.total_bytes == pytest.approx(sum(sizes), rel=1e-9)
        assert dst.bytes_received == pytest.approx(sum(sizes), rel=1e-9)


class TestMessages:
    def test_message_cost_is_latency_dominated(self):
        env, net = make_net(latency=0.001)
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        done = net.message(a, b, 1 * KB)
        env.run(until=done)
        assert env.now == pytest.approx(0.001 + KB / (10 * MB), rel=1e-6)

    def test_messages_do_not_enter_flow_machinery(self):
        env, net = make_net(latency=0.001)
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        net.message(a, b, 1 * KB)
        assert net.active_flow_count == 0

    def test_small_transfer_takes_message_path(self):
        env = Environment()
        net = Network(env, NetworkConfig(message_threshold=64 * KB))
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        net.transfer(a, b, 10 * KB)
        assert net.active_flow_count == 0

    def test_loopback_message_is_fast(self):
        env, net = make_net(latency=0.001)
        a = net.attach("a", 10 * MB)
        done = net.message(a, a, 1 * KB)
        env.run(until=done)
        assert env.now < 0.001


class TestRecords:
    def test_transfer_recorded(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        rows = record_transfers(net)
        done = net.transfer(a, b, 5 * MB, tag="edge:f1->f2")
        env.run(until=done)
        ((src, dst, size, started_at, finished_at, kind, tag),) = rows
        assert (src, dst, size, kind) == ("a", "b", 5 * MB, "flow")
        assert tag == "edge:f1->f2"
        assert finished_at - started_at == pytest.approx(0.5, rel=1e-6)

    def test_rows_start_at_attach(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        env.run(until=net.message(a, b))
        rows = record_transfers(net)
        env.run(until=net.message(b, a, 2 * KB))
        assert [row[:3] for row in rows] == [("b", "a", 2 * KB)]
        assert net.message_count == 2

    def test_rows_agree_with_counters(self):
        """One mixed run: every counter is the sum of its rows."""
        env = Environment()
        net = Network(env, NetworkConfig(latency=0.001, message_threshold=64 * KB))
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        c = net.attach("c", 20 * MB)
        rows = record_transfers(net)
        net.transfer(a, a, 2 * MB, tag="local")
        net.transfer(a, b, 10 * KB, tag="small")
        net.message(b, c, 1 * KB, tag="message")
        net.message(c, c, 1 * KB, tag="loopback")
        for src, dst, size in ((a, b, 5 * MB), (c, b, 3 * MB), (a, c, 4 * MB)):
            net.transfer(src, dst, size, tag="flow")
        assert net.active_flow_count == 3
        env.run()
        assert net.active_flow_count == 0
        assert len(rows) == 7
        assert {row[5] for row in rows} == {"local", "message", "flow"}
        assert [row[4] for row in rows] == sorted(row[4] for row in rows)
        assert sum(row[2] for row in rows) == net.total_bytes
        assert sum(row[2] for row in rows if row[5] != "local") == net.nonlocal_bytes
        pairs = {}
        for src, dst, size, *_ in rows:
            pairs[src, dst] = pairs.get((src, dst), 0.0) + size
        for src, dst in ((x, y) for x in "abc" for y in "abc"):
            assert net.bytes_between(src, dst) == pairs.get((src, dst), 0.0)
        kinds = [row[5] for row in rows]
        assert kinds.count("message") == net.message_count == 3
        assert kinds.count("flow") == net.flow_count == 3

    def test_bytes_between(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        env.run(until=net.transfer(a, b, 3 * MB))
        env.run(until=net.transfer(a, b, 4 * MB))
        assert net.bytes_between("a", "b") == pytest.approx(7 * MB)
        assert net.bytes_between("b", "a") == 0.0

    def test_set_bandwidth_reconfigures(self):
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        b.set_bandwidth(5 * MB)
        done = net.transfer(a, b, 10 * MB)
        env.run(until=done)
        assert env.now == pytest.approx(2.0, rel=1e-6)
