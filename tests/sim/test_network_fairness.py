"""Property-style tests of max-min fairness and the incremental allocator.

Three families of invariants over randomized (fixed-seed) arrival and
departure sequences:

1. Feasibility — on every link, the granted rates sum to at most the
   link bandwidth.
2. Max-min optimality — every active flow is bottlenecked: some link on
   its route is saturated and carries no faster flow, so raising the
   flow would necessarily lower an equal-or-slower one.
3. Equivalence — incremental component-local rebalancing produces the
   exact same rates, completion records, and makespans as full
   water-filling over every flow (``NetworkConfig(incremental=False)``).
"""

import random

import pytest

from repro.sim import Environment, MB, Network, NetworkConfig
from repro.sim.network import record_transfers

_TOL = 1e-6  # rate feasibility slack, bytes/second


def _build(seed: int, incremental: bool, nodes: int = 10, flows: int = 60):
    """Deterministic random workload: staggered arrivals, mixed sizes.

    Consumes the RNG identically regardless of ``incremental`` so both
    modes see byte-exact the same plan.
    """
    rng = random.Random(seed)
    env = Environment()
    net = Network(env, NetworkConfig(incremental=incremental))
    nics = [
        net.attach(f"n{i}", rng.choice([25, 50, 100, 200]) * MB)
        for i in range(nodes)
    ]
    plan = []
    for _ in range(flows):
        gap = rng.uniform(0.0, 0.02)
        src, dst = rng.sample(range(nodes), 2)
        if rng.random() < 0.4:  # storage-node hotspot
            dst = 0
        size = rng.uniform(0.5, 24.0) * MB
        plan.append((gap, src, dst, size))

    def starter(env):
        for gap, src, dst, size in plan:
            yield env.timeout(gap)
            net.transfer(nics[src], nics[dst], size)

    env.process(starter(env))
    return env, net


def _link_loads(net: Network) -> dict:
    loads: dict = {}
    for flow in net.active_flows:
        for link in flow.links:
            loads[link] = loads.get(link, 0.0) + flow.rate
    return loads


@pytest.mark.parametrize("seed", [1, 7, 23, 91])
@pytest.mark.parametrize("incremental", [True, False])
class TestMaxMinProperties:
    def test_rates_never_exceed_link_bandwidth(self, seed, incremental):
        env, net = _build(seed, incremental)
        for probe in (0.05, 0.2, 0.5, 1.0, 2.0):
            env.run(until=probe)
            for link, load in _link_loads(net).items():
                assert load <= link.bandwidth + _TOL, (
                    f"link {link.name} oversubscribed: {load} > {link.bandwidth}"
                )

    def test_every_flow_is_bottlenecked(self, seed, incremental):
        """Max-min optimality: no flow can be raised without lowering an
        equal-or-slower flow.  Equivalently, each flow crosses a link
        that is saturated and on which it is among the fastest flows."""
        env, net = _build(seed, incremental)
        for probe in (0.1, 0.4, 0.8, 1.5):
            env.run(until=probe)
            loads = _link_loads(net)
            for flow in net.active_flows:
                rate = flow.rate
                if rate <= 0.0:
                    continue
                bottlenecked = False
                for link in flow.links:
                    saturated = loads[link] >= link.bandwidth - _TOL
                    fastest = all(
                        other.rate <= rate + _TOL
                        for other in net.active_flows
                        if link in other.links
                    )
                    if saturated and fastest:
                        bottlenecked = True
                        break
                assert bottlenecked, (
                    f"flow {flow.flow_id} at {rate} has headroom on all links"
                )


@pytest.mark.parametrize("seed", [1, 7, 23, 91, 137])
class TestIncrementalEquivalence:
    def test_records_and_makespan_bit_identical(self, seed):
        env_inc, net_inc = _build(seed, incremental=True)
        env_full, net_full = _build(seed, incremental=False)
        rec_inc = record_transfers(net_inc)
        rec_full = record_transfers(net_full)
        env_inc.run()
        env_full.run()
        assert env_inc.now == env_full.now
        assert len(rec_inc) == 60
        assert rec_inc == rec_full

    def test_mid_run_rates_bit_identical(self, seed):
        env_inc, net_inc = _build(seed, incremental=True)
        env_full, net_full = _build(seed, incremental=False)
        for probe in (0.1, 0.3, 0.7, 1.2):
            env_inc.run(until=probe)
            env_full.run(until=probe)
            rates_inc = [(f.flow_id, f.rate, f.remaining) for f in net_inc.active_flows]
            rates_full = [(f.flow_id, f.rate, f.remaining) for f in net_full.active_flows]
            assert rates_inc == rates_full


def test_aggregated_same_route_flows_share_one_class():
    """N same-route transfers collapse into one allocator class but keep
    per-flow accounting (each gets bandwidth/N)."""
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 100 * MB)
    b = net.attach("b", 100 * MB)
    rows = record_transfers(net)
    for _ in range(10):
        net.transfer(a, b, 50 * MB)
    assert net.active_flow_count == 10
    # One route class: every flow runs at exactly bandwidth / 10.
    rates = {f.rate for f in net.active_flows}
    assert rates == {100 * MB / 10}
    env.run()
    assert len(rows) == 10
    assert net.bytes_between("a", "b") == 10 * 50 * MB
