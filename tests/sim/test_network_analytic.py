"""The analytic progress mode of the fluid network model.

``progress="analytic"`` settles each flow class only at its *own*
component's rebalance points and schedules completions at absolute
times, which makes byte trajectories independent of unrelated traffic's
event cadence — the property the shard runtime's exactness rests on.
``progress="stepped"`` remains the default; both modes' records are
pinned by ``tests/test_golden_digests.py``.
"""

import math

import pytest

from repro.experiments.fig_scale import drive_network
from repro.sim.kernel import Environment, SimulationError
from repro.sim.network import MB, Network, NetworkConfig


def _run(progress, nodes=16, flows=120, seed=23):
    """fig_scale's plan against a network in the given progress mode."""
    import repro.experiments.fig_scale as fig_scale

    plan = fig_scale.make_plan(nodes, flows, seed=seed)
    env = Environment()
    net = Network(env, NetworkConfig(progress=progress))
    nics = [net.attach(f"n{i}", 100 * MB) for i in range(nodes)]
    for _gap, at, src, dst, size in plan:
        event = env.schedule_at(at)
        event.callbacks.append(
            lambda _e, s=src, d=dst, z=size: net.transfer(nics[s], nics[d], z)
        )
    env.run()
    return net, env


def test_invalid_progress_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Network(env, NetworkConfig(progress="psychic"))


def test_default_is_stepped():
    assert NetworkConfig().progress == "stepped"
    env = Environment()
    assert Network(env, NetworkConfig())._analytic is False


def test_analytic_matches_stepped_closely():
    """Same plan, same flows, same sharing physics: the two modes agree
    on every record to float tolerance (they are *not* bit-identical —
    stepped accumulates advances, analytic integrates per class)."""
    stepped, _ = _run("stepped")
    analytic, _ = _run("analytic")
    assert len(stepped.records) == len(analytic.records)
    a_sorted = sorted(
        (r.src, r.dst, r.size, r.started_at, r.finished_at)
        for r in analytic.records
    )
    s_sorted = sorted(
        (r.src, r.dst, r.size, r.started_at, r.finished_at)
        for r in stepped.records
    )
    for a, s in zip(a_sorted, s_sorted):
        assert a[:3] == s[:3]
        assert math.isclose(a[3], s[3], rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(a[4], s[4], rel_tol=1e-6, abs_tol=1e-6)


def test_analytic_totals_match_stepped():
    stepped, env_s = _run("stepped")
    analytic, env_a = _run("analytic")
    assert math.isclose(
        stepped.total_bytes, analytic.total_bytes, rel_tol=1e-12
    )
    assert math.isclose(env_s.now, env_a.now, rel_tol=1e-6)


def test_analytic_single_flow_exact():
    env = Environment()
    net = Network(env, NetworkConfig(progress="analytic"))
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    net.transfer(a, b, 20 * MB)
    env.run()
    (record,) = net.records
    # 20 MB over a 10 MB/s bottleneck (propagation latency applies to
    # control messages, not bulk flows).
    assert math.isclose(
        record.finished_at - record.started_at, 2.0, rel_tol=1e-12
    )


def test_analytic_bandwidth_change_applies():
    env = Environment()
    net = Network(env, NetworkConfig(progress="analytic"))
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    net.transfer(a, b, 30 * MB)

    def tighten(_event):
        net.set_nic_bandwidth(b, 5 * MB)

    env.schedule_at(1.0).callbacks.append(tighten)
    env.run()
    (record,) = net.records
    # 10 MB in the first second at 10 MB/s, remaining 20 MB at 5 MB/s.
    assert math.isclose(
        record.finished_at - record.started_at, 1.0 + 4.0, rel_tol=1e-9
    )


def test_remote_nic_accounting():
    env = Environment()
    net = Network(env, NetworkConfig(progress="analytic"))
    a = net.attach("a", 10 * MB)
    proxy = net.attach_remote("far", 10 * MB)
    assert proxy.remote is True
    net.transfer(a, proxy, 5 * MB)
    env.run()
    # Completions against a remote proxy are exported for barrier
    # delivery instead of (only) being accounted locally.
    assert len(net.cross_outbox) == 1
    assert net.cross_outbox[0].dst == "far"


def test_stepped_mode_unchanged_by_refactor():
    """Stepped mode replays identically through the public drive path
    (the cross-commit pin lives in tests/test_golden_digests.py)."""
    out1 = drive_network(16, 80, seed=5, collect_records=True)
    out2 = drive_network(16, 80, seed=5, collect_records=True)
    assert out1["records"] == out2["records"]
