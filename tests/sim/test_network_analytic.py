"""Flow progress and completion timing of the fluid network model.

The model settles each flow class only at its *own* component's
rebalance points and schedules completions at absolute times, which
makes byte trajectories independent of unrelated traffic's event
cadence — the property the shard runtime's exactness rests on.  Its
records are pinned by ``tests/test_golden_digests.py``.
"""

import math

import pytest

from repro.experiments.fig_scale import drive_network_sharded
from repro.sim.kernel import Environment
from repro.sim.network import MB, Network, NetworkConfig


def test_invalid_progress_rejected():
    """``NetworkConfig`` has no progress-mode selector."""
    with pytest.raises(TypeError):
        NetworkConfig(progress="analytic")


def test_analytic_single_flow_exact():
    env = Environment()
    net = Network(env, NetworkConfig())
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
    net = Network(env, NetworkConfig())
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


def test_replay_is_deterministic():
    """The same plan replays to identical records through the public
    drive path (the cross-commit pin lives in tests/test_golden_digests.py)."""
    out1 = drive_network_sharded(16, 80, 1, seed=5, collect_records=True)
    out2 = drive_network_sharded(16, 80, 1, seed=5, collect_records=True)
    assert out1["records"] == out2["records"]
