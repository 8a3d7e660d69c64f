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
from repro.sim.network import MB, Network, NetworkConfig, record_transfers
from repro.sim.shard import run_network_sharded, run_network_single


def test_invalid_progress_rejected():
    """``NetworkConfig`` has no progress-mode selector."""
    with pytest.raises(TypeError):
        NetworkConfig(progress="analytic")


def test_analytic_single_flow_exact():
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    rows = record_transfers(net)
    net.transfer(a, b, 20 * MB)
    env.run()
    ((_, _, _, started_at, finished_at, _, _),) = rows
    # 20 MB over a 10 MB/s bottleneck (propagation latency applies to
    # control messages, not bulk flows).
    assert math.isclose(finished_at - started_at, 2.0, rel_tol=1e-12)


def test_analytic_bandwidth_change_applies():
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    rows = record_transfers(net)
    net.transfer(a, b, 30 * MB)

    def tighten(_event):
        net.set_nic_bandwidth(b, 5 * MB)

    env.schedule_at(1.0).callbacks.append(tighten)
    env.run()
    ((_, _, _, started_at, finished_at, _, _),) = rows
    # 10 MB in the first second at 10 MB/s, remaining 20 MB at 5 MB/s.
    assert math.isclose(finished_at - started_at, 1.0 + 4.0, rel_tol=1e-9)


def test_replay_is_deterministic():
    """The same plan replays to identical records through the public
    drive path (the cross-commit pin lives in tests/test_golden_digests.py)."""
    out1 = drive_network_sharded(16, 80, 1, seed=5, collect_records=True)
    out2 = drive_network_sharded(16, 80, 1, seed=5, collect_records=True)
    assert out1["records"] == out2["records"]


def test_timer_retires_only_its_own_component():
    """A flow finishing on n2->n3 must not settle and retire the 30 MB
    n1->n0 flow that happens to be within its eps band at that instant:
    the 30 MB flow ends at its own finish time, with or without the
    unrelated traffic, and the split run agrees with the single run."""
    names = ["n0", "n1", "n2", "n3"]
    base = [
        (0.0, "n0", "n0", 0.001 * MB),
        (0.6, "n1", "n0", 0.5 * MB),
        (0.6, "n1", "n0", 30.0 * MB),
    ]
    unrelated = (0.8999999999999999, "n2", "n3", 0.5 * MB)

    def finish_of_big(records):
        (row,) = [r for r in records if r[2] == 30.0 * MB]
        return row[4]

    alone = run_network_single(base, names)
    single = run_network_single(base + [unrelated], names)
    split = run_network_sharded(base + [unrelated], names, 2)
    assert split["cells"] == 2
    assert finish_of_big(alone["records"]) == 0.905
    assert finish_of_big(single["records"]) == 0.905
    assert split["records"] == single["records"]
