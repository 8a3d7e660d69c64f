"""Unit and property tests for metrics aggregation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    InvocationRecord,
    InvocationStatus,
    MetricsCollector,
    TransferEvent,
    percentile,
)

MB = 1024.0 * 1024.0


def record(workflow="w", inv=1, start=0.0, end=1.0, status=InvocationStatus.OK,
           critical=0.4):
    return InvocationRecord(
        workflow=workflow,
        invocation_id=inv,
        mode="worker-sp",
        started_at=start,
        finished_at=end,
        status=status,
        critical_path_exec=critical,
    )


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_p99_of_uniform(self):
        values = list(range(1, 101))
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1),
        q=st.floats(min_value=0, max_value=100),
    )
    def test_percentile_within_range(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2))
    def test_monotone_in_q(self, values):
        assert percentile(values, 10) <= percentile(values, 90)


class TestInvocationRecord:
    def test_latency_and_overhead(self):
        r = record(start=1.0, end=3.0, critical=0.5)
        assert r.latency == pytest.approx(2.0)
        assert r.scheduling_overhead == pytest.approx(1.5)

    def test_overhead_never_negative(self):
        r = record(start=0.0, end=0.3, critical=0.5)
        assert r.scheduling_overhead == 0.0


class TestCollector:
    def test_selection_by_workflow(self):
        collector = MetricsCollector()
        collector.record_invocation(record(workflow="a"))
        collector.record_invocation(record(workflow="b"))
        assert len(collector.invocations_of("a")) == 1

    def test_completed_vs_timeouts(self):
        collector = MetricsCollector()
        collector.record_invocation(record(status=InvocationStatus.OK))
        collector.record_invocation(record(status=InvocationStatus.TIMEOUT))
        assert len(collector.completed()) == 1
        assert len(collector.timeouts()) == 1

    def test_mean_latency(self):
        collector = MetricsCollector()
        collector.record_invocation(record(end=1.0))
        collector.record_invocation(record(end=3.0))
        assert collector.mean_latency() == pytest.approx(2.0)

    def test_mean_latency_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().mean_latency()

    def test_tail_latency(self):
        collector = MetricsCollector()
        for i in range(100):
            collector.record_invocation(record(inv=i, end=float(i + 1)))
        assert collector.tail_latency(q=99) == pytest.approx(99.01)

    def test_mean_scheduling_overhead_skips_timeouts(self):
        collector = MetricsCollector()
        collector.record_invocation(record(end=1.0, critical=0.4))
        collector.record_invocation(
            record(end=60.0, status=InvocationStatus.TIMEOUT)
        )
        assert collector.mean_scheduling_overhead() == pytest.approx(0.6)


class TestTransferAggregation:
    def transfer(self, inv=1, producer="p", consumer="c", size=1 * MB,
                 duration=0.5, phase="get", local=False, workflow="w"):
        return TransferEvent(
            workflow=workflow, invocation_id=inv, producer=producer,
            consumer=consumer, size=size, duration=duration, phase=phase,
            local=local,
        )

    def test_data_moved_sums_puts_and_gets(self):
        collector = MetricsCollector()
        collector.record_transfer(self.transfer(phase="put", size=2 * MB))
        collector.record_transfer(self.transfer(phase="get", size=2 * MB))
        assert collector.data_moved("w") == pytest.approx(4 * MB)

    def test_remote_data_excludes_local(self):
        collector = MetricsCollector()
        collector.record_transfer(self.transfer(local=True, size=2 * MB))
        collector.record_transfer(self.transfer(local=False, size=3 * MB))
        assert collector.remote_data_moved("w") == pytest.approx(3 * MB)

    def test_transfer_latency_per_invocation(self):
        collector = MetricsCollector()
        collector.record_transfer(self.transfer(inv=1, duration=0.5))
        collector.record_transfer(self.transfer(inv=1, duration=0.3))
        collector.record_transfer(self.transfer(inv=2, duration=1.0))
        assert collector.transfer_latency("w", 1) == pytest.approx(0.8)
        assert collector.mean_transfer_latency_per_invocation(
            "w"
        ) == pytest.approx((0.8 + 1.0) / 2)

    def test_local_fraction(self):
        collector = MetricsCollector()
        collector.record_transfer(self.transfer(local=True, size=3 * MB))
        collector.record_transfer(self.transfer(local=False, size=1 * MB))
        assert collector.local_fraction("w") == pytest.approx(0.75)

    def test_local_fraction_no_transfers(self):
        assert MetricsCollector().local_fraction("w") == 0.0

    def test_clear(self):
        collector = MetricsCollector()
        collector.record_invocation(record())
        collector.record_transfer(self.transfer())
        collector.clear()
        assert not collector.invocations
        assert not collector.transfers
        collector.record_transfer(self.transfer(inv=9))
        assert [t.invocation_id for t in collector.transfers] == [9]

    def test_transfers_view_reads_back_equal_events(self):
        collector = MetricsCollector()
        events = [
            self.transfer(inv=i, phase=phase, local=i % 2 == 0)
            for i, phase in enumerate(("put", "get", "get", "push"))
        ]
        for event in events:
            collector.record_transfer(event)
        view = collector.transfers
        assert len(view) == 4
        assert list(view) == events and view == events and events == view
        assert view[0] == events[0] and view[0] is not events[0]
        assert view[-1].phase == "push"
        assert view[1:3] == events[1:3]
        assert view != events[1:]
        assert collector.transfers_of("w", 2) == [events[2]]

    def test_changed_copy_leaves_ledger_unchanged(self):
        collector = MetricsCollector()
        collector.record_transfer(self.transfer(size=2 * MB))
        changed = dataclasses.replace(collector.transfers[0], size=0.0)
        assert changed.size == 0.0
        assert collector.transfers[0].size == 2 * MB

    def test_transfers_view_clear_keeps_invocations(self):
        collector = MetricsCollector()
        collector.record_invocation(record())
        collector.record_transfer(self.transfer())
        collector.transfers.clear()
        assert collector.transfers == []
        assert collector.data_moved("w") == 0
        assert len(collector.invocations) == 1
