"""Row-backed record stores: the view type and the GC-tracking guarantee."""

import dataclasses
import gc
from collections import deque

import pytest

from repro.metrics import MetricsCollector, TransferEvent
from repro.obs.rows import RecordView, row_fields, row_of
from repro.obs.spans import Span, SpanKind, SpanTracer
from repro.sim import Environment
from repro.sim.network import Network, NetworkConfig


class TestRowFormat:
    def test_fields_follow_declaration_order(self):
        assert row_fields(TransferEvent) == tuple(
            f.name for f in dataclasses.fields(TransferEvent)
        )
        assert row_fields(Span, omit=("attrs",))[-1] == "status"
        assert "attrs" not in row_fields(Span, omit=("attrs",))

    def test_row_of_is_an_exact_tuple(self):
        event = TransferEvent("w", 1, "p", "c", 1.0, 0.5, "get", True)
        row = row_of(TransferEvent)(event)
        assert type(row) is tuple
        assert TransferEvent(*row) == event


class TestRecordView:
    def make(self):
        rows = deque(maxlen=3)
        view = RecordView(lambda row: (*row,), rows)
        for i in range(4):
            rows.append((i, float(i), f"t{i}"))
        return view

    def test_sequence_protocol(self):
        view = self.make()
        expected = [(i, float(i), f"t{i}") for i in (1, 2, 3)]
        assert len(view) == 3
        assert list(view) == expected
        assert view[0] == expected[0] and view[-1] == expected[-1]
        assert view[1:] == expected[1:] and view[::-1] == expected[::-1]
        assert view[::2] == expected[::2]
        assert expected[1] in view
        assert view.index(expected[2]) == 2
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(IndexError):
            view[-4]

    def test_equality_against_lists_and_views(self):
        view = self.make()
        assert view == self.make()
        assert view == list(view) and list(view) == view
        assert view != list(view)[:2]
        assert view != tuple(view)
        with pytest.raises(TypeError):
            hash(view)

    def test_clear_empties_the_store(self):
        view = self.make()
        view.clear()
        assert len(view) == 0 and view == []


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_retained_records_are_not_gc_tracked():
    """40k retained records add fewer than 4k GC-tracked objects, and
    20k network transfers alongside them retain nothing."""
    count = 20_000
    env = Environment()
    spans = SpanTracer(env)
    network = Network(env, NetworkConfig(latency=0.0))
    metrics = MetricsCollector()
    src = network.attach("a", 1e9)
    dst = network.attach("b", 1e9)
    before = _tracked()

    for i in range(count):
        spans.record(
            SpanKind.EXECUTE, float(i), i + 0.5,
            workflow="w", invocation_id=i, function="f", node="n",
            size=float(i), local=True,
        )
        network.transfer(src, dst, 100.0, tag="t")
        metrics.record_transfer(
            TransferEvent("w", i, "p", "c", float(i), 0.25, "get", False)
        )
    env.run()

    assert len(spans.spans) == len(metrics.transfers) == count
    assert network.flow_count + network.message_count == count
    grown = _tracked() - before
    assert grown < 2 * count // 10, grown
