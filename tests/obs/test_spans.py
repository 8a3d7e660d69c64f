"""Unit tests for the span tracer, ring semantics, and decompose()."""

import json

import pytest

from repro.obs import (
    BREAKDOWN_COMPONENTS,
    NULL_SPANS,
    Span,
    SpanKind,
    SpanTracer,
    category_of,
    chrome_trace,
    decompose,
    format_span_tree,
    read_spans_jsonl,
    span_tree,
    write_spans_jsonl,
)
from repro.sim import Environment


def make_tracer(limit=1_000_000):
    return SpanTracer(Environment(), limit=limit)


class TestSpanLifecycle:
    def test_start_end_records_interval(self):
        tracer = make_tracer()
        span = tracer.start(SpanKind.FUNCTION, function="f")
        assert span.open
        tracer.env.run(until=0.5)
        tracer.end(span)
        assert span.end == 0.5
        assert tracer.all_spans() == [span]

    def test_end_is_idempotent(self):
        tracer = make_tracer()
        span = tracer.start(SpanKind.FUNCTION)
        tracer.end(span, status="ok")
        tracer.end(span, status="failed")
        assert span.status == "ok"
        assert len(tracer.all_spans()) == 1

    def test_record_retrospective(self):
        tracer = make_tracer()
        assert tracer.record(SpanKind.EXECUTE, 1.0, 2.0, function="f") is None
        span = tracer.spans[-1]
        assert span.start == 1.0 and span.end == 2.0
        assert not span.open
        assert span.kind == SpanKind.EXECUTE and span.function == "f"

    def test_event_zero_duration(self):
        tracer = make_tracer()
        tracer.env.run(until=1.5)
        assert tracer.event(SpanKind.SPILL, node="worker-0") is None
        span = tracer.spans[-1]
        assert span.duration == 0.0
        assert span.start == 1.5 and span.node == "worker-0"

    def test_parent_linkage(self):
        tracer = make_tracer()
        root = tracer.start_invocation(7, workflow="w")
        child = tracer.start(SpanKind.FUNCTION, parent=root, invocation_id=7)
        assert child.parent_id == root.span_id
        assert tracer.root_of(7) is root

    def test_context_registry(self):
        tracer = make_tracer()
        span = tracer.start(SpanKind.FUNCTION, invocation_id=1, function="f")
        tracer.set_context(1, "f", span)
        assert tracer.context_of(1, "f") is span
        tracer.clear_context(1, "f")
        assert tracer.context_of(1, "f") is None

    def test_finalize_closes_stragglers_as_open(self):
        tracer = make_tracer()
        span = tracer.start(SpanKind.FUNCTION)
        tracer.env.run(until=3.0)
        closed = tracer.finalize()
        assert closed == 1
        assert span.end == 3.0
        assert span.status == "open"

    def test_len_counts_open_and_closed(self):
        tracer = make_tracer()
        tracer.start(SpanKind.FUNCTION)
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0)
        assert len(tracer) == 2

    def test_spans_view_reads_back_equal_spans(self):
        tracer = make_tracer()
        recorded = [
            Span(
                span_id=i + 1, parent_id=None, kind=SpanKind.EXECUTE,
                start=float(i), end=i + 0.5, function=f"f{i}", attrs={"n": i},
            )
            for i in range(4)
        ]
        for span in recorded:
            tracer.record(
                span.kind, span.start, span.end, function=span.function, **span.attrs
            )
        view = tracer.spans
        assert len(view) == 4
        assert list(view) == recorded
        assert view == recorded and recorded == view
        assert view != recorded[:3]
        assert view[0] == recorded[0] and view[0] is not recorded[0]
        assert view[-1] == recorded[-1]
        assert view[1:3] == recorded[1:3]
        assert view[::-2] == recorded[::-2]
        assert view[5:] == []
        with pytest.raises(IndexError):
            view[4]

    def test_changed_copy_leaves_ring_unchanged(self):
        tracer = make_tracer()
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0, size=3)
        copy = tracer.spans[0]
        copy.status = "failed"
        copy.attrs["size"] = 4
        assert tracer.spans[0].status == "ok"
        assert tracer.spans[0].attrs == {"size": 3}

    def test_changed_ended_span_leaves_ring_unchanged(self):
        tracer = make_tracer()
        span = tracer.start(SpanKind.FUNCTION, function="f", attempt=1)
        tracer.end(span, retries=0)
        span.attrs["retries"] = 7
        span.attrs["extra"] = True
        assert tracer.spans[-1].attrs == {"attempt": 1, "retries": 0}
        root = tracer.start_invocation(1, tenant="t")
        tracer.end(root)
        root.attrs["tenant"] = "u"
        assert tracer.root_of(1).attrs == {"tenant": "t"}

    def test_ended_root_is_rebuilt_from_the_ring(self):
        tracer = make_tracer()
        root = tracer.start_invocation(7, workflow="w", tenant="t")
        tracer.env.run(until=2.0)
        tracer.end(root, status="failed")
        again = tracer.root_of(7)
        assert again == root and again is not root
        assert again.end == 2.0 and again.status == "failed"
        assert again.attrs == {"tenant": "t"}
        # Ending a rebuilt (closed) span again changes nothing.
        assert tracer.end(again, status="ok") is again
        assert tracer.spans == [root]

    def test_queries_build_only_matching_spans(self):
        tracer = make_tracer()
        root = tracer.start_invocation(1, workflow="w")
        fn = tracer.start(SpanKind.FUNCTION, parent=root, invocation_id=1)
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0, parent=fn, invocation_id=1)
        tracer.end(fn)
        tracer.end(tracer.start_invocation(2, workflow="w"))
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0, invocation_id=2)
        assert [s.kind for s in tracer.spans_of(1)] == [
            SpanKind.EXECUTE, SpanKind.FUNCTION, SpanKind.INVOCATION,
        ]
        assert tracer.spans_of(1)[-1] is root  # root 1 is still open
        assert [s.invocation_id for s in tracer.of_kind(SpanKind.EXECUTE)] == [1, 2]
        assert tracer.children_of(root.span_id) == [fn]
        assert tracer.invocation_ids() == [2]
        tracer.end(root)
        assert tracer.invocation_ids() == [2, 1]


class TestRingSemantics:
    def test_drop_oldest_keeps_tail(self):
        tracer = make_tracer(limit=3)
        for i in range(6):
            tracer.record(SpanKind.EXECUTE, float(i), float(i) + 0.5)
        kept = [s.start for s in tracer.all_spans()]
        assert kept == [3.0, 4.0, 5.0]
        assert tracer.dropped == 3

    def test_evicted_root_forgotten(self):
        tracer = make_tracer(limit=2)
        root = tracer.start_invocation(1, workflow="w")
        tracer.end(root)
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0)
        tracer.record(SpanKind.EXECUTE, 1.0, 2.0)  # evicts the root
        assert tracer.root_of(1) is None

    def test_ended_roots_survive_eviction_of_older_spans(self):
        tracer = make_tracer(limit=2)
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0)
        first = tracer.start_invocation(1)
        second = tracer.start_invocation(2)
        tracer.end(first)
        tracer.end(second)  # evicts the execute span
        tracer.record(SpanKind.EXECUTE, 1.0, 2.0)  # evicts root 1
        assert tracer.dropped == 2
        assert tracer.root_of(1) is None
        assert tracer.root_of(2) == second
        assert [s.kind for s in tracer.spans] == [
            SpanKind.INVOCATION, SpanKind.EXECUTE,
        ]
        assert tracer.spans[0] == second

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(limit=0)

    def test_clear_resets_everything(self):
        tracer = make_tracer()
        tracer.start_invocation(1)
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.root_of(1) is None
        assert tracer.spans == []

    def test_clear_then_reuse_keeps_root_positions(self):
        tracer = make_tracer(limit=2)
        for i in range(3):
            tracer.record(SpanKind.EXECUTE, float(i), i + 1.0)
        tracer.clear()
        root = tracer.start_invocation(5)
        tracer.end(root)
        assert tracer.root_of(5) == root

    def test_finalize_moves_open_spans_into_the_view(self):
        tracer = make_tracer()
        root = tracer.start_invocation(3)
        tracer.record(SpanKind.EXECUTE, 0.0, 0.5, invocation_id=3)
        tracer.env.run(until=1.0)
        assert tracer.finalize() == 1
        assert len(tracer.spans) == 2 and len(tracer) == 2
        assert tracer.spans[-1] == root
        assert tracer.root_of(3).status == "open"
        assert tracer.breakdown_of(3)["execute"] == 0.5


class TestFoldedAttrs:
    """Attrs fold into the ring's rows and read back equal, in order."""

    # What each kind's span carries, in insertion order: the start
    # attrs of an open span, then those end() adds.
    ATTRS = {
        SpanKind.INVOCATION: {"tenant": "t", "z": 1, "a": 2.5},
        SpanKind.FUNCTION: {"b": 1, "a": None, "retries": 0},
        SpanKind.EXECUTE: {"z": 3, "y": "s", "x": True},
        SpanKind.FAULT: {"fault": "crash", "attempt": 2},
    }

    def make(self):
        tracer = make_tracer()
        root = tracer.start_invocation(1, workflow="w", tenant="t", z=1)
        fn = tracer.start(
            SpanKind.FUNCTION, parent=root, invocation_id=1, function="f",
            b=1, a=None,
        )
        tracer.record(
            SpanKind.EXECUTE, 0.0, 1.0, parent=fn, invocation_id=1,
            function="f", node="n", **self.ATTRS[SpanKind.EXECUTE],
        )
        tracer.env.run(until=1.0)
        tracer.event(
            SpanKind.FAULT, parent=fn, invocation_id=1, node="n",
            **self.ATTRS[SpanKind.FAULT],
        )
        tracer.env.run(until=2.0)
        tracer.end(fn, retries=0)
        tracer.end(root, a=2.5)
        return tracer, root, fn

    def expect(self, spans):
        spans = list(spans)
        assert spans
        for span in spans:
            expected = self.ATTRS[span.kind]
            assert list(span.attrs.items()) == list(expected.items()), span

    def test_every_query_reads_attrs_back_in_order(self):
        tracer, root, fn = self.make()
        assert [s.kind for s in tracer.spans] == [
            SpanKind.EXECUTE, SpanKind.FAULT, SpanKind.FUNCTION,
            SpanKind.INVOCATION,
        ]
        self.expect(tracer.spans)
        self.expect(tracer.spans_of(1))
        self.expect(tracer.of_kind(SpanKind.EXECUTE))
        self.expect(tracer.of_kind(SpanKind.FAULT))
        self.expect(tracer.children_of(fn.span_id))
        self.expect(tracer.children_of(root.span_id))
        assert tracer.spans == [*tracer.spans_of(1)]

    def test_ended_root_tree_and_breakdown(self):
        tracer, root, fn = self.make()
        again = tracer.root_of(1)
        assert again == root and again is not root
        self.expect([again])
        tree = tracer.tree(1)
        assert [(d, s.kind) for d, s in tree] == [
            (0, SpanKind.INVOCATION), (1, SpanKind.FUNCTION),
            (2, SpanKind.EXECUTE), (2, SpanKind.FAULT),
        ]
        self.expect(span for _, span in tree)
        breakdown = tracer.breakdown_of(1)
        assert breakdown["execute"] == 1.0 and breakdown["engine"] == 1.0

    def test_exports_carry_attrs_in_order(self, tmp_path):
        tracer, _, _ = self.make()
        document = chrome_trace(tracer.all_spans())
        for event in document["traceEvents"]:
            if event["ph"] != "X":
                continue
            expected = self.ATTRS[event["cat"]]
            tail = list(event["args"].items())[-len(expected):]
            assert tail == list(expected.items())
        path = write_spans_jsonl(tmp_path / "spans.jsonl", tracer)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(line["attrs"]) for line in lines[1:]] == [
            list(s.attrs) for s in tracer.spans
        ]
        spans, meta = read_spans_jsonl(path)
        assert meta["spans"] == 4
        assert spans == list(tracer.spans)
        self.expect(spans)

    def test_eviction_drops_root_with_folded_attrs(self):
        tracer = make_tracer(limit=2)
        root = tracer.start_invocation(1, workflow="w", tenant="t", n=3)
        tracer.end(root, slo="met")
        assert tracer.root_of(1).attrs == {"tenant": "t", "n": 3, "slo": "met"}
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0, invocation_id=1, size=1.0)
        tracer.event(SpanKind.SPILL, invocation_id=1, node="n", bytes=5)
        assert 1 not in tracer._roots
        assert tracer.root_of(1) is None
        assert tracer.invocation_ids() == []
        assert tracer.dropped == 1
        assert [s.attrs for s in tracer.spans] == [{"size": 1.0}, {"bytes": 5}]

    def test_non_atom_attr_reads_back_equal(self):
        tracer = make_tracer()
        tracer.record(SpanKind.EXECUTE, 0.0, 1.0, inputs=["a", "b"], shape=(1, 2))
        tracer.end(tracer.start(SpanKind.FUNCTION, deps={"x": [1]}))
        assert tracer.spans[0].attrs == {"inputs": ["a", "b"], "shape": (1, 2)}
        assert tracer.spans[1].attrs == {"deps": {"x": [1]}}


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_SPANS.enabled is False
        span = NULL_SPANS.start(SpanKind.FUNCTION, function="f")
        assert NULL_SPANS.end(span) is span
        assert NULL_SPANS.record(SpanKind.EXECUTE, 0.0, 1.0) is None
        assert NULL_SPANS.event(SpanKind.SPILL) is None
        NULL_SPANS.start_invocation(1)
        assert NULL_SPANS.root_of(1) is None
        assert NULL_SPANS.context_of(1, "f") is None
        assert NULL_SPANS.all_spans() == []
        assert len(NULL_SPANS) == 0
        assert NULL_SPANS.finalize() == 0
        assert NULL_SPANS.spans == [] and len(NULL_SPANS.spans) == 0
        assert NULL_SPANS.children_of(1) == []
        assert NULL_SPANS.tree(1) == []
        assert NULL_SPANS.format_tree(1) == ""
        assert NULL_SPANS.breakdown_of(1) is None


def _span(kind, start, end, span_id=0, **kwargs):
    return Span(
        span_id=span_id, parent_id=None, kind=kind, start=start, end=end,
        **kwargs,
    )


class TestDecompose:
    def test_components_sum_to_window(self):
        spans = [
            _span(SpanKind.QUEUE_WAIT, 0.0, 1.0),
            _span(SpanKind.COLD_START, 0.5, 1.5),
            _span(SpanKind.EXECUTE, 1.0, 2.0),
            _span(SpanKind.PUT, 2.5, 3.0),
        ]
        parts = decompose(spans, (0.0, 4.0))
        assert sum(parts.values()) == pytest.approx(4.0, abs=1e-12)
        assert set(parts) == set(BREAKDOWN_COMPONENTS)

    def test_priority_execute_wins_overlap(self):
        spans = [
            _span(SpanKind.QUEUE_WAIT, 0.0, 2.0),
            _span(SpanKind.EXECUTE, 0.0, 2.0),
        ]
        parts = decompose(spans, (0.0, 2.0))
        assert parts["execute"] == pytest.approx(2.0)
        assert parts["queue_wait"] == 0.0

    def test_uncovered_time_is_engine(self):
        parts = decompose([_span(SpanKind.EXECUTE, 1.0, 2.0)], (0.0, 3.0))
        assert parts["engine"] == pytest.approx(2.0)
        assert parts["execute"] == pytest.approx(1.0)

    def test_empty_spans_all_engine(self):
        parts = decompose([], (0.0, 5.0))
        assert parts["engine"] == 5.0

    def test_spans_clamped_to_window(self):
        parts = decompose([_span(SpanKind.EXECUTE, -1.0, 10.0)], (0.0, 2.0))
        assert parts["execute"] == pytest.approx(2.0)
        assert sum(parts.values()) == pytest.approx(2.0)

    def test_open_span_extends_to_window_end(self):
        parts = decompose([_span(SpanKind.EXECUTE, 1.0, None)], (0.0, 3.0))
        assert parts["execute"] == pytest.approx(2.0)

    def test_excluded_kinds_ignored(self):
        spans = [
            _span(SpanKind.NET, 0.0, 2.0),
            _span(SpanKind.CONTAINER, 0.0, 2.0),
            _span(SpanKind.FUNCTION, 0.0, 2.0),
            _span(SpanKind.INVOCATION, 0.0, 2.0),
        ]
        parts = decompose(spans, (0.0, 2.0))
        assert parts["engine"] == pytest.approx(2.0)

    def test_degenerate_window(self):
        parts = decompose([_span(SpanKind.EXECUTE, 0.0, 1.0)], (1.0, 1.0))
        assert all(v == 0.0 for v in parts.values())

    def test_category_of(self):
        assert category_of(SpanKind.PUT) == "transfer"
        assert category_of(SpanKind.GET) == "transfer"
        assert category_of(SpanKind.STATE_SYNC) == "sync"
        assert category_of(SpanKind.NET) is None


class TestSpanTree:
    def test_children_under_parents(self):
        root = _span(SpanKind.INVOCATION, 0.0, 3.0, span_id=1)
        child = Span(
            span_id=2, parent_id=1, kind=SpanKind.FUNCTION, start=0.5, end=2.0
        )
        grand = Span(
            span_id=3, parent_id=2, kind=SpanKind.EXECUTE, start=1.0, end=1.5
        )
        tree = span_tree([grand, root, child])
        assert [(d, s.span_id) for d, s in tree] == [(0, 1), (1, 2), (2, 3)]

    def test_orphans_surface_at_root(self):
        orphan = Span(
            span_id=5, parent_id=99, kind=SpanKind.EXECUTE, start=0.0, end=1.0
        )
        tree = span_tree([orphan])
        assert tree == [(0, orphan)]

    def test_format_renders_status_and_node(self):
        span = _span(
            SpanKind.EXECUTE, 0.0, 1.0, function="f", node="worker-0",
            status="crashed",
        )
        text = format_span_tree([span])
        assert "execute f @worker-0 [crashed]" in text

    def test_format_marks_functions_that_ran_nothing(self):
        spans = [
            _span(SpanKind.FUNCTION, 0.0, 1.0, span_id=1, function="a"),
            _span(SpanKind.FUNCTION, 1.0, 1.0, span_id=2, function="a.done",
                  attrs={"virtual": True}),
            _span(SpanKind.FUNCTION, 1.0, 1.0, span_id=3, function="blur",
                  status="cancelled", attrs={"skipped": True}),
        ]
        lines = format_span_tree(spans).splitlines()
        assert lines[0].endswith("function a")
        assert lines[1].endswith("function a.done [virtual]")
        assert lines[2].endswith("function blur [cancelled, skipped]")
