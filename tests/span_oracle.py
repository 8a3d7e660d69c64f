"""The execution oracle, read from span trees.

Every engine records one ``function`` span per function task it runs:
the runtime's span for a real execution, and a retrospective span
marked ``virtual`` or ``skipped`` for a step marker or a non-selected
switch arm.  That makes two engine invariants checkable on any run
with a :class:`~repro.obs.SpanTracer` installed:

- exactly once: a function's execution count is its number of
  ``function`` spans with status ``ok`` (an attempt killed by a crash
  or a cancel ends ``cancelled`` and does not count);
- predecessor order: each predecessor's span ends no later than its
  successor's span starts.
"""

from repro.obs import SpanKind, SpanTracer


def install_spans(cluster) -> SpanTracer:
    """A fresh tracer on ``cluster``; install before building a system."""
    spans = SpanTracer(cluster.env)
    cluster.install_spans(spans)
    return spans


def executed_spans(spans, invocation_id) -> list:
    """The ``function`` spans of one invocation that ended ``ok``."""
    return [
        span
        for span in spans.spans_of(invocation_id)
        if span.kind == SpanKind.FUNCTION and span.status == "ok"
    ]


def execution_counts(spans, invocation_id) -> dict[str, int]:
    """How many times each function executed in one invocation."""
    counts: dict[str, int] = {}
    for span in executed_spans(spans, invocation_id):
        counts[span.function] = counts.get(span.function, 0) + 1
    return counts


def assert_exactly_once(dag, spans, invocation_id) -> None:
    assert execution_counts(spans, invocation_id) == dict.fromkeys(
        dag.node_names, 1
    )


def assert_predecessor_order(dag, spans, invocation_id) -> None:
    by_function = {
        span.function: span for span in executed_spans(spans, invocation_id)
    }
    for edge in dag.edges:
        before, after = by_function[edge.src], by_function[edge.dst]
        assert before.end <= after.start, (edge.src, edge.dst)


def assert_executed_correctly(dag, spans, invocation_id) -> None:
    """Both invariants for one invocation."""
    assert_exactly_once(dag, spans, invocation_id)
    assert_predecessor_order(dag, spans, invocation_id)
