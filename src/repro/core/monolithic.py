"""Monolithic deployment baseline (paper §2.4, Fig. 5).

All functions of the application run in one process on one server and
call each other directly: intermediate data is written to process
memory once and read by direct reference — no database, no network.
This is the baseline Fig. 5 compares the data-shipping FaaS deployment
against.

The DAG still executes with its real parallelism (bounded by the node's
cores), so the monolithic end-to-end latency is meaningful too; what
the experiment reports is the *data movement*: one local write per
producer output, nothing else.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..metrics import (
    InvocationRecord,
    InvocationStatus,
    MetricsCollector,
    TransferEvent,
)
from ..obs.spans import SpanKind
from ..sim import Cluster, Node
from .lifecycle import static_critical_exec
from .state import InvocationState, new_invocation_id

__all__ = ["MonolithicSystem"]


class MonolithicSystem:
    """Runs a workflow as a single multi-threaded process on one node."""

    mode = "monolithic"

    def __init__(
        self,
        cluster: Cluster,
        metrics: Optional[MetricsCollector] = None,
        host: Optional[Node] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.host = host or cluster.workers[0]
        self.spans = cluster.spans
        if self.spans.enabled:
            self.metrics.spans = self.spans
        # name -> (dag, its static_critical_exec)
        self._workflows: dict[str, tuple[WorkflowDAG, float]] = {}

    def register(self, dag: WorkflowDAG) -> None:
        dag.validate()
        self._workflows[dag.name] = (dag, static_critical_exec(dag))

    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one monolithic invocation."""
        dag, critical_exec = self._workflows[workflow]
        invocation_id = new_invocation_id()
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=self.env.now,
            critical_path_exec=critical_exec,
        )
        state = InvocationState(invocation_id)
        all_done = self.env.event()
        remaining = {"count": len(dag.node_names)}
        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        for source in dag.sources():
            state.state_of(source).triggered = True
            self.env.process(
                self._run_function(dag, invocation_id, source, state, remaining, all_done),
                name=f"mono:{workflow}:{source}",
            )
        yield all_done
        record.finished_at = self.env.now
        self.metrics.record_invocation(record)
        if self.spans.enabled:
            root = self.spans.root_of(invocation_id)
            if root is not None:
                self.spans.end(root, status=record.status)
        return record

    def _run_function(
        self, dag, invocation_id, function, state, remaining, all_done
    ) -> Generator:
        node_meta = dag.node(function)
        spans = self.spans
        if not node_meta.is_virtual:
            instances = max(1, int(round(node_meta.map_factor)))
            fn_span = None
            if spans.enabled:
                fn_span = spans.start(
                    SpanKind.FUNCTION,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=self.host.name,
                    parent=spans.root_of(invocation_id),
                    instances=instances,
                )
                spans.set_context(invocation_id, function, fn_span)
            workers = [
                self.env.process(
                    self._run_thread(
                        dag.name, invocation_id, function,
                        node_meta.service_time, i,
                    ),
                    name=f"mono-thread:{function}#{i}",
                )
                for i in range(instances)
            ]
            yield self.env.all_of(workers)
            if node_meta.output_size > 0 and dag.data_consumers(function):
                # Direct inter-call: consumed intermediate data is
                # materialized in process memory exactly once; terminal
                # outputs go straight to the user and are not
                # inter-function movement.
                rate = self.cluster.network.config.local_copy_rate
                duration = node_meta.output_size / rate
                yield self.env.timeout(duration)
                self.metrics.record_transfer(
                    TransferEvent(
                        workflow=dag.name,
                        invocation_id=invocation_id,
                        producer=function,
                        consumer="",
                        size=node_meta.output_size,
                        duration=duration,
                        phase="put",
                        local=True,
                    )
                )
                if spans.enabled:
                    spans.record(
                        SpanKind.PUT,
                        self.env.now - duration,
                        self.env.now,
                        workflow=dag.name,
                        invocation_id=invocation_id,
                        function=function,
                        node=self.host.name,
                        parent=fn_span,
                        producer=function,
                        size=node_meta.output_size,
                        local=True,
                    )
            if fn_span is not None:
                spans.end(fn_span)
                spans.clear_context(invocation_id, function)
        elif spans.enabled:
            # A step marker is a direct call: it takes no time.
            spans.event(
                SpanKind.FUNCTION,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=function,
                node=self.host.name,
                parent=spans.root_of(invocation_id),
                virtual=True,
            )
        state.state_of(function).executed = True
        remaining["count"] -= 1
        if remaining["count"] == 0 and not all_done.triggered:
            all_done.succeed()
            return
        for successor in dag.successors(function):
            successor_state = state.state_of(successor)
            successor_state.mark_predecessor_done()
            if successor_state.ready(len(dag.predecessors(successor))):
                successor_state.triggered = True
                self.env.process(
                    self._run_function(
                        dag, invocation_id, successor, state, remaining, all_done
                    ),
                    name=f"mono:{dag.name}:{successor}",
                )

    def _run_thread(
        self,
        workflow: str,
        invocation_id: str,
        function: str,
        service_time: float,
        index: int,
    ) -> Generator:
        spans = self.spans
        wait_start = self.env.now
        request = self.host.cpu.request(1)
        yield request
        if spans.enabled and self.env.now - wait_start > 1e-12:
            spans.record(
                SpanKind.QUEUE_WAIT,
                wait_start,
                self.env.now,
                workflow=workflow,
                invocation_id=invocation_id,
                function=function,
                node=self.host.name,
                parent=spans.context_of(invocation_id, function),
                resource="cpu",
                instance=index,
            )
        exec_start = self.env.now
        try:
            yield self.env.timeout(service_time)
        finally:
            self.host.cpu.release(request)
            if spans.enabled:
                spans.record(
                    SpanKind.EXECUTE,
                    exec_start,
                    self.env.now,
                    workflow=workflow,
                    invocation_id=invocation_id,
                    function=function,
                    node=self.host.name,
                    parent=spans.context_of(invocation_id, function),
                    instance=index,
                )
