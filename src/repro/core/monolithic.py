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

Registration compiles the DAG to a dense function index (predecessor
count and successor indices per function), and each invocation's
*State* is the two flat arrays MasterSP uses: predecessors done and
triggered.  A closed record goes to the metrics collector and, with a
telemetry registry installed, into the ``workflow.*`` series under the
engine label ``monolithic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..metrics import InvocationRecord, MetricsCollector, TransferEvent
from ..obs.spans import SpanKind
from ..obs.telemetry import record_invocation_metrics
from ..sim import Cluster, Node
from .lifecycle import record_marker, static_critical_exec
from .state import new_invocation_id

__all__ = ["MonolithicSystem"]


@dataclass
class _RegisteredWorkflow:
    """One workflow compiled to a dense function index (DAG node order)."""

    dag: WorkflowDAG
    critical_exec: float
    names: tuple  # index -> function name
    preds_needed: tuple  # index -> predecessor count
    successors: tuple  # index -> successor indices, DAG order
    sources: tuple  # source indices, DAG order


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
        self.telemetry = cluster.telemetry
        if self.spans.enabled:
            self.metrics.spans = self.spans
        self._workflows: dict[str, _RegisteredWorkflow] = {}

    def register(self, dag: WorkflowDAG) -> None:
        dag.validate()
        names = tuple(dag.node_names)
        index = {name: position for position, name in enumerate(names)}
        self._workflows[dag.name] = _RegisteredWorkflow(
            dag=dag,
            critical_exec=static_critical_exec(dag),
            names=names,
            preds_needed=tuple(len(dag.predecessors(n)) for n in names),
            successors=tuple(
                tuple(index[s] for s in dag.successors(n)) for n in names
            ),
            sources=tuple(index[s] for s in dag.sources()),
        )

    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one monolithic invocation."""
        registered = self._workflows[workflow]
        invocation_id = new_invocation_id()
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=self.env.now,
            critical_path_exec=registered.critical_exec,
        )
        count = len(registered.names)
        all_done = self.env.event()
        triggered = bytearray(count)
        # Shared by the invocation's function processes: the two State
        # arrays (predecessors done, triggered) and a countdown of the
        # functions left to finish.
        shared = (
            registered, invocation_id, [0] * count, triggered, [count],
            all_done,
        )
        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        for source in registered.sources:
            triggered[source] = 1
            self.env.process(
                self._run_function(source, shared),
                name=f"mono:{workflow}:{registered.names[source]}",
            )
        yield all_done
        record.finished_at = self.env.now
        self.metrics.record_invocation(record)
        if self.telemetry.enabled:
            record_invocation_metrics(
                self.telemetry, record, "default", self.mode
            )
        if self.spans.enabled:
            root = self.spans.root_of(invocation_id)
            if root is not None:
                self.spans.end(root, status=record.status)
        return record

    def _run_function(self, index: int, shared: tuple) -> Generator:
        (
            registered, invocation_id, preds_done, triggered, remaining,
            all_done,
        ) = shared
        dag = registered.dag
        function = registered.names[index]
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
            now = self.env.now
            record_marker(
                spans, now, now, dag.name, invocation_id, function,
                self.host.name, False,
            )
        remaining[0] -= 1
        if remaining[0] == 0 and not all_done.triggered:
            all_done.succeed()
            return
        preds_needed = registered.preds_needed
        for successor in registered.successors[index]:
            done = preds_done[successor] + 1
            preds_done[successor] = done
            if not triggered[successor] and done >= preds_needed[successor]:
                triggered[successor] = 1
                self.env.process(
                    self._run_function(successor, shared),
                    name=f"mono:{dag.name}:{registered.names[successor]}",
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
