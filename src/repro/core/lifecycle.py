"""One invocation lifecycle for every workflow system (paper §5.1).

MasterSP (§2.2-2.3), WorkerSP (§3.1, §4.2) and DataflowSP differ only
in how an invocation's functions are triggered.  From the client's side
an invocation is the same in all three: it opens, runs to completion,
to its first failure or to the execution timeout, and is recorded once.
:class:`WorkflowSystem` owns that lifecycle; an engine supplies
``_resolve(workflow)`` -> ``(deployment, version, remaining)`` (raises
``KeyError`` for an unknown workflow; ``deployment`` has ``dag`` and
``critical_exec``; ``remaining`` counts the
:meth:`InvocationContext.complete_one` calls that complete it),
``_launch(context, deployment)`` to start the entry functions, and
optionally ``_teardown(context, deployment)`` to release its own
per-invocation state after the record is closed.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..dag import WorkflowDAG, critical_path
from ..metrics import InvocationRecord, InvocationStatus, MetricsCollector
from ..obs.spans import SpanKind
from ..obs.telemetry import record_invocation_metrics
from ..sim import Cluster
from .config import EngineConfig
from .faastore import DataPolicy
from .faults import CancelCause, CancelKind, FaultInjector, ProcessRegistry
from .runtime import FunctionRuntime
from .state import InvocationID, new_invocation_id

__all__ = [
    "InvocationContext", "WorkflowSystem", "record_marker",
    "static_critical_exec",
]

# Sentinel carried by ``InvocationContext.done`` when the
# execution-timeout watchdog (not completion or failure) fired it.
_TIMED_OUT = object()


def static_critical_exec(dag: WorkflowDAG) -> float:
    """Execution time of the critical path's function nodes (§2.3).

    Edge weights are zeroed: the metric deducts only *execution* time,
    so whatever transmission/scheduling remains in the end-to-end
    latency is counted as overhead.
    """
    stripped = dag.copy()
    for edge in stripped.edges:
        edge.weight = 0.0
    return critical_path(stripped).length


def record_marker(
    spans, started_at, ended_at, workflow, invocation_id, function, node,
    skipped,
) -> None:
    """The ``FUNCTION`` span of a step marker or a non-selected switch
    arm, whose engine bookkeeping step stands in for an execution."""
    spans.record(
        SpanKind.FUNCTION, started_at, ended_at, workflow=workflow,
        invocation_id=invocation_id, function=function, node=node,
        parent=spans.root_of(invocation_id),
        **{"skipped" if skipped else "virtual": True},
    )


class InvocationContext:
    """Client-side bookkeeping for one in-flight invocation.

    ``done`` is a single kernel event: it fires on the last completion,
    on the first failure (``failed`` names the failing function) or at
    the deadline.  The invoke process checks ``failed`` first, so a
    failure beats a completion in the same timestep, and
    :meth:`complete_one` counts nothing once the invocation has failed.
    """

    __slots__ = ("record", "version", "remaining", "done", "failed")

    def __init__(self, record, version, remaining, done):
        self.record = record
        self.version = version
        self.remaining = remaining
        self.done = done
        self.failed: Optional[str] = None

    def fail(self, function: str) -> None:
        if self.failed is None:
            self.failed = function
            if not self.done.triggered:
                self.done.succeed(function)

    def complete_one(self) -> None:
        if self.failed is not None:
            return  # a late completion can't resurrect a failed invocation
        self.remaining -= 1
        if self.remaining == 0 and not self.done.triggered:
            self.done.succeed()

    def count_attempts(self, result) -> None:
        """Fold one function's execution result into the record."""
        self.record.cold_starts += result.cold_starts
        self.record.retries += result.retries

    def _deadline(self, _event) -> None:
        # Watchdog-timer callback.  Firing ``done`` with the sentinel
        # lets the invoke process wait on one event instead of an
        # any_of condition.
        if not self.done.triggered:
            self.done.succeed(_TIMED_OUT)


class WorkflowSystem:
    """A workflow system as the client sees it: one invocation lifecycle.

    Subclasses set ``mode`` (the record's mode), ``engine_label`` (the
    telemetry ``engine`` label) and ``policy_class`` (the data policy
    when none is given).
    """

    mode: str
    engine_label: str
    policy_class: type

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or EngineConfig()
        self.spans = cluster.spans
        self.telemetry = cluster.telemetry
        self.metrics = metrics if metrics is not None else MetricsCollector()
        if self.spans.enabled:
            self.metrics.spans = self.spans
        self.policy = policy or self.policy_class(cluster, self.metrics)
        self.registry = ProcessRegistry()
        self.runtime = FunctionRuntime(
            cluster, self.config, self.policy, faults=faults,
            registry=self.registry,
        )
        self._contexts: dict[InvocationID, InvocationContext] = {}
        # workflow -> telemetry tenant label (see :meth:`tenant_of`).
        self._tenants: dict[str, str] = {}
        self.node_crashes = 0
        # Serving-lifecycle gauges: current and peak concurrent
        # invocations, so soak tests can pin memory ∝ concurrency.
        self.in_flight = 0
        self.peak_in_flight = 0

    def tenant_of(self, workflow: str) -> str:
        """Telemetry tenant label for one workflow's invocations.

        ``EngineConfig.tenant`` is the system-wide default; multi-tenant
        serving harnesses may register per-workflow owners through
        :meth:`set_tenants` for per-tenant rollups.
        """
        return self._tenants.get(workflow, self.config.tenant)

    def set_tenants(self, tenants: dict[str, str]) -> None:
        self._tenants = dict(tenants)

    def context(self, invocation_id: InvocationID) -> Optional[InvocationContext]:
        return self._contexts.get(invocation_id)

    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation (client side).

        Returns the :class:`InvocationRecord` (also stored in metrics).
        Nothing of the invocation is retained once it is closed.
        """
        deployment, version, remaining = self._resolve(workflow)
        invocation_id = new_invocation_id()
        env = self.env
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=env.now,
            critical_path_exec=deployment.critical_exec,
        )
        context = InvocationContext(record, version, remaining, env.event())
        self._contexts[invocation_id] = context
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        spans = self.spans
        if spans.enabled:
            spans.start_invocation(invocation_id, workflow=workflow, mode=self.mode)
        self._launch(context, deployment)
        timeout = env.timeout(self.config.execution_timeout)
        timeout.callbacks.append(context._deadline)
        yield context.done
        # Failure first: when a failure and the last completion land in
        # the same timestep, the invocation failed.
        if context.failed is not None:
            record.status = InvocationStatus.FAILED
            record.finished_at = env.now
        elif context.done.value is _TIMED_OUT:
            record.status = InvocationStatus.TIMEOUT
            record.finished_at = record.started_at + self.config.execution_timeout
        else:
            record.finished_at = env.now
        if not timeout.processed:
            # Don't leave a live 60-second timer per finished invocation
            # in the kernel heap.
            timeout.cancel()
        if record.status != InvocationStatus.OK:
            self.registry.cancel_invocation(
                invocation_id,
                CancelCause(CancelKind.INVOCATION_ABORT, detail=record.status),
            )
        self.registry.release_invocation(invocation_id)
        self.policy.cleanup_invocation(deployment.dag, invocation_id)
        self.metrics.record_invocation(record)
        if self.telemetry.enabled:
            record_invocation_metrics(
                self.telemetry, record, self.tenant_of(workflow),
                self.engine_label,
            )
        if spans.enabled:
            root = spans.root_of(invocation_id)
            if root is not None:
                spans.end(root, status=record.status)
        del self._contexts[invocation_id]
        self.in_flight -= 1
        self._teardown(context, deployment)
        return record

    def _teardown(self, context: InvocationContext, deployment) -> None:
        """Release the engine's own per-invocation state; none here."""
