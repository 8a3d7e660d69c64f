"""HyperFlow-serverless: the MasterSP baseline (paper §2.2-2.3).

A single central workflow engine holds every function's state.  For
each function it (1) decides the trigger in its serialized event loop,
(2) ships a task assignment to the worker over the network, (3) waits
for the worker to execute, and (4) processes the returned execution
state — again in the serialized loop — before checking successors.

The two network hops per function and the master's serialization are
exactly the scheduling overhead WorkerSP removes; keeping them explicit
here is what lets Fig. 4 / Fig. 11 be regenerated.

Like the distributed engines (ISSUE 10), registration compiles the
workflow once into per-function dispatch entries (:class:`_MasterFn`):
dense indices, pre-resolved worker nodes, and precomputed process
names/tags.  Per-invocation state is two flat arrays local to the
invoke process — created in O(functions), freed by the invoke's own
exit — so the master's memory is O(in-flight), and the hot path does
no DAG walks, placement lookups, or string formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..dag import WorkflowDAG, critical_path
from ..metrics import (
    InvocationRecord,
    InvocationStatus,
    MetricsCollector,
)
from ..obs.spans import SpanKind
from ..obs.telemetry import record_invocation_metrics
from ..sim import Cluster, Node, Resource
from .config import EngineConfig
from .control import send_control
from .faastore import DataPolicy, RemoteStorePolicy
from .faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    ProcessRegistry,
    TaskCancelled,
)
from .runtime import FunctionRuntime
from .switching import is_skipped
from .state import (
    Placement,
    new_invocation_id,
)

__all__ = ["HyperFlowServerlessSystem"]

# Sentinel carried by an invocation's ``done`` event when the
# execution-timeout watchdog (not task completion or failure) fired it.
_TIMED_OUT = object()


class _MasterFn:
    """Compiled dispatch entry for one function of a registered workflow."""

    __slots__ = (
        "name",
        "index",
        "is_virtual",
        "worker",  # pre-resolved worker Node (None for virtual nodes)
        "preds_count",
        "spawn_name",
        "assign_tag",
        "result_tag",
        "successors",  # tuple of _MasterFn, DAG order
    )


@dataclass
class _RegisteredWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float
    # Compiled at register() time:
    fns: dict = field(default_factory=dict)  # name -> _MasterFn
    sources: tuple = ()
    total: int = 0


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


class HyperFlowServerlessSystem:
    """The MasterSP workflow system: central engine + worker executors."""

    mode = "master-sp"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        master: Optional[Node] = None,
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
        self.policy = policy or RemoteStorePolicy(cluster, self.metrics)
        self.registry = ProcessRegistry()
        self.runtime = FunctionRuntime(
            cluster, self.config, self.policy, faults=faults,
            registry=self.registry,
        )
        # The paper deploys the central engine next to the invocation
        # generator and storage; we host it on the storage node.
        self.master = master or cluster.storage_node
        self._engine_lock = Resource(self.env, capacity=1)
        self._workflows: dict[str, _RegisteredWorkflow] = {}
        # workflow -> telemetry tenant label (see :meth:`tenant_of`).
        self._tenants: dict[str, str] = {}
        self.messages_sent = 0
        self.events_handled = 0
        self.busy_time = 0.0
        self.node_crashes = 0
        # Serving-lifecycle gauges (see the soak tests): current and
        # peak concurrent invocations.
        self.in_flight = 0
        self.peak_in_flight = 0

    # -- registration -----------------------------------------------------
    def register(self, dag: WorkflowDAG, placement: Placement) -> None:
        dag.validate()
        placement.validate_against(dag)
        registered = _RegisteredWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )
        names = dag.node_names
        fns: dict[str, _MasterFn] = {}
        for index, name in enumerate(names):
            node_meta = dag.node(name)
            fn = _MasterFn()
            fn.name = name
            fn.index = index
            fn.is_virtual = node_meta.is_virtual
            fn.worker = (
                None
                if node_meta.is_virtual
                else self.cluster.node(placement.node_of(name))
            )
            fn.preds_count = len(dag.predecessors(name))
            fn.spawn_name = f"master:{dag.name}:{name}"
            fn.assign_tag = f"assign:{name}"
            fn.result_tag = f"result:{name}"
            fns[name] = fn
        for name, fn in fns.items():
            fn.successors = tuple(fns[s] for s in dag.successors(name))
        registered.fns = fns
        registered.sources = tuple(fns[s] for s in dag.sources())
        registered.total = len(names)
        self._workflows[dag.name] = registered

    def registered(self, workflow: str) -> _RegisteredWorkflow:
        try:
            return self._workflows[workflow]
        except KeyError:
            raise KeyError(f"workflow {workflow!r} is not registered") from None

    # -- invocation ---------------------------------------------------------
    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation.

        Returns the :class:`InvocationRecord` (also stored in metrics).
        Per-invocation state is two arrays owned by this process —
        nothing is retained after the record is finalized, so the
        master's live state is O(in-flight invocations).
        """
        registered = self.registered(workflow)
        invocation_id = new_invocation_id()
        env = self.env
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=env.now,
            critical_path_exec=registered.critical_exec,
        )
        preds_done = [0] * registered.total
        triggered = bytearray(registered.total)
        # done fires on the last completion *or* the first failure;
        # failure[0] records the failing error so the failure outcome
        # wins when both land in the same timestep.
        done = env.event()
        failure: list = [None]
        remaining = [registered.total]
        shared = (
            registered, invocation_id, preds_done, triggered,
            remaining, done, failure, record,
        )
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        for fn in registered.sources:
            triggered[fn.index] = 1
            # Task coordinators live on the master, not on any worker:
            # they survive worker crashes (the runtime retries under
            # them) and die only with the invocation.
            proc = env.process(self._run_task(fn, shared), name=fn.spawn_name)
            self.registry.register(proc, invocation_id)

        timeout = env.timeout(self.config.execution_timeout)

        def _deadline(_event, _done=done):
            # Watchdog callback: a pending invocation times out at the
            # deadline.  Firing ``done`` with the sentinel lets this
            # process wait on one event instead of an any_of condition.
            if not _done.triggered:
                _done.succeed(_TIMED_OUT)

        timeout.callbacks.append(_deadline)
        yield done
        # Failure first: if the last task's completion and a failure
        # land in the same timestep, the invocation failed.
        if failure[0] is not None:
            record.status = InvocationStatus.FAILED
            record.finished_at = env.now
        elif done.value is _TIMED_OUT:
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
        self.policy.cleanup_invocation(registered.dag, invocation_id)
        self.metrics.record_invocation(record)
        if self.telemetry.enabled:
            record_invocation_metrics(
                self.telemetry, record, self.tenant_of(workflow), self.mode
            )
        if self.spans.enabled:
            root = self.spans.root_of(invocation_id)
            if root is not None:
                self.spans.end(root, status=record.status)
        self.in_flight -= 1
        return record

    def tenant_of(self, workflow: str) -> str:
        """Telemetry tenant label for one workflow's invocations."""
        return self._tenants.get(workflow, self.config.tenant)

    def set_tenants(self, tenants: dict[str, str]) -> None:
        self._tenants = dict(tenants)

    # -- internals -------------------------------------------------------
    def _engine_step(self) -> Generator:
        """One serialized event-handling step of the central engine."""
        # Context-managed so an interrupt while *waiting* for the lock
        # cancels the queued request instead of leaking it.
        with self._engine_lock.request() as request:
            yield request
            yield self.env.timeout(self.config.master_process_time)
            self.events_handled += 1
            self.busy_time += self.config.master_process_time

    def _run_task(self, fn: _MasterFn, shared: tuple) -> Generator:
        (
            registered, invocation_id, preds_done, triggered,
            remaining, done, failure, record,
        ) = shared
        dag = registered.dag
        triggered_at = self.env.now
        skipped = (
            self.config.evaluate_switches
            and not fn.is_virtual
            and is_skipped(dag, fn.name, invocation_id)
        )
        # Stage 1: the master engine decides and dispatches the trigger.
        yield from self._engine_step()
        if not fn.is_virtual and not skipped:
            worker = fn.worker
            self.messages_sent += 1
            yield send_control(
                self.cluster.network, self.spans, self.master, worker,
                self.config.assign_message_size, fn.assign_tag, "assign",
                dag.name, invocation_id, fn.name,
            )
            # Stage 2: the worker executes the function task, inline in
            # this coordinator process.  The runtime node-binds the
            # coordinator for the duration of the attempt ladder —
            # MasterSP recovery happens *inside* that ladder, so a node
            # crash interrupts the attempt, which backs off and retries
            # against the worker's (offline, queueing) container pool.
            # Once execution is over the coordinator re-binds to the
            # master: it must survive worker crashes from here on.
            me = self.env.active_process
            try:
                result = yield from self.runtime.execute(
                    dag, registered.placement, invocation_id, fn.name,
                    version=registered.placement.version,
                )
            except FunctionFailure as error:
                if failure[0] is None:
                    failure[0] = error
                    if not done.triggered:
                        done.succeed()
                return
            except TaskCancelled:
                return
            finally:
                if me is not None and me.is_alive:
                    self.registry.register(me, invocation_id, node="")
            if result is None:
                return  # cancelled mid-flight; the canceller owns cleanup
            record.cold_starts += result.cold_starts
            record.retries += result.retries
            # Stage 3: the execution state returns to the master.
            self.messages_sent += 1
            yield send_control(
                self.cluster.network, self.spans, worker, self.master,
                self.config.result_message_size, fn.result_tag, "result",
                dag.name, invocation_id, fn.name,
            )
        elif self.spans.enabled:
            # A step marker or a non-selected switch arm: the master's
            # bookkeeping step stands in for the execution.
            self.spans.record(
                SpanKind.FUNCTION,
                triggered_at,
                self.env.now,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=fn.name,
                node=self.master.name,
                parent=self.spans.root_of(invocation_id),
                **{"skipped" if skipped else "virtual": True},
            )
        # Completion handling in the serialized engine loop.
        yield from self._engine_step()
        remaining[0] -= 1
        if remaining[0] == 0:
            if failure[0] is None and not done.triggered:
                done.succeed()
            return
        for successor in fn.successors:
            index = successor.index
            count = preds_done[index] + 1
            preds_done[index] = count
            if not triggered[index] and count >= successor.preds_count:
                triggered[index] = 1
                proc = self.env.process(
                    self._run_task(successor, shared),
                    name=successor.spawn_name,
                )
                self.registry.register(proc, invocation_id)

    # -- fault hooks (called by FaultDriver) ----------------------------------
    def on_node_crash(self, node_name: str) -> None:
        """MasterSP recovery: runtime-level retry.

        The master survives worker crashes, so the in-flight attempts
        are killed with the *retryable* NODE_CRASH cause; their retry
        ladders back off and re-acquire containers from the worker's
        pool, which queues requests until the node recovers.
        """
        self.node_crashes += 1
        self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_CRASH, detail=node_name)
        )

    def on_node_recovery(self, node_name: str) -> None:
        """Nothing to replay: the container pool drains its own backlog."""
