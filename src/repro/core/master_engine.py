"""HyperFlow-serverless: the MasterSP baseline (paper §2.2-2.3).

A single central workflow engine holds every function's state.  For
each function it (1) decides the trigger in its serialized event loop,
(2) ships a task assignment to the worker over the network, (3) waits
for the worker to execute, and (4) processes the returned execution
state — again in the serialized loop — before checking successors.

The two network hops per function and the master's serialization are
exactly the scheduling overhead WorkerSP removes; keeping them explicit
here is what lets Fig. 4 / Fig. 11 be regenerated.  Each triggered
function is a :class:`_Task` on the control-hop chain all three engines
share (``repro.core.worker_engine``'s ``_StepChain``); only the
execution runs as a process, as WorkerSP's ``run_function`` does.

Like the distributed engines, registration compiles the workflow once
into per-function dispatch entries (:class:`_MasterFn`): dense indices,
pre-resolved worker nodes, and precomputed process names/tags.  The
invocation lifecycle — record, watchdog, outcome, close — is the shared
one of :class:`~.lifecycle.WorkflowSystem`; MasterSP only starts the
source functions' tasks.  Those share the invocation's
:class:`~.lifecycle.InvocationContext` plus two flat arrays created in
O(functions) at launch and dropped with the tasks, so the master's
memory is O(in-flight), and the hot path does no DAG walks, placement
lookups, or string formatting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..metrics import MetricsCollector
from ..sim import Cluster, Node, Resource
from .config import EngineConfig
from .control import send_control
from .faastore import DataPolicy, RemoteStorePolicy
from .faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    TaskCancelled,
)
from .lifecycle import (
    InvocationContext, WorkflowSystem, record_marker, static_critical_exec,
)
from .switching import is_skipped
from .state import Placement
from .worker_engine import _StepChain

__all__ = ["HyperFlowServerlessSystem"]


class _MasterFn:
    """Compiled dispatch entry for one function of a registered workflow."""

    __slots__ = (
        "name",
        "index",
        "is_virtual",
        "worker",  # pre-resolved worker Node (None for virtual nodes)
        "preds_count",
        "spawn_name",  # the execution process's name
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
    sources: tuple = ()
    total: int = 0


class HyperFlowServerlessSystem(WorkflowSystem):
    """The MasterSP workflow system: central engine + worker executors."""

    mode = "master-sp"
    engine_label = "master-sp"
    policy_class = RemoteStorePolicy

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        master: Optional[Node] = None,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(cluster, config, policy, metrics, faults)
        # The paper deploys the central engine next to the invocation
        # generator and storage; we host it on the storage node.
        self.master = master or cluster.storage_node
        # The central engine's serialized event loop: one step at a time.
        self._lock = Resource(self.env, capacity=1)
        self._workflows: dict[str, _RegisteredWorkflow] = {}
        self.messages_sent = 0
        self.events_handled = 0
        self.busy_time = 0.0

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
        registered.sources = tuple(fns[s] for s in dag.sources())
        registered.total = len(names)
        self._workflows[dag.name] = registered

    # -- invocation ---------------------------------------------------------
    def _resolve(self, workflow: str) -> tuple:
        registered = self._workflows.get(workflow)
        if registered is None:
            raise KeyError(f"workflow {workflow!r} is not registered")
        return registered, registered.placement.version, registered.total

    def _launch(
        self, context: InvocationContext, registered: _RegisteredWorkflow
    ) -> None:
        """Start the source functions' tasks.

        The tasks share the context and two flat arrays (predecessors
        done, triggered) that die with them, so nothing is retained
        after the record is closed.
        """
        triggered = bytearray(registered.total)
        run = (
            registered, context.record.invocation_id, [0] * registered.total,
            triggered, context,
        )
        for fn in registered.sources:
            triggered[fn.index] = 1
            self._start(fn, run)

    def _start(self, fn: _MasterFn, run: tuple) -> None:
        """Trigger ``fn``: its task's first link runs one queue hop from
        now, where a spawned process's first segment would."""
        task = _Task(self, fn, run)
        self.env._schedule_resume(task._step, True, None)
        self.registry.register(task, run[1])

    def _step_time(self) -> float:
        return self.config.master_process_time

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


class _Task(_StepChain):
    """One function of one invocation on the central engine.

    An engine step dispatches the trigger, the assign message goes to
    the worker, the worker executes (a process started in place when
    the assign lands), the result message comes back, and a second
    engine step applies the completion.  A step marker or a
    non-selected switch arm takes the two steps and nothing between.
    The task is the function's one :class:`~.faults.ProcessRegistry`
    entry from trigger to apply, so aborts and crashes interrupt in
    trigger order.  While the execution runs, the task is bound to the
    worker and forwards interrupts to it.
    """

    # run: (registered, invocation id, preds done, triggered, context)
    __slots__ = ("fn", "run", "triggered_at", "_process", "_dispatched")

    def __init__(
        self, system: HyperFlowServerlessSystem, fn: _MasterFn, run: tuple
    ):
        _StepChain.__init__(self, system)
        self.fn = fn
        self.run = run
        self.triggered_at = system.env.now
        self._process = None
        self._dispatched = False

    def interrupt(self, cause=None) -> None:
        if self._process is None:
            _StepChain.interrupt(self, cause)
        else:
            self._process.interrupt(cause)

    def _after_step(self) -> None:
        if self._dispatched:
            self._apply()
            return
        self._dispatched = True
        system = self.engine
        fn = self.fn
        registered, invocation_id = self.run[:2]
        dag = registered.dag
        skipped = (
            system.config.evaluate_switches
            and not fn.is_virtual
            and is_skipped(dag, fn.name, invocation_id)
        )
        if not fn.is_virtual and not skipped:
            self._send(
                system.master, fn.worker, system.config.assign_message_size,
                fn.assign_tag, "assign", self._assigned,
            )
            return
        if system.spans.enabled:
            # The master's bookkeeping step stands in for the execution.
            record_marker(
                system.spans, self.triggered_at, self.env.now, dag.name,
                invocation_id, fn.name, system.master.name, skipped,
            )
        self._step()

    def _send(self, src, dst, size, tag, role, callback) -> None:
        system = self.engine
        system.messages_sent += 1
        self._wait(
            send_control(
                system.cluster.network, system.spans, src, dst, size, tag,
                role, self.run[0].dag.name, self.run[1], self.fn.name,
            ),
            callback,
        )

    def _assigned(self, _event) -> None:
        self._target = self._callback = None
        self._process = process = self.env._new_process(
            self._execute(), self.fn.spawn_name
        )
        self.env._start_now(process)

    def _execute(self) -> Generator:
        """The worker runs the function, then the result goes back.

        MasterSP recovers *inside* the runtime's attempt ladder: a node
        crash interrupts the attempt, which backs off and retries
        against the worker's (offline, queueing) container pool.
        """
        system = self.engine
        fn = self.fn
        registered, invocation_id, _, _, context = self.run
        result = None
        try:
            result = yield from system.runtime.execute(
                registered.dag, registered.placement, invocation_id, fn.name,
                version=context.version, owner=self,
            )
        except FunctionFailure:
            context.fail(fn.name)
        except TaskCancelled:
            pass
        finally:
            self._process = None
            if result is None:  # failed, or cancelled mid-flight
                self.is_alive = False
        if result is not None:
            system.registry.register(self, invocation_id)  # off the worker
            context.count_attempts(result)
            self._send(
                fn.worker, system.master, system.config.result_message_size,
                fn.result_tag, "result", self._step,
            )

    def _apply(self) -> None:
        self.is_alive = False
        _, _, preds_done, triggered, context = run = self.run
        # The last task to complete has no successors left to trigger.
        context.complete_one()
        for successor in self.fn.successors:
            index = successor.index
            count = preds_done[index] + 1
            preds_done[index] = count
            if not triggered[index] and count >= successor.preds_count:
                triggered[index] = 1
                self.engine._start(successor, run)
