"""FaaSFlow's WorkerSP: per-worker engines with local triggering (§3.1, §4.2).

Each worker node runs a :class:`WorkerEngine` holding the *Workflow*
structures (sub-graphs) the graph scheduler assigned to it.  When a
local function finishes, the engine inspects its successors: local ones
are triggered over an in-process RPC; remote ones receive a state
message over a worker-to-worker TCP connection.  No task assignment
ever crosses the network — the master only partitions graphs and
(acting as the client) receives the final execution state from the
sink functions' workers.

Serving-throughput design: deployment compiles each ``(workflow,
version)`` sub-graph's *FunctionInfo* records into the engine's one
dispatch table for it (:class:`_FnDispatch` entries, kept beside the
structure) — dense function indices, pre-resolved successor
deliveries, and precomputed process names, tags and wire sizes — so
the per-invocation hot path does no string formatting, no placement
lookups, and no per-function state allocation: an invocation's
*State* is the two flat arrays of a :class:`CompiledInvocation`
(predecessors done, flag bytes) indexed by the entries' indices.  A
live triggered-not-executed index keeps crash collection O(in-flight)
and invocation state is retired the moment the invocation completes,
so engine memory tracks concurrency, not history.

Every state update travels through one routine,
:meth:`WorkerEngine._deliver`: one hop (an in-process RPC or a
worker-to-worker message) and one destination engine step for all the
entries the delivery carries.  Unbatched, each successor is a delivery
of one.  With ``EngineConfig.batch_control`` the updates a finished
function sends to one destination engine coalesce into a single
delivery (a documented divergence in timing, never in outcomes or
order).  ``tests/test_golden_digests.py`` pins both modes.

Control hops are not processes.  A state update, an invocation request
or a recovery replay is a :class:`_Hop`, and a sink report a
:class:`_SinkReport`: a chain of kernel callbacks (arrival, engine
step, apply) that queues exactly the events the process it replaces
did.  Trigger handlers and eager pushes stay processes
(:meth:`FaaSFlowSystem.spawn_registered`).  MasterSP's tasks share
the engine-step links (:class:`_StepChain`).

The client side (record, watchdog, outcome, close) is the lifecycle
all systems share (:class:`~.lifecycle.WorkflowSystem`); WorkerSP adds
request hops at launch, a completion per sink report, and releasing
the invocation's structures at teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from ..dag import WorkflowDAG
from ..metrics import MetricsCollector
from ..sim import Cluster, Node, Resource, SimulationError
from .config import EngineConfig
from .control import send_control
from .faastore import DataPolicy, FaaStorePolicy
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
from .state import (
    EXECUTED,
    TRIGGERED,
    CompiledInvocation,
    InvocationID,
    Placement,
    WorkflowStructure,
)

__all__ = ["WorkerEngine", "FaaSFlowSystem"]


@dataclass
class _DeployedWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float
    live_invocations: int = 0
    # Compiled at deploy time so invoke() does no DAG or placement walks:
    # one (engine, structure, (dispatch entry,), message tag) per entry
    # function, the sink count, and every engine-local structure of
    # this version.
    sources: list = field(default_factory=list)
    sink_count: int = 0
    structures: list = field(default_factory=list)


class _FnDispatch:
    """Compiled per-engine dispatch entry for one local function.

    Everything the hot path needs, resolved once at deploy time:
    dense index, trigger metadata, successor deliveries with
    pre-resolved engine references, and the trigger-handler process
    name and message tags, so no string is formatted per invocation.
    """

    __slots__ = (
        "name",
        "index",
        "info",
        "preds_count",
        "is_virtual",
        "run_name",
        "sink_tag",
        "fail_tag",
        # State-update deliveries: (remote engine or None, destination
        # structure, destination entries, message tag, wire size).
        # Resolved lazily by :meth:`_link_entry` on first propagation,
        # once every engine of the deployment has compiled its table.
        "deliveries",
        # DataflowSP eager shipping, precompiled; None for WorkerSP (and
        # for producers with nothing to ship).
        "ship_plan",
    )


class _Chain:
    """A control message run as a chain of kernel callbacks.

    Each link waits on one event (:meth:`_wait`), and its callback
    starts the next link, so a hop costs no generator, no process and
    no resume machinery.  All three engines carry their control hops
    this way (MasterSP: ``repro.core.master_engine._Task``).  The chain
    stands in for a process in the :class:`~.faults.ProcessRegistry`,
    which calls only ``is_alive`` and ``interrupt(cause)``.  An
    interrupt detaches the pending callback at once; one queue hop
    later, the instant an interrupted process would unwind,
    :meth:`_abort` detaches any link that ran in between (an entry
    link queued before the interrupt) and :meth:`_release` gives back
    what the chain holds.  A second interrupt's hop finds the chain
    dead and does nothing, like a stale wake-up of a process.
    """

    __slots__ = ("env", "is_alive", "_target", "_callback")

    def _wait(self, event, callback) -> None:
        # Each link clears or replaces both fields when it runs: the
        # stored bound method refers back to the chain, and a finished
        # chain left in that cycle would wait for the cyclic garbage
        # collector instead of being freed at once.
        self._target = event
        self._callback = callback
        event.callbacks.append(callback)

    def _detach(self) -> None:
        target = self._target
        if target is not None and self._callback in target.callbacks:
            target.callbacks.remove(self._callback)
        self._target = self._callback = None

    def interrupt(self, cause=None) -> None:
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished control hop")
        self._detach()
        self.env._schedule_resume(self._abort, False, cause)

    def _abort(self, _resume) -> None:
        if self.is_alive:
            self.is_alive = False
            self._detach()
            self._release()

    def _release(self) -> None:
        """Give back what the chain holds; a sink report holds nothing."""


class _SinkReport(_Chain):
    """A sink's execution state on its way to the client."""

    __slots__ = ("system", "workflow", "invocation_id")

    def __init__(self, system, workflow: str, invocation_id: InvocationID):
        self.env = system.env
        self.is_alive = True
        self._target = self._callback = None
        self.system = system
        self.workflow = workflow
        self.invocation_id = invocation_id

    def _land(self, _event) -> None:
        self._target = self._callback = None
        self.is_alive = False
        self.system.sink_completed(self.workflow, self.invocation_id)


class _StepChain(_Chain):
    """A chain that takes engine steps: the one lock-take/step/release
    path of all three engines.

    ``engine`` (a :class:`WorkerEngine`, or the MasterSP system) has
    ``_lock`` (None on DataflowSP), ``_step_time()``, ``events_handled``
    and ``busy_time``.  :meth:`_step` takes the lock in place when it
    is free and the grant would be the very next dispatch
    (``Resource._take``), else queues FIFO.  :meth:`_stepped` counts
    the step, releases the lock and calls the subclass's
    ``_after_step``.
    """

    __slots__ = ("engine", "_held")  # _held: None, True (taken) or request

    def __init__(self, engine) -> None:
        self.env = engine.env
        self.is_alive = True
        self._target = self._callback = self._held = None
        self.engine = engine

    def _step(self, _event=None) -> None:
        lock = self.engine._lock
        if lock is not None:
            if not lock._take():
                self._held = request = lock._queued_request()
                self._wait(request, self._granted)
                return
            self._held = True
        self._granted(None)

    def _granted(self, _event) -> None:
        self._wait(self.env.timeout(self.engine._step_time()), self._stepped)

    def _stepped(self, _event) -> None:
        self._target = self._callback = None
        engine = self.engine
        engine.events_handled += 1
        engine.busy_time += engine._step_time()
        self._release()
        self._after_step()

    def _release(self) -> None:
        held = self._held
        if held is not None:
            self._held = None
            lock = self.engine._lock
            if held is True:
                lock._put_back()
            else:
                lock.release(held)  # withdraws a request still queued


class _Hop(_StepChain):
    """State updates, tokens or an invocation request for one engine.

    :meth:`_land` runs when the message's delivery timer (or a local
    hop's RPC timer) fires; at an engine that is down it defers the
    entries for :meth:`WorkerEngine.recover`, whose replay enters at
    :meth:`_step`.  The engine step then applies every entry.
    """

    __slots__ = (
        "structure",
        "entries",
        "invocation_id",
        "kind",  # "update" or "trigger", as in WorkerEngine._defer
        "synced",  # entries counted into states_synced on arrival
    )

    def __init__(
        self,
        engine: "WorkerEngine",
        structure: WorkflowStructure,
        entries: Sequence[_FnDispatch],
        invocation_id: InvocationID,
        kind: str = "update",
        synced: int = 0,
    ):
        _StepChain.__init__(self, engine)
        self.structure = structure
        self.entries = entries
        self.invocation_id = invocation_id
        self.kind = kind
        self.synced = synced

    def _land(self, _event) -> None:
        self._target = self._callback = None
        engine = self.engine
        if self.synced:
            engine.states_synced += self.synced
        if engine.down:
            self.is_alive = False
            engine._defer(
                self.kind, self.structure, self.invocation_id, self.entries
            )
            return
        self._step()

    def _after_step(self) -> None:
        self.is_alive = False
        engine = self.engine
        structure = self.structure
        invocation_id = self.invocation_id
        if self.kind == "update":
            for entry in self.entries:
                engine._apply_state_update(structure, entry, invocation_id)
        else:
            engine._trigger_entry(structure, self.entries[0], invocation_id)


class WorkerEngine:
    """The decentralized engine on one worker node."""

    # Wire labels; DataflowSP overrides both.  The spawn-name prefix of
    # trigger handlers, and the stem of message tags and span roles
    # (``-batch`` appended for a delivery of several entries).
    _run_prefix = "worker"
    _sync_role = "state"

    def __init__(self, system: "FaaSFlowSystem", node: Node):
        self.system = system
        self.node = node
        self.env = node.env
        # The serialized engine loop: one step at a time, FIFO.
        self._lock: Optional[Resource] = Resource(self.env, capacity=1)
        # (workflow, version) -> (structure, name -> _FnDispatch): one
        # compiled dispatch table per deployed sub-graph.
        self._compiled: dict[
            tuple[str, int],
            tuple[WorkflowStructure, dict[str, _FnDispatch]],
        ] = {}
        self.states_synced = 0  # cross-worker state entries received
        self.events_handled = 0  # engine-loop steps executed
        self.busy_time = 0.0  # seconds the engine loop was occupied
        # Crash state: while down, incoming control messages are queued
        # (the senders' TCP stacks would retry the connection) and
        # replayed on recovery.
        self.down = False
        self.crash_count = 0
        self._deferred: list[tuple[str, str, int, InvocationID, str]] = []

    # -- deployment ---------------------------------------------------------
    def deploy(self, structure: WorkflowStructure) -> None:
        key = (structure.workflow, structure.version)
        self._compiled[key] = (structure, self._compile(structure))

    def _compile(
        self, structure: WorkflowStructure
    ) -> dict[str, _FnDispatch]:
        """Build the indexed dispatch table for one deployed sub-graph.

        An entry's index is its function's position in
        ``structure.local_names``, the slot of its *State* arrays.
        """
        node_name = self.node.name
        entries: dict[str, _FnDispatch] = {}
        for index, info in enumerate(structure.function_info.values()):
            name = info.name
            entry = _FnDispatch()
            entry.name = name
            entry.index = index
            entry.info = info
            entry.preds_count = info.predecessors_count
            entry.is_virtual = info.is_virtual
            entry.run_name = f"{self._run_prefix}:{node_name}:{name}"
            entry.sink_tag = f"sink:{name}"
            entry.fail_tag = f"failure:{name}"
            entry.ship_plan = None
            # Successor fan-out is linked on first propagation: the
            # destination dispatch tables may not exist yet while this
            # engine's sub-graph is being deployed.
            entry.deliveries = None
            entries[name] = entry
        return entries

    def _link_entry(
        self, structure: WorkflowStructure, entry: _FnDispatch
    ) -> None:
        """Compile one function's fan-out into its delivery tuple.

        Runs once per (deployment, function), after which propagation
        needs no dict lookups at all: each delivery carries pre-resolved
        (engine, structure, dispatch entries) refs, its wire tag and
        wire size.  Unbatched, every successor is a
        delivery of one entry, in DAG order.  Under
        ``EngineConfig.batch_control`` the successors on one destination
        coalesce into one delivery; single-successor destinations come
        first, then the batches, each in first-successor order.
        """
        key = (structure.workflow, structure.version)
        engines = self.system.engines
        node_name = self.node.name
        config = self.system.config
        plain = []
        groups: dict[str, list] = {}
        info = entry.info
        for successor in info.successors:
            target = info.successor_locations[successor]
            if target == node_name:
                remote = None
                dest_structure, dest_entries = self._compiled[key]
            else:
                remote = engines[target]
                dest_structure, dest_entries = remote._compiled[key]
            item = (remote, dest_structure, dest_entries[successor])
            plain.append([item])
            groups.setdefault(target, []).append(item)
        if config.batch_control:
            # A stable sort keeps first-successor order on both sides.
            batches = sorted(groups.values(), key=lambda items: len(items) > 1)
        else:
            batches = plain
        deliveries = []
        for items in batches:
            remote, dest_structure, _ = items[0]
            dest_entries = tuple(item[2] for item in items)
            first = dest_entries[0].name
            count = len(dest_entries)
            if count == 1:
                tag = f"{self._sync_role}:{first}"
                size = config.state_message_size
            else:
                # The bytes still move: the size scales with the batch.
                tag = f"{self._sync_role}-batch:{first}+{count - 1}"
                size = config.state_message_size * count
            deliveries.append((remote, dest_structure, dest_entries, tag, size))
        entry.deliveries = tuple(deliveries)

    def retire(self, workflow: str, version: int) -> None:
        """Red-black support: drop an out-of-date sub-graph version."""
        compiled = self._compiled.pop((workflow, version), None)
        if compiled is None:
            return
        _, entries = compiled
        for entry in entries.values():
            if not entry.is_virtual:
                self.node.containers.recycle_version(entry.name, version + 1)

    def structure(self, workflow: str, version: int) -> WorkflowStructure:
        return self._lookup(workflow, version)[0]

    def structures(self) -> list[WorkflowStructure]:
        """Every deployed sub-graph's structure, in deployment order."""
        return [structure for structure, _ in self._compiled.values()]

    def _lookup(
        self, workflow: str, version: int
    ) -> tuple[WorkflowStructure, dict[str, _FnDispatch]]:
        try:
            return self._compiled[(workflow, version)]
        except KeyError:
            raise KeyError(
                f"no sub-graph of {workflow!r} v{version} on {self.node.name}"
            ) from None

    def has_structure(self, workflow: str, version: int) -> bool:
        return (workflow, version) in self._compiled

    @property
    def deployed_count(self) -> int:
        return len(self._compiled)

    # -- engine event loop ----------------------------------------------------
    def _step_time(self) -> float:
        """Seconds one engine step occupies the engine (see :class:`_Hop`)."""
        return self.system.config.worker_process_time

    # -- state synchronization (paper Fig. 6) ---------------------------------
    def _fire(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
        inv: CompiledInvocation,
        name: str,
    ) -> None:
        """Mark a function triggered and spawn its node-bound handler."""
        inv.flags[entry.index] |= TRIGGERED
        structure.note_triggered(invocation_id, entry.index)
        self.system.spawn_registered(
            self.run_function(structure, entry, invocation_id),
            invocation_id,
            node=self.node.name,
            name=name,
        )

    def _apply_state_update(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> None:
        """One predecessor-done bookkeeping action (post engine step)."""
        inv = structure.invocation(invocation_id)
        index = entry.index
        done = inv.preds_done[index] + 1
        inv.preds_done[index] = done
        if not inv.flags[index] & TRIGGERED and done >= entry.preds_count:
            self._fire(structure, entry, invocation_id, inv, entry.run_name)

    def _trigger_entry(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> None:
        """Fire an entry function (post engine step), once."""
        inv = structure.invocation(invocation_id)
        if not inv.flags[entry.index] & TRIGGERED:
            self._fire(structure, entry, invocation_id, inv, entry.run_name)

    def _defer(
        self,
        kind: str,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entries: Sequence[_FnDispatch],
    ) -> None:
        """Queue control messages that reached this engine while down.

        ``kind`` is ``"update"`` or ``"trigger"``; :meth:`recover`
        replays each entry as a hop of its own.
        """
        for entry in entries:
            self._deferred.append(
                (
                    kind, structure.workflow, structure.version,
                    invocation_id, entry.name,
                )
            )

    # -- local execution -----------------------------------------------------
    def run_function(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> Generator:
        system = self.system
        function = entry.name
        skipped = (
            system.config.evaluate_switches
            and not entry.is_virtual
            and is_skipped(structure.dag, function, invocation_id)
        )
        produced = False
        if entry.is_virtual or skipped:
            # Virtual step markers (and non-selected switch arms) cost
            # one local bookkeeping action, no container and no data.
            triggered_at = self.env.now
            yield self.env.timeout(system.config.local_trigger_time)
            if system.spans.enabled:
                record_marker(
                    system.spans, triggered_at, self.env.now,
                    structure.workflow, invocation_id, function,
                    self.node.name, skipped,
                )
        else:
            # The runtime runs inline in this (already node-bound)
            # trigger-handler process — no separate execute process on
            # the hot path.  Interrupts land in the runtime's frames and
            # surface with identical semantics.
            try:
                result = yield from system.runtime.execute(
                    structure.dag,
                    structure.placement,
                    invocation_id,
                    function,
                    version=structure.version,
                )
            except TaskCancelled:
                return  # whoever cancelled us owns the invocation's fate
            except FunctionFailure:
                # The task exhausted its retries: report the failure to
                # the client like a sink would report success.
                yield send_control(
                    system.network, system.spans, self.node,
                    system.client_node, system.config.result_message_size,
                    entry.fail_tag, "failure-report", structure.workflow,
                    invocation_id, function,
                )
                system.invocation_failed(
                    structure.workflow, invocation_id, function
                )
                return
            if result is None:
                # The execute process was cancelled (invocation abort or
                # node crash) and exited quietly; so do we.
                return
            context = system.context(invocation_id)
            if context is not None:
                context.count_attempts(result)
            produced = True
        inv = structure.invocation(invocation_id)
        inv.flags[entry.index] |= EXECUTED
        structure.note_untriggered(invocation_id, entry.index)
        self._propagate(structure, invocation_id, entry, produced)

    def _propagate(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entry: _FnDispatch,
        produced: bool = False,
    ) -> None:
        """Fan out state updates (and sink reports) as control hops.

        Deliberately yield-free: once a function is marked ``executed``
        its notifications are committed atomically, so a node crash can
        never leave a half-propagated function.  The hops are
        registered *invocation-bound* (not node-bound): they model
        packets already handed to the TCP stack, which survive the
        sender's crash but die with the invocation.  A producer with a
        ship plan (DataflowSP) first launches its eager data pushes.
        """
        if produced and entry.ship_plan is not None:
            self._ship_outputs(structure, invocation_id, entry)
        if entry.deliveries is None:
            self._link_entry(structure, entry)
        if not entry.deliveries:
            self._report_sink(structure, invocation_id, entry)
            return
        for delivery in entry.deliveries:
            self._deliver(structure, invocation_id, delivery)

    def _report_sink(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entry: _FnDispatch,
    ) -> None:
        """A sink finished: report the execution state to the client."""
        system = self.system
        report = _SinkReport(system, structure.workflow, invocation_id)
        system.registry.register(report, invocation_id)
        report._wait(
            send_control(
                system.network, system.spans, self.node, system.client_node,
                system.config.result_message_size, entry.sink_tag,
                "sink-report", structure.workflow, invocation_id, entry.name,
            ),
            report._land,
        )

    def _deliver(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        delivery: tuple,
    ) -> None:
        """Send one state update (or one batch) to its engine as a hop.

        A local delivery is an in-process RPC hop; a remote one is a
        worker-to-worker message.  Either way the destination engine
        pays a *single* engine step for all the entries it carries.
        """
        remote, dest_structure, dest_entries, tag, size = delivery
        system = self.system
        if remote is None:
            hop = _Hop(self, dest_structure, dest_entries, invocation_id)
            arrival = self.env.timeout(system.config.local_trigger_time)
        else:
            count = len(dest_entries)
            hop = _Hop(
                remote, dest_structure, dest_entries, invocation_id,
                synced=count,
            )
            arrival = send_control(
                system.network, system.spans, self.node, remote.node, size,
                tag, self._sync_role, structure.workflow, invocation_id,
                dest_entries[0].name, count,
            )
        system.registry.register(hop, invocation_id)
        hop._wait(arrival, hop._land)

    # -- crash and recovery ---------------------------------------------------
    def fail(self) -> list[tuple[str, int, InvocationID, str]]:
        """The node crashed: mark the engine down, collect lost tasks.

        Every local function that was triggered but had not finished
        executing is reset to untriggered and returned so the system
        can re-trigger it on recovery.  (``run_function`` marks a
        function executed and spawns its notifications in one atomic
        step, so ``executed`` functions never need replay.)  The lost
        set is read straight off each structure's live
        triggered-not-executed index, so a crash costs O(in-flight
        tasks) regardless of how many invocations the engine has ever
        served.
        """
        self.down = True
        self.crash_count += 1
        pending: list[tuple[str, int, InvocationID, str]] = []
        for structure in self.structures():
            for invocation_id, function in structure.drain_live_triggered():
                pending.append(
                    (structure.workflow, structure.version, invocation_id,
                     function)
                )
        return pending

    def recover(self) -> None:
        """The node came back: replay the control backlog.

        Each deferred entry becomes a hop of its own that starts at the
        engine step (so each pays one step, like a real backlog drain
        would).  Replays are node-bound: a second crash kills them.
        """
        self.down = False
        deferred, self._deferred = self._deferred, []
        register = self.system.registry.register
        for kind, workflow, version, invocation_id, function in deferred:
            if (
                self.system.context(invocation_id) is None
                or not self.has_structure(workflow, version)
            ):
                continue  # the invocation died while we were down
            structure, entries = self._lookup(workflow, version)
            hop = _Hop(
                self, structure, (entries[function],), invocation_id, kind
            )
            register(hop, invocation_id, node=self.node.name)
            hop._step()

    def retrigger(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> bool:
        """Re-run a task the crash killed, unless it already restarted."""
        structure, entries = self._lookup(workflow, version)
        entry = entries[function]
        inv = structure.invocation(invocation_id)
        if inv.flags[entry.index] & (TRIGGERED | EXECUTED):
            return False  # a replayed control message beat us to it
        self._fire(
            structure, entry, invocation_id, inv,
            f"retrigger:{self.node.name}:{function}",
        )
        return True


class FaaSFlowSystem(WorkflowSystem):
    """The WorkerSP workflow system: graph-partitioned distributed engines."""

    mode = "worker-sp"
    # Telemetry/SLO label for record_invocation_metrics; subclasses with
    # a different triggering paradigm (DataflowSP) override both.
    engine_label = "worker-sp"
    engine_class = WorkerEngine
    policy_class = FaaStorePolicy

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(cluster, config, policy, metrics, faults)
        self.network = cluster.network
        # The master node doubles as the invoking client (paper §5.1).
        self.client_node = cluster.storage_node
        self.engines: dict[str, WorkerEngine] = {
            worker.name: self.engine_class(self, worker)
            for worker in cluster.workers
        }
        self._deployed: dict[tuple[str, int], _DeployedWorkflow] = {}
        self._current_version: dict[str, int] = {}
        self.retriggered = 0
        # node name -> tasks lost to a crash, re-triggered on recovery.
        self._crash_pending: dict[
            str, list[tuple[str, int, InvocationID, str]]
        ] = {}

    def spawn_registered(
        self,
        generator: Generator,
        invocation_id: InvocationID,
        node: str = "",
        name: str = "",
    ):
        """Spawn a process, track it for cancellation, and start it.

        ``node`` binds the process to a worker so node crashes kill it;
        processes left unbound (eager pushes) die only with their
        invocation.  Control hops are not processes: they register
        themselves (see :class:`_Hop`).

        The first segment runs right here instead of through a bootstrap
        hop, so it runs ahead of same-instant work already queued.  That
        keeps event order because every spawn site is the last action
        of a yield-free section, siblings keep their spawn order, and
        first segments mostly arm timers at future instants.
        """
        env = self.env
        process = env._new_process(generator, name)
        self.registry.register(process, invocation_id, node=node)
        env._start_now(process)
        return process

    # -- deployment ---------------------------------------------------------
    def engine(self, worker_name: str) -> WorkerEngine:
        try:
            return self.engines[worker_name]
        except KeyError:
            raise KeyError(f"no engine on {worker_name!r}") from None

    def deploy(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        quotas: Optional[dict[str, float]] = None,
        prewarm: int = 0,
        container_limits: Optional[dict[str, float]] = None,
    ) -> None:
        """Distribute sub-graphs to the worker engines (one version).

        ``quotas`` (worker name -> bytes, from the scheduler's
        reclamation pass) pins each node's FaaStore pool; omit it to
        leave the pools unchanged.  ``prewarm`` starts that many
        containers per function on its placed worker so first
        invocations skip the cold start.  Re-deploying an
        already-deployed workflow performs a red-black rollout: the new
        version becomes current immediately, old versions drain and are
        retired once their invocations finish.
        """
        dag.validate()
        placement.validate_against(dag)
        if quotas is not None:
            for worker in self.cluster.workers:
                worker.set_faastore_quota(
                    quotas.get(worker.name, 0.0), workflow=dag.name
                )
        if container_limits:
            # Fig. 10(b): the reclaimed memory physically comes out of
            # each function's own containers.
            for function, limit in container_limits.items():
                worker = self.cluster.node(placement.node_of(function))
                worker.containers.set_function_limit(function, limit)
        previous = self._current_version.get(dag.name)
        version = (previous or 0) + 1
        placement = placement.with_version(version)
        deployed = _DeployedWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )
        for worker_name, engine in self.engines.items():
            local = placement.functions_on(worker_name)
            if local:
                structure = WorkflowStructure(
                    dag, placement, local, version=version
                )
                engine.deploy(structure)
                deployed.structures.append(structure)
        if prewarm > 0:
            for node in dag.real_nodes():
                worker = self.cluster.node(placement.node_of(node.name))
                instances = max(1, int(round(node.map_factor))) * prewarm
                worker.containers.prewarm(
                    node.name, count=instances, version=version
                )
        # Pre-resolve each entry function's engine, structure, and
        # dispatch entry (every sub-graph is compiled by now), so
        # invoke() sends requests with zero lookups or string formatting.
        deployed.sources = []
        for source in dag.sources():
            engine = self.engines[placement.node_of(source)]
            structure, entries = engine._lookup(dag.name, version)
            deployed.sources.append(
                (engine, structure, (entries[source],), f"invoke:{source}")
            )
        deployed.sink_count = len(dag.sinks())
        self._deployed[(dag.name, version)] = deployed
        self._current_version[dag.name] = version
        if previous is not None:
            self._try_retire(dag.name, previous)

    def current_version(self, workflow: str) -> int:
        try:
            return self._current_version[workflow]
        except KeyError:
            raise KeyError(f"workflow {workflow!r} is not deployed") from None

    def deployed(self, workflow: str, version: Optional[int] = None):
        if version is None:
            version = self.current_version(workflow)
        return self._deployed[(workflow, version)]

    def _try_retire(self, workflow: str, version: int) -> None:
        deployed = self._deployed.get((workflow, version))
        if deployed is None or deployed.live_invocations > 0:
            return
        if version == self._current_version.get(workflow):
            return
        del self._deployed[(workflow, version)]
        for engine in self.engines.values():
            engine.retire(workflow, version)

    # -- invocation ----------------------------------------------------------
    def _resolve(self, workflow: str) -> tuple:
        version = self._current_version.get(workflow)
        if version is None:
            raise KeyError(f"workflow {workflow!r} is not deployed")
        deployed = self._deployed[(workflow, version)]
        return deployed, version, deployed.sink_count

    def _launch(
        self, context: InvocationContext, deployed: _DeployedWorkflow
    ) -> None:
        """The client ships the invocation request to each entry
        function's worker; from there everything is worker-side."""
        deployed.live_invocations += 1
        invocation_id = context.record.invocation_id
        for engine, structure, entries, tag in deployed.sources:
            self._send_invocation(invocation_id, engine, structure, entries, tag)

    def _teardown(
        self, context: InvocationContext, deployed: _DeployedWorkflow
    ) -> None:
        """Release the per-invocation *State* arrays on every engine
        that holds a sub-graph of this workflow (paper §4.2.1), so live
        engine memory is O(in-flight), not O(served)."""
        invocation_id = context.record.invocation_id
        for structure in deployed.structures:
            structure.release_invocation(invocation_id)
        deployed.live_invocations -= 1
        workflow = deployed.dag.name
        if context.version != self._current_version.get(workflow):
            self._try_retire(workflow, context.version)

    def _send_invocation(
        self,
        invocation_id: InvocationID,
        engine: WorkerEngine,
        structure: WorkflowStructure,
        entries: tuple,
        tag: str,
    ) -> None:
        """Ship the invocation request for one entry function (a hop)."""
        hop = _Hop(engine, structure, entries, invocation_id, "trigger")
        self.registry.register(hop, invocation_id)
        hop._wait(
            send_control(
                self.network, self.spans, self.client_node, engine.node,
                self.config.assign_message_size, tag, "invoke",
                structure.workflow, invocation_id, entries[0].name,
            ),
            hop._land,
        )

    def invocation_failed(
        self, workflow: str, invocation_id: InvocationID, function: str
    ) -> None:
        context = self._contexts.get(invocation_id)
        if context is not None:  # else already timed out / torn down
            context.fail(function)

    def sink_completed(self, workflow: str, invocation_id: InvocationID) -> None:
        context = self._contexts.get(invocation_id)
        if context is not None:  # else already timed out / torn down
            context.complete_one()

    # -- fault hooks (called by FaultDriver) ----------------------------------
    def on_node_crash(self, node_name: str) -> None:
        """WorkerSP recovery: engine-level re-triggering.

        The crashed node's tasks are killed with the *terminal*
        NODE_STOP cause — its engine is gone, so there is no runtime
        left to retry inside.  Instead the engine records which local
        functions were lost and re-triggers them when the node (and its
        sub-graph state) comes back.
        """
        engine = self.engines.get(node_name)
        if engine is None:
            return
        self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_STOP, detail=node_name)
        )
        pending = engine.fail()
        if pending:
            self._crash_pending.setdefault(node_name, []).extend(pending)
        self.node_crashes += 1

    def on_node_recovery(self, node_name: str) -> None:
        engine = self.engines.get(node_name)
        if engine is None:
            return
        # First drain the control messages that queued during the
        # outage (they may re-trigger some lost tasks themselves)...
        engine.recover()
        # ...then re-trigger whatever the crash killed and nothing has
        # restarted yet, for invocations that are still alive.
        retriggered = 0
        for workflow, version, invocation_id, function in self._crash_pending.pop(
            node_name, []
        ):
            if (
                invocation_id not in self._contexts
                or not engine.has_structure(workflow, version)
            ):
                continue
            if engine.retrigger(workflow, version, invocation_id, function):
                retriggered += 1
        self.retriggered += retriggered
