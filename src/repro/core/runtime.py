"""Function task execution on a worker node.

Both schedule patterns run function tasks the same way (what differs is
*who triggers them and how state moves*): acquire a container (cold
start if no warm one), fetch the predecessors' outputs through the
storage policy, execute on a CPU core for the service time, store the
output, release the container.

A foreach node executes as ``map_factor`` parallel instances
(auto-scaling in the data plane, paper §4.1.2): each instance gets its
own container, fetches its share of the input chunks, and writes one
output chunk.  The runtime reports the instance count so the graph
scheduler's feedback metrics (``Scale``/``Map``) can be updated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..obs.spans import SpanKind
from ..sim import Cluster, ContainerState, Node
from ..sim.kernel import Interrupt
from .config import EngineConfig
from .faastore import DataPolicy
from .faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    ProcessRegistry,
    RetryPolicy,
    TaskCancelled,
    cause_of_interrupt,
)
from .state import InvocationID, Placement

__all__ = ["FunctionRuntime", "ExecutionResult"]


def _consume_failure(event) -> None:
    """Sink callback for a deliberately abandoned instance process."""


@dataclass
class ExecutionResult:
    """What one function task's execution looked like."""

    function: str
    instances: int = 1
    cold_starts: int = 0
    retries: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class FunctionRuntime:
    """Executes function tasks on simulated worker nodes."""

    def __init__(
        self,
        cluster: Cluster,
        config: EngineConfig,
        policy: DataPolicy,
        faults: Optional[FaultInjector] = None,
        registry: Optional[ProcessRegistry] = None,
    ):
        self.cluster = cluster
        self.config = config
        self.policy = policy
        self.faults = faults
        self.registry = registry
        self.retry_policy = RetryPolicy.from_config(config)
        self.env = cluster.env
        self.spans = cluster.spans
        self.telemetry = cluster.telemetry
        self._jitter_rng = (
            random.Random(config.jitter_seed)
            if config.service_time_jitter > 0
            else None
        )

    def _service_time(self, nominal: float) -> float:
        """Apply the configured execution-time variance."""
        if self._jitter_rng is None or nominal <= 0:
            return nominal
        sigma = self.config.service_time_jitter
        return nominal * self._jitter_rng.lognormvariate(
            -0.5 * sigma * sigma, sigma
        )

    def execute(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        version: int = 1,
        owner=None,
    ) -> Generator:
        """Simulation process: run ``function`` once; returns a result.

        A single-instance attempt ladder node-binds ``owner``, the
        registry entry standing for the execution (MasterSP's task).
        """
        node_meta = dag.node(function)
        if node_meta.is_virtual:
            raise ValueError(f"virtual node {function!r} cannot execute")
        worker = self.cluster.node(placement.node_of(function))
        instances = max(1, int(round(node_meta.map_factor)))
        result = ExecutionResult(
            function=function, instances=instances, started_at=self.env.now
        )
        spans = self.spans
        fn_span = None
        if spans.enabled:
            fn_span = spans.start(
                SpanKind.FUNCTION,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=function,
                node=worker.name,
                parent=spans.root_of(invocation_id),
                instances=instances,
            )
            spans.set_context(invocation_id, function, fn_span)
        inline = instances == 1
        if inline:
            # Single-instance functions (the overwhelmingly common case)
            # run the retry ladder inline in this process: no instance
            # process and no condition event per execution.  Node-bind
            # the owner so node crashes interrupt the inlined attempt
            # exactly like they interrupted the instance process (a
            # WorkerSP trigger handler is node-bound at spawn).
            instance_procs: list = []
            if owner is not None:
                self.registry.register(owner, invocation_id, node=worker.name)
        else:
            instance_procs = [
                self.env.process(
                    self._run_instance_with_retries(
                        dag, placement, invocation_id, function, worker,
                        version, index, instances, result,
                    ),
                    name=f"{function}#{index}",
                )
                for index in range(instances)
            ]
            if self.registry is not None:
                for proc in instance_procs:
                    self.registry.register(
                        proc, invocation_id, node=worker.name
                    )
        # Each outcome sets the FUNCTION span's status (and a cancel's
        # kind); the span closes once, on the way out.  An exit no
        # outcome claims (the generator closed mid-yield) leaves it open.
        status = cancel = None
        try:
            if inline:
                yield from self._run_instance_with_retries(
                    dag, placement, invocation_id, function, worker,
                    version, 0, instances, result,
                )
            else:
                yield self.env.all_of(instance_procs)
            result.finished_at = self.env.now
            status = "ok"
            return result
        except FunctionFailure:
            # One instance exhausted its retries: the function is doomed,
            # so stop the surviving siblings from burning CPU/containers.
            self._cancel_instances(
                instance_procs,
                CancelCause(CancelKind.SIBLING_FAILED, detail=function),
            )
            status = "failed"
            raise
        except TaskCancelled as cancelled:
            # An instance died to a terminal cancel that reached the
            # AllOf before this process was interrupted itself.  Mop up
            # and end quietly — the canceller owns the invocation's fate.
            self._cancel_instances(instance_procs, cancelled.cause)
            status, cancel = "cancelled", cancelled.cause.kind
            return None
        except Interrupt as interrupt:
            cause = cause_of_interrupt(interrupt)
            self._cancel_instances(instance_procs, cause)
            status, cancel = "cancelled", cause.kind
            raise
        finally:
            if fn_span is not None and status is not None:
                spans.end(
                    fn_span,
                    status=status,
                    cold_starts=result.cold_starts,
                    retries=result.retries,
                    **({} if cancel is None else {"cancel": cancel}),
                )
                spans.clear_context(invocation_id, function)

    def _cancel_instances(self, instance_procs, cause: CancelCause) -> int:
        cancelled = 0
        for proc in instance_procs:
            if proc.is_alive:
                proc.interrupt(cause)
                if not proc.callbacks:
                    # Nobody waits on this instance any more (the
                    # single-instance fast path detached when execute()
                    # itself was interrupted): consume its eventual
                    # cancellation failure so the kernel doesn't surface
                    # an unhandled crash.  The multi-instance path keeps
                    # its all_of subscribed, which did the same job.
                    proc.callbacks.append(_consume_failure)
                cancelled += 1
        return cancelled

    def _run_instance_with_retries(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        worker: Node,
        version: int,
        index: int,
        instances: int,
        result: ExecutionResult,
    ) -> Generator:
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                if self.config.function_timeout > 0:
                    yield from self._timed_attempt(
                        dag, placement, invocation_id, function, worker,
                        version, index, instances, result, attempt,
                    )
                else:
                    # The interrupt-to-TaskCancelled conversion that
                    # _attempt performs is inlined here so the common
                    # (untimed) path runs one generator frame shallower.
                    try:
                        yield from self._run_instance(
                            dag, placement, invocation_id, function, worker,
                            version, index, instances, result, attempt,
                        )
                    except Interrupt as interrupt:
                        raise TaskCancelled(
                            cause_of_interrupt(interrupt)
                        ) from None
                return
            except FunctionFailure as failure:
                cause_kind = "crash"
                final_error = failure
            except TaskCancelled as cancelled:
                if not cancelled.cause.retryable:
                    # The invocation was aborted or WorkerSP's engine
                    # recovery owns the re-trigger: stop here.
                    raise
                cause_kind = cancelled.cause.kind
                final_error = FunctionFailure(function, attempts=attempt)
            if attempt > policy.max_retries:
                raise final_error
            result.retries += 1
            delay = policy.delay(attempt, key=(function, invocation_id, index))
            if self.telemetry.enabled:
                self.telemetry.inc(
                    "function.retries", 1.0,
                    workflow=dag.name, function=function, node=worker.name,
                    cause=cause_kind,
                )
            if self.spans.enabled:
                self.spans.event(
                    SpanKind.RETRY,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=worker.name,
                    parent=self.spans.context_of(invocation_id, function),
                    instance=index,
                    attempt=attempt,
                    cause=cause_kind,
                    backoff=delay,
                )
            if delay > 0:
                yield self.env.timeout(delay)
            attempt += 1

    def _attempt(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        worker: Node,
        version: int,
        index: int,
        instances: int,
        result: ExecutionResult,
        attempt: int,
    ) -> Generator:
        """One attempt, with interrupts surfaced as :class:`TaskCancelled`.

        The conversion matters: an :class:`Interrupt` that escapes a
        process makes the kernel treat it as a normal exit, so waiters
        could not tell cancellation from success.  Raising
        ``TaskCancelled`` instead fails the attempt with its cause.
        """
        try:
            yield from self._run_instance(
                dag, placement, invocation_id, function, worker,
                version, index, instances, result, attempt,
            )
        except Interrupt as interrupt:
            raise TaskCancelled(cause_of_interrupt(interrupt)) from None

    def _timed_attempt(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        worker: Node,
        version: int,
        index: int,
        instances: int,
        result: ExecutionResult,
        attempt: int,
    ) -> Generator:
        """Race one attempt against ``config.function_timeout``.

        A straggler attempt is killed and surfaced as a retryable
        :class:`TaskCancelled` so the retry ladder treats it exactly
        like a crash.
        """
        proc = self.env.process(
            self._attempt(
                dag, placement, invocation_id, function, worker,
                version, index, instances, result, attempt,
            ),
            name=f"{function}#{index}.{attempt}",
        )
        if self.registry is not None:
            self.registry.register(proc, invocation_id, node=worker.name)
        timer = self.env.timeout(self.config.function_timeout)
        try:
            yield self.env.any_of([proc, timer])
        except Interrupt as interrupt:
            cause = cause_of_interrupt(interrupt)
            if proc.is_alive:
                proc.interrupt(cause)
            raise TaskCancelled(cause) from None
        finally:
            if not timer.processed:
                timer.cancel()
        if proc.is_alive:
            # The timer won: kill the straggler and count it as a retry.
            cause = CancelCause(
                CancelKind.STRAGGLER,
                detail=f"{function}#{index} attempt {attempt} exceeded "
                f"{self.config.function_timeout:g}s",
            )
            proc.interrupt(cause)
            raise TaskCancelled(cause)

    def _run_instance(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        worker: Node,
        version: int,
        index: int,
        instances: int,
        result: ExecutionResult,
        attempt: int = 1,
    ) -> Generator:
        node_meta = dag.node(function)
        spans = self.spans
        acquire_start = self.env.now
        acquire = worker.containers.acquire(function, version)
        try:
            container = yield acquire
        except Interrupt:
            worker.containers.abandon(acquire)
            raise
        cold = container.invocations == 1
        if cold:
            result.cold_starts += 1
        if spans.enabled or self.telemetry.enabled:
            # Split the acquire wait into cold-start time (bounded by the
            # configured cold-start cost) and pure queueing for a slot.
            elapsed = self.env.now - acquire_start
            cold_time = (
                min(worker.containers.spec.cold_start_time, elapsed)
                if cold
                else 0.0
            )
            queue_time = elapsed - cold_time
            if self.telemetry.enabled and queue_time > 1e-12:
                self.telemetry.observe(
                    "function.queue_wait_seconds", queue_time,
                    workflow=dag.name, function=function, node=worker.name,
                    resource="container",
                )
        if spans.enabled:
            ctx = spans.context_of(invocation_id, function)
            if queue_time > 1e-12:
                spans.record(
                    SpanKind.QUEUE_WAIT,
                    acquire_start,
                    acquire_start + queue_time,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=worker.name,
                    parent=ctx,
                    resource="container",
                    instance=index,
                )
            if cold_time > 0:
                spans.record(
                    SpanKind.COLD_START,
                    self.env.now - cold_time,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=worker.name,
                    parent=ctx,
                    container=container.container_id,
                    instance=index,
                )
        crashed = False
        try:
            if self.config.ship_data:
                yield from self._fetch_inputs(
                    dag, placement, invocation_id, function, worker,
                    index, instances,
                )
            cpu_wait_start = self.env.now
            cpu_request = worker.cpu.request(1)
            try:
                yield cpu_request
            except Interrupt:
                worker.cpu.cancel(cpu_request)
                raise
            if (
                self.telemetry.enabled
                and self.env.now - cpu_wait_start > 1e-12
            ):
                self.telemetry.observe(
                    "function.queue_wait_seconds",
                    self.env.now - cpu_wait_start,
                    workflow=dag.name, function=function, node=worker.name,
                    resource="cpu",
                )
            if spans.enabled and self.env.now - cpu_wait_start > 1e-12:
                spans.record(
                    SpanKind.QUEUE_WAIT,
                    cpu_wait_start,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=worker.name,
                    parent=spans.context_of(invocation_id, function),
                    resource="cpu",
                    instance=index,
                )
            exec_start = self.env.now
            status = "ok"
            try:
                duration = self._service_time(node_meta.service_time)
                if self.faults is not None and self.faults.should_crash(
                    function
                ):
                    # The process dies partway through its work.
                    yield self.env.timeout(duration / 2)
                    crashed = True
                    status = "crashed"
                    raise FunctionFailure(function, attempts=attempt)
                yield self.env.timeout(duration)
            except Interrupt:
                status = "cancelled"
                raise
            finally:
                worker.cpu.release(cpu_request)
                telemetry = self.telemetry
                if telemetry.enabled:
                    cache = telemetry.site_cache("function.execute_seconds")
                    key = (dag.name, function, worker.name, status)
                    handle = cache.get(key)
                    if handle is None:
                        handle = cache[key] = telemetry.bind_histogram(
                            "function.execute_seconds",
                            workflow=dag.name, function=function,
                            node=worker.name, status=status,
                        )
                    handle.observe(self.env.now - exec_start)
                if spans.enabled:
                    spans.record(
                        SpanKind.EXECUTE,
                        exec_start,
                        self.env.now,
                        workflow=dag.name,
                        invocation_id=invocation_id,
                        function=function,
                        node=worker.name,
                        parent=spans.context_of(invocation_id, function),
                        instance=index,
                        container=container.container_id,
                        attempt=attempt,
                        status=status,
                    )
            container.note_memory_use(node_meta.memory)
            if self.config.ship_data and node_meta.output_size > 0:
                yield from self.policy.save_output(
                    worker, dag, placement, invocation_id, function,
                    chunk=index, size=node_meta.output_size / instances,
                )
        finally:
            # A node crash destroys the container out from under us; the
            # pool already reclaimed it, so only live containers return.
            if container.state is not ContainerState.DEAD:
                if crashed:
                    worker.containers.crash(container)
                else:
                    worker.containers.release(container)

    def _fetch_inputs(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        worker: Node,
        index: int,
        instances: int,
    ) -> Generator:
        """Fetch this instance's share of every producer's chunks.

        Chunks are assigned round-robin across the consumer's instances,
        so each chunk is fetched exactly once per consumer function and
        the bytes moved per (producer, consumer) pair equal the
        producer's full output.
        """
        fetches = []
        for producer, total_size in dag.data_dependencies(function):
            if total_size <= 0:
                continue
            producer_chunks = max(1, int(round(dag.node(producer).map_factor)))
            chunk_size = total_size / producer_chunks
            for chunk in range(producer_chunks):
                if chunk % instances != index:
                    continue
                fetches.append(
                    self.env.process(
                        self.policy.fetch_input(
                            worker, dag, placement, invocation_id,
                            producer, function, chunk, chunk_size,
                        ),
                        name=f"fetch:{producer}->{function}/{chunk}",
                    )
                )
        if fetches:
            try:
                yield self.env.all_of(fetches)
            except Interrupt:
                # The storage layer is callback-driven (its operations
                # complete without the waiting process), so abandoning a
                # fetch mid-flight is safe; just stop the fetch processes
                # themselves from proceeding to further operations.
                for fetch in fetches:
                    if fetch.is_alive:
                        fetch.interrupt(CancelCause(CancelKind.INVOCATION_ABORT))
                raise
