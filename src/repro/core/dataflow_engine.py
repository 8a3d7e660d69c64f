"""DataflowSP: function-level dataflow triggering with eager shipping.

FaaSFlow's WorkerSP decentralizes triggering to sub-graph granularity:
each worker runs one serialized engine loop that bookkeeps its local
sub-graph.  The paper's two closest descendants (DFlow, DataFlower —
see PAPERS.md) go one level further and both beat it the same way:

- **Function-level triggering.**  There is no per-node engine loop to
  serialize behind.  Every finished predecessor sends a *token*
  straight at the consumer function; the token handler that completes
  the function's input set fires it immediately.  Tokens are handled
  in parallel (a :class:`DataflowEngine` has no engine lock), each
  paying only the small constant ``config.dataflow_trigger_time``.
- **Eager data shipping.**  The moment a producer writes an output
  chunk, the chunk is pushed worker-to-worker into each remote
  consumer node's FaaStore (``config.eager_ship``), so the transfer
  overlaps the rest of the upstream compute and the consumer's own
  cold start / queue wait.  By the time the consumer's last token
  lands, its inputs are usually already node-local.  Shipping is a
  pure pre-fetch: a lost or quota-refused push degrades to the normal
  read-through path, never to a wrong answer.

The engine itself is :class:`~.worker_engine.WorkerEngine` minus the
lock plus the shipping: deployment compiles the same indexed dispatch
tables — including a precompiled per-producer ship plan — and tokens
travel through WorkerSP's one delivery routine (a token is a state
update by another name; ``EngineConfig.batch_control`` coalesces them
the same way).  Only the trigger paradigm (lock-free token step), the
wire-level labels, and the eager pushes differ.  Everything below the
trigger paradigm — containers, retries, straggler watchdogs,
cancellation, spans, telemetry — is the same substrate the other two
engines use, which is what makes the three-way comparison
(`faasflow-experiment fig12/fig13/dataflow`) apples-to-apples.
"""

from __future__ import annotations

from ..sim import Node
from .state import InvocationID, WorkflowStructure
from .worker_engine import FaaSFlowSystem, WorkerEngine, _FnDispatch

__all__ = ["DataflowEngine", "DataflowSystem"]


class DataflowEngine(WorkerEngine):
    """Function-level dataflow triggering on one worker node.

    Holds the same compiled :class:`WorkflowStructure` sub-graphs as a
    WorkerSP engine (deployment is placement-driven either way), but
    consumes *tokens* instead of running a serialized engine loop: any
    number of tokens make progress in the same instant, each paying
    ``dataflow_trigger_time`` of handling cost.
    """

    _run_prefix = "dataflow"
    _sync_role = "token"

    def __init__(self, system: "DataflowSystem", node: Node):
        super().__init__(system, node)
        # Deliberately lock-free: dataflow triggering has no sub-graph
        # engine loop, so concurrent tokens never queue behind each
        # other.  This (not a smaller constant) is the structural
        # difference from WorkerSP's serialized engine step.
        self._lock = None
        self.pushes_started = 0  # eager chunk pushes spawned

    @property
    def tokens_received(self) -> int:
        """Cross-worker dataflow tokens received (``states_synced``)."""
        return self.states_synced

    # -- deployment ---------------------------------------------------------
    def _compile(
        self, structure: WorkflowStructure
    ) -> dict[str, _FnDispatch]:
        """Indexed dispatch plus a precompiled eager-ship plan.

        For every real producer with output and at least one remote
        data consumer, resolve once per deployment: the destination
        node objects, the consumer count per destination, the chunk
        geometry, and the push process names.  ``_ship_outputs`` then
        only walks the plan.
        """
        entries = super()._compile(structure)
        dag = structure.dag
        placement = structure.placement
        for name, entry in entries.items():
            if entry.is_virtual:
                continue
            node_meta = dag.node(name)
            if node_meta.output_size <= 0:
                continue
            if node_meta.metadata.get("storage_type") == "DB":
                continue  # Algorithm 1 marked this producer remote-only
            per_node: dict[str, int] = {}
            for consumer in dag.data_consumers(name):
                target = placement.node_of(consumer)
                if target != self.node.name:
                    per_node[target] = per_node.get(target, 0) + 1
            if not per_node:
                continue
            chunks = max(1, int(round(node_meta.map_factor)))
            entry.ship_plan = (
                tuple(
                    (
                        self.system.cluster.node(target),
                        consumers_on_node,
                        tuple(
                            f"push:{name}/{chunk}->{target}"
                            for chunk in range(chunks)
                        ),
                    )
                    for target, consumers_on_node in sorted(per_node.items())
                ),
                chunks,
                node_meta.output_size / chunks,
            )
        return entries

    # -- token handling -------------------------------------------------------
    def _step_time(self) -> float:
        return self.system.config.dataflow_trigger_time

    # -- eager shipping -----------------------------------------------------
    def _ship_outputs(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entry: _FnDispatch,
    ) -> None:
        """Push a finished producer's output chunks to its consumers' nodes.

        Called by ``_propagate`` in the same atomic step as the tokens,
        but carrying the *data*: one worker-to-worker transfer per
        (chunk, remote consumer node).  The tokens (1 KB) land long
        before the chunks (MBs), so a consumer that fires early
        coalesces on the in-flight push through the FaaStore
        single-flight map rather than starting a redundant remote read.
        """
        config = self.system.config
        policy = self.system.policy
        if (
            not config.eager_ship
            or not config.ship_data
            or not policy.supports_eager_push
        ):
            return
        plan, chunks, chunk_size = entry.ship_plan
        dag = structure.dag
        placement = structure.placement
        for dst_node, consumers_on_node, push_names in plan:
            for chunk in range(chunks):
                self.system.spawn_registered(
                    policy.eager_push(
                        self.node, dst_node, dag, placement, invocation_id,
                        entry.name, chunk, chunk_size, consumers_on_node,
                    ),
                    invocation_id,
                    name=push_names[chunk],
                )
                self.pushes_started += 1


class DataflowSystem(FaaSFlowSystem):
    """The DataflowSP workflow system: dataflow-triggered distributed engines.

    Deployment, versioned rollout and the fault hooks are WorkerSP's
    — both are placement-driven decentralized systems — and the
    invocation lifecycle (record, timeout, cancellation, close) is the
    one all three systems share (:class:`~.lifecycle.WorkflowSystem`).
    Only the engines differ: every engine on a worker is a
    :class:`DataflowEngine`, so triggering is function-level and
    outputs ship eagerly.
    """

    mode = "dataflow-sp"
    engine_label = "dataflow"
    engine_class = DataflowEngine
