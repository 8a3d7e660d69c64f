"""Workflow state structures (paper §3.1, Fig. 6).

Each worker engine maintains a *Workflow* structure per workflow it
hosts a sub-graph of: *FunctionInfo* records (static metadata —
predecessors count, successor locations) plus one *State* per
invocation.  A *State* is two flat arrays indexed by a compiled
function index: how many predecessors have completed, and a flag byte
(``TRIGGERED`` / ``EXECUTED``).  WorkerSP and DataflowSP keep it in a
:class:`CompiledInvocation` per structure; MasterSP and the monolithic
baseline keep the same two arrays per invocation over a whole-graph
index compiled at registration (their flag byte only ever holds
``TRIGGERED``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..dag import DAGError, WorkflowDAG

__all__ = [
    "InvocationID",
    "FunctionInfo",
    "CompiledInvocation",
    "WorkflowStructure",
    "Placement",
    "PlacementError",
    "TRIGGERED",
    "EXECUTED",
    "new_invocation_id",
    "reset_invocation_ids",
]

# Bit flags of one function's per-invocation execution state inside a
# :class:`CompiledInvocation` flags bytearray.
TRIGGERED = 1
EXECUTED = 2

InvocationID = int

_invocation_counter = itertools.count(1)


def new_invocation_id() -> InvocationID:
    """Globally unique invocation identifier."""
    return next(_invocation_counter)


def reset_invocation_ids(base: int = 1) -> None:
    """Restart the invocation-id sequence at ``base``.

    Sharded cell execution gives every cell a disjoint, deterministic id
    range (``cell_index * stride + 1``) so invocation records come out
    identical no matter which worker process — or how many — ran the
    cell.  Never call this mid-run; ids must stay unique within a
    simulation.
    """
    global _invocation_counter
    _invocation_counter = itertools.count(base)


class PlacementError(ValueError):
    """Inconsistent function-to-worker placement."""


@dataclass(frozen=True)
class Placement:
    """Where each function of a workflow runs (partition result).

    Maps every node name (virtual nodes included — they are bookkept by
    the engine owning their step) to a worker node name.
    """

    workflow: str
    assignment: dict[str, str]
    version: int = 1

    def node_of(self, function: str) -> str:
        try:
            return self.assignment[function]
        except KeyError:
            raise PlacementError(
                f"function {function!r} has no placement in {self.workflow!r}"
            ) from None

    def functions_on(self, worker: str) -> list[str]:
        return [f for f, w in self.assignment.items() if w == worker]

    def workers(self) -> list[str]:
        return sorted(set(self.assignment.values()))

    def colocated(self, fn_a: str, fn_b: str) -> bool:
        return self.node_of(fn_a) == self.node_of(fn_b)

    def validate_against(self, dag: WorkflowDAG) -> None:
        missing = [n for n in dag.node_names if n not in self.assignment]
        if missing:
            raise PlacementError(
                f"placement for {self.workflow!r} misses nodes: {missing}"
            )

    def with_version(self, version: int) -> "Placement":
        return Placement(self.workflow, dict(self.assignment), version)


@dataclass
class FunctionInfo:
    """Static metadata the engine needs to trigger one function."""

    name: str
    predecessors_count: int
    successors: list[str]
    successor_locations: dict[str, str]  # successor -> worker node name
    is_virtual: bool
    service_time: float
    memory: float
    output_size: float
    map_factor: float

    @classmethod
    def from_dag(
        cls, dag: WorkflowDAG, placement: Placement, name: str
    ) -> "FunctionInfo":
        node = dag.node(name)
        successors = dag.successors(name)
        return cls(
            name=name,
            predecessors_count=len(dag.predecessors(name)),
            successors=successors,
            successor_locations={s: placement.node_of(s) for s in successors},
            is_virtual=node.is_virtual,
            service_time=node.service_time,
            memory=node.memory,
            output_size=node.output_size,
            map_factor=node.map_factor,
        )


class CompiledInvocation:
    """Array-backed per-invocation *State* of one engine's sub-graph.

    One integer (predecessors done) and one flag byte (``TRIGGERED`` /
    ``EXECUTED``) per local function, indexed by the function's
    position in :attr:`WorkflowStructure.local_names`.
    """

    __slots__ = ("invocation_id", "preds_done", "flags")

    def __init__(self, invocation_id: InvocationID, count: int):
        self.invocation_id = invocation_id
        self.preds_done = [0] * count
        self.flags = bytearray(count)


class WorkflowStructure:
    """The paper's per-worker *Workflow* structure (§3.1, Fig. 6).

    Holds the *FunctionInfo* records of the functions this engine owns
    (``function_info``; their order is the dense index ``local_names``
    the engine compiles its dispatch table over) and array-backed
    *State* per live invocation.  The engine releases an invocation's
    *State* at the end of the invocation (§4.2.1), and the whole
    structure is removed when its sub-graph version is retired.

    ``_live`` is the live triggered-not-executed index: crash
    collection and watchdog scans touch only in-flight work instead of
    every invocation ever seen.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        local_functions: list[str],
        version: int = 1,
    ):
        placement.validate_against(dag)
        unknown = [f for f in local_functions if not dag.has_node(f)]
        if unknown:
            raise DAGError(f"unknown local functions: {unknown}")
        self.workflow = dag.name
        self.dag = dag
        self.placement = placement
        self.version = version
        self.function_info: dict[str, FunctionInfo] = {
            name: FunctionInfo.from_dag(dag, placement, name)
            for name in local_functions
        }
        self.local_names: tuple[str, ...] = tuple(self.function_info)
        self._invocations: dict[InvocationID, CompiledInvocation] = {}
        # invocation id -> set of local indices triggered but not yet
        # executed.  Kept exactly in sync with the flag bytes so crash
        # collection is O(in-flight), not O(history).
        self._live: dict[InvocationID, set[int]] = {}
        self.peak_live_invocations = 0

    def invocation(self, invocation_id: InvocationID) -> CompiledInvocation:
        state = self._invocations.get(invocation_id)
        if state is None:
            state = CompiledInvocation(invocation_id, len(self.local_names))
            self._invocations[invocation_id] = state
            if len(self._invocations) > self.peak_live_invocations:
                self.peak_live_invocations = len(self._invocations)
        return state

    def release_invocation(self, invocation_id: InvocationID) -> None:
        """Free the *State* arrays at the end of an invocation (§4.2.1)."""
        self._invocations.pop(invocation_id, None)
        self._live.pop(invocation_id, None)

    @property
    def live_invocations(self) -> int:
        return len(self._invocations)

    # -- live triggered-not-executed index --------------------------------
    def note_triggered(self, invocation_id: InvocationID, index: int) -> None:
        live = self._live.get(invocation_id)
        if live is None:
            self._live[invocation_id] = {index}
        else:
            live.add(index)

    def note_untriggered(
        self, invocation_id: InvocationID, index: int
    ) -> None:
        live = self._live.get(invocation_id)
        if live is not None:
            live.discard(index)
            if not live:
                del self._live[invocation_id]

    def drain_live_triggered(self) -> list[tuple[InvocationID, str]]:
        """Crash collection: reset and return all triggered-not-executed.

        Clears the ``TRIGGERED`` flag of every live entry and empties
        the index, returning ``(invocation_id, function name)`` pairs —
        ordered by trigger arrival (dict insertion) per invocation and
        ascending index within one — so the engine can re-trigger them
        on recovery.  O(in-flight tasks), not O(invocations served).
        """
        pending: list[tuple[InvocationID, str]] = []
        for invocation_id, indices in self._live.items():
            inv = self._invocations.get(invocation_id)
            if inv is None:  # pragma: no cover - index/state desync guard
                continue
            for index in sorted(indices):
                inv.flags[index] &= ~TRIGGERED
                pending.append((invocation_id, self.local_names[index]))
        self._live.clear()
        return pending
