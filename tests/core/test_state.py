"""Unit tests for the Workflow/State/FunctionInfo structures."""

import pytest

from repro.core.state import (
    EXECUTED,
    FunctionInfo,
    Placement,
    PlacementError,
    WorkflowStructure,
    new_invocation_id,
)
from repro.dag import DAGError

from .conftest import all_on, fanout_dag, linear_dag, round_robin


class TestInvocationID:
    def test_ids_are_unique_and_increasing(self):
        a, b, c = new_invocation_id(), new_invocation_id(), new_invocation_id()
        assert a < b < c


class TestPlacement:
    def test_node_of(self):
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        assert placement.node_of("f0") == "worker-0"

    def test_missing_function_raises(self):
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        with pytest.raises(PlacementError):
            placement.node_of("ghost")

    def test_functions_on(self):
        dag = linear_dag(n=4)
        placement = round_robin(dag, ["w0", "w1"])
        assert placement.functions_on("w0") == ["f0", "f2"]
        assert placement.functions_on("w1") == ["f1", "f3"]

    def test_colocated(self):
        dag = linear_dag(n=3)
        placement = round_robin(dag, ["w0", "w1"])
        assert placement.colocated("f0", "f2")
        assert not placement.colocated("f0", "f1")

    def test_validate_against_incomplete(self):
        dag = linear_dag(n=3)
        placement = Placement(workflow=dag.name, assignment={"f0": "w0"})
        with pytest.raises(PlacementError):
            placement.validate_against(dag)

    def test_with_version(self):
        dag = linear_dag()
        placement = all_on(dag, "w0")
        v2 = placement.with_version(2)
        assert v2.version == 2
        assert v2.assignment == placement.assignment

    def test_workers_sorted_unique(self):
        dag = linear_dag(n=4)
        placement = round_robin(dag, ["w1", "w0"])
        assert placement.workers() == ["w0", "w1"]


class TestFunctionInfo:
    def test_from_dag(self):
        dag = fanout_dag(branches=2)
        placement = all_on(dag, "w0")
        info = FunctionInfo.from_dag(dag, placement, "head")
        assert info.predecessors_count == 0
        assert set(info.successors) == {"b0", "b1"}
        assert info.successor_locations == {"b0": "w0", "b1": "w0"}
        assert not info.is_virtual

    def test_sink_info(self):
        dag = fanout_dag(branches=2)
        info = FunctionInfo.from_dag(dag, all_on(dag, "w0"), "tail")
        assert info.predecessors_count == 2
        assert info.successors == []


class TestWorkflowStructure:
    def test_owns_only_local_functions(self):
        dag = linear_dag(n=3)
        placement = round_robin(dag, ["w0", "w1"])
        structure = WorkflowStructure(dag, placement, ["f0", "f2"])
        assert structure.local_names == ("f0", "f2")
        assert "f1" not in structure.function_info

    def test_unknown_local_function_rejected(self):
        dag = linear_dag()
        with pytest.raises(DAGError):
            WorkflowStructure(dag, all_on(dag, "w0"), ["nope"])

    def test_invocation_lifecycle(self):
        dag = linear_dag()
        structure = WorkflowStructure(dag, all_on(dag, "w0"), ["f0"])
        inv = structure.invocation(42)
        assert structure.live_invocations == 1
        index = structure.local_names.index("f0")
        inv.flags[index] |= EXECUTED
        structure.release_invocation(42)
        assert structure.live_invocations == 0
        # After release, the state is fresh.
        assert not structure.invocation(42).flags[index] & EXECUTED

    def test_incomplete_placement_rejected(self):
        dag = linear_dag(n=3)
        bad = Placement(workflow=dag.name, assignment={"f0": "w0"})
        with pytest.raises(PlacementError):
            WorkflowStructure(dag, bad, ["f0"])
