"""Workflow cells are bit-identical to serial execution.

Engine runs (MasterSP and WorkerSP) shard at *cell* granularity — whole
independent scenarios dealt to worker processes — because the remote
store's slot queue and the storage NIC couple all nodes.  Exactness
then rests on two facts these tests pin across worker counts
{2, 4, 8}, random seeds, node counts, and workload types:

- each cell is causally closed, so *where* it runs cannot change its
  events;
- each cell's invocation-id range is pinned by
  ``reset_invocation_ids``, so even the ids in its records are
  reproducible.

``run_trials`` runs every trial as one such cell, so its ``jobs`` knob
inherits the same guarantee.
"""

import pytest

from repro.parallel import derive_seed
from repro.runner import _SCALAR_FIELDS, run_trials, run_workflow
from repro.sim.shard import make_workflow_cell, run_workflow_cells

# A spread of scenarios: synthetic DAGs and realworld benchmarks, both
# engine modes, varying seeds and cluster sizes.
CELLS = [
    make_workflow_cell(
        ("layered_random", {"seed": 3}),
        engine="worker", seed=13, invocations=2, workers=3,
    ),
    make_workflow_cell(
        ("layered_random", {"seed": 5}),
        engine="master", seed=17, invocations=2, workers=5,
    ),
    make_workflow_cell(
        ("chain", {"length": 6}),
        engine="worker", seed=29, invocations=2, workers=2,
    ),
    make_workflow_cell(
        "video-ffmpeg", engine="worker", seed=13, invocations=2, workers=4,
    ),
    make_workflow_cell(
        "video-ffmpeg", engine="master", seed=41, invocations=2, workers=4,
    ),
    make_workflow_cell(
        "cycles", engine="worker", seed=7, invocations=2, workers=3,
    ),
]


@pytest.fixture(scope="module")
def serial_results():
    return run_workflow_cells(CELLS, jobs=1)


@pytest.mark.parametrize("jobs", [2, 4, 8])
def test_sharded_cells_bit_identical(jobs, serial_results):
    sharded = run_workflow_cells(CELLS, jobs=jobs)
    assert sharded == serial_results


def test_records_and_id_ranges(serial_results):
    for index, result in enumerate(serial_results):
        assert result["cell_index"] == index
        records = result["records"]
        assert len(records) == 2  # invocations per cell
        for record in records:
            invocation_id = record[1]
            base = index * 10_000_000
            # Ids live in the cell's disjoint range — proof the record
            # cannot depend on which worker ran which other cell first.
            assert base < invocation_id < base + 10_000_000
            assert record[5] == "ok"


def test_engines_both_covered(serial_results):
    assert {r["engine"] for r in serial_results} == {"worker", "master"}


class TestRunTrialsSharded:
    def test_sharded_trials_match_each_other(self):
        kwargs = dict(trials=3, invocations=2, workers=3, seed=13)
        one = run_trials("cycles", jobs=1, **kwargs)
        four = run_trials("cycles", jobs=4, **kwargs)
        assert [dict(s) for s in one] == [dict(s) for s in four]
        assert all(len(s["records"]) == 2 for s in one)

    def test_scalars_match_legacy_path(self):
        """A trial equals a direct ``run_workflow`` call with the trial's
        derived seed — what the old per-trial pool task ran."""
        from repro.workloads import build

        trials = run_trials(
            "cycles", trials=2, jobs=2, invocations=2, workers=3, seed=13
        )
        for index, trial in enumerate(trials):
            direct = run_workflow(
                build("cycles"),
                seed=derive_seed(13, "trial", index),
                invocations=2,
                workers=3,
            )
            for key in _SCALAR_FIELDS:
                assert trial[key] == direct[key], key

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials("cycles", trials=0)
        with pytest.raises(ValueError):
            run_trials("cycles", trials=2, jobs=-1)

    def test_unknown_workload_is_a_task_error(self):
        # Raised inside a pool worker, it comes back as the task's own
        # exception with the CLI's message, not as a broken pool.
        with pytest.raises(ValueError, match="neither a readable WDL file"):
            run_trials("no-such-workflow", trials=2, jobs=2)
        with pytest.raises(ValueError, match="unknown synthetic builder"):
            run_trials(("no_such_builder", {}), trials=1)

    def test_wdl_path_resolves_before_names(self, tmp_path, monkeypatch):
        # A file named like a benchmark is loaded as a file.
        (tmp_path / "cycles").write_text(
            "name: tiny\nsteps:\n  - task: only\n    service_time: 50ms\n"
        )
        monkeypatch.chdir(tmp_path)
        (trial,) = run_trials(
            "cycles", trials=1, invocations=1, workers=2, ship_data=False
        )
        assert trial["workflow"] == "tiny"
