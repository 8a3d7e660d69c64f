"""Tests for the faasflow-run CLI and run_workflow API."""

import math

import pytest

from repro.runner import main, run_workflow
from repro.workloads import build

from .span_oracle import assert_executed_correctly


class TestRunWorkflow:
    def test_worker_engine_summary(self):
        summary = run_workflow(
            build("file-processing"), invocations=3, workers=3
        )
        assert summary.workflow == "file-processing"
        assert summary.completed == 3
        assert summary.mean_latency > 0
        assert 0 <= summary.local_fraction <= 1

    def test_master_engine_summary(self):
        summary = run_workflow(
            build("file-processing"), engine="master", invocations=3, workers=3
        )
        assert summary.engine == "master"
        assert summary.completed == 3

    def test_no_data_mode_moves_nothing(self):
        summary = run_workflow(
            build("word-count"), invocations=2, ship_data=False, workers=2
        )
        assert summary.data_moved_mb == 0

    def test_open_loop_mode(self):
        summary = run_workflow(
            build("illegal-recognizer"),
            invocations=4,
            open_loop_rate=60.0,
            workers=2,
        )
        assert summary.invocations == 4

    def test_prewarm_removes_cold_starts(self):
        dag = build("illegal-recognizer")
        summary = run_workflow(
            dag, invocations=3, prewarm=True, feedback=False, workers=2
        )
        assert summary.cold_starts == 0

    def test_trace_collects_events(self):
        dag = build("word-count")
        summary = run_workflow(dag, invocations=1, trace=True, workers=2)
        (record,) = summary.records
        assert summary.spans.root_of(record.invocation_id).status == "ok"
        assert_executed_correctly(dag, summary.spans, record.invocation_id)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            run_workflow(build("word-count"), engine="quantum")

    def test_feedback_improves_locality(self):
        dag_a = build("word-count")
        bootstrap = run_workflow(
            dag_a, invocations=4, feedback=False, workers=3
        )
        dag_b = build("word-count")
        fed = run_workflow(dag_b, invocations=4, feedback=True, workers=3)
        assert fed.local_fraction >= bootstrap.local_fraction


class TestCLI:
    def test_runs_benchmark_by_name(self, capsys):
        assert main(["WC", "--invocations", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "word-count" in out
        assert "mean latency" in out

    def test_runs_wdl_file(self, tmp_path, capsys):
        wdl = tmp_path / "flow.yaml"
        wdl.write_text(
            """
name: tiny
steps:
  - task: only
    service_time: 50ms
"""
        )
        assert main([str(wdl), "--invocations", "2", "--no-data"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_unknown_source_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-thing.yaml"])

    def test_invalid_wdl_returns_error_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nsteps: []\n")
        assert main([str(bad)]) == 2

    def test_csv_export_flag(self, tmp_path, capsys):
        assert (
            main(
                [
                    "IR",
                    "--invocations",
                    "2",
                    "--workers",
                    "2",
                    "--csv",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "illegal-recognizer-invocations.csv").exists()

    def test_trace_flag_prints_timeline(self, capsys):
        assert main(["FP", "--invocations", "1", "--trace", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        tree = out.split("first invocation span tree:\n", 1)[1]
        assert tree.splitlines()[0].endswith("invocation")
        assert "  function " in tree
        # Step markers print marked; executed functions do not.
        functions = [
            line for line in tree.splitlines() if "  function " in line
        ]
        (marker,) = [line for line in functions if " process.start " in line]
        assert marker.endswith("[virtual]")
        assert not any(line.endswith("]") for line in functions
                       if " process." not in line)

    def test_trace_flag_with_trials_says_it_is_ignored(self, capsys):
        argv = ["WC", "--trials", "2", "--invocations", "1", "--workers", "2"]
        assert main(argv + ["--trace"]) == 0
        captured = capsys.readouterr()
        assert "--trace and --trace-out are ignored" in captured.err
        assert "span tree" not in captured.out


class TestFaultInjection:
    def test_fault_rate_produces_failures_or_retries(self):
        from repro.core import FaultInjector
        from repro.workloads import build

        summary = run_workflow(
            build("file-processing"),
            invocations=6,
            workers=2,
            fault_rate=0.9,
            max_retries=0,
            feedback=False,
        )
        assert summary.failures > 0
        assert summary.completed + summary.failures + summary.timeouts == 6

    def test_retries_mask_moderate_faults(self):
        from repro.workloads import build

        summary = run_workflow(
            build("illegal-recognizer"),
            invocations=5,
            workers=2,
            fault_rate=0.2,
            max_retries=5,
            feedback=False,
        )
        assert summary.completed == 5

    def test_cli_fault_flag(self, capsys):
        assert (
            main(
                ["IR", "--invocations", "3", "--workers", "2",
                 "--fault-rate", "0.5", "--max-retries", "4"]
            )
            == 0
        )
        assert "failed" in capsys.readouterr().out
