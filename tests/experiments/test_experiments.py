"""Integration tests: every experiment runs and shows the paper's shape.

These use reduced invocation counts, so they verify *directional*
claims (who wins, roughly by how much), not the calibrated magnitudes
recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig04_master_overhead,
    fig05_data_movement,
    fig11_sched_overhead,
    fig12_bandwidth_sweep,
    fig13_tail_latency,
    fig14_colocation,
    fig15_grouping,
    fig16_scheduler_scalability,
    sec57_component_overhead,
    tab04_transfer_latency,
)

MB = 1024.0 * 1024.0


class TestFig04:
    def test_scientific_overhead_exceeds_real_world(self):
        result = fig04_master_overhead.run(invocations=8)
        categories = result.data["overhead_by_category"]
        scientific = sum(categories["scientific"]) / len(categories["scientific"])
        real_world = sum(categories["real-world"]) / len(categories["real-world"])
        assert scientific > 2 * real_world

    def test_rows_cover_all_benchmarks(self):
        result = fig04_master_overhead.run(
            invocations=3, benchmarks=["cycles", "word-count"]
        )
        assert len(result.rows) == 2


class TestFig05:
    def test_faas_amplifies_every_benchmark(self):
        result = fig05_data_movement.run()
        for row in result.rows:
            mono, faas = row[1], row[2]
            assert faas > 1.5 * mono

    def test_cycles_and_vid_match_paper_anchors(self):
        result = fig05_data_movement.run(
            benchmarks=["cycles", "video-ffmpeg"]
        )
        by_name = {row[0]: row for row in result.rows}
        assert by_name["Cyc"][1] == pytest.approx(23.95, rel=0.1)
        assert by_name["Vid"][1] == pytest.approx(4.23, rel=0.05)
        assert by_name["Vid"][2] == pytest.approx(96.82, rel=0.1)


class TestFig11:
    def test_worker_sp_wins_everywhere(self):
        result = fig11_sched_overhead.run(invocations=8)
        for row in result.rows:
            master_ms, worker_ms = row[1], row[2]
            assert worker_ms < master_ms

    def test_average_reduction_in_paper_ballpark(self):
        result = fig11_sched_overhead.run(invocations=8)
        reductions = result.data["reductions"]
        mean = sum(reductions) / len(reductions)
        assert 55 <= mean <= 95  # paper: 74.6%


class TestTab04:
    def test_faastore_cuts_heavy_benchmarks(self):
        result = tab04_transfer_latency.run(
            invocations=2,
            benchmarks=["cycles", "word-count", "soykb"],
        )
        by_name = {row[0]: row for row in result.rows}
        # Cyc and WC localize nearly everything.
        assert by_name["Cyc"][2] < 0.1 * by_name["Cyc"][1]
        assert by_name["WC"][2] < 0.1 * by_name["WC"][1]
        # Soy has no reclaimable memory: FaaStore cannot help it.
        assert by_name["Soy"][4] == "0%"


class TestFig12:
    def test_hyperflow_is_bandwidth_sensitive(self):
        result = fig12_bandwidth_sweep.run(
            invocations=6,
            benchmarks=("genome",),
            bandwidths=(25 * MB, 100 * MB),
            rates=(4.0,),
        )
        series = result.data["series"]
        hyper_low = series[("genome", 25.0, 4.0, "hyper")]
        hyper_high = series[("genome", 100.0, 4.0, "hyper")]
        assert hyper_low > 2 * hyper_high

    def test_faasflow_flattens_the_curve(self):
        result = fig12_bandwidth_sweep.run(
            invocations=6,
            benchmarks=("genome",),
            bandwidths=(25 * MB, 100 * MB),
            rates=(4.0,),
        )
        series = result.data["series"]
        hyper_ratio = (
            series[("genome", 25.0, 4.0, "hyper")]
            / series[("genome", 100.0, 4.0, "hyper")]
        )
        faas_ratio = (
            series[("genome", 25.0, 4.0, "faasflow")]
            / series[("genome", 100.0, 4.0, "faasflow")]
        )
        assert faas_ratio < hyper_ratio

    def test_bandwidth_multiplication(self):
        """FaaSFlow at 50 MB/s matches HyperFlow at 100 MB/s for Vid
        (the paper's 1.5-4x bandwidth-multiplication claim)."""
        result = fig12_bandwidth_sweep.run(
            invocations=6,
            benchmarks=("video-ffmpeg",),
            bandwidths=(50 * MB, 100 * MB),
            rates=(4.0,),
        )
        series = result.data["series"]
        assert (
            series[("video-ffmpeg", 50.0, 4.0, "faasflow")]
            <= series[("video-ffmpeg", 100.0, 4.0, "hyper")] * 1.25
        )


class TestFig13:
    def test_cycles_times_out_under_hyperflow_only(self):
        result = fig13_tail_latency.run(
            invocations=12, benchmarks=["cycles"]
        )
        row = result.rows[0]
        hyper_p99, hyper_timeouts = row[1], row[2]
        faas_p99, faas_timeouts = row[3], row[4]
        assert hyper_timeouts > 0
        assert hyper_p99 == pytest.approx(60.0)
        assert faas_timeouts == 0
        assert faas_p99 < 30.0

    def test_light_benchmark_improves_modestly(self):
        result = fig13_tail_latency.run(
            invocations=12, benchmarks=["file-processing"]
        )
        row = result.rows[0]
        assert row[3] <= row[1]  # FaaSFlow p99 <= HyperFlow p99


class TestFig14:
    def test_faasflow_mitigates_colocation(self):
        result = fig14_colocation.run(invocations=4)
        degradation = {}
        for row in result.rows:
            system, benchmark = row[0], row[1]
            value = float(row[4].rstrip("%"))
            degradation.setdefault(system, {})[benchmark] = value
        hyper = degradation["HyperFlow-serverless"]
        faas = degradation["FaaSFlow-FaaStore"]
        wins = sum(1 for b in hyper if faas[b] < hyper[b])
        assert wins >= 6  # FaaSFlow degrades less for almost every benchmark
        assert sum(faas.values()) < 0.4 * sum(hyper.values())


class TestFig15:
    def test_scientific_spreads_real_world_concentrates(self):
        result = fig15_grouping.run()
        by_abbrev = {row[0]: row for row in result.rows}
        for abbrev in ("Cyc", "Epi", "Gen", "Soy"):
            assert by_abbrev[abbrev][4] >= 5  # spread wide (paper: all 7)
        for abbrev in ("Vid", "IR", "FP", "WC"):
            assert by_abbrev[abbrev][4] <= 2  # concentrated


class TestFig16:
    def test_superlinear_growth(self):
        result = fig16_scheduler_scalability.run(
            sizes=(10, 50, 100), repeats=2
        )
        times = result.data["times"]
        assert times[100] > 4 * times[10]

    def test_memory_grows_modestly(self):
        result = fig16_scheduler_scalability.run(sizes=(10, 100), repeats=1)
        memories = [row[2] for row in result.rows]
        assert memories[-1] < 100  # MB: far below any worrying level


class TestSec57:
    def test_per_worker_usage_stays_flat(self):
        result = sec57_component_overhead.run(
            worker_counts=(1, 10, 25), invocations=4
        )
        cpus = [row[1] for row in result.rows]
        assert max(cpus) < 0.5  # engines are cheap
        events = [row[3] for row in result.rows]
        workers = [row[0] for row in result.rows]
        per_worker = [e / w for e, w in zip(events, workers)]
        # Linear scaling: per-worker event counts identical.
        assert max(per_worker) == pytest.approx(min(per_worker), rel=0.01)


class TestCLI:
    def test_cli_runs_quick_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig05", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "Cyc" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["nope"])


class TestSec6:
    def test_memory_upgrade_beats_network_upgrade(self):
        from repro.experiments import sec6_memory_vs_network

        result = sec6_memory_vs_network.run(invocations=10)
        results = result.data["results"]
        baseline = results["baseline (32GB, 50MB/s)"]
        network = results["network upgrade (32GB, 100MB/s)"]
        memory = results["memory upgrade (64GB, 50MB/s)"]
        assert network["p99"] < baseline["p99"]
        assert memory["p99"] < network["p99"]
        # The win comes from locality, not raw speed.
        assert memory["local"] > 0.3
        assert baseline["local"] < 0.05


class TestScaleServe:
    def test_sustained_serving_rollups_and_lifecycle(self):
        from repro.experiments import ext_scale_serve

        result = ext_scale_serve.run(
            invocations=1_200, tenants=4, workers=4, rate_per_minute=2_400.0
        )
        data = result.data
        assert data["total_served"] == 1_200
        assert data["total_ok"] == 1_200
        # Per-tenant rollup rows: one per tenant, all served, all ok.
        assert len(result.rows) == 4
        assert all(row[2] == 300 for row in result.rows)
        # The lifecycle claim: peak live state is set by concurrency,
        # far below the number served; telemetry is O(label sets).
        assert 0 < data["peak_in_flight"] < 100
        assert 0 < data["peak_live_invocations"] <= data["peak_in_flight"]
        assert data["telemetry_instruments"] < 1_000

    def test_batched_mode_serves_identically_sized_run(self):
        from repro.experiments import ext_scale_serve

        result = ext_scale_serve.run(
            invocations=600,
            tenants=2,
            workers=4,
            rate_per_minute=2_400.0,
            batch_control=True,
        )
        assert result.data["total_ok"] == result.data["total_served"] == 600
        assert result.data["batch_control"] is True

    def test_reaper_empties_records_and_transfer_ledger(self):
        from repro.experiments import ext_scale_serve
        from repro.metrics import InvocationRecord, MetricsCollector, TransferEvent
        from repro.sim import Environment

        env = Environment()
        metrics = MetricsCollector()
        env.process(ext_scale_serve._reaper(env, metrics, 1.0))

        def fill(inv):
            metrics.record_invocation(InvocationRecord("w", inv, "worker-sp", 0.0))
            metrics.record_transfer(
                TransferEvent("w", inv, "p", "c", 1.0, 0.1, "get", False)
            )

        fill(1)
        env.run(until=1.5)
        assert metrics.invocations == [] and metrics.transfers == []
        fill(2)
        assert [t.invocation_id for t in metrics.transfers] == [2]
        env.run(until=2.5)
        assert len(metrics.transfers) == 0 and metrics.data_moved("w") == 0


class TestFaultsBackoff:
    def test_rows_do_not_depend_on_what_ran_before(self):
        """Retry jitter is keyed on the invocation id: every cell
        restarts the ids, so the sweep repeats exactly in one process,
        after another experiment has consumed ids."""
        from repro.experiments import ext_fault_resilience

        ext_fault_resilience.run(invocations=2, rates=(0.05,))
        first = ext_fault_resilience.run_backoff()
        second = ext_fault_resilience.run_backoff()
        assert first.rows == second.rows
