"""Smoke tests for the experiment harness (tiny parameterizations).

The real experiment sizes run under ``pytest benchmarks/``; these verify
that every experiment function executes end-to-end and produces the
expected table structure, using the smallest workable parameters.
"""

import json

import pytest

from repro.bench import experiments


class TestExperimentFunctions:
    def test_fig5_structure(self):
        result = experiments.fig5_synthetic_elapsed(
            validities=(0.5,), pages_per_txn=(1, 3), transactions=10, rows=500
        )
        assert len(result.rows) == 2 * 3  # 2 page counts x 3 modes
        assert result.headers[0] == "GC validity"
        assert all(row[3] > 0 for row in result.rows)

    def test_table1_structure(self):
        result = experiments.table1_io_counts(transactions=10, rows=500)
        assert [row[0] for row in result.rows] == ["RBJ", "WAL", "X-FTL"]
        counts = {row[0]: row for row in result.rows}
        assert counts["X-FTL"][2] == 0  # no journal writes on X-FTL

    def test_fig6_structure(self):
        result = experiments.fig6_ftl_activity(
            validities=(0.5,), transactions=10, rows=500
        )
        assert len(result.rows) == 3

    def test_table2_structure(self):
        result = experiments.table2_trace_characteristics(trace_scale=0.01)
        assert len(result.rows) == 4

    def test_fig7_structure(self):
        result = experiments.fig7_smartphone(trace_scale=0.002)
        assert len(result.rows) == 4
        for _trace, wal_s, xftl_s, _speedup in result.rows:
            assert wal_s > 0 and xftl_s > 0

    def test_table4_structure(self):
        result = experiments.table4_tpcc(transactions=5)
        assert len(result.rows) == 4
        assert "Table 3" in result.notes  # the mix table is embedded

    def test_fig8_structure(self):
        result = experiments.fig8_fio_single_thread(intervals=(1, 10), runtime_s=1.0)
        assert len(result.rows) == 6  # 3 modes x 2 intervals

    def test_fig9_structure(self):
        result = experiments.fig9_fio_s830(intervals=(5,), runtime_s=1.0)
        assert len(result.rows) == 3

    def test_table5_structure(self):
        result = experiments.table5_recovery(transactions=5, rows=300)
        assert len(result.rows) == 3
        assert all(row[2] for row in result.rows)  # data intact everywhere

    def test_channel_scaling_structure(self):
        result = experiments.channel_scaling(
            channel_counts=(1, 4), queue_depth=4, runtime_s=1.0,
            transactions=5, rows=300,
        )
        # 3 FIO modes x 2 counts + 3 SQLite modes x 2 counts.
        assert len(result.rows) == 12
        iops = result.extras["fio_iops"]
        assert iops["ordered-journal/4"] > iops["ordered-journal/1"]
        elapsed = result.extras["synthetic_elapsed_s"]
        for channels in (1, 4):
            assert elapsed[f"X-FTL/{channels}"] < elapsed[f"RBJ/{channels}"]

    def test_barrier_structure(self):
        result = experiments.barrier_comparison(transactions=8, rows=200)
        assert len(result.rows) == 6  # 3 SQLite modes x (drain, barrier)
        runs = result.extras["runs"]
        for mode in ("RBJ", "WAL", "X-FTL"):
            drain = runs[f"{mode}/drain"]
            barrier = runs[f"{mode}/barrier"]
            # The tentpole claim: order-only epoch barriers eliminate the
            # commit-path drain stalls on a parallel (channels>=4) device.
            assert drain["drain_stalls"] > 0
            assert barrier["drain_stalls"] == 0
            assert barrier["stalls_avoided"] > 0
            assert barrier["epochs_closed"] > 0
            assert barrier["elapsed_s"] <= drain["elapsed_s"]

    def test_render_produces_text(self):
        result = experiments.table2_trace_characteristics(trace_scale=0.01)
        text = result.render()
        assert "Table 2" in text
        assert "RL Benchmark" in text

    def test_gc_comparison_structure(self):
        result = experiments.gc_comparison(writes=600)
        assert len(result.rows) == 4
        p99 = result.extras["p99_us"]
        # The tentpole claim: background GC takes the stop-the-world pauses
        # off the foreground write path at high utilization.
        assert p99["background"] < p99["inline"]
        spread = result.extras["wear_spread"]
        assert spread["background, wear on"]["after"] <= (
            spread["background, wear off"]["after"]
        )

    def test_mapping_structure(self):
        result = experiments.mapping_locality(
            operations=800, num_blocks=48, pages_per_block=32, cmt_pages=4
        )
        assert len(result.rows) == 6  # 3 localities x (demand-paged, in-RAM)
        ratios = result.extras["hit_ratio"]
        # Locality is the whole game: the tight hot span must beat uniform.
        assert ratios["demand-paged/0.05"] > ratios["demand-paged/1.0"]
        # The in-RAM rows never touch the cache.
        assert all(ratios[f"in-RAM map/{f}"] is None for f in (0.05, 0.2, 1.0))
        wa = result.extras["translation_wa"]
        for fraction in (0.05, 0.2, 1.0):
            assert wa[f"demand-paged/{fraction}"] > wa[f"in-RAM map/{fraction}"]

    def test_mvcc_structure(self):
        result = experiments.mvcc_retention(
            retain_values=(1, 3), transactions=200, probe_ages=(2, 16)
        )
        assert len(result.rows) == 2  # one per retention depth
        ratios = result.extras["fresh_ratio"]
        # retain=1 has no commit epochs: probes never run.
        assert ratios["1/2"] is None and ratios["1/16"] is None
        # With retention, young snapshots must be at least as fresh as old.
        assert ratios["3/2"] >= ratios["3/16"]
        assert ratios["3/2"] > 0.5
        # Retained versions are live pages the deeper run must report.
        assert result.rows[1][-1] > 0

    def test_throughput_structure(self, tmp_path):
        path = tmp_path / "bench.json"
        result = experiments.throughput(
            writes=300,
            num_blocks=48,
            pages_per_block=16,
            channels=2,
            json_path=str(path),
        )
        report = json.loads(path.read_text())
        assert report["workload"]["writes"] == 300
        assert report["wall"]["ops_per_sec"] > 0
        assert report["sim"]["host_page_writes"] == 300
        assert result.extras["report"]["wall"] == report["wall"]
        # Identical runs must agree on every deterministic sim counter, and
        # the regression checker must accept them...
        from repro.bench.regression import compare

        experiments.throughput(
            writes=300,
            num_blocks=48,
            pages_per_block=16,
            channels=2,
            json_path=str(tmp_path / "again.json"),
        )
        again = json.loads((tmp_path / "again.json").read_text())
        assert again["sim"] == report["sim"]
        assert compare(again, report, tolerance=0.99) == []
        # ...and reject any counter drift regardless of wall tolerance.
        again["sim"]["block_erases"] += 1
        assert compare(again, report, tolerance=0.99)

    def test_throughput_preserves_baseline_section(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"baseline": {"ops_per_sec": 1.0}}))
        experiments.throughput(
            writes=100, num_blocks=48, pages_per_block=16, channels=2,
            json_path=str(path),
        )
        report = json.loads(path.read_text())
        assert report["baseline"] == {"ops_per_sec": 1.0}
        assert report["sim"]["host_page_writes"] == 100

    def test_registry_complete(self):
        assert set(experiments.ALL_EXPERIMENTS) == {
            "fig5", "table1", "fig6", "table2", "fig7", "table4",
            "fig8", "fig9", "table5", "barrier", "channels", "concurrency",
            "gc", "mapping", "mvcc", "tenants", "throughput",
        }


class TestCli:
    def test_cli_runs_experiment(self, capsys, tmp_path):
        from repro.bench.cli import main

        code = main(["table2", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert (tmp_path / "table2.txt").exists()

    def test_cli_trace_implies_metrics(self, capsys):
        from repro.bench.cli import main

        assert main(["table2", "--trace"]) == 0
        assert "[table2: " in capsys.readouterr().out  # the per-session report

    def test_cli_rejects_unknown(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_cli_channels_flag_scoped_to_run(self, capsys):
        import os

        from repro.bench.cli import main

        assert "REPRO_CHANNELS" not in os.environ
        code = main(["table2", "--channels", "8", "--queue-depth", "8"])
        assert code == 0
        assert "REPRO_CHANNELS" not in os.environ  # restored after the run
        assert "REPRO_QUEUE_DEPTH" not in os.environ
