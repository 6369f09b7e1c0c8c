"""The 16 bench tables, pinned, and the experiment harness's shape claims.

The ``bench`` pin (``tests/pins.py``) holds one row per ``ALL_EXPERIMENTS``
entry: the title, headers, rows and notes of the table that
``REPRO_SCALE=0.05 python -m repro.bench NAME`` prints on the default serial
device.  A change that moves a table says why and re-records it::

    PYTHONPATH=src:. python -m tests.pins --record bench [EXPERIMENT ...]

The tests below hold the shape claims: one number's relation to another.
"""

import functools
import json
import os
from unittest import mock

import pytest

from repro.bench import experiments

from tests.pins import DATA, Pin


@functools.cache
def _bench_row(name: str) -> dict:
    with mock.patch.dict(os.environ, REPRO_SCALE="0.05"):
        for var in ("REPRO_CHANNELS", "REPRO_QUEUE_DEPTH"):
            os.environ.pop(var, None)
        result = experiments.ALL_EXPERIMENTS[name]()
    return dict(title=result.name, headers=result.headers, rows=result.rows, notes=result.notes)


PIN = Pin("bench", DATA / "bench_baseline.json", list(experiments.ALL_EXPERIMENTS), _bench_row)


@pytest.mark.parametrize("name", PIN.keys)
def test_bench_table_matches_recorded_baseline(name):
    PIN.check(name)


def test_small_scale_tenants_table_commits():
    """Every lane commits at the pin's scale (a count that scaled to zero
    once printed an all-zero table)."""
    row = _bench_row("tenants")
    commits = row["headers"].index("commits")
    assert all(line[commits] > 0 for line in row["rows"])


class TestExperimentFunctions:
    def test_table1_structure(self):
        result = experiments.table1_io_counts(transactions=10, rows=500)
        assert [row[0] for row in result.rows] == ["RBJ", "WAL", "X-FTL"]
        counts = {row[0]: row for row in result.rows}
        assert counts["X-FTL"][2] == 0  # no journal writes on X-FTL

    def test_table2_structure(self):
        result = experiments.table2_trace_characteristics(trace_scale=0.01)
        assert len(result.rows) == 4

    def test_render_produces_text(self):
        result = experiments.table2_trace_characteristics(trace_scale=0.01)
        text = result.render()
        assert "Table 2" in text
        assert "RL Benchmark" in text

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
        runs = result.runs
        assert runs["fio/ordered-journal/4"]["iops"] > runs["fio/ordered-journal/1"]["iops"]
        for channels in (1, 4):
            assert (
                runs[f"synthetic/X-FTL/{channels}"]["elapsed_s"]
                < runs[f"synthetic/RBJ/{channels}"]["elapsed_s"]
            )

    def test_barrier_structure(self):
        result = experiments.barrier_comparison(transactions=8, rows=200)
        assert len(result.rows) == 6  # 3 SQLite modes x (drain, barrier)
        runs = result.runs
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

    def test_gc_comparison_structure(self):
        result = experiments.gc_comparison(writes=600)
        assert len(result.rows) == 4
        runs = result.runs
        # The tentpole claim: background GC takes the stop-the-world pauses
        # off the foreground write path at high utilization.
        assert runs["background"]["p99_us"] < runs["inline"]["p99_us"]
        assert runs["background, wear on"]["spread_after"] <= (
            runs["background, wear off"]["spread_after"]
        )

    def test_mapping_structure(self):
        result = experiments.mapping_locality(
            operations=800, num_blocks=48, pages_per_block=32, cmt_pages=4
        )
        assert len(result.rows) == 6  # 3 localities x (demand-paged, in-RAM)
        runs = result.runs
        spans = ("5% hot span", "20% hot span", "100% hot span")
        # Locality is the whole game: the tight hot span must beat uniform.
        assert (
            runs["5% hot span/demand-paged"]["hit_ratio"]
            > runs["100% hot span/demand-paged"]["hit_ratio"]
        )
        # The in-RAM rows never touch the cache.
        assert all(runs[f"{span}/in-RAM map"]["hit_ratio"] is None for span in spans)
        for span in spans:
            assert (
                runs[f"{span}/demand-paged"]["translation_wa"]
                > runs[f"{span}/in-RAM map"]["translation_wa"]
            )

    def test_mvcc_structure(self):
        result = experiments.mvcc_retention(
            retain_values=(1, 3), transactions=200, probe_ages=(2, 16)
        )
        assert len(result.rows) == 2  # one per retention depth
        shallow = result.runs["1"]["fresh_ratio"]
        deep = result.runs["3"]["fresh_ratio"]
        # retain=1 has no commit epochs: probes never run.
        assert shallow[2] is None and shallow[16] is None
        # With retention, young snapshots must be at least as fresh as old.
        assert deep[2] >= deep[16]
        assert deep[2] > 0.5
        # Retained versions are live pages the deeper run must report.
        assert result.rows[1][-1] > 0


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

    def test_cli_gc_metrics_records_the_bare_ftls(self, capsys, tmp_path):
        """``gc`` builds bare FTLs, not stacks: under ``--metrics`` each
        still records into a session of its own."""
        from repro.bench.cli import main

        with mock.patch.dict(os.environ, REPRO_SCALE="0.05"):
            code = main(["gc", "--metrics", "--metrics-format", "json",
                         "--metrics-dir", str(tmp_path), "--results-dir", str(tmp_path)])
        assert code == 0
        assert "[gc: 4 metrics session(s)]" in capsys.readouterr().out
        counters = [json.loads(path.read_text())["counters"]
                    for path in sorted((tmp_path / "gc").glob("*.json"))]
        assert len(counters) == 4
        assert all(any(name.startswith("ftl.gc.") and n for name, n in c.items())
                   for c in counters)
        assert sum(c["ftl.gc.invocations"] for c in counters) > 0

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
