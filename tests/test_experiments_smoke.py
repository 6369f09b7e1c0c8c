"""The bench tables, pinned, and the paper's shape claims over them.

The ``bench`` pin (``tests/pins.py``) holds one row per ``ALL_EXPERIMENTS``
entry (the paper's tables and figures, the non-paper experiments and the
three ablations): the title, headers, rows and notes of the table that
``REPRO_SCALE=0.05 python -m repro.bench NAME`` prints.  A change that moves a table says why and re-records it::

    PYTHONPATH=src:. python -m tests.pins --record bench [EXPERIMENT ...]

The tests below hold the shape claims: one number's relation to another.
Each reads the run the pin already made, except where that run is too small
to show the claim; those make one dedicated run of their own, and say why.
"""

import functools
import json
import os
from unittest import mock

import pytest

from repro.bench import experiments

from tests.pins import DATA, Pin

PIN_SCALE = "0.05"


@functools.cache
def _run(name: str, scale: str = PIN_SCALE) -> experiments.ExperimentResult:
    """Experiment ``name`` at ``REPRO_SCALE=scale``."""
    with mock.patch.dict(os.environ, REPRO_SCALE=scale):
        return experiments.ALL_EXPERIMENTS[name]()


def _bench_row(name: str) -> dict:
    result = _run(name)
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


class TestPaperShapes:
    """The paper's orderings (§6), on the pinned run unless it cannot show one."""

    VALIDITIES = ("30%", "50%", "70%")

    def test_fig5_xftl_beats_wal_beats_rbj(self):
        elapsed = {(row[0], row[1], row[2]): row[3] for row in _run("fig5").rows}
        for validity in self.VALIDITIES:
            for pages in (5, 10, 20):
                assert (
                    elapsed[(validity, "X-FTL", pages)]
                    < elapsed[(validity, "WAL", pages)]
                    < elapsed[(validity, "RBJ", pages)]
                )

    def test_fig6_xftl_writes_least_and_rbj_most(self):
        writes = {(row[0], row[1]): row[2] for row in _run("fig6").rows}
        for validity in self.VALIDITIES:
            assert writes[(validity, "X-FTL")] < writes[(validity, "WAL")]
            assert writes[(validity, "WAL")] < writes[(validity, "RBJ")]

    def test_fig6_rbj_writes_grow_with_validity(self):
        """At the pin's scale no run collects (every GC count is 0), so RBJ
        writes 405 pages at every validity; at 0.1 it collects (1,015 ->
        1,159 writes, 4 -> 5 GC when recorded)."""
        writes = {(row[0], row[1]): row[2] for row in _run("fig6", "0.1").rows}
        assert writes[("70%", "RBJ")] > writes[("30%", "RBJ")]

    def test_fig7_xftl_at_least_one_and_a_half_times_faster(self):
        """Paper: 2.4x-3.0x."""
        for _trace, wal_s, xftl_s, _speedup in _run("fig7").rows:
            assert xftl_s < wal_s / 1.5

    def test_fig8_xftl_beats_ordered_beats_full(self):
        iops = {(row[0], row[1]): row[2] for row in _run("fig8").rows}
        for interval in experiments.FSYNC_INTERVALS:
            xftl = iops[("X-FTL (journaling off)", interval)]
            ordered = iops[("ext4 ordered journaling", interval)]
            full = iops[("ext4 full journaling", interval)]
            assert xftl > ordered > full
        # IOPS rise as fsyncs get rarer.
        assert iops[("X-FTL (journaling off)", 20)] > iops[("X-FTL (journaling off)", 1)]

    def test_fig9_xftl_between_the_newer_ssds_modes(self):
        """X-FTL on older hardware lands between the S830's ordered and full
        journaling.  At one page per fsync every curve is barrier-bound and
        they converge, so the order is held from 5 pages up."""
        iops = {(row[0], row[1]): row[2] for row in _run("fig9").rows}
        for interval in (5, 10, 15, 20):
            ordered = iops[("S830 ordered journaling", interval)]
            xftl = iops[("OpenSSD with X-FTL", interval)]
            full = iops[("S830 full journaling", interval)]
            assert ordered > xftl > full

    def test_table1_rbj_over_wal_over_xftl(self):
        result = _run("table1")
        counts = {row[0]: row for row in result.rows}
        column = result.headers.index
        total, fsyncs, ftl_writes = column("total host"), column("fsync calls"), column("FTL write")
        assert counts["RBJ"][total] > counts["WAL"][total] > counts["X-FTL"][total]
        assert counts["RBJ"][fsyncs] > counts["WAL"][fsyncs] >= counts["X-FTL"][fsyncs]
        assert counts["RBJ"][ftl_writes] > counts["WAL"][ftl_writes] > counts["X-FTL"][ftl_writes]

    def test_table2_structure_is_not_scaled(self):
        by_name = {row[0]: row for row in _run("table2").rows}
        # Files and tables match the paper's Table 2 at any scale.
        assert by_name["RL Benchmark"][1:3] == [1, 3]
        assert by_name["Gmail"][1:3] == [2, 31]
        assert by_name["Facebook"][1:3] == [11, 72]
        assert by_name["WebBrowser"][1:3] == [6, 26]
        # RL Benchmark is by far the most write-heavy trace.
        assert by_name["RL Benchmark"][6] > by_name["Gmail"][6]

    def test_table4_xftl_wins_writes_and_ties_reads(self):
        tpm = {row[0]: (row[1], row[2]) for row in _run("table4").rows}
        # Paper: 2.3x (write-intensive) and 2.5x (read-intensive).
        assert tpm["write-intensive"][1] > tpm["write-intensive"][0] * 1.5
        assert tpm["read-intensive"][1] > tpm["read-intensive"][0] * 1.2
        # Read-only mixes: parity.
        for mix in ("selection-only", "join-only"):
            wal, xftl = tpm[mix]
            assert 0.8 <= xftl / wal <= 1.25

    def test_table5_xftl_restarts_first(self):
        restart = {row[0]: row[1] for row in _run("table5").rows}
        # Paper: X-FTL 3.5 ms << RBJ 20.1 ms << WAL 153.0 ms.
        assert restart["X-FTL"] < restart["RBJ"] < restart["WAL"]


class TestAblations:
    """DESIGN.md's ablations, at their fixed sizes (the pin's run)."""

    def test_a_500_entry_x_l2p_commits_cheaper_than_1000(self):
        """500 entries fit one flash page; 1,000 take two (paper 8 / 16 KB)."""
        cost = _run("ablation_xl2p_size").runs
        assert cost["500"] < cost["1000"]

    def test_finer_map_chunks_cost_the_barrier_more(self):
        cost = _run("ablation_map_chunk").runs
        assert cost["64"] > cost["1024"]

    def test_greedy_collects_no_slower_than_fifo(self):
        """Greedy picks the emptiest block; FIFO carries the aged validity."""
        elapsed = {row[0]: row[1] for row in _run("ablation_gc_policy").rows}
        assert elapsed["greedy"] <= elapsed["fifo"]


class TestExperimentFunctions:
    def test_table1_structure(self):
        result = _run("table1")
        assert [row[0] for row in result.rows] == ["RBJ", "WAL", "X-FTL"]
        counts = {row[0]: row for row in result.rows}
        assert counts["X-FTL"][2] == 0  # no journal writes on X-FTL

    def test_table2_structure(self):
        assert len(_run("table2").rows) == 4

    def test_render_produces_text(self):
        text = _run("table2").render()
        assert "Table 2" in text
        assert "RL Benchmark" in text

    def test_table5_structure(self):
        rows = _run("table5").rows
        assert len(rows) == 3
        assert all(row[2] for row in rows)  # crash recovery kept every committed row

    def test_channel_scaling_structure(self):
        result = _run("channels")
        # 3 FIO modes x 4 counts + 3 SQLite modes x 4 counts.
        assert len(result.rows) == 24
        runs = result.runs
        assert runs["fio/ordered-journal/4"]["iops"] > runs["fio/ordered-journal/1"]["iops"]
        for channels in (1, 2, 4, 8):
            assert (
                runs[f"synthetic/X-FTL/{channels}"]["elapsed_s"]
                < runs[f"synthetic/RBJ/{channels}"]["elapsed_s"]
            )

    def test_barrier_structure(self):
        result = _run("barrier")
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
        """A run of its own, 600 writes: at the pin's 200 the two wear rows
        collect nothing (0 victims, spread 0 -> 0)."""
        result = _run("gc", "0.15")
        assert len(result.rows) == 4
        runs = result.runs
        # The tentpole claim: background GC takes the stop-the-world pauses
        # off the foreground write path at high utilization.
        assert runs["background"]["p99_us"] < runs["inline"]["p99_us"]
        assert runs["background, wear on"]["spread_after"] <= (
            runs["background, wear off"]["spread_after"]
        )

    def test_mapping_structure(self):
        result = _run("mapping")
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
        """A run of its own, 204 transactions: the pin's 30 never reach its
        older probe ages, and its young ones all read 100 %."""
        result = _run("mvcc", "0.34")
        assert len(result.rows) == 4  # one per retention depth
        shallow = result.runs["1"]["fresh_ratio"]
        deep = result.runs["4"]["fresh_ratio"]
        # retain=1 has no commit epochs: probes never run.
        assert all(ratio is None for ratio in shallow.values())
        # With retention, young snapshots must be at least as fresh as old.
        assert deep[2] >= deep[32]
        assert deep[2] > 0.5
        # Retained versions are live pages the retain=2 run must report.
        assert result.rows[1][-1] > 0


class TestCli:
    def test_cli_runs_experiment(self, capsys, tmp_path):
        from repro.bench.cli import main

        code = main(["table2", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert (tmp_path / "table2.txt").exists()

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
