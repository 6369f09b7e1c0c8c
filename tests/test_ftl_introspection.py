"""Tests for FTL introspection (utilization, wear, stats plumbing)."""

from repro.flash import FlashChip, FlashGeometry
from repro.flash.stats import FlashStats
from repro.ftl import FtlConfig, PageMappingFTL


def make_ftl(**cfg):
    geometry = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)
    defaults = dict(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1)
    defaults.update(cfg)
    return PageMappingFTL(FlashChip(geometry), FtlConfig(**defaults))


class TestUtilization:
    def test_empty_device(self):
        assert make_ftl().utilization() == 0.0

    def test_grows_with_writes(self):
        ftl = make_ftl()
        for lpn in range(50):
            ftl.write(lpn, b"x")
        utilization = ftl.utilization()
        assert 50 / 256 <= utilization < 1.0

    def test_overwrite_does_not_grow_utilization(self):
        ftl = make_ftl()
        for lpn in range(20):
            ftl.write(lpn, b"a")
        first = ftl.utilization()
        for lpn in range(20):
            ftl.write(lpn, b"b")
        assert ftl.utilization() == first

    def test_trim_shrinks_utilization(self):
        ftl = make_ftl()
        for lpn in range(20):
            ftl.write(lpn, b"a")
        before = ftl.utilization()
        for lpn in range(10):
            ftl.trim(lpn)
        assert ftl.utilization() < before


class TestWearStats:
    def test_fresh_device_no_wear(self):
        stats = make_ftl().wear_stats()
        assert stats["total_erases"] == 0
        assert stats["max"] == 0

    def test_wear_accumulates_under_churn(self):
        ftl = make_ftl()
        for round_number in range(60):
            for lpn in range(20):
                ftl.write(lpn, bytes([round_number]))
        stats = ftl.wear_stats()
        assert stats["total_erases"] > 0
        assert stats["max"] >= stats["mean"] >= stats["min"]
        assert stats["stddev"] >= 0

    def test_fifo_policy_spreads_wear_more_evenly(self):
        spreads = {}
        for policy in ("greedy", "fifo"):
            ftl = make_ftl(gc_policy=policy)
            for round_number in range(120):
                for lpn in range(20):
                    ftl.write(lpn, bytes([round_number % 250]))
            stats = ftl.wear_stats()
            spreads[policy] = stats["stddev"] / max(stats["mean"], 1e-9)
        # Rotation wears blocks more uniformly than greedy cherry-picking.
        assert spreads["fifo"] <= spreads["greedy"] * 1.5


class TestStatsPlumbing:
    def test_snapshot_diff(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        snap = ftl.stats.snapshot()
        ftl.write(1, b"y")
        diff = ftl.stats.delta(snap)
        assert diff.host_page_writes == 1
        assert snap.host_page_writes == 1  # snapshot unchanged

    def test_as_dict(self):
        stats = FlashStats(page_programs=3)
        assert stats.as_dict()["page_programs"] == 3

    def test_chip_and_ftl_share_one_accumulator(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        assert ftl.stats is ftl.chip.stats
        assert ftl.stats.page_programs >= ftl.stats.host_page_writes
