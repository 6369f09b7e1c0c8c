"""Tests for write-amplification and lifespan analysis."""

import pytest

from repro.bench.analysis import lifespan_ratio, write_amplification
from repro.bench.aging import age_device
from repro.stack import Mode, StackConfig, build_stack
from repro.flash.stats import FlashStats
from repro.ftl.base import FtlConfig
from repro.workloads.synthetic import SyntheticWorkload


class TestWriteAmplification:
    def test_waf_of_pure_host_traffic_is_one(self):
        stats = FlashStats(host_page_writes=100, page_programs=100)
        assert write_amplification(stats).waf == 1.0

    def test_waf_counts_overheads(self):
        stats = FlashStats(
            host_page_writes=100,
            page_programs=250,
            gc_copyback_writes=100,
            map_page_writes=50,
        )
        wa = write_amplification(stats)
        assert wa.waf == 2.5
        assert wa.overhead_programs == 150
        assert wa.share("gc") == pytest.approx(0.4)
        assert wa.share("map") == pytest.approx(0.2)
        assert wa.share("host") == pytest.approx(0.4)

    def test_empty_stats(self):
        wa = write_amplification(FlashStats())
        assert wa.waf == 0.0
        assert wa.share("gc") == 0.0

    def test_lifespan_ratio(self):
        wal = FlashStats(block_erases=200)
        xftl = FlashStats(block_erases=90)
        assert lifespan_ratio(wal, xftl) == pytest.approx(200 / 90)
        assert lifespan_ratio(wal, FlashStats()) == float("inf")


class TestPaperLifespanClaim:
    def test_xftl_extends_lifespan_vs_wal(self):
        """Conclusion §7: X-FTL ~doubles the life span vs host journaling."""
        erases = {}
        waf = {}
        for mode in (Mode.WAL, Mode.XFTL):
            stack = build_stack(
                StackConfig(mode=mode, num_blocks=512, pages_per_block=128,
                            ftl=FtlConfig(gc_policy="fifo"))
            )
            db = stack.open_database("life.db")
            workload = SyntheticWorkload(db, rows=6_000)
            workload.load()
            age_device(stack, 0.5)
            snap = stack.ftl.stats.snapshot()
            workload.run(transactions=100, updates_per_txn=5)
            delta = stack.ftl.stats.delta(snap)
            erases[mode] = delta
            waf[mode] = write_amplification(delta).waf
        ratio = lifespan_ratio(erases[Mode.WAL], erases[Mode.XFTL])
        assert ratio >= 1.8  # "doubles the life span"
        # X-FTL's WAF is also lower: no journal pages, no map flush per fsync.
        assert waf[Mode.XFTL] < waf[Mode.WAL]
