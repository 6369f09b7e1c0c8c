"""Unit tests for the demand-paged cached mapping table (repro.ftl.cmt)."""

import pytest

from repro.errors import FtlError, PowerFailure
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.ftl.cmt import CachedMappingTable
from repro.ftl.pagemap import UNMAPPED
from repro.sim.crash import CrashPlan
from repro.sim.rng import make_rng

SEG = 16  # map_entries_per_page below; segment(lpn) == lpn // SEG


def make_ftl(
    num_blocks=24, pages_per_block=8, crash_plan=None, cls=PageMappingFTL, **cfg
) -> PageMappingFTL:
    geo = FlashGeometry(page_size=512, pages_per_block=pages_per_block, num_blocks=num_blocks)
    defaults = dict(
        overprovision=0.25,
        map_entries_per_page=SEG,
        barrier_meta_pages=1,
        cmt_pages=2,
        cmt_dirty_batch=1,
    )
    defaults.update(cfg)
    return cls(FlashChip(geo, crash_plan=crash_plan), FtlConfig(**defaults))


def make_xftl(**kwargs) -> XFTL:
    return make_ftl(cls=XFTL, **kwargs)


def total_segments(ftl: PageMappingFTL) -> int:
    return -(-ftl.exported_pages // ftl.config.map_entries_per_page)


class TestConstruction:
    def test_active_when_cache_smaller_than_map(self):
        ftl = make_ftl(cmt_pages=2)
        assert total_segments(ftl) > 2
        assert ftl._cmt is not None
        assert ftl._cmt.capacity == 2

    def test_degenerates_when_disabled(self):
        assert make_ftl(cmt_pages=0)._cmt is None

    def test_degenerates_when_whole_map_fits(self):
        ftl = make_ftl(cmt_pages=0)
        segments = total_segments(ftl)
        assert make_ftl(cmt_pages=segments)._cmt is None
        assert make_ftl(cmt_pages=segments + 100)._cmt is None
        # One short of the full map is the largest *active* cache.
        assert make_ftl(cmt_pages=segments - 1)._cmt is not None

    def test_negative_cmt_pages_rejected(self):
        with pytest.raises(FtlError):
            make_ftl(cmt_pages=-1)

    def test_negative_dirty_batch_rejected(self):
        with pytest.raises(FtlError):
            make_ftl(cmt_pages=2, cmt_dirty_batch=-1)

    def test_zero_capacity_rejected_directly(self):
        ftl = make_ftl(cmt_pages=0)
        with pytest.raises(FtlError):
            CachedMappingTable(ftl, 0, 1)


class TestResidency:
    def test_lru_order_tracks_accesses(self):
        ftl = make_ftl()
        ftl.read(0 * SEG)
        ftl.read(1 * SEG)
        assert ftl._cmt.resident_segments() == [0, 1]
        ftl.read(0 * SEG)  # touch: 0 becomes MRU
        assert ftl._cmt.resident_segments() == [1, 0]
        ftl.read(2 * SEG)  # capacity 2: LRU victim is 1
        assert ftl._cmt.resident_segments() == [0, 2]

    def test_hit_and_miss_counters(self):
        ftl = make_ftl()
        ftl.read(0)
        assert (ftl.stats.cmt_misses, ftl.stats.cmt_hits) == (1, 0)
        ftl.read(1)  # same segment
        assert (ftl.stats.cmt_misses, ftl.stats.cmt_hits) == (1, 1)
        ftl.read(SEG)  # new segment
        assert (ftl.stats.cmt_misses, ftl.stats.cmt_hits) == (2, 1)

    def test_miss_on_never_persisted_segment_costs_no_read(self):
        ftl = make_ftl()
        ftl.read(0)
        assert ftl.stats.cmt_misses == 1
        assert ftl.stats.cmt_fetch_reads == 0

    def test_miss_on_persisted_segment_demand_fetches(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.barrier()  # persists segment 0's translation page
        ftl.read(1 * SEG)
        ftl.read(2 * SEG)  # evicts segment 0 (clean: no writeback)
        assert 0 not in ftl._cmt.resident_segments()
        reads_before = ftl.stats.page_reads
        ftl.read(0)
        assert ftl.stats.cmt_fetch_reads == 1
        # One real flash read for the translation page + one for the data.
        assert ftl.stats.page_reads == reads_before + 2

    def test_clean_eviction_writes_nothing(self):
        ftl = make_ftl()
        for seg in range(2):
            ftl.write(seg * SEG, b"x")
        ftl.barrier()  # everything clean
        programs = ftl.stats.page_programs
        ftl.read(2 * SEG)  # evicts a clean page
        assert ftl.stats.cmt_evictions == 1
        assert ftl.stats.cmt_writebacks == 0
        assert ftl.stats.page_programs == programs

    def test_power_loss_clears_residency(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.barrier()
        assert ftl._cmt.resident_segments()
        ftl.power_fail()
        assert ftl._cmt.resident_segments() == []
        ftl.remount()
        assert ftl.read(0) == b"x"


class TestWriteback:
    def test_dirty_eviction_writes_back(self):
        ftl = make_ftl(cmt_dirty_batch=0)
        ftl.write(0 * SEG, b"a")
        ftl.write(1 * SEG, b"b")
        ftl.write(2 * SEG, b"c")  # evicts dirty segment 0
        assert ftl.stats.cmt_evictions == 1
        assert ftl.stats.cmt_writebacks == 1
        assert 0 not in ftl._dirty_segments
        assert 0 in ftl._map_dir  # page is now on flash
        # Segment 1 was not batched (dirty_batch=0): still dirty, resident.
        assert 1 in ftl._dirty_segments
        assert ftl._cmt.resident_segments() == [1, 2]

    def test_dirty_batch_cleans_companions(self):
        ftl = make_ftl(cmt_dirty_batch=1)
        ftl.write(0 * SEG, b"a")
        ftl.write(1 * SEG, b"b")
        ftl.write(2 * SEG, b"c")
        # Victim (0) plus one LRU-most dirty companion (1) written together.
        assert ftl.stats.cmt_writebacks == 2
        assert 0 not in ftl._dirty_segments
        assert 1 not in ftl._dirty_segments
        assert 2 in ftl._dirty_segments
        # The companion stays resident, now clean.
        assert ftl._cmt.resident_segments() == [1, 2]

    def test_writebacks_count_into_map_page_writes(self):
        ftl = make_ftl(cmt_dirty_batch=0)
        for seg in range(3):
            ftl.write(seg * SEG, b"x")
        assert ftl.stats.cmt_writebacks == 1
        assert ftl.stats.map_page_writes >= 1

    def test_written_back_page_matches_live_map(self):
        ftl = make_ftl(cmt_dirty_batch=0)
        for seg in range(3):
            ftl.write(seg * SEG, b"x")
        ppn = ftl._map_dir[0]
        assert ftl.chip.peek(ppn)[:2] == ftl._segment_image(0)[:2]
        assert list(ftl.chip.peek(ppn)[0]) == [ftl.mapped_ppn(0)] + [UNMAPPED] * (SEG - 1)
        ftl.check_invariants()


class TestUnderPressure:
    def _churn(self, ftl, ops=600, barrier_every=64):
        rng = make_rng(0xC317, "test.ftl.cmt", "churn")
        span = ftl.exported_pages
        for i in range(ops):
            lpn = rng.randrange(span)
            if rng.random() < 0.3:
                ftl.read(lpn)
            else:
                ftl.write(lpn, b"v%d" % i)
            if (i + 1) % barrier_every == 0:
                ftl.barrier()
        ftl.barrier()

    def test_translation_stream_feeds_gc(self):
        ftl = make_ftl()
        self._churn(ftl)
        # Out-of-barrier writebacks churn translation blocks hard enough
        # that GC must reclaim some of them.
        assert ftl.stats.cmt_writebacks > 0
        assert ftl.stats.gc_translation_collections > 0
        ftl.check_invariants()

    def test_invariants_after_power_cycle(self):
        ftl = make_ftl()
        self._churn(ftl, ops=300)
        ftl.write(1, b"unbarriered")
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(1) == b"unbarriered"
        ftl.check_invariants()

    @pytest.mark.parametrize("point", ["ftl.cmt.evict", "ftl.cmt.writeback"])
    def test_crash_points_fire_and_recover(self, point):
        # A fresh plan per test: the default chip shares the module-level
        # NO_CRASH plan, which must never be armed.
        ftl = make_ftl(crash_plan=CrashPlan())
        ftl.chip.crash_plan.arm(point)
        with pytest.raises(PowerFailure):
            self._churn(ftl)
        ftl.remount()
        ftl.check_invariants()

    def test_stale_clean_page_detected(self):
        ftl = make_ftl(cmt_dirty_batch=0)
        for seg in range(3):
            ftl.write(seg * SEG, b"x")
        # Corrupt the live map behind the CMT's back without re-dirtying:
        # the flushed page for segment 0 is now stale and must be caught.
        ftl._l2p[0] = UNMAPPED
        with pytest.raises(FtlError, match="clean translation page .* is stale"):
            ftl._cmt.check_invariants()

    def test_stale_clean_chain_detected(self):
        """A copyback may leave a clean image's mapping behind, never its
        chains: moving a retained version dirties its segment."""
        ftl = make_xftl(cmt_dirty_batch=0, retain_versions=2)
        for tid, value in ((1, "a"), (2, "b")):
            ftl.write_tx(tid, 3, value)
            ftl.commit(tid)
        ftl.barrier()
        ftl._cmt.check_invariants()
        ftl._versions.clear()  # behind the CMT's back, without re-dirtying
        with pytest.raises(FtlError, match=r"segment 0 is stale at lpns \[3\]"):
            ftl._cmt.check_invariants()


def test_active_cache_preserves_data_semantics() -> None:
    """A cache under real eviction pressure changes I/O, never contents."""

    def run(cmt_pages: int) -> tuple[dict, int]:
        ftl = make_ftl(cmt_pages=cmt_pages, cmt_dirty_batch=2)
        rng = make_rng(0xAB, "test.cmt_equivalence", "semantics")
        latest: dict[int, bytes] = {}
        for i in range(500):
            lpn = rng.randrange(ftl.exported_pages)
            data = b"v%d" % i
            ftl.write(lpn, data)
            latest[lpn] = data
            if (i + 1) % 64 == 0:
                ftl.barrier()
        ftl.barrier()
        ftl.check_invariants()
        contents = {lpn: ftl.read(lpn) for lpn in latest}
        return contents, ftl.stats.cmt_evictions

    cached_contents, evictions = run(2)
    plain_contents, _ = run(0)
    assert evictions > 0  # the cache was genuinely under pressure
    assert cached_contents == plain_contents


class TestCommitFold:
    """X-FTL's commit fold (X-L2P entry -> L2P) is an L2P update like any write."""

    def test_fold_is_durable_through_recovery_alone(self):
        ftl = make_xftl()
        for seg in range(4):
            ftl.write(seg * SEG, b"old%d" % seg)
        ftl.barrier()
        flushed = ftl._map_dir[0]
        ftl.write_tx(7, 0, b"new0")
        ftl.write_tx(7, 3 * SEG, b"new3")
        ftl.commit(7)
        # The commit programs no translation page: the flushed copies of
        # segments 0 and 3 predate it and stay stale until a writeback or
        # barrier, so only committed-tid replay can bring the fold back.
        assert {0, 3} <= ftl._dirty_segments
        assert ftl._map_dir[0] == flushed
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"new0"
        assert ftl.read(3 * SEG) == b"new3"
        ftl.check_invariants()

    def test_fold_goes_through_the_cache(self):
        ftl = make_xftl(cmt_pages=2)
        for seg in range(3):
            ftl.write_tx(1, seg * SEG, b"t%d" % seg)
        misses, evictions = ftl.stats.cmt_misses, ftl.stats.cmt_evictions
        ftl.commit(1)
        assert ftl.stats.cmt_misses > misses
        assert ftl.stats.cmt_evictions > evictions
        assert len(ftl._cmt.resident_segments()) <= ftl._cmt.capacity
        for seg in range(3):
            assert ftl.read(seg * SEG) == b"t%d" % seg
        ftl.check_invariants()
