"""Unit and property tests for the page-mapped FTL."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, FtlError, OutOfSpaceError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL
from repro.ftl.pagemap import UNMAPPED
from repro.sim.rng import make_rng


def make_ftl(num_blocks=32, pages_per_block=8, **cfg) -> PageMappingFTL:
    geo = FlashGeometry(page_size=512, pages_per_block=pages_per_block, num_blocks=num_blocks)
    defaults = dict(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1)
    defaults.update(cfg)
    return PageMappingFTL(FlashChip(geo), FtlConfig(**defaults))


class TestBasicMapping:
    def test_exported_space_respects_overprovision(self):
        ftl = make_ftl(num_blocks=32, pages_per_block=8)
        assert ftl.exported_pages == (32 - 8) * 8

    def test_unwritten_page_reads_as_none(self):
        assert make_ftl().read(0) is None

    def test_write_then_read(self):
        ftl = make_ftl()
        ftl.write(5, b"five")
        assert ftl.read(5) == b"five"

    def test_overwrite_returns_latest(self):
        ftl = make_ftl()
        ftl.write(5, b"old")
        ftl.write(5, b"new")
        assert ftl.read(5) == b"new"

    def test_overwrite_moves_physical_page(self):
        ftl = make_ftl()
        ftl.write(5, b"old")
        first = ftl.mapped_ppn(5)
        ftl.write(5, b"new")
        assert ftl.mapped_ppn(5) != first

    def test_lpn_out_of_range(self):
        ftl = make_ftl()
        with pytest.raises(FtlError):
            ftl.write(ftl.exported_pages, b"x")
        with pytest.raises(FtlError):
            ftl.read(-1)

    def test_mapped_ppn_checks_bounds(self):
        """A list index would wrap -1 to the last lpn; the check must not."""
        ftl = make_ftl()
        ftl.write(ftl.exported_pages - 1, b"last")
        for lpn in (-1, ftl.exported_pages):
            with pytest.raises(FtlError):
                ftl.mapped_ppn(lpn)

    def test_map_entries_per_page_must_be_positive(self):
        with pytest.raises(FtlError):
            make_ftl(map_entries_per_page=0)

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write(5, b"x")
        ftl.trim(5)
        assert ftl.read(5) is None

    def test_trim_of_unmapped_is_noop(self):
        ftl = make_ftl()
        ftl.trim(5)
        assert ftl.read(5) is None

    def test_host_write_counter(self):
        ftl = make_ftl()
        for i in range(10):
            ftl.write(i, b"x")
        assert ftl.stats.host_page_writes == 10


class TestGarbageCollection:
    def test_gc_reclaims_space_under_overwrite(self):
        ftl = make_ftl()
        for round_num in range(30):
            for lpn in range(20):
                ftl.write(lpn, b"r%d" % round_num)
        assert ftl.stats.gc_invocations > 0
        ftl.check_invariants()
        for lpn in range(20):
            assert ftl.read(lpn) == b"r29"

    def test_gc_preserves_cold_data(self):
        ftl = make_ftl()
        ftl.write(100, b"cold")
        for round_num in range(40):
            for lpn in range(10):
                ftl.write(lpn, b"hot%d" % round_num)
        assert ftl.read(100) == b"cold"

    def test_survives_full_logical_utilization(self):
        """Overprovisioning is enough headroom even at 100% logical fill."""
        ftl = make_ftl(num_blocks=8, pages_per_block=8, overprovision=0.25)
        for round_num in range(20):
            for lpn in range(ftl.exported_pages):
                ftl.write(lpn, bytes([round_num, lpn]))
            ftl.barrier()
        for lpn in range(ftl.exported_pages):
            assert ftl.read(lpn) == bytes([19, lpn])
        ftl.check_invariants()

    def test_out_of_space_when_headroom_exhausted(self):
        """A GC that cannot reclaim a single block raises OutOfSpaceError.

        Steady valid pages (exported data + map + meta) must leave at least
        one block's worth of slack for copyback; here 48 data + 1 map + 8
        meta pages = 57 valid on a 64-page chip, beyond what any GC can
        sustain, so the device reports out of space instead of wedging.
        """
        ftl = make_ftl(
            num_blocks=8, pages_per_block=8, overprovision=0.25, barrier_meta_pages=8
        )
        with pytest.raises(OutOfSpaceError):
            for lpn in range(ftl.exported_pages):
                ftl.write(lpn, b"v")
            for _ in range(1000):
                ftl.barrier()

    def test_in_capacity_overwrite_with_barriers_never_runs_out(self):
        """Regression: GC must not exhaust its own copyback headroom.

        On a tight-but-legal config (8 blocks x 8 pages, 25% overprovision,
        free pool hovering at one block) an overwrite workload with periodic
        barriers used to die with OutOfSpaceError once host writes consumed
        the last free block and GC had no room left to relocate a victim.
        """
        for barrier_every in (4, 8, 16, 32):
            ftl = make_ftl(
                num_blocks=8,
                pages_per_block=8,
                overprovision=0.25,
                gc_free_block_threshold=1,
                map_entries_per_page=64,
            )
            for op in range(1200):
                ftl.write(op % ftl.exported_pages, ("d", op))
                if op % barrier_every == 0:
                    ftl.barrier()
            ftl.check_invariants()

    def test_gc_mean_valid_ratio_tracked(self):
        ftl = make_ftl()
        for round_num in range(30):
            for lpn in range(20):
                ftl.write(lpn, b"x")
        assert 0.0 <= ftl.gc_mean_valid_ratio() <= 1.0


class TestBarrier:
    def test_barrier_writes_map_pages(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        before = ftl.stats.map_page_writes
        ftl.barrier()
        assert ftl.stats.map_page_writes > before

    def test_barrier_without_dirty_segments_still_writes_meta(self):
        ftl = make_ftl(barrier_meta_pages=2)
        ftl.barrier()
        assert ftl.stats.map_page_writes == 2

    def test_barrier_counts(self):
        ftl = make_ftl()
        ftl.barrier()
        ftl.barrier()
        assert ftl.stats.barriers == 2

    def test_dirty_segments_flushed_once(self):
        ftl = make_ftl(barrier_meta_pages=0)
        ftl.write(0, b"x")
        ftl.barrier()
        first = ftl.stats.map_page_writes
        ftl.barrier()  # nothing dirty now
        assert ftl.stats.map_page_writes == first

    def test_publish_copies_only_the_segments_written_since_the_last_one(self):
        class CountingDict(dict):
            sets = 0

            def __setitem__(self, key, value):
                self.sets += 1
                super().__setitem__(key, value)

        ftl = make_ftl()
        for lpn in (40, 0, 16, 100):  # four segments, not in segment order
            ftl.write(lpn, b"x")
        ftl.barrier()
        root = ftl._root
        assert list(root.map_dir.items()) == list(ftl._map_dir.items())  # order too
        assert root.meta_dir == ftl._meta_dir and not ftl._unpublished_segments
        root.map_dir = CountingDict(root.map_dir)
        ftl.write(17, b"y")  # segment 1 only
        ftl.barrier()
        assert root is ftl._root and root.map_dir.sets == 1
        assert root.map_dir == ftl._map_dir
        ftl.check_invariants()

    def test_a_root_that_lags_the_directory_is_caught(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.barrier()
        ftl._root.map_dir[0] += 1
        with pytest.raises(FtlError, match="root map directory"):
            ftl.check_invariants()


class TestPowerCycle:
    def test_barriered_data_survives(self):
        ftl = make_ftl()
        for lpn in range(15):
            ftl.write(lpn, b"v%d" % lpn)
        ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        for lpn in range(15):
            assert ftl.read(lpn) == b"v%d" % lpn
        ftl.check_invariants()

    def test_unbarriered_data_recovered_from_oob(self):
        ftl = make_ftl()
        ftl.write(0, b"old")
        ftl.barrier()
        ftl.write(0, b"new-unbarriered")
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"new-unbarriered"

    def test_read_while_powered_off_fails(self):
        ftl = make_ftl()
        ftl.power_fail()
        with pytest.raises(FtlError):
            ftl.read(0)

    def test_remount_when_powered_raises(self):
        ftl = make_ftl()
        with pytest.raises(FtlError):
            ftl.remount()

    def test_recovery_after_heavy_gc(self):
        ftl = make_ftl()
        for round_num in range(25):
            for lpn in range(20):
                ftl.write(lpn, b"r%d-%d" % (round_num, lpn))
            if round_num % 7 == 0:
                ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        for lpn in range(20):
            assert ftl.read(lpn) == b"r24-%d" % lpn

    def test_double_power_cycle(self):
        ftl = make_ftl()
        ftl.write(1, b"a")
        ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        ftl.write(2, b"b")
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(1) == b"a"
        assert ftl.read(2) == b"b"
        ftl.check_invariants()


class TestTranslationPageImages:
    """The persisted map-page format: ``(slice of the L2P array, chains,
    the sequence it was built at)``."""

    def test_short_last_segment_round_trips(self):
        ftl = make_ftl(map_entries_per_page=10)
        assert ftl.exported_pages % 10 != 0
        last = ftl.exported_pages - 1
        ftl.write(last, b"tail")
        ftl.write(last - 1, b"tail-1")
        ftl.barrier()
        ppns, chains, built = ftl.chip.peek(ftl._map_dir[last // 10])
        assert isinstance(ppns, array) and ppns.typecode == "i"
        assert built < ftl.chip.read_oob(ftl._map_dir[last // 10])[2]
        assert len(ppns) == ftl.exported_pages % 10
        assert list(ppns[-2:]) == [ftl.mapped_ppn(last - 1), ftl.mapped_ppn(last)]
        assert chains == ()
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(last) == b"tail"
        assert ftl.read(last - 1) == b"tail-1"
        assert ftl.mapped_ppn(last - 2) is None
        ftl.check_invariants()

    def test_trimmed_lpn_in_dense_segment_stays_unmapped(self):
        ftl = make_ftl()
        for lpn in range(16):
            ftl.write(lpn, b"v%d" % lpn)
        ftl.barrier()
        ftl.trim(7)
        ftl.barrier()
        assert ftl.chip.peek(ftl._map_dir[0])[0][7] == UNMAPPED
        ftl.power_fail()
        ftl.remount()
        assert ftl.mapped_ppn(7) is None
        assert ftl.read(7) is None
        for lpn in (6, 8):
            assert ftl.read(lpn) == b"v%d" % lpn
        ftl.check_invariants()

    def _persisted(self):
        ftl = make_ftl()
        ftl.write(0, b"seg0")
        ftl.write(16, b"seg1")
        ftl.barrier()
        ftl.power_fail()
        return ftl

    def test_overlong_image_is_corruption_not_neighbour_overwrite(self):
        ftl = self._persisted()
        ppn = ftl._root.map_dir[0]
        ppns, chains, built = ftl.chip.peek(ppn)
        ftl.chip._data[ppn] = (ppns + ppns[:1], chains, built)
        with pytest.raises(CorruptionError):
            ftl.remount()

    def test_map_dir_segment_past_exported_space_is_corruption(self):
        ftl = self._persisted()
        segments = -(-ftl.exported_pages // 16)
        ftl._root.map_dir[segments] = ftl._root.map_dir.pop(1)
        with pytest.raises(CorruptionError):
            ftl.remount()

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(),
            dict(cmt_pages=2, cmt_dirty_batch=1),
            dict(gc_mode="background", gc_background_watermark=3),
        ],
        ids=["stock", "cmt", "background-gc"],
    )
    def test_clean_segments_match_flash_under_any_interleaving(self, cfg):
        """Every L2P mutation but a GC copyback re-dirties its segment, so a
        clean segment's flash page equals the image a flush would program
        right now, except at an lpn whose page a copyback moved since the
        image was built: that page carries the lpn's OOB at a later
        sequence, which remount replays over the image."""
        moved = 0
        for seed in range(4):
            ftl = make_ftl(num_blocks=24, **cfg)
            rng = make_rng(seed, "test.ftl.pagemap", "images")
            hot = ftl.exported_pages // 2  # overwrite-heavy: forces GC
            for _ in range(500):
                draw = rng.random()
                if draw < 0.80:
                    ftl.write(rng.randrange(hot), b"x")
                elif draw < 0.90:
                    ftl.trim(rng.randrange(hot))
                else:
                    ftl.barrier()
                for segment, ppn in ftl._map_dir.items():
                    if segment in ftl._dirty_segments:
                        continue
                    ppns, chains, built = ftl.chip.peek(ppn)
                    live, live_chains, _now = ftl._segment_image(segment)
                    assert chains == live_chains
                    for lpn, (flushed, now) in enumerate(zip(ppns, live), segment * 16):
                        if flushed != now:
                            assert now != UNMAPPED
                            _kind, key, seq, _tag = ftl.chip.read_oob(now)
                            assert key == lpn and seq > built
                            moved += 1
            assert ftl.stats.gc_invocations > 0
            ftl.check_invariants()
        assert moved > 0  # copybacks left clean images behind the live map


class TestPagemapProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.binary(min_size=1, max_size=8),
                st.sampled_from(["write", "trim", "barrier"]),
            ),
            max_size=120,
        )
    )
    def test_ftl_matches_reference_dict(self, ops):
        """The FTL behaves like a plain dict under writes/trims/barriers."""
        ftl = make_ftl()
        reference: dict[int, bytes] = {}
        for lpn, payload, op in ops:
            if op == "write":
                ftl.write(lpn, payload)
                reference[lpn] = payload
            elif op == "trim":
                ftl.trim(lpn)
                reference.pop(lpn, None)
            else:
                ftl.barrier()
        for lpn in range(31):
            assert ftl.read(lpn) == reference.get(lpn)
        ftl.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=20), st.binary(min_size=1, max_size=4)),
            min_size=1,
            max_size=80,
        ),
        barrier_every=st.integers(min_value=1, max_value=20),
    )
    def test_power_cycle_preserves_barriered_state(self, ops, barrier_every):
        """After crash+remount, every page readable and >= last barrier state."""
        ftl = make_ftl()
        reference: dict[int, bytes] = {}
        for index, (lpn, payload) in enumerate(ops):
            ftl.write(lpn, payload)
            reference[lpn] = payload
            if index % barrier_every == 0:
                ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        # This FTL recovers via OOB replay, so *all* completed writes
        # survive (stronger than the barrier contract requires).
        for lpn, payload in reference.items():
            assert ftl.read(lpn) == payload
