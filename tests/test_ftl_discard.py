"""The FTL releases a metadata page's payload when the durable root stops naming it.

Translation, firmware-metadata and X-L2P table pages are written copy-on-write
and made durable by one root update.  The page the root named before that
update is unreachable from then on (GC moves only owned pages, remount reads
only what the root names), so the publish hands it to ``chip.discard``: a
later read of it raises instead of returning a stale image.
"""

from dataclasses import replace

import pytest

from repro.errors import FlashError, PowerFailure
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL, XFTL
from repro.ftl.pagemap import CP_BARRIER_MID, OOB_XL2P_TABLE, OWNER_XL2P_TABLE
from repro.sim import CrashPlan

GEO = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)
CFG = FtlConfig(
    overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=2, xl2p_capacity=64
)
SEGMENTS = 3


def make_ftl(cls=PageMappingFTL, plan=None):
    return cls(FlashChip(GEO, crash_plan=plan or CrashPlan()), CFG)


def root_pages(ftl) -> list[int]:
    root = ftl._root
    return [*root.map_dir.values(), *root.meta_dir.values(), *root.xl2p_ppns]


def assert_discarded(ftl, ppns) -> None:
    for ppn in ppns:
        with pytest.raises(FlashError, match="discarded"):
            ftl.chip.peek(ppn)


def fill(ftl, tag: bytes) -> None:
    for lpn in range(SEGMENTS * CFG.map_entries_per_page):
        ftl.write(lpn, tag + bytes([lpn]))


def assert_reads(ftl, tag: bytes) -> None:
    for lpn in range(SEGMENTS * CFG.map_entries_per_page):
        assert ftl.read(lpn) == tag + bytes([lpn])


class TestBarrier:
    def test_the_publish_discards_the_pages_the_old_root_named(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.barrier()
        first = root_pages(ftl)
        assert len(first) == SEGMENTS + CFG.barrier_meta_pages
        fill(ftl, b"b")
        ftl.barrier()
        assert_discarded(ftl, first)
        for segment, ppn in ftl._root.map_dir.items():
            assert ftl.chip.peek(ppn) == ftl._segment_image(segment)
        ftl.check_invariants()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert_reads(ftl, b"b")

    def test_a_power_cut_mid_flush_keeps_the_old_root_readable(self):
        plan = CrashPlan()
        ftl = make_ftl(plan=plan)
        fill(ftl, b"a")
        ftl.barrier()
        first = root_pages(ftl)
        images = [ftl.chip.peek(ppn) for ppn in first]
        fill(ftl, b"b")
        plan.arm(CP_BARRIER_MID, after=2)  # before the second translation page
        with pytest.raises(PowerFailure):
            ftl.barrier()
        assert root_pages(ftl) == first
        assert [ftl.chip.peek(ppn) for ppn in first] == images
        ftl.remount()
        ftl.check_invariants()
        assert_reads(ftl, b"b")


class TestXftlCommit:
    def test_a_commit_discards_the_previous_commits_table_pages(self):
        ftl = make_ftl(XFTL)
        ftl.write_tx(1, 0, b"one")
        ftl.commit(1)
        first = ftl._root.xl2p_ppns
        assert len(first) == 2
        ftl.write_tx(2, 1, b"two")
        ftl.commit(2)
        assert_discarded(ftl, first)
        assert all(ftl.chip.peek(ppn)[0] == "xl2p" for ppn in ftl._root.xl2p_ppns)
        ftl.check_invariants()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert (ftl.read(0), ftl.read(1)) == (b"one", b"two")

    def test_the_root_follows_a_table_page_gc_moves_within_its_own_flush(self):
        """A collection started by the flush's second table page can move
        the first one; the root the commit publishes names where it went."""
        ftl = make_ftl(XFTL)
        per = GEO.pages_per_block
        host_program = ftl.gc.host_program
        programmed, moved = [], []

        def program(data, kind, key, tag):
            if kind == OOB_XL2P_TABLE and key == 1 and not moved:
                first = programmed[0]
                for lpn in range(10, 10 + 2 * per):  # seal the first page's block
                    ftl.write(lpn, b"filler")
                ftl.gc._run_job(0, ftl.gc._open_job(0, first // per))
                moved.append(first)
            ppn = host_program(data, kind, key, tag)
            if kind == OOB_XL2P_TABLE:
                programmed.append(ppn)
            return ppn

        ftl.gc.host_program = program
        ftl.write_tx(1, 0, b"one")
        ftl.commit(1)
        del ftl.gc.host_program
        assert moved
        (source,) = moved
        table = ftl._root.xl2p_ppns[0]
        assert table != source
        assert ftl._owner[table] == OWNER_XL2P_TABLE and ftl._owner_detail[table] == 0
        assert ftl._xl2p_page_ppns == list(ftl._root.xl2p_ppns)
        ftl.write_tx(2, 1, b"two")
        ftl.commit(2)
        ftl.check_invariants()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert (ftl.read(0), ftl.read(1)) == (b"one", b"two")


def test_cmt_writebacks_publish_and_discard_under_xftl():
    """Under a demand-paged map the commit publishes the translation pages
    that writebacks moved; the pages the root named before are discarded."""
    config = replace(CFG, cmt_pages=1, cmt_dirty_batch=0)
    ftl = XFTL(FlashChip(GEO), config)
    for tid, lpn in enumerate(range(0, SEGMENTS * CFG.map_entries_per_page, 5), 1):
        ftl.write_tx(tid, lpn, b"v1")
        ftl.commit(tid)
    ftl.barrier()
    named = dict(ftl._root.map_dir)
    for tid, lpn in enumerate(range(0, SEGMENTS * CFG.map_entries_per_page, 5), 100):
        ftl.write_tx(tid, lpn, b"v2")
        ftl.commit(tid)
    stale = [ppn for segment, ppn in named.items() if ftl._root.map_dir[segment] != ppn]
    assert stale
    assert_discarded(ftl, stale)
    ftl.check_invariants()
    ftl.power_fail()
    ftl.remount()
    ftl.check_invariants()
    for lpn in range(0, SEGMENTS * CFG.map_entries_per_page, 5):
        assert ftl.read(lpn) == b"v2"
