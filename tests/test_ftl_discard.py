"""The FTL releases a page's payload once nothing durable can name it.

Translation, firmware-metadata and X-L2P table pages are written copy-on-write
and made durable by one root update.  The page the root named before that
update is unreachable from then on (GC moves only owned pages, remount reads
only what the root names), so the publish hands it to ``chip.discard``: a
later read of it raises instead of returning a stale image.

A data page that dies (overwritten, trimmed, or written by an aborted
transaction) stays nameable until the next barrier: the root's map images and
the OOB replay can still make it current.  That barrier's publish is the
first point where neither can, so it releases the payload of every data page
that died before it began, unless the page's block was erased since.
"""

from dataclasses import replace

import pytest

from repro.errors import FlashError, FtlError, PowerFailure
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL, XFTL
from repro.ftl.pagemap import CP_BARRIER_MID, OOB_XL2P_TABLE, OWNER_XL2P_TABLE
from repro.ftl.xftl import MAP_CHECKPOINT_INTERVAL
from repro.sim import CrashPlan
from tests.test_ftl_ownership import page_lpn

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


def mapped(ftl) -> list[int]:
    return [ftl.mapped_ppn(lpn) for lpn in range(SEGMENTS * CFG.map_entries_per_page)]


def power_cycle(ftl) -> None:
    ftl.check_invariants()
    ftl.power_fail()
    ftl.remount()
    ftl.check_invariants()


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
            assert ftl.chip.peek(ppn)[:2] == ftl._segment_image(segment)[:2]
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


class TestDeadDataPages:
    def test_a_barrier_discards_the_copies_overwritten_before_it(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.barrier()
        old = mapped(ftl)
        fill(ftl, b"b")
        assert ftl.chip.peek(old[5]) == b"a\x05"  # a power cut could still need it
        ftl.barrier()
        assert ftl.stats.block_erases == 0
        assert_discarded(ftl, old)
        assert not ftl._deaths
        power_cycle(ftl)
        assert_reads(ftl, b"b")

    def test_a_trim_is_discarded_only_once_a_barrier_makes_it_durable(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.barrier()
        old = mapped(ftl)
        ftl.trim(5)
        ftl.trim_run([6, 7])
        assert ftl.read(5) is None
        assert [ftl.chip.peek(ppn) for ppn in old[5:8]] == [b"a\x05", b"a\x06", b"a\x07"]
        power_cycle(ftl)  # before the next barrier: the trims were not durable
        assert_reads(ftl, b"a")
        assert ftl.mapped_ppn(5) == old[5]
        ftl.trim(5)
        ftl.trim_run([6, 7])
        ftl.barrier()
        assert_discarded(ftl, old[5:8])
        power_cycle(ftl)
        assert [ftl.read(lpn) for lpn in (4, 5, 6, 7, 8)] == [b"a\x04", None, None, None, b"a\x08"]

    def test_a_page_whose_block_was_erased_and_reprogrammed_keeps_the_new_payload(self):
        ftl = make_ftl()
        per = GEO.pages_per_block
        for lpn in range(per):
            ftl.write(lpn, ("first", lpn))
        (block,) = {ftl.mapped_ppn(lpn) // per for lpn in range(per)}
        for lpn in range(per):
            ftl.write(lpn, ("second", lpn))  # the whole block dies
        ftl.gc._run_job(0, ftl.gc._open_job(0, block))  # nothing to move: erased
        assert ftl.stats.block_erases == 1
        lpn = per
        while ftl.mapped_ppn(lpn - 1) // per != block:  # the block comes back
            ftl.write(lpn, ("third", lpn))
            lpn += 1
        reprogrammed = range(block * per, block * per + ftl.chip.state.write_points[block])
        ftl.barrier()
        assert ftl.stats.block_erases == 1
        for ppn in reprogrammed:
            assert ftl.chip.peek(ppn) is not None
        power_cycle(ftl)
        for lpn in range(per):
            assert ftl.read(lpn) == ("second", lpn)
        for ppn in reprogrammed:
            lpn = page_lpn(ftl, ppn)
            if lpn is not None:
                assert ftl.read(lpn) == ("third", lpn)


class TestXftlAbort:
    def test_an_abort_is_discarded_at_the_next_checkpoint_but_not_a_rewritten_copy(self):
        ftl = make_ftl(XFTL)
        ftl.write_tx(1, 0, b"one")
        ftl.commit(1)
        ftl.write_tx(2, 0, b"first")
        rewritten = ftl.xl2p.get(2, 0).new_ppn
        ftl.write_tx(2, 0, b"second")  # the transaction rewrites its own copy
        ftl.write_tx(2, 1, b"two")
        aborted = [ftl.xl2p.get(2, lpn).new_ppn for lpn in (0, 1)]
        ftl.abort(2)
        assert [ftl.chip.peek(ppn) for ppn in aborted] == [b"second", b"two"]
        for tid in range(3, 3 + MAP_CHECKPOINT_INTERVAL - 1):  # the last one checkpoints
            ftl.write_tx(tid, 2, tid)
            ftl.commit(tid)
        assert ftl.stats.barriers == 1 and ftl.stats.block_erases == 0
        assert_discarded(ftl, aborted)
        assert ftl.chip.peek(rewritten) == b"first"
        power_cycle(ftl)
        assert (ftl.read(0), ftl.read(1), ftl.read(2)) == (b"one", None, MAP_CHECKPOINT_INTERVAL + 1)


class TestInvariant:
    """``check_invariants`` fails on a discarded page that remount could map."""

    def discarded_by_hand(self, ftl, ppn) -> None:
        ftl.check_invariants()
        ftl.chip.discard(ppn)
        with pytest.raises(FtlError, match="discarded payloads"):
            ftl.check_invariants()
        ftl.power_fail()  # the rule holds whatever the DRAM state
        with pytest.raises(FtlError, match="discarded payloads"):
            ftl.check_invariants()

    def test_an_owned_page(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.chip.discard(ftl.mapped_ppn(3))
        with pytest.raises(FtlError, match=r"owned pages \[\d+\]"):
            ftl.check_invariants()

    def test_a_dead_page_the_root_still_maps(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.barrier()
        old = ftl.mapped_ppn(3)
        ftl.trim(3)
        self.discarded_by_hand(ftl, old)

    def test_a_dead_page_the_replay_applies(self):
        ftl = make_ftl()
        fill(ftl, b"a")
        ftl.barrier()
        ftl.write(3, b"b")
        replayed = ftl.mapped_ppn(3)
        ftl.write(3, b"c")
        self.discarded_by_hand(ftl, replayed)

    def test_a_committed_transactions_rewritten_copy(self):
        ftl = make_ftl(XFTL)
        ftl.write_tx(1, 0, b"first")
        rewritten = ftl.xl2p.get(1, 0).new_ppn
        ftl.write_tx(1, 0, b"second")
        ftl.commit(1)
        self.discarded_by_hand(ftl, rewritten)
