"""A GC copyback's OOB record is its own durable mapping.

A relocation of an L2P-mapped page dirties no translation segment.  Every
map image records the sequence it was built at, and remount replays each
data page whose effect sequence lies above ``min(image seq, root.seq)`` for
its lpn's segment, so a copyback made after the image was built is found in
the OOB scan whether or not a later barrier flushed its segment.  Each test
here runs on a bare FTL and ends with a power cut and a remount.
"""

from __future__ import annotations

import pytest

from repro.flash import FlashChip, FlashGeometry
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.verify.drivers import run_scenario

ENTRIES = 16  # map entries per translation page


def make_ftl(cls=PageMappingFTL, **cfg):
    """One channel of 32 blocks x 8 pages, inline greedy collection."""
    config = dict(overprovision=0.25, map_entries_per_page=ENTRIES, barrier_meta_pages=1)
    config.update(cfg)
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32))
    return cls(chip, FtlConfig(**config))


def collect(ftl, block: int) -> None:
    """Relocate ``block``'s live pages and erase it, as a collection does."""
    gc = ftl.gc
    gc._collect(0, gc._open_job(0, block))


def block_of(ftl, lpn: int) -> int:
    return ftl.mapped_ppn(lpn) // ftl.chip.geometry.pages_per_block


def power_cycle(ftl) -> None:
    ftl.check_invariants()
    ftl.power_fail()
    ftl.remount()
    ftl.check_invariants()


def written(ftl, lpns) -> dict[int, object]:
    for lpn in lpns:
        ftl.write(lpn, ("v", lpn))
    return {lpn: ("v", lpn) for lpn in lpns}


def relocated(ftl, lpns) -> dict[int, int]:
    """Write ``lpns`` (they share their first lpn's block), barrier, then
    collect that block: lpn -> the page its copyback moved it to."""
    written(ftl, lpns)
    ftl.barrier()
    before = {lpn: ftl.mapped_ppn(lpn) for lpn in lpns}
    collect(ftl, block_of(ftl, lpns[0]))
    after = {lpn: ftl.mapped_ppn(lpn) for lpn in lpns}
    assert all(after[lpn] != before[lpn] for lpn in lpns)
    return after


def test_a_copyback_run_dirties_no_segment():
    ftl = make_ftl()
    relocated(ftl, range(8))
    assert ftl._dirty_segments == set()
    assert ftl.stats.gc_copyback_writes == 8


def test_a_retained_version_relocation_still_dirties_its_segment():
    """Version chains live only in the map images, so moving a chain page
    must reach the next flush."""
    ftl = make_ftl(XFTL, retain_versions=2)
    for tid, value in ((1, "a"), (2, "b")):
        ftl.write_tx(tid, 3, value)
        ftl.commit(tid)
    ftl.barrier()
    (version, _sup, _oob), = ftl.version_chain(3)
    assert ftl._dirty_segments == set()
    collect(ftl, version // 8)
    assert ftl.version_chain(3)[0][0] != version
    assert ftl._dirty_segments == {0}
    ftl.barrier()  # persists the repointed chain
    power_cycle(ftl)
    assert ftl.read(3) == "b" and ftl.read_as_of(3, 1) == "a"


def test_a_relocation_then_a_crash_with_no_barrier():
    ftl = make_ftl()
    data = written(ftl, range(8, 40))
    moved = relocated(ftl, range(8))
    data.update({lpn: ("v", lpn) for lpn in range(8)})
    power_cycle(ftl)
    assert {lpn: ftl.mapped_ppn(lpn) for lpn in moved} == moved
    assert {lpn: ftl.read(lpn) for lpn in data} == data


def test_a_relocation_in_a_segment_the_next_barrier_does_not_flush():
    """The barrier publishes a root.seq above the copybacks, but segment 0's
    image is older than them: its horizon, not root.seq, keeps them
    replayable (its old pages are erased by then)."""
    ftl = make_ftl()
    moved = relocated(ftl, range(8))
    image = ftl._root.map_dir[0]
    ftl.write(ENTRIES + 1, "other segment")
    ftl.barrier()
    assert ftl._root.map_dir[0] == image  # segment 0 was not flushed
    assert ftl._root.seq > max(ftl.chip.read_oob(ppn)[2] for ppn in moved.values())
    power_cycle(ftl)
    assert {lpn: ftl.mapped_ppn(lpn) for lpn in moved} == moved
    assert [ftl.read(lpn) for lpn in range(8)] == [("v", lpn) for lpn in range(8)]
    assert ftl.read(ENTRIES + 1) == "other segment"


@pytest.mark.parametrize("barrier_after_trim", [False, True], ids=["trim", "trim-barrier"])
def test_a_trimmed_lpn_whose_last_copy_was_relocated(barrier_after_trim):
    """A trim not yet durable may come back, as the copy the copyback made;
    a durable one may not.  No lpn ever reads another lpn's data, even
    after the relocation's source block is erased and reused."""
    ftl = make_ftl()
    data = written(ftl, range(8, 104))  # whole blocks: lpns 0..7 share one
    relocated(ftl, range(8))
    ftl.trim(3)
    if barrier_after_trim:
        ftl.barrier()
    for step in range(400):  # reuse the erased source block and more
        lpn = 8 + step % 60
        ftl.write(lpn, ("w", lpn, step))
        data[lpn] = ("w", lpn, step)
    assert ftl.stats.gc_invocations > 1
    power_cycle(ftl)
    trimmed = ftl.read(3)
    if barrier_after_trim:
        assert trimmed is None
    else:
        assert trimmed in (None, ("v", 3))
    for lpn in range(ftl.exported_pages):
        value = ftl.read(lpn)
        assert value is None or value[1] == lpn, f"lpn {lpn} reads {value}"
    assert {lpn: ftl.read(lpn) for lpn in data} == data


def test_a_cmt_writeback_during_a_commit_fold_keeps_the_commit():
    """A fold evicts a dirty translation page whose lpn it has not folded
    yet: the written-back image, built after the commit's stamp, still maps
    the old page.  The next commit publishes that image.  The segment's
    horizon is capped at root.seq, below the stamp, so replay still applies
    the committed page."""
    ftl = make_ftl(XFTL, cmt_pages=1, cmt_dirty_batch=0)
    ftl.write(ENTRIES, "base")
    ftl.barrier()
    ftl.write(ENTRIES + 1, "dirty")  # segment 1 resident and dirty
    ftl.write_tx(1, 0, "t0")
    ftl.write_tx(1, ENTRIES, "t16")
    writebacks = ftl.stats.cmt_writebacks
    ftl.commit(1)  # folding lpn 0 evicts segment 1 before lpn 16 is folded
    assert ftl.stats.cmt_writebacks > writebacks
    stamp = ftl._root.committed_tids[1]
    ftl.write_tx(2, 40, "next")
    ftl.commit(2)  # publishes segment 1's mid-fold image
    ppns, _chains, built = ftl.chip.peek(ftl._root.map_dir[1])
    assert built >= stamp > ftl._root.seq
    assert ppns[0] != ftl.mapped_ppn(ENTRIES)  # the image misses the fold
    power_cycle(ftl)
    assert [ftl.read(lpn) for lpn in (0, ENTRIES, ENTRIES + 1, 40)] == [
        "t0", "t16", "dirty", "next"
    ]


def test_the_verify_scenario_of_a_mid_fold_writeback_recovers():
    """The crash sweep's own instance of the case above."""
    result = run_scenario(
        "ftl.cmt", "flash.program.mid", after=30, tear=True, seed=1, ops_limit=7
    )
    assert result.ok, result
