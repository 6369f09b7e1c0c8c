"""The one-pass barrier flush against a page-at-a-time reference.

``PageMappingFTL._flush_pages`` programs a barrier's translation pages and
then its firmware metadata pages in one loop, batches the map-page counters
and claims and retires pages inline.  The reference below is the flush it
replaced, a page per call: a map pass that discards a segment's dirty
marker and writes its page through the shared ``_own`` / ``_retire`` /
``_disown`` verbs with per-page counters, then a meta pass that always
retires the old slot page; a CMT eviction writeback was the map pass over
one segment.  The root's retired pages are released through
``_disown`` one at a time.

Two FTLs run the same operation stream, one with the reference patched in,
and must agree on every piece of state a flush touches: the owner table and
its details, the L2P, the live and durable directories, the pages pending
release, the dirty and unpublished segments, every page's data and OOB, the
sequence counter, the counters, the clock and the channel timelines.  Each
configuration is small and full enough that collection runs inside the
flush's own programs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.ftl.pagemap import DEAD, OOB_MAP, OOB_META, OWNER_MAP, OWNER_META
from repro.sim.rng import make_rng

SMALL = dict(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=2)
BACKGROUND = dict(
    gc_mode="background",
    gc_policy="cost-benefit",
    gc_background_watermark=3,
    gc_copyback_pages_per_step=2,
    gc_hot_write_threshold=3,
    gc_wear_spread_threshold=2,
    gc_wear_check_interval=4,
)

#: name -> (FTL class, channels, blocks per channel, fill, FtlConfig fields).
#: Retained versions and X-L2P pages are live too: those fill less.
CONFIGS = {
    "inline-1ch": (PageMappingFTL, 1, 32, 0.8, dict(SMALL)),
    "background-8ch-cost-benefit": (PageMappingFTL, 8, 24, 0.8, dict(SMALL, **BACKGROUND)),
    "cmt": (XFTL, 2, 32, 0.6, dict(SMALL, cmt_pages=2, cmt_dirty_batch=1)),
    "xftl-retain-2": (XFTL, 2, 32, 0.35, dict(SMALL, retain_versions=2)),
}


def reference_write_translation_page(ftl, segment) -> None:
    ppn = ftl.gc.host_program(ftl._segment_image(segment), OOB_MAP, segment, None)
    old = ftl._map_dir.get(segment)
    if old is not None and ftl._owner[old] != DEAD:
        if ftl._root.map_dir.get(segment) == old:
            ftl._retire(old, OWNER_MAP, segment)
        else:
            ftl._disown(old)
    ftl._map_dir[segment] = ppn
    ftl._unpublished_segments[segment] = None
    ftl._own(ppn, OWNER_MAP, segment)
    ftl.stats.map_page_writes += 1


def reference_flush_pages(ftl, segments, meta_slots=0, mid_point=None) -> None:
    crash_plan = ftl.chip.crash_plan
    for segment in segments:
        if mid_point is not None and crash_plan._points:
            crash_plan.hit(mid_point)
        ftl._dirty_segments.discard(segment)
        reference_write_translation_page(ftl, segment)
    for slot in range(meta_slots):
        ppn = ftl.gc.host_program(("meta", slot), OOB_META, slot, None)
        old = ftl._meta_dir.get(slot)
        if old is not None and ftl._owner[old] != DEAD:
            ftl._retire(old, OWNER_META, slot)
        ftl._meta_dir[slot] = ppn
        ftl._own(ppn, OWNER_META, slot)
        ftl.stats.map_page_writes += 1


def reference_release_retired(ftl) -> None:
    for ppn in ftl._pending_retired:
        ftl._disown(ppn)
    ftl._pending_retired.clear()


def build(name: str, reference: bool):
    cls, channels, blocks, _fill, config = CONFIGS[name]
    chip = FlashChip(
        FlashGeometry(
            page_size=512, pages_per_block=8, num_blocks=blocks * channels, channels=channels
        )
    )
    ftl = cls(chip, FtlConfig(**config))
    if reference:
        ftl._flush_pages = lambda *args, **kwargs: reference_flush_pages(ftl, *args, **kwargs)
        ftl._release_retired = lambda: reference_release_retired(ftl)
    return ftl


def state(ftl) -> dict:
    chip = ftl.chip
    root = ftl._root
    return {
        "owner": list(ftl._owner),
        "detail": dict(ftl._owner_detail),
        "valid": list(ftl._valid_count),
        "l2p": list(ftl._l2p),
        "map_dir": list(ftl._map_dir.items()),
        "meta_dir": list(ftl._meta_dir.items()),
        "root": (
            list(root.map_dir.items()),
            list(root.meta_dir.items()),
            root.seq,
            root.xl2p_ppns,
            dict(root.committed_tids),
            root.commit_seq,
        ),
        "pending": set(ftl._pending_retired),
        "dirty": set(ftl._dirty_segments),
        "unpublished": list(ftl._unpublished_segments),
        "data": list(chip._data),
        "oobs": list(chip._oob),
        "page_states": bytes(chip.state.page_states),
        "seq": ftl._seq,
        "stats": chip.stats.snapshot(),
        "now": chip.clock.now_us,
        "timelines": [
            (t.busy_until_us, t.busy_us, t.reservations) for t in chip.scheduler.timelines()
        ],
    }


def drive(name: str, ops: list[tuple[str, int]]) -> int:
    """Run ``ops`` on the FTL and on the reference; returns how many GC jobs
    ran inside the FTL's flushes."""
    ftl, ref = build(name, False), build(name, True)
    inside = [False]
    collections = [0]
    flush, run_job = ftl._flush_pages, ftl.gc._run_job

    def counted_flush(*args, **kwargs):
        inside[0] = True
        try:
            flush(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_run_job(*args, **kwargs):
        collections[0] += inside[0]
        return run_job(*args, **kwargs)

    ftl._flush_pages, ftl.gc._run_job = counted_flush, counted_run_job
    fill = int(ftl.exported_pages * CONFIGS[name][3])
    tid = 0
    for target in (ftl, ref):
        for lpn in range(fill):
            target.write(lpn, ("fill", lpn))
    for op, value in ops:
        lpn = value % (fill // 4) if value & 1 else value % fill
        for target in (ftl, ref):
            if op == "write":
                target.write(lpn, ("w", value))
            elif op == "trim":
                target.trim(lpn)
            elif op == "barrier":
                target.barrier()
            elif isinstance(target, XFTL):  # "tx": a two-page commit
                target.write_tx(tid, lpn, ("tx", value))
                target.write_tx(tid, (lpn + 7) % fill, ("tx", value))
                target.commit(tid)
            else:
                target.write(lpn, ("tx", value))
        tid += op == "tx"
        if op in ("barrier", "tx"):
            assert state(ftl) == state(ref)
    ftl.barrier()
    ref.barrier()
    assert state(ftl) == state(ref)
    ftl.check_invariants()
    return collections[0]


def fixed_ops(name: str, count: int = 600) -> list[tuple[str, int]]:
    rng = make_rng(29, "test.flush_equivalence", name)
    kinds = ["write"] * 6 + ["trim", "barrier", "tx"]
    return [(rng.choice(kinds), rng.randrange(1 << 16)) for _ in range(count)]


@pytest.mark.parametrize("name", CONFIGS)
def test_one_pass_flush_matches_the_reference_with_gc_inside_the_flush(name):
    assert drive(name, fixed_ops(name)) > 0


OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "write", "trim", "barrier", "tx"]),
        st.integers(0, 1 << 16),
    ),
    min_size=20,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), ops=OPS)
def test_one_pass_flush_leaves_the_reference_state(name, ops):
    drive(name, ops)
