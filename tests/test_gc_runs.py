"""The collector relocates a victim run by run, and declines without scoring.

Four kinds of check:

- *whole-FTL equivalence*: an armed crash point that never fires forces runs
  of one page through ``chip.read`` / ``chip.program`` — the per-page loop —
  so the same workload with and without it must leave the device, the FTL and
  every clock and counter identical;
- *slice path = per-page path*: a run holding any non-L2P owner draws its
  OOBs page by page, and the same run cut where the owner kind changes sends
  its L2P parts through the all-L2P slice path — both leave the same owner
  table, side table, L2P, dirty segments, valid counts, OOBs and ``_seq``;
- *the FIFO trap*: background collection returns before ``pick_victim`` when
  no block is affordable, and FIFO's pick counts its fallbacks, so the counter
  is pinned to the values the parent commit produced;
- *count guards*: host work per flash operation on an ``ftl_gc``-shaped device
  is exact, so it is asserted as counts (``sys.setprofile``), not timed —
  including the collector's one decision per host page.
"""

from __future__ import annotations

import collections
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.device import StorageDevice
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.ftl.pagemap import DEAD
from repro.obs import Observability
from repro.sim import CrashPlan
from repro.sim.rng import make_rng
from tests.chip_image import chip_image
from tests.test_ftl_ownership import page_lpn

BACKGROUND = dict(
    gc_mode="background",
    gc_policy="cost-benefit",
    gc_background_watermark=4,
    gc_copyback_pages_per_step=4,
    gc_hot_write_threshold=4,
    gc_wear_spread_threshold=4,
    gc_wear_check_interval=8,
)
SCHEDULES = {
    "inline-fifo": dict(gc_policy="fifo"),
    "background": BACKGROUND,
    "background-cmt": dict(BACKGROUND, cmt_pages=2, cmt_dirty_batch=1),
}


def _everything(ftl) -> dict:
    root = ftl._root
    return {
        **chip_image(ftl.chip),
        "l2p": list(ftl._l2p),
        "owner": list(ftl._owner),
        "owner_detail": sorted(ftl._owner_detail.items()),
        "valid_count": list(ftl._valid_count),
        "seq": ftl._seq,
        "dirty": sorted(ftl._dirty_segments),
        "root": (list(root.map_dir.items()), list(root.meta_dir.items()), root.seq),
        "free": [list(free) for free in ftl.gc._free_by_channel],
    }


def _churned(cls, schedule: str, per_page: bool):
    plan = CrashPlan()
    if per_page:
        plan.arm("flash.program.before", after=10**9)
    chip = FlashChip(
        FlashGeometry(page_size=512, pages_per_block=8, num_blocks=48, channels=2),
        crash_plan=plan,
        obs=Observability(enabled=True),
    )
    ftl = cls(
        chip,
        FtlConfig(
            overprovision=0.25,
            map_entries_per_page=16,
            barrier_meta_pages=1,
            xl2p_capacity=64,
            **SCHEDULES[schedule],
        ),
    )
    rng = make_rng(0x6C, "test.gc_runs", schedule)
    fill = int(ftl.exported_pages * 0.9)
    for lpn in range(fill):
        ftl.write(lpn, ("fill", lpn))
    for step in range(1500):
        lpn = rng.randrange(fill // 5) if rng.random() < 0.8 else rng.randrange(fill)
        if cls is XFTL and step % 3 == 0:
            tid = 1000 + step
            ftl.write_tx(tid, lpn, ("tx", step))
            ftl.write_tx(tid, (lpn + 7) % fill, ("tx2", step))
            (ftl.abort if step % 15 == 0 else ftl.commit)(tid)
        else:
            ftl.write(lpn, ("w", step))
        if step % 40 == 39:
            ftl.barrier()
    ftl.check_invariants()
    return ftl


@pytest.mark.parametrize("cls", [PageMappingFTL, XFTL], ids=["stock", "xftl"])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_runs_leave_what_the_per_page_loop_leaves(cls, schedule: str) -> None:
    by_run = _churned(cls, schedule, per_page=False)
    by_page = _churned(cls, schedule, per_page=True)
    assert by_run.stats.gc_copyback_writes > 200  # GC really ran
    assert _everything(by_run) == _everything(by_page)


def _owners_everywhere(seed: int) -> XFTL:
    """A small X-FTL whose blocks mix every kind of owner: L2P data, map and
    meta pages, open X-L2P data and table pages, versions, retired pages."""
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32))
    ftl = XFTL(
        chip,
        FtlConfig(
            overprovision=0.25,
            map_entries_per_page=16,
            barrier_meta_pages=1,
            xl2p_capacity=64,
            retain_versions=2,
        ),
    )
    rng = make_rng(seed, "test.gc_runs", "owners_everywhere")
    for step in range(60):
        roll, lpn = rng.random(), rng.randrange(40)
        if roll < 0.5:
            ftl.write(lpn, ("w", step))
        elif roll < 0.7:
            ftl.write_tx(step, lpn, ("tx", step))
            if rng.random() < 0.6:
                ftl.commit(step)
        elif roll < 0.8:
            ftl.trim(lpn)
        else:
            ftl.barrier()
    return ftl


def _relocate(ftl, srcs: list[int], dst: int) -> None:
    """What the collector's ``_run_job`` does with one run."""
    owners = [ftl._owner[ppn] for ppn in srcs]
    keys = [ftl.chip.oob_keys[ppn] for ppn in srcs]
    ftl.chip.copyback_run(srcs, dst, ftl._gc_oobs(owners, keys, srcs))
    ftl._apply_relocations(owners, keys, srcs, dst)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_the_all_l2p_slice_path_leaves_what_the_per_page_path_leaves(seed, data) -> None:
    """A run that holds any non-L2P owner goes page by page; the same run cut
    where the owner kind changes sends its L2P parts through the slice path.
    Both must leave the same state."""
    twins = [_owners_everywhere(seed) for _ in range(2)]
    ftl = twins[0]
    per = ftl.chip.geometry.pages_per_block
    mixed = {}
    for block in range(ftl.chip.geometry.num_blocks):
        live = [ppn for ppn in range(block * per, (block + 1) * per) if ftl._owner[ppn] != DEAD]
        if {page_lpn(ftl, ppn) is None for ppn in live} == {True, False}:
            mixed[block] = live
    assume(mixed)
    live = mixed[data.draw(st.sampled_from(sorted(mixed)))]
    keep = data.draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
    srcs = [ppn for ppn, kept in zip(live, keep) if kept]
    kinds = {page_lpn(ftl, ppn) is None for ppn in srcs}
    assume(kinds == {True, False})
    seen = []
    for index, twin in enumerate(twins):
        dst = twin.gc._free_by_channel[0].pop() * per
        if index == 0:
            _relocate(twin, srcs, dst)  # one mixed run: page by page
        else:
            start = 0
            for end in range(1, len(srcs) + 1):
                if end == len(srcs) or (page_lpn(twin, srcs[end]) is None) != (
                    page_lpn(twin, srcs[start]) is None
                ):
                    _relocate(twin, srcs[start:end], dst + start)
                    start = end
        twin.check_invariants()
        seen.append(
            {
                "owner": list(twin._owner),
                "owner_detail": sorted(twin._owner_detail.items()),
                "l2p": list(twin._l2p),
                "dirty": sorted(twin._dirty_segments),
                "valid_count": list(twin._valid_count),
                "oob": chip_image(twin.chip)["oob"],
                "seq": twin._seq,
            }
        )
    assert seen[0] == seen[1]


class TestFifoFallbackTrap:
    """Values below were read off the parent commit (per-page copyback, no
    early return) running exactly this scenario."""

    def _ftl(self):
        obs = Observability(enabled=True)
        chip = FlashChip(
            FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32, channels=2), obs=obs
        )
        ftl = PageMappingFTL(
            chip,
            FtlConfig(
                overprovision=0.07,  # one spare block a channel: the pool does run dry
                map_entries_per_page=16,
                barrier_meta_pages=1,
                gc_mode="background",
                gc_policy="fifo",
                gc_background_watermark=14,
                gc_copyback_pages_per_step=2,
                gc_hot_write_threshold=0,
                gc_wear_spread_threshold=0,
            ),
        )
        return ftl, lambda: obs.registry.counter_value("ftl.gc.fifo_fallbacks")

    def test_nothing_reclaimable_still_counts_every_fallback(self):
        ftl, fallbacks = self._ftl()
        # Distinct pages: no block ever has a dead one, and while the last
        # free block fills nothing written is affordable either — the early
        # return's case (returning before FIFO's pick leaves 208 here).
        for lpn in range(236):
            ftl.write(lpn, ("a", lpn))
        assert ftl.stats.gc_invocations == 0
        assert ftl.gc.free_block_counts() == [1, 1]
        assert fallbacks() == 218
        # Overwrites make blocks reclaimable: FIFO mostly finds them itself.
        for round_number in range(4):
            for lpn in range(0, 236, 3):
                ftl.write(lpn, ("b", round_number, lpn))
        assert ftl.stats.gc_invocations == 229
        assert ftl.stats.gc_copyback_writes == 1519
        assert fallbacks() == 232


class TestCountGuards:
    """``ftl_gc`` in small: 8 channels, queue depth 8, 85 % full, 80/20 skew,
    background cost-benefit collection with wear levelling."""

    #: Python-level calls per flash operation.  3.492 when recorded (CPython
    #: 3.11; 4.126 while the barrier flushed a page per call through
    #: ``_write_translation_page``, released retired pages through
    #: ``_disown`` and every host program called ``_stream_block``; 4.11
    #: while runs were relocated page by page over tuple owners, 4.79 while
    #: every queued command also registered a clock completion event, 5.94
    #: with three headroom computations and up to two state writes per
    #: background step, 12.20 before copyback moved as runs).
    CALLS_PER_FLASH_OP_CEILING = 3.50
    #: ``headroom_pages`` + ``_set_state`` calls per host program: 1.07 when
    #: recorded, 6.27 before the step computed headroom once.
    DECISION_CALLS_PER_HOST_PROGRAM_CEILING = 1.2
    #: ``_stream_block`` calls per host program: 0.928 when recorded, 1.0
    #: while every host program went through it.  At 85 % fill the hot
    #: stream never has the slack to open a block of its own, so a hot page
    #: still calls it to fall back to the cold block; a cold page does not.
    STREAM_BLOCK_CALLS_PER_HOST_PROGRAM_CEILING = 0.95

    def test_host_work_per_flash_op(self):
        chip = FlashChip(
            FlashGeometry(page_size=512, pages_per_block=32, num_blocks=64, channels=8)
        )
        config = dict(BACKGROUND, gc_wear_spread_threshold=16, gc_wear_check_interval=32)
        ftl = PageMappingFTL(chip, FtlConfig(**config))
        device = StorageDevice(ftl, queue_depth=8)
        fill = int(ftl.exported_pages * 0.85)
        rng = make_rng(7, "test.gc_runs", "count_guards")

        def overwrite(count: int) -> None:
            for step in range(count):
                hot = rng.random() < 0.8
                device.write(rng.randrange(fill // 5 if hot else fill), ("w", step))
                if step % 8 == 7:
                    device.flush()

        for lpn in range(fill):
            device.write(lpn, ("fill", lpn))
        device.flush()
        overwrite(2000)  # to steady collection

        calls: collections.Counter[str] = collections.Counter()
        picked: list[int | None] = []
        background_slices: list[bool] = []

        def profile(frame, event, arg):
            name = frame.f_code.co_name
            if event == "call":
                calls[name] += 1
                if name == "_open_block" and frame.f_back.f_code.co_name == "_run_job":
                    calls["destination blocks opened"] += 1
            elif event == "return" and name == "pick_victim":
                picked.append(arg)
            elif event == "return" and name == "_background_step":
                background_slices.append(arg)

        before = chip.stats.snapshot()
        sys.setprofile(profile)
        try:
            overwrite(4000)
        finally:
            sys.setprofile(None)
        used = chip.stats.delta(before)
        opened = calls.pop("destination blocks opened")
        assert used.gc_invocations > 1000 and used.gc_copyback_writes > 20 * used.gc_invocations

        # (a) No pick is scored and then declined.
        jobs_from_picks = used.gc_invocations - used.gc_wear_migrations
        assert calls["pick_victim"] == jobs_from_picks + picked.count(None)
        # (b) Host work per flash operation.
        flash_ops = used.page_reads + used.page_programs + used.block_erases
        assert sum(calls.values()) / flash_ops <= self.CALLS_PER_FLASH_OP_CEILING
        # (c) A slice of a job is one run, plus one per destination block it fills.
        assert 0 < calls["copyback_run"] <= calls["_run_job"] + opened
        assert calls["read"] == 0 and calls["program"] == used.page_programs - used.gc_copyback_writes
        # (d) One decision per host page: headroom computed once, the state
        # written only when it changes.
        decisions = (calls["headroom_pages"] + calls["_set_state"]) / calls["host_program"]
        assert decisions <= self.DECISION_CALLS_PER_HOST_PROGRAM_CEILING
        # A host program appends to its stream's open block itself, and the
        # background gate reads the channel's busy-until itself (6,623
        # ``channel_backlog_us`` calls before).
        streams = calls["_stream_block"] / calls["host_program"]
        assert streams <= self.STREAM_BLOCK_CALLS_PER_HOST_PROGRAM_CEILING
        assert calls["channel_backlog_us"] == calls["backlog_us"] == 0
        # (e) The background gate never builds the exclusion set: only the
        # victim pickers do (1,430 + 248 when recorded).
        assert calls["_excluded"] == calls["pick_victim"] + calls["_pick_wear_victim"]
        # (f) A paced slice is entered only to open or advance a job (at 85 %
        # fill the gate declines every one: 6,448 calls that all declined
        # before the gate moved into the step, 0 now).
        assert all(background_slices) and len(background_slices) == calls["_background_step"]
