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
  including the collector's one decision per host page — and so is the SQL
  stack's program path, one frame per layer.
"""

from __future__ import annotations

import collections
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.aging import age_device
from repro.device import StorageDevice
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.ftl.gc import InlineCollector
from repro.ftl.pagemap import DEAD
from repro.obs import Observability
from repro.sim import CrashPlan
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack
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
        "deaths": list(ftl._deaths),
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


class _SupersedingFTL(PageMappingFTL):
    """The stock FTL with a ``_supersede`` of its own that does what the
    stock one does: its plain writes map through ``_map``."""

    def _supersede(self, lpn: int, old_ppn: int, commit_seq: int | None) -> None:
        super()._supersede(lpn, old_ppn, commit_seq)


@pytest.mark.parametrize("schedule", ["inline-fifo", "background-cmt"])
def test_a_plain_write_maps_as_map_does(schedule: str) -> None:
    """``PageMappingFTL.write`` maps and buries inline while its class keeps
    the stock ``_supersede``; ``_map`` is the reference it must match."""
    inline = _churned(PageMappingFTL, schedule, per_page=False)
    mapped = _churned(_SupersedingFTL, schedule, per_page=False)
    assert inline._stock_supersede and not mapped._stock_supersede
    assert _everything(inline) == _everything(mapped)


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


def _relocate(ftl, srcs: list[int]) -> None:
    """What the collector's ``_run_job`` does with one run: append it to the
    channel's cold block, cut where that block fills, and take the next one
    through the cold stream's own path."""
    gc = ftl.gc
    per = ftl.chip.geometry.pages_per_block
    write_points = gc._write_points
    cold = gc._active_blocks
    while srcs:
        block = cold[0]
        if block is None or write_points[block] >= per:
            block = gc._stream_block(0, cold)
        used = write_points[block]
        run, srcs = srcs[: per - used], srcs[per - used :]
        owners = [ftl._owner[ppn] for ppn in run]
        keys = [ftl.chip.oob_keys[ppn] for ppn in run]
        dst = block * per + used
        ftl.chip.copyback_run(run, dst, ftl._gc_oobs(owners, keys, run))
        if write_points[block] >= per:
            cold[0] = None
        ftl._apply_relocations(owners, keys, run, dst)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_the_all_l2p_slice_path_leaves_what_the_per_page_path_leaves(seed, data) -> None:
    """A run that holds any non-L2P owner goes page by page; the same run cut
    where the owner kind changes sends its L2P parts through the slice path.
    Both must leave the same state.  The runs land in the cold stream as a
    collection's would, from a block a victim picker could choose."""
    twins = [_owners_everywhere(seed) for _ in range(2)]
    ftl = twins[0]
    per = ftl.chip.geometry.pages_per_block
    streams = ftl.gc._excluded(0)
    mixed = {}
    for block in range(ftl.chip.geometry.num_blocks):
        if block in streams:
            continue
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
        if index == 0:
            _relocate(twin, srcs)  # one mixed run: page by page
        else:
            start = 0
            for end in range(1, len(srcs) + 1):
                if end == len(srcs) or (page_lpn(twin, srcs[end]) is None) != (
                    page_lpn(twin, srcs[start]) is None
                ):
                    _relocate(twin, srcs[start:end])
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
    background cost-benefit collection with wear levelling, at two operating
    points: 64 blocks, where every collection is urgent, and 256 blocks,
    where background slices do all of it."""

    #: Python-level calls per flash operation.  2.425 when recorded (CPython
    #: 3.11; 191,130 calls over 78,816 flash operations in a 4,500-overwrite
    #: window; 2.268, 218,071 over 96,165, while every GC copyback dirtied
    #: its translation segment: the map flushes and copybacks that cost
    #: went, and they took more flash operations than calls with them;
    #: over a 4,000-overwrite window 2.280 then, 193,491 over 84,883, and
    #: 2.435 after, 169,800 over 69,724; 2.675 when the
    #: ceiling was 2.70; 2.775 while every wear check scored a victim it
    #: could not afford and every block scan called ``geometry.channel_blocks``;
    #: 3.492 when first recorded; 4.126 while the barrier flushed a page per
    #: call through ``_write_translation_page``, released retired pages
    #: through ``_disown`` and every host program called ``_stream_block``;
    #: 4.11 while runs were relocated page by page over tuple owners, 4.79
    #: while every queued command also registered a clock completion event,
    #: 5.94 with three headroom computations and up to two state writes per
    #: background step, 12.20 before copyback moved as runs).
    CALLS_PER_FLASH_OP_CEILING = 2.46
    #: The same at 256 blocks: 4.575 when recorded (CPython 3.11; 292,252
    #: calls over 63,887 flash operations and 7,254 background steps, so
    #: one more call per step would read 4.688; 4.765, 299,397 calls over
    #: 62,831 flash operations in a 4,000-overwrite window, while every GC
    #: copyback dirtied its translation segment; 4.803 while the background
    #: gate built the exclusion set as well as the picker).
    BACKGROUND_CALLS_PER_FLASH_OP_CEILING = 4.65
    #: ``headroom_pages`` + ``_set_state`` calls per host program: 1.14 when
    #: recorded (1.10 while every GC copyback dirtied its translation
    #: segment, 1.07 before every wear check read the headroom first),
    #: 6.27 before the step computed headroom once.
    DECISION_CALLS_PER_HOST_PROGRAM_CEILING = 1.2
    #: ``_stream_block`` calls per host program: 0.910 when recorded, 1.0
    #: while every host program went through it.  At 85 % fill the hot
    #: stream never has the slack to open a block of its own, so a hot page
    #: still calls it to fall back to the cold block; a cold page does not.
    STREAM_BLOCK_CALLS_PER_HOST_PROGRAM_CEILING = 0.95

    #: Overwrites under the profiler: long enough for more than 1,000
    #: victims and 200 wear checks at either point (4,000 made 974 victims
    #: at 256 blocks and 200 wear checks at 64 once GC copybacks stopped
    #: dirtying translation segments).
    WINDOW = 4500

    def _profile(self, num_blocks: int):
        """2,000 warm-up overwrites, then :attr:`WINDOW` under
        ``sys.setprofile``: the flash counts they used and the profiler's
        observations."""
        chip = FlashChip(
            FlashGeometry(page_size=512, pages_per_block=32, num_blocks=num_blocks, channels=8)
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
            overwrite(self.WINDOW)
        finally:
            sys.setprofile(None)
        return chip.stats.delta(before), calls, picked, background_slices

    def _check_both_regimes(self, used, calls, picked, background_slices, ceiling):
        """The checks that hold whichever path collects: (a)-(f)."""
        opened = calls.pop("destination blocks opened")
        assert used.gc_invocations > 1000 and used.gc_copyback_writes > 20 * used.gc_invocations

        # (a) No pick is scored and then declined.
        jobs_from_picks = used.gc_invocations - used.gc_wear_migrations
        assert calls["pick_victim"] == jobs_from_picks + picked.count(None)
        # (b) Host work per flash operation.
        flash_ops = used.page_reads + used.page_programs + used.block_erases
        assert sum(calls.values()) / flash_ops <= ceiling
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
        # (f) A paced slice is entered only to open or advance a job (at 64
        # blocks the gate declines every one: 6,448 calls that all declined
        # before the gate moved into the step, 0 now; at 256 blocks all
        # 7,254 slices open or advance one).
        assert all(background_slices) and len(background_slices) == calls["_background_step"]
        # (e) The background gate never builds the exclusion set: only the
        # victim pickers do, once per pick (1,323 + 0 at 64 blocks and
        # 1,109 + 0 at 256 when recorded; at 256 blocks the gate built it
        # too before, 2,278 for 1,139 picks).
        assert calls["_excluded"] == calls["pick_victim"] + calls["_pick_wear_victim"]

    def test_host_work_per_flash_op(self):
        used, calls, picked, background_slices = self._profile(64)
        self._check_both_regimes(
            used, calls, picked, background_slices, self.CALLS_PER_FLASH_OP_CEILING
        )
        # A wear check without two blocks of headroom scores no victim: at
        # 85 % fill that is every one (224 checks, 248 scans before).
        assert calls["_maybe_wear_level"] > 200 and calls["_pick_wear_victim"] == 0

    def test_host_work_per_flash_op_in_the_background(self):
        """The background regime itself is asserted, so a model change
        cannot move this row out of it unnoticed: 1,109 victims, none
        urgent, when recorded."""
        used, calls, picked, background_slices = self._profile(256)
        assert used.gc_urgent_collections == 0 and used.gc_invocations > 1000
        self._check_both_regimes(
            used, calls, picked, background_slices, self.BACKGROUND_CALLS_PER_FLASH_OP_CEILING
        )


class TestSqlProgramPath:
    """``update_rbj`` in small: an aged RBJ stack on one channel with inline
    FIFO collection, driven by five-row UPDATE transactions.  A plain data
    page crosses each layer below ext4 in one frame (the chip in two, the
    second its timing row's ``_charge_program``)."""

    #: Python calls per host-originated flash program: 20.02 when recorded
    #: (CPython 3.11; 321,914 calls over 16,079 programs); 19.33, 327,041
    #: calls over 16,917 programs, while every GC copyback dirtied its
    #: translation segment (the barriers' map flushes were most of the
    #: programs that went, and they cost fewer calls each than a data
    #: page); 19.38 while a
    #: reclaim's cold block was replaced by a fresh one (19.58 when the
    #: ceiling of 20.0 was set); 23.47 when a plain data page passed through
    #: 13 frames below ext4 and a publish discarded its pages one call each.
    CALLS_PER_PROGRAM_CEILING = 20.3
    #: What a plain data page's frames no longer call.
    HELPERS = frozenset(
        ("_map", "_supersede", "_bury", "_charge_flash", "_check_on", "_charge")
    )

    def test_a_data_page_crosses_each_layer_in_one_frame(self):
        stack = build_stack(
            StackConfig(
                mode=Mode.RBJ, num_blocks=96, pages_per_block=32, ftl=FtlConfig(gc_policy="fifo")
            )
        )
        assert type(stack.ftl.gc) is InlineCollector
        db = stack.open_database("guard.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("BEGIN")
        for key in range(400):
            db.execute("INSERT INTO t VALUES (?, ?)", (key, 0))
        db.execute("COMMIT")
        age_device(stack, 0.5, seed=7)
        rng = make_rng(7, "test.gc_runs", "sql_program_path")

        def update(transactions: int) -> None:
            for step in range(transactions):
                db.execute("BEGIN")
                for _ in range(5):
                    db.execute("UPDATE t SET v = ? WHERE id = ?", (step, rng.randrange(400)))
                db.execute("COMMIT")

        update(50)
        path = {
            function.__code__
            for function in (
                StorageDevice.write,
                StorageDevice._write,
                PageMappingFTL.write,
                InlineCollector.host_program,
                FlashChip.program,
                FlashChip._charge_program,
            )
        }
        calls = collections.Counter()
        helpers: collections.Counter[str] = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1
                if frame.f_code.co_name in self.HELPERS and frame.f_back.f_code in path:
                    helpers[f"{frame.f_back.f_code.co_name} -> {frame.f_code.co_name}"] += 1

        before = stack.chip.stats.snapshot()
        sys.setprofile(profile)
        try:
            update(300)
        finally:
            sys.setprofile(None)
        used = stack.chip.stats.delta(before)
        assert used.gc_invocations > 0 and calls["write"] > 1000
        assert helpers == {}
        programs = used.page_programs - used.gc_copyback_writes
        assert sum(calls.values()) / programs <= self.CALLS_PER_PROGRAM_CEILING
