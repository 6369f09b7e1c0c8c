"""Tests for the space manager (``repro.ftl.gc``) and its two schedules.

Covers the watermark state machine, hot/cold stream separation, victim
policies (including the explicit counted FIFO fallback), wear leveling,
the bounded GC valid-ratio accounting, X-L2P survival of uncommitted
pages through collection, and crash/recovery at every ``gc.*`` point.
"""

import math

import pytest

from repro.bench.aging import age_device
from repro.bench.experiments import _filled_ftl, _skewed_lpn
from repro.errors import FtlError, PowerFailure
from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import Collector, FtlConfig, GcState, PageMappingFTL, XFTL
from repro.ftl.pagemap import OOB_DATA
from repro.obs import Observability
from repro.sim import CrashPlan
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack


def make_geo(num_blocks=32, pages_per_block=8, channels=2) -> FlashGeometry:
    return FlashGeometry(
        page_size=512,
        pages_per_block=pages_per_block,
        num_blocks=num_blocks,
        channels=channels,
    )


def bg_config(**cfg) -> FtlConfig:
    defaults = dict(
        overprovision=0.25,
        map_entries_per_page=16,
        barrier_meta_pages=1,
        xl2p_capacity=64,
        gc_mode="background",
        gc_policy="cost-benefit",
        gc_background_watermark=3,
        gc_copyback_pages_per_step=2,
        gc_hot_write_threshold=3,
        gc_wear_spread_threshold=0,  # wear leveling off unless a test opts in
    )
    defaults.update(cfg)
    return FtlConfig(**defaults)


def make_bg_ftl(
    num_blocks=32, pages_per_block=8, channels=2, obs=None, crash_plan=None, **cfg
) -> PageMappingFTL:
    chip = FlashChip(
        make_geo(num_blocks, pages_per_block, channels),
        crash_plan=crash_plan,
        **({"obs": obs} if obs is not None else {}),
    )
    return PageMappingFTL(chip, bg_config(**cfg))


def make_bg_xftl(
    num_blocks=32, pages_per_block=8, channels=2, obs=None, crash_plan=None, **cfg
) -> XFTL:
    chip = FlashChip(
        make_geo(num_blocks, pages_per_block, channels),
        crash_plan=crash_plan,
        **({"obs": obs} if obs is not None else {}),
    )
    return XFTL(chip, bg_config(**cfg))


def churn(ftl, lpns, rounds, tag="r"):
    for round_num in range(rounds):
        for lpn in lpns:
            ftl.write(lpn, (tag, round_num, lpn))


class TestConfigValidation:
    def test_unknown_gc_mode_rejected(self):
        with pytest.raises(FtlError, match="gc_mode"):
            make_bg_ftl(gc_mode="adaptive")

    def test_cost_benefit_requires_background(self):
        with pytest.raises(FtlError, match="cost-benefit"):
            make_bg_ftl(gc_mode="inline", gc_policy="cost-benefit")

    def test_unknown_policy_rejected_in_background(self):
        with pytest.raises(FtlError, match="gc_policy"):
            make_bg_ftl(gc_policy="mystery")

    def test_default_mode_is_inline_with_no_collector(self):
        # One collector either way: gc_mode only names its schedule.
        assert FtlConfig().gc_mode == "inline"
        ftl = make_bg_ftl(gc_mode="inline", gc_policy="greedy")
        assert isinstance(ftl.gc, Collector)
        assert ftl.gc.schedule == "inline"

    def test_background_mode_attaches_collector(self):
        ftl = make_bg_ftl()
        assert isinstance(ftl.gc, Collector)
        assert ftl.gc.schedule == "background"


class TestWatermarkStateMachine:
    def test_fresh_device_is_idle(self):
        ftl = make_bg_ftl()
        for channel in range(ftl.chip.geometry.channels):
            assert ftl.gc._states[channel] is GcState.IDLE

    def test_churn_drives_collection_and_stays_readable(self):
        obs = Observability(enabled=True)
        ftl = make_bg_ftl(obs=obs)
        lpns = range(min(ftl.exported_pages, 100))
        churn(ftl, lpns, rounds=8)
        assert ftl.stats.gc_invocations > 0
        assert obs.registry.counter_value("ftl.gc.transitions_to_background") > 0
        ftl.check_invariants()
        for lpn in lpns:
            assert ftl.read(lpn) == ("r", 7, lpn)

    def test_urgent_collections_counted(self):
        # A zero watermark never engages paced background work, so every
        # collection must go through the urgent/foreground path.
        ftl = make_bg_ftl(gc_background_watermark=0)
        lpns = range(min(ftl.exported_pages, 100))
        churn(ftl, lpns, rounds=8)
        assert ftl.stats.gc_urgent_collections > 0
        assert ftl.stats.gc_urgent_collections == ftl.stats.gc_invocations
        for lpn in lpns:
            assert ftl.read(lpn) == ("r", 7, lpn)

    def test_survives_remount(self):
        ftl = make_bg_ftl()
        lpns = range(min(ftl.exported_pages, 60))
        churn(ftl, lpns, rounds=6)
        ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        for lpn in lpns:
            assert ftl.read(lpn) == ("r", 5, lpn)


class TestHotColdStreams:
    def test_hot_lpns_split_to_second_stream(self):
        obs = Observability(enabled=True)
        # Plenty of space: both streams can hold a block each.
        ftl = make_bg_ftl(num_blocks=64, obs=obs, gc_hot_write_threshold=2)
        for round_num in range(6):
            ftl.write(0, ("hot", round_num))
            ftl.write(1, ("hot", round_num))
        assert obs.registry.counter_value("ftl.gc.hot_stream_writes") > 0
        # The first writes land cold.
        assert obs.registry.counter_value("ftl.gc.cold_stream_writes") > 0
        hot_blocks = ftl.gc._hot_active
        assert any(block is not None for block in hot_blocks)
        for hot, cold in zip(hot_blocks, ftl.gc._active_blocks):
            if hot is not None:
                assert hot != cold

    def test_threshold_zero_disables_hot_stream(self):
        obs = Observability(enabled=True)
        ftl = make_bg_ftl(num_blocks=64, obs=obs, gc_hot_write_threshold=0)
        for round_num in range(6):
            ftl.write(0, ("hot", round_num))
        assert obs.registry.counter_value("ftl.gc.hot_stream_writes") == 0
        assert all(block is None for block in ftl.gc._hot_active)

    def test_hot_stream_degrades_under_pressure_instead_of_wedging(self):
        # Tiny free margin: the hot stream must fall back to the cold block
        # rather than stealing the headroom GC needs to stay live.
        ftl = make_bg_ftl(num_blocks=16, channels=1, gc_hot_write_threshold=1)
        lpns = range(min(ftl.exported_pages, 60))
        churn(ftl, lpns, rounds=8)  # would raise OutOfSpaceError on a wedge
        ftl.check_invariants()
        for lpn in lpns:
            assert ftl.read(lpn) == ("r", 7, lpn)


class TestVictimPolicies:
    def test_cost_benefit_prefers_fully_invalid_block(self):
        ftl = make_bg_ftl(num_blocks=64, channels=1)
        geo = ftl.chip.geometry
        # Fill a few blocks' worth, then invalidate the oldest writes.
        span = 3 * geo.pages_per_block
        for lpn in range(span):
            ftl.write(lpn, ("a", lpn))
        for lpn in range(geo.pages_per_block):
            ftl.write(lpn, ("b", lpn))  # first block now fully invalid
        victim = ftl.gc.pick_victim(0)
        assert victim is not None
        assert ftl._valid_count[victim] == 0

    def test_fifo_fallback_is_counted_background(self):
        obs = Observability(enabled=True)
        ftl = make_bg_ftl(obs=obs, gc_policy="fifo")
        # Nothing written: FIFO finds no reclaimable block and falls back.
        assert ftl.gc.pick_victim(0) is None
        assert obs.registry.counter_value("ftl.gc.fifo_fallbacks") == 1

    def test_fifo_fallback_is_counted_inline(self):
        obs = Observability(enabled=True)
        ftl = make_bg_ftl(obs=obs, gc_mode="inline", gc_policy="fifo")
        assert ftl.gc.pick_victim(0) is None
        assert obs.registry.counter_value("ftl.gc.fifo_fallbacks") == 1

    @pytest.mark.xfail(
        strict=True,
        reason="a block that copybacks open (Collector._run_job -> _open_block) gets no"
        " _alloc_tick (only _stream_block sets one), so cost-benefit ages it from tick 0",
    )
    def test_every_written_block_has_an_allocation_tick(self):
        """After the ``gc`` experiment's background stream, cost-benefit can
        age every block that holds pages (70 of 92 have no tick today)."""
        config = FtlConfig(
            gc_mode="background",
            gc_policy="cost-benefit",
            gc_background_watermark=4,
            gc_copyback_pages_per_step=2,
            gc_hot_write_threshold=4,
            gc_wear_spread_threshold=8,
            gc_wear_check_interval=16,
        )
        ftl, fill = _filled_ftl(config, 0.92, num_blocks=96, pages_per_block=32, channels=4)
        rng = make_rng(0x5EED6C, "bench.gc_comparison", "steady-stream")
        for seq in range(4_000):
            ftl.write(_skewed_lpn(rng, fill // 5, fill), ("steady", seq))
        write_points = ftl.chip.state.write_points
        written = [block for block in range(96) if write_points[block]]
        assert [block for block in written if block not in ftl.gc._alloc_tick] == []

    def test_fifo_policy_collects_under_churn(self):
        ftl = make_bg_ftl(gc_policy="fifo")
        lpns = range(min(ftl.exported_pages, 80))
        churn(ftl, lpns, rounds=6)
        assert ftl.stats.gc_invocations > 0
        for lpn in lpns:
            assert ftl.read(lpn) == ("r", 5, lpn)


# Hand-built block states for the picker table: block -> (pages written,
# pages valid) on one channel of 4-page blocks.  Block 0 is fully valid,
# block 1 partially written with nothing invalid, block 4 erased: none may
# ever be chosen.  Allocation order is block order; ALLOC_TICKS (with the
# collector's tick at 100) make cost-benefit disagree with both others.
PICKER_BLOCKS = {0: (4, 4), 1: (2, 2), 2: (4, 3), 3: (4, 1), 4: (0, 0), 5: (4, 2)}
ALLOC_TICKS = {2: 0, 3: 90, 5: 40}
PICKER_SCHEDULES = [
    ("inline", "greedy"),
    ("inline", "fifo"),
    ("background", "greedy"),
    ("background", "fifo"),
    ("background", "cost-benefit"),
]
# policy -> blocks in the order the policy gives them up as each earlier
# choice is excluded (fewest valid / oldest / best age*(1-u)/2u first).
PICK_ORDER = {"greedy": [3, 5, 2], "fifo": [2, 3, 5], "cost-benefit": [5, 2, 3]}


@pytest.mark.parametrize("schedule,policy", PICKER_SCHEDULES)
class TestVictimPickerTable:
    def _collector(self, schedule, policy, blocks, obs=None):
        ftl = make_bg_ftl(
            num_blocks=8, pages_per_block=4, channels=1, obs=obs,
            gc_mode=schedule, gc_policy=policy,
        )
        gc = ftl.gc
        for block, (used, valid) in blocks.items():
            ftl.chip.state.write_points[block] = used
            ftl._valid_count[block] = valid
        gc._alloc_order[0] = [block for block, (used, _) in blocks.items() if used]
        gc._alloc_tick = dict(ALLOC_TICKS)
        gc._tick = 100
        return gc

    def test_policy_choice_and_exclusions(self, schedule, policy):
        from repro.ftl.gc import GcJob

        gc = self._collector(schedule, policy, PICKER_BLOCKS)
        first, second, third = PICK_ORDER[policy]
        assert gc.pick_victim(0) == first
        # Every open stream and the open job's victim are off limits.
        for store in (gc._active_blocks, gc._hot_active, gc._trans_active):
            store[0] = first
            assert gc.pick_victim(0) == second
            store[0] = None
        gc._jobs[0] = GcJob(victim=first, cursor=first * 4, end=first * 4 + 4)
        assert gc.pick_victim(0) == second
        gc._hot_active[0] = second
        assert gc.pick_victim(0) == third
        gc._trans_active[0] = third
        assert gc.pick_victim(0) is None  # blocks 0, 1 and 4 never qualify

    def test_fifo_fallback_counted(self, schedule, policy):
        obs = Observability(enabled=True)
        gc = self._collector(schedule, policy, PICKER_BLOCKS, obs=obs)
        gc._alloc_order[0] = [0, 1]  # age order lost track of every reclaimable block
        assert gc.pick_victim(0) == PICK_ORDER["greedy" if policy == "fifo" else policy][0]
        assert obs.registry.counter_value("ftl.gc.fifo_fallbacks") == (1 if policy == "fifo" else 0)


class TestBoundedValidRatioState:
    def test_ratio_accounting_tracks_invocations(self):
        ftl = make_bg_ftl(gc_mode="inline", gc_policy="greedy", channels=1)
        churn(ftl, range(min(ftl.exported_pages, 100)), rounds=10)
        assert ftl.stats.gc_invocations > 0
        assert ftl.gc.victims_collected == ftl.stats.gc_invocations
        assert 0.0 <= ftl.gc_mean_valid_ratio() <= 1.0

    def test_wear_stats_keys_stable(self):
        ftl = make_bg_ftl(gc_mode="inline", gc_policy="greedy", channels=1)
        churn(ftl, range(min(ftl.exported_pages, 100)), rounds=8)
        assert set(ftl.wear_stats()) == {
            "total_erases", "mean", "max", "min", "stddev",
        }


class TestWearLeveling:
    def _skewed_run(self, wear_threshold):
        ftl = make_bg_ftl(
            num_blocks=48,
            pages_per_block=8,
            channels=2,
            gc_wear_spread_threshold=wear_threshold,
            gc_wear_check_interval=8,
        )
        # Static cold region that parks in low-erase blocks...
        static = range(60, 100)
        for lpn in static:
            ftl.write(lpn, ("static", lpn))
        # ...then heavy churn over a small hot set drives up erases elsewhere.
        churn(ftl, range(40), rounds=40)
        for lpn in static:
            assert ftl.read(lpn) == ("static", lpn)
        counts = ftl.chip.state.erase_counts
        return ftl, max(counts) - min(counts)

    def test_wear_leveling_migrates_and_narrows_spread(self):
        ftl_off, spread_off = self._skewed_run(wear_threshold=0)
        ftl_on, spread_on = self._skewed_run(wear_threshold=4)
        assert ftl_off.stats.gc_wear_migrations == 0
        assert ftl_on.stats.gc_wear_migrations > 0
        assert spread_on < spread_off

    def test_a_check_under_two_blocks_of_headroom_scores_no_victim(self, monkeypatch):
        """No victim fits then, so none is scored; the erase spread is
        still sampled once per check.  The collector's own host programs
        drive it: fresh keys stay cold and own no page, and a watermark of
        0 keeps the schedule idle above the urgent floor."""
        obs = Observability(enabled=True)
        ftl = make_bg_ftl(
            num_blocks=16,
            channels=1,
            obs=obs,
            gc_policy="greedy",
            gc_background_watermark=0,
            gc_wear_spread_threshold=1,
            gc_wear_check_interval=1,
        )
        gc = ftl.gc
        # 113 pages fill 14 blocks and open a 15th: one free block is left,
        # so the next seven programs see 15 down to 9 pages of headroom.
        for key in range(113):
            gc.host_program(("cold", key), OOB_DATA, key, None)
        (free,) = gc._free_by_channel[0]
        gc._erase_counts[free] = 5  # a spread every check sees

        def no_scan(channel, global_min):
            raise AssertionError(f"a victim was scored at {gc.headroom_pages(channel)} pages")

        monkeypatch.setattr(gc, "_pick_wear_victim", no_scan)
        spread = obs.registry.histograms()["ftl.gc.erase_spread"]
        checks = spread.count
        for key in range(113, 120):
            assert 8 < gc.headroom_pages(0) < 16
            gc.host_program(("cold", key), OOB_DATA, key, None)
        assert spread.count - checks == 7
        assert ftl.stats.gc_wear_migrations == 0


class TestXl2pSurvivesCollection:
    """Satellite: uncommitted X-L2P pages must survive GC (live union)."""

    def _churned_tx(self):
        ftl = make_bg_xftl(num_blocks=24, pages_per_block=8, channels=1)
        tid = 7
        ftl.write(3, ("committed", 3))
        ftl.barrier()
        ftl.write_tx(tid, 3, ("uncommitted", 3))
        entry_before = ftl.xl2p.get(tid, 3).new_ppn
        # Fill most of the exported space, then churn a hot subset: victims
        # necessarily carry valid pages, so GC is forced to relocate both
        # the committed copy and the pinned uncommitted copy.
        fill = int(ftl.exported_pages * 0.9)
        others = [lpn for lpn in range(fill) if lpn != 3]
        for lpn in others:
            ftl.write(lpn, ("base", lpn))
        churn(ftl, others[:20], rounds=10)
        assert ftl.stats.gc_invocations > 0
        return ftl, tid, entry_before

    def test_uncommitted_page_survives_gc(self):
        ftl, tid, entry_before = self._churned_tx()
        assert ftl.read_tx(tid, 3) == ("uncommitted", 3)
        assert ftl.read(3) == ("committed", 3)
        # The transactional copy was actually relocated, not just spared.
        assert ftl.xl2p.get(tid, 3).new_ppn != entry_before
        ftl.check_invariants()

    def test_abort_after_gc_restores_committed_copy(self):
        ftl, tid, _ = self._churned_tx()
        ftl.abort(tid)
        assert ftl.read(3) == ("committed", 3)
        ftl.check_invariants()

    def test_commit_after_gc_publishes_new_copy(self):
        ftl, tid, _ = self._churned_tx()
        ftl.commit(tid)
        assert ftl.read(3) == ("uncommitted", 3)
        ftl.check_invariants()

    def test_commit_survives_crash_after_old_copy_was_relocated(self):
        """Replay orders by commit, not by write: the relocated old copy of
        lpn 3 carries a higher sequence than the transaction's page."""
        ftl = make_bg_xftl(
            num_blocks=24, pages_per_block=8, channels=1, gc_mode="inline", gc_policy="greedy"
        )
        for lpn in range(8):  # fills one block, so it is no longer the active block
            ftl.write(lpn, ("committed", lpn))
        ftl.barrier()
        ftl.write_tx(7, 3, ("tx", 3))
        victim = ftl.mapped_ppn(3) // 8
        ftl.gc._run_job(0, ftl.gc._open_job(0, victim))  # relocates the old copy of lpn 3
        ftl.commit(7)
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(3) == ("tx", 3)


GC_POINTS = (
    "gc.victim.selected",
    "gc.copyback.page",
    "gc.erase.before",
    "gc.wear.migrate",
)


class TestCrashRecovery:
    """Satellite: crash/recovery at every ``gc.*`` point via the verify layer."""

    @pytest.mark.parametrize("point", GC_POINTS)
    @pytest.mark.parametrize("after", (1, 2))
    def test_gc_point_fires_and_recovers(self, point, after):
        from repro.verify.drivers import run_scenario

        result = run_scenario("ftl.gc", point, after=after, tear=False, seed=7, ops_limit=40)
        assert result.fired, f"{point} unreachable at occurrence {after}"
        assert result.ok, result.violations

    def test_gc_layer_in_verify_surface(self):
        from repro.verify.runner import applicable_points

        names = {spec.name for spec in applicable_points("ftl.gc")}
        assert set(GC_POINTS) <= names

    def test_mid_copyback_crash_with_pending_group_commit(self):
        """Power fails between copybacks while a group commit is buffered."""
        plan = CrashPlan()
        ftl = make_bg_xftl(
            num_blocks=24, pages_per_block=8, channels=1, crash_plan=plan
        )
        hot = 20
        # Fill most of the exported space so victims necessarily carry
        # valid (static) pages: collections then perform real copybacks
        # during the armed window instead of erasing empty zombies.
        for lpn in range(int(ftl.exported_pages * 0.9)):
            ftl.write(lpn, ("base", lpn))
        ftl.barrier()
        plan.arm("gc.copyback.page", after=1)
        fired = False
        try:
            # Each round opens a fresh batch of transactions, churns (so a
            # copyback can land while the batch is pending), then groups
            # their commits; the armed point fires mid-copyback with the
            # group either buffered or in flight.
            for round_num in range(12):
                tids = tuple(100 + 3 * round_num + i for i in range(3))
                for tid in tids:
                    ftl.write_tx(tid, tid % hot, ("tx", tid))
                churn(ftl, range(hot), rounds=1, tag=f"c{round_num}")
                ftl.commit_group(tids)
        except PowerFailure:
            fired = True
        assert fired, "gc.copyback.page never fired with a group pending"
        ftl.remount()
        ftl.check_invariants()
        # Every lpn reads either its last committed value or an older
        # committed one — never an uncommitted transactional copy unless
        # that tid's group commit completed before the crash.
        for lpn in range(hot):
            value = ftl.read(lpn)
            assert value is not None
            assert isinstance(value, tuple)


class TestStackPlumbing:
    def test_stack_config_gc_overrides_reach_ftl(self):
        from repro.stack import StackConfig, build_stack

        config = StackConfig(
            num_blocks=64,
            pages_per_block=16,
            ftl=FtlConfig(
                gc_mode="background",
                gc_policy="cost-benefit",
                gc_hot_write_threshold=2,
                gc_wear_spread_threshold=6,
            ),
        )
        stack = build_stack(config)
        assert stack.ftl.config is config.ftl  # build_stack never rewrites its input
        assert stack.ftl.gc.schedule == "background"

    def test_stack_default_stays_inline(self):
        from repro.stack import StackConfig, build_stack

        stack = build_stack(StackConfig(num_blocks=64, pages_per_block=16))
        assert stack.ftl.config.gc_mode == "inline"
        assert stack.ftl.gc.schedule == "inline"


def _fifo_model_wa(alpha: float) -> float:
    """Desnoyers's FIFO write amplification under uniform overwrites
    (SYSTOR 2012): the victim's valid fraction ``v`` solves
    ``v = exp(-alpha (1 - v))``, and WA = ``1 / (1 - v)``."""
    v = 0.5
    for _ in range(200):
        v = math.exp(-alpha * (1.0 - v))
    return 1.0 / (1.0 - v)


class TestInlineCollectionMatchesTheory:
    """The stock schedule on a bare 128 x 32 FTL, every exported page
    filled, then uniform random overwrites: 3n to steady state and a 4n
    window.  ``alpha`` is physical over exported pages, physical leaving
    out the ``gc_free_block_threshold`` floor and the open block.

    Read when written (seed 7): FIFO WA 2.396 against a model of 2.411 at
    OP 0.25 (-0.6 %) and 5.828 against 5.814 at OP 0.12 (+0.3 %); greedy
    2.280 and 5.096.  While the stream that asked for a block threw away
    the cold block its reclaim had opened, FIFO read 2.991 (+24 %) and
    6.637 (+14 %), greedy 2.778 and 5.596."""

    TOLERANCE = 0.03

    def _window_wa(self, policy: str, overprovision: float) -> tuple[float, float]:
        config = FtlConfig(gc_policy=policy, overprovision=overprovision)
        ftl, exported = _filled_ftl(config, 1.0, num_blocks=128, pages_per_block=32)
        rng = make_rng(7, "test.ftl_gc", "theory", policy, overprovision)
        ftl.write_run([rng.randrange(exported) for _ in range(3 * exported)], "warm")
        before = ftl.chip.stats.snapshot()
        ftl.write_run([rng.randrange(exported) for _ in range(4 * exported)], "window")
        used = ftl.chip.stats.delta(before)
        alpha = (128 - config.gc_free_block_threshold - 1) * 32 / exported
        return used.page_programs / (4 * exported), _fifo_model_wa(alpha)

    @pytest.mark.parametrize("overprovision", [0.25, 0.12])
    def test_fifo_meets_the_model_and_greedy_beats_fifo(self, overprovision):
        fifo, model = self._window_wa("fifo", overprovision)
        assert abs(fifo / model - 1.0) <= self.TOLERANCE, (fifo, model)
        greedy, _ = self._window_wa("greedy", overprovision)
        assert greedy <= fifo


class TestNoStrandedBlocks:
    """Under the inline schedule no block is left partly written outside
    the open streams, the open job and what a remount or a released
    translation block strands; ``check_invariants`` holds it mid-run.
    Before a reclaim's cold block was kept, every case here failed within
    a few hundred operations ("block 2 left partly written (29/32)")."""

    @pytest.mark.parametrize(
        "config",
        [dict(gc_policy="fifo"), dict(gc_policy="greedy"), dict(gc_policy="fifo", cmt_pages=2)],
        ids=["fifo", "greedy", "fifo-cmt"],
    )
    def test_a_bare_ftl(self, config):
        ftl = PageMappingFTL(
            FlashChip(make_geo(num_blocks=48, channels=1)),
            FtlConfig(overprovision=0.25, map_entries_per_page=16, **config),
        )
        rng = make_rng(7, "test.ftl_gc", "stranded", *config.values())
        span = ftl.exported_pages
        for step in range(6000):
            ftl.write(rng.randrange(span), ("w", step))
            if step % 97 == 0:
                ftl.check_invariants()
            if step % 500 == 499:
                ftl.barrier()
            if step == 3001:  # a remount strands every partial it does not resume
                ftl.power_fail()
                ftl.remount()
                ftl.check_invariants()
        assert ftl.stats.gc_invocations > 100

    @pytest.mark.parametrize("mode", [Mode.RBJ, Mode.XFTL, Mode.WAL])
    def test_an_aged_sql_stack(self, mode):
        stack = build_stack(
            StackConfig(mode=mode, num_blocks=96, pages_per_block=32, ftl=FtlConfig(gc_policy="fifo"))
        )
        db = stack.open_database("stranded.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("BEGIN")
        for key in range(400):
            db.execute("INSERT INTO t VALUES (?, ?)", (key, 0))
        db.execute("COMMIT")
        age_device(stack, 0.5, seed=7)
        rng = make_rng(7, "test.ftl_gc", "stranded", mode.value)
        before = stack.chip.stats.snapshot()
        for step in range(150):
            db.execute("BEGIN")
            for _ in range(5):
                db.execute("UPDATE t SET v = ? WHERE id = ?", (step, rng.randrange(400)))
            db.execute("COMMIT")
            stack.ftl.check_invariants()
        assert stack.chip.stats.delta(before).gc_invocations > 0


class TestRoomierChannel:
    """A host page whose channel reclaimed nothing at its headroom floor
    goes to a channel above its floor, under both schedules: appending
    anyway would eat the erased pages a victim could still be copied into."""

    @pytest.mark.parametrize("gc_mode", ["inline", "background"])
    def test_a_floor_bail_out_sends_the_page_to_the_other_channel(self, gc_mode):
        policy = "greedy" if gc_mode == "inline" else "cost-benefit"
        ftl = make_bg_ftl(num_blocks=48, gc_mode=gc_mode, gc_policy=policy)
        gc = ftl.gc
        per = ftl.chip.geometry.pages_per_block
        lpn = 0
        # Every page distinct and valid, and all on channel 0: nothing
        # there is reclaimable once its headroom reaches the floor.
        while gc.headroom_pages(0) > per:
            gc._write_channel = 0
            ftl.write(lpn, ("fill", lpn))
            lpn += 1
        assert ftl.gc.pick_victim(0) is None and gc.headroom_pages(1) > per
        floor_headroom = gc.headroom_pages(0)
        for _ in range(3):
            gc._write_channel = 0
            ftl.write(lpn, ("spill", lpn))
            assert ftl.chip.geometry.channel_of_block(ftl.mapped_ppn(lpn) // per) == 1
            lpn += 1
        assert gc.headroom_pages(0) == floor_headroom
        ftl.check_invariants()
