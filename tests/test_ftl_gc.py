"""Tests for the space manager (``repro.ftl.gc``) and its two schedules.

Covers the watermark state machine, hot/cold stream separation, victim
policies (including the explicit counted FIFO fallback), wear leveling,
the bounded GC valid-ratio accounting, X-L2P survival of uncommitted
pages through collection, and crash/recovery at every ``gc.*`` point.
"""

import pytest

from repro.errors import FtlError, PowerFailure
from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import Collector, FtlConfig, GcState, PageMappingFTL, XFTL
from repro.obs import Observability
from repro.sim import CrashPlan


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
