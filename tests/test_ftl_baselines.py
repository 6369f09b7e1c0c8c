"""Tests for the related-work baseline FTLs (§3.3).

AtomicWriteFTL (Park et al.) and TxFlashFTL (SCC) provide *per-call* atomic
multi-page writes.  The tests check their atomicity guarantee, their crash
behaviour, and the structural limitation the paper contrasts with X-FTL:
no steal — a group must arrive in one call.
"""

import pytest

from repro.errors import PowerFailure, TransactionError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import AtomicWriteFTL, FtlConfig, TxFlashFTL
from repro.obs import Observability
from repro.sim import CrashPlan

PER = 8  # pages per block


def make_ftl(cls, crash_plan=None, num_blocks=32):
    geometry = FlashGeometry(page_size=512, pages_per_block=PER, num_blocks=num_blocks)
    chip = FlashChip(geometry, crash_plan=crash_plan)
    return cls(chip, FtlConfig(overprovision=0.25, map_entries_per_page=16))


class TestAtomicWriteFTL:
    def test_group_visible_after_call(self):
        ftl = make_ftl(AtomicWriteFTL)
        ftl.write_atomic([(0, b"a"), (1, b"b"), (2, b"c")])
        assert ftl.read(0) == b"a"
        assert ftl.read(2) == b"c"

    def test_empty_group_is_noop(self):
        ftl = make_ftl(AtomicWriteFTL)
        ftl.write_atomic([])
        assert ftl.stats.host_page_writes == 0

    def test_commit_record_written(self):
        ftl = make_ftl(AtomicWriteFTL)
        before = ftl.stats.map_page_writes
        ftl.write_atomic([(0, b"a")])
        assert ftl.stats.map_page_writes == before + 1

    def test_crash_mid_group_rolls_back_everything(self):
        plan = CrashPlan()
        ftl = make_ftl(AtomicWriteFTL, crash_plan=plan)
        ftl.write_atomic([(0, b"old0"), (1, b"old1")])
        ftl.barrier()
        plan.arm("flash.program.after", after=2)  # dies before commit record
        with pytest.raises(PowerFailure):
            ftl.write_atomic([(0, b"new0"), (1, b"new1"), (2, b"new2")])
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"old0"
        assert ftl.read(1) == b"old1"
        assert ftl.read(2) is None

    def test_crash_after_commit_record_applies_group(self):
        plan = CrashPlan()
        ftl = make_ftl(AtomicWriteFTL, crash_plan=plan)
        ftl.write_atomic([(0, b"old0")])
        ftl.barrier()
        ftl.write_atomic([(0, b"new0"), (1, b"new1")])
        # Crash immediately after (no barrier): the commit record is on
        # flash, so recovery must redo the whole group.
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"new0"
        assert ftl.read(1) == b"new1"

    def test_groups_before_barrier_survive(self):
        ftl = make_ftl(AtomicWriteFTL)
        for group in range(5):
            ftl.write_atomic([(group, b"g%d" % group)])
        ftl.barrier()
        ftl.write_atomic([(9, b"post")])
        ftl.power_fail()
        ftl.remount()
        for group in range(5):
            assert ftl.read(group) == b"g%d" % group
        assert ftl.read(9) == b"post"

    def test_interleaved_plain_writes(self):
        ftl = make_ftl(AtomicWriteFTL)
        ftl.write(5, b"plain")
        ftl.write_atomic([(6, b"grouped")])
        assert ftl.read(5) == b"plain"
        assert ftl.read(6) == b"grouped"

    def test_relocated_commit_record_keeps_its_groups_place_in_the_order(self):
        """Two durable groups on lpn 5; GC moves only the first one's record.
        A fresh sequence on the relocated record would rank g1 above g2."""
        ftl = make_ftl(AtomicWriteFTL)
        for pad in range(PER - 1):
            ftl.write(100 + pad, b"pad")
        ftl.write_atomic([(5, b"g1")])  # data page ends a block, record opens the next
        record_block = ftl._live_commit_records[1] // PER
        assert ftl.mapped_ppn(5) // PER != record_block
        for pad in range(PER - 1):  # fill the record's block: no longer active
            ftl.write(110 + pad, b"pad")
        ftl.write_atomic([(5, b"g2")])
        assert ftl.mapped_ppn(5) // PER != record_block
        ftl.gc._run_job(0, ftl.gc._open_job(0, record_block))
        assert ftl._live_commit_records[1] // PER != record_block
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(5) == b"g2"
        ftl.check_invariants()


class TestTxFlashFTL:
    def test_group_visible_after_call(self):
        ftl = make_ftl(TxFlashFTL)
        ftl.write_group([(0, b"a"), (1, b"b")])
        assert ftl.read(0) == b"a"
        assert ftl.read(1) == b"b"

    def test_no_commit_record_needed(self):
        """SCC: the cycle itself is the commit — only data pages written."""
        ftl = make_ftl(TxFlashFTL)
        before = ftl.stats.page_programs
        ftl.write_group([(0, b"a"), (1, b"b"), (2, b"c")])
        assert ftl.stats.page_programs == before + 3

    def test_duplicate_lpn_in_group_rejected(self):
        ftl = make_ftl(TxFlashFTL)
        with pytest.raises(TransactionError):
            ftl.write_group([(0, b"a"), (0, b"b")])

    def test_crash_mid_group_rolls_back(self):
        plan = CrashPlan()
        ftl = make_ftl(TxFlashFTL, crash_plan=plan)
        ftl.write_group([(0, b"old0"), (1, b"old1")])
        ftl.barrier()
        plan.arm("flash.program.after", after=2)
        with pytest.raises(PowerFailure):
            ftl.write_group([(0, b"new0"), (1, b"new1"), (2, b"new2")])
        ftl.power_fail()
        ftl.remount()
        # Cycle incomplete: all members discarded.
        assert ftl.read(0) == b"old0"
        assert ftl.read(1) == b"old1"
        assert ftl.read(2) is None

    def test_complete_cycle_redone_after_crash(self):
        ftl = make_ftl(TxFlashFTL)
        ftl.write_group([(0, b"v0"), (1, b"v1"), (2, b"v2")])
        ftl.power_fail()
        ftl.remount()
        for lpn in range(3):
            assert ftl.read(lpn) == b"v%d" % lpn

    def test_multiple_groups_recovered_in_order(self):
        ftl = make_ftl(TxFlashFTL)
        ftl.write_group([(0, b"g1")])
        ftl.write_group([(0, b"g2"), (1, b"g2b")])
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"g2"
        assert ftl.read(1) == b"g2b"

    def test_single_page_group(self):
        ftl = make_ftl(TxFlashFTL)
        ftl.write_group([(7, b"solo")])
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(7) == b"solo"

    @pytest.mark.xfail(
        strict=True,
        reason="known model limit (ROADMAP 'Known model limits'): SCC has no relocation "
        "story — once GC has moved one member and erased its cycle page the cycle is "
        "incomplete, so recovery drops the members that were not moved",
    )
    def test_group_survives_relocation_of_one_member(self):
        geometry = FlashGeometry(page_size=512, pages_per_block=PER, num_blocks=24, channels=2)
        ftl = TxFlashFTL(
            FlashChip(geometry), FtlConfig(overprovision=0.25, map_entries_per_page=16)
        )
        for lpn in range(8):
            ftl.write(lpn, b"base")
        ftl.barrier()
        ftl.write_group([(5, b"g5"), (6, b"g6")])  # the members land on different channels
        for pad in range(16):
            ftl.write(20 + pad, b"pad")
        block = ftl.mapped_ppn(5) // PER
        channel = geometry.channel_of_block(block)
        ftl.gc._run_job(channel, ftl.gc._open_job(channel, block))
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(5) == b"g5"
        assert ftl.read(6) == b"g6"


@pytest.mark.parametrize(
    "cls,write_group", [(AtomicWriteFTL, "write_atomic"), (TxFlashFTL, "write_group")]
)
def test_plain_write_after_a_group_outranks_it(cls, write_group):
    """Both pages are on flash after the power cycle; the sequences they
    carry decide, not which recovery pass finds them."""
    ftl = make_ftl(cls)
    getattr(ftl, write_group)([(5, b"group")])
    ftl.write(5, b"newest")
    ftl.power_fail()
    ftl.remount()
    assert ftl.read(5) == b"newest"
    ftl.check_invariants()


@pytest.mark.parametrize(
    "cls,write_group", [(AtomicWriteFTL, "write_atomic"), (TxFlashFTL, "write_group")]
)
def test_group_writes_keep_obs_counters_in_step_with_flash_stats(cls, write_group):
    """A group's data pages (and the atomic-write commit record) are counted
    in ``FlashStats``, which the obs registry reads by name."""
    obs = Observability(enabled=True)
    geometry = FlashGeometry(page_size=512, pages_per_block=PER, num_blocks=32)
    chip = FlashChip(geometry, obs=obs)
    ftl = cls(chip, FtlConfig(overprovision=0.25, map_entries_per_page=16))
    getattr(ftl, write_group)([(0, b"a"), (1, b"b")])
    ftl.barrier()
    assert ftl.stats.host_page_writes == 2
    registry = obs.registry
    assert registry.counter_value("ftl.host_page_writes") == 2
    assert registry.counter_value("ftl.map_page_writes") == ftl.stats.map_page_writes > 0


class TestPerCallLimitation:
    """The §3.3 contrast: per-call atomicity cannot express steal."""

    def test_atomic_ftl_has_no_cross_call_grouping(self):
        ftl = make_ftl(AtomicWriteFTL)
        ftl.write_atomic([(0, b"first-call")])
        ftl.write_atomic([(1, b"second-call")])
        # Crash between the calls would persist the first and lose the
        # second: each call is its own atomic unit, unlike an X-FTL tid.
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"first-call"

    def test_xftl_groups_across_arbitrary_calls(self):
        from repro.ftl import XFTL

        ftl = make_ftl(XFTL)
        ftl.write_tx(1, 0, b"early")
        ftl.write(5, b"unrelated traffic in between")
        ftl.write_tx(1, 1, b"late")
        ftl.power_fail()  # crash before commit
        ftl.remount()
        assert ftl.read(0) is None
        assert ftl.read(1) is None
        assert ftl.read(5) == b"unrelated traffic in between"
