"""Unit and property tests for the NAND chip model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, FlashError, FlashGeometryError, PowerFailure
from repro.flash import PAGE_ERASED, PAGE_TORN, FlashChip, FlashGeometry
from repro.sim import CrashPlan, SimClock
from repro.sim.latency import OPENSSD_PROFILE


class TestGeometry:
    def test_total_pages(self):
        geo = FlashGeometry(page_size=8192, pages_per_block=128, num_blocks=10)
        assert geo.total_pages == 1280

    def test_bad_geometry_rejected(self):
        with pytest.raises(FlashGeometryError):
            FlashGeometry(page_size=0)
        with pytest.raises(FlashGeometryError):
            FlashGeometry(num_blocks=-1)

    def test_out_of_range_ppn(self):
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=2)
        with pytest.raises(FlashGeometryError):
            geo.check_ppn(8)
        with pytest.raises(FlashGeometryError):
            geo.check_ppn(-1)


def make_chip(**kwargs) -> FlashChip:
    geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=8)
    return FlashChip(geo, **kwargs)


class TestProgramReadErase:
    def test_program_then_read(self):
        chip = make_chip()
        chip.program(0, b"hello", oob=("data", 0, 1, None))
        assert chip.read(0) == b"hello"
        assert chip.read_oob(0) == ("data", 0, 1, None)

    def test_read_erased_page_fails(self):
        chip = make_chip()
        with pytest.raises(FlashError):
            chip.read(0)

    def test_no_overwrite_in_place(self):
        chip = make_chip()
        chip.program(0, b"a")
        with pytest.raises(FlashError):
            chip.program(0, b"b")

    def test_sequential_program_within_block(self):
        chip = make_chip()
        chip.program(0, b"a")
        with pytest.raises(FlashError):
            chip.program(2, b"c")  # skips page 1
        chip.program(1, b"b")
        chip.program(2, b"c")

    def test_erase_resets_block(self):
        chip = make_chip()
        for page in range(4):
            chip.program(page, b"x")
        assert chip.state.write_points[0] == 4  # full
        chip.erase(0)
        assert chip.state.write_points[0] == 0
        assert chip.state.page_states[0] == PAGE_ERASED
        chip.program(0, b"again")
        assert chip.read(0) == b"again"

    def test_erase_counts_accumulate(self):
        chip = make_chip()
        chip.erase(3)
        chip.erase(3)
        assert chip.state.erase_counts[3] == 2
        assert chip.stats.block_erases == 2

    def test_stats_track_operations(self):
        chip = make_chip()
        chip.program(0, b"x")
        chip.read(0)
        chip.read(0)
        assert chip.stats.page_programs == 1
        assert chip.stats.page_reads == 2

    def test_latency_charged(self):
        clock = SimClock()
        chip = make_chip(clock=clock)
        chip.program(0, b"x")
        assert clock.now_us == pytest.approx(OPENSSD_PROFILE.page_program_us)
        chip.read(0)
        assert clock.now_us == pytest.approx(
            OPENSSD_PROFILE.page_program_us + OPENSSD_PROFILE.page_read_us
        )
        chip.erase(0)
        assert clock.now_us == pytest.approx(
            OPENSSD_PROFILE.page_program_us
            + OPENSSD_PROFILE.page_read_us
            + OPENSSD_PROFILE.block_erase_us
        )

    def test_peek_does_not_touch_stats(self):
        chip = make_chip()
        chip.program(0, b"x")
        reads_before = chip.stats.page_reads
        assert chip.peek(0) == b"x"
        assert chip.stats.page_reads == reads_before


class TestTornPages:
    def test_crash_mid_program_leaves_torn_page(self):
        plan = CrashPlan()
        plan.arm("flash.program.mid", tear_page=True)
        chip = make_chip(crash_plan=plan)
        with pytest.raises(PowerFailure):
            chip.program(0, b"doomed")
        assert chip.state.page_states[0] == PAGE_TORN

    def test_torn_page_read_raises_corruption(self):
        plan = CrashPlan()
        plan.arm("flash.program.mid", tear_page=True)
        chip = make_chip(crash_plan=plan)
        with pytest.raises(PowerFailure):
            chip.program(0, b"doomed")
        with pytest.raises(CorruptionError):
            chip.read(0)

    def test_torn_page_oob_unreadable(self):
        plan = CrashPlan()
        plan.arm("flash.program.mid", tear_page=True)
        chip = make_chip(crash_plan=plan)
        with pytest.raises(PowerFailure):
            chip.program(0, b"doomed", oob=("data", 9, 9, None))
        assert chip.read_oob(0) is None

    def test_erase_clears_torn_page(self):
        plan = CrashPlan()
        plan.arm("flash.program.mid", tear_page=True)
        chip = make_chip(crash_plan=plan)
        with pytest.raises(PowerFailure):
            chip.program(0, b"doomed")
        chip.erase(0)
        assert chip.state.page_states[0] == PAGE_ERASED

    def test_crash_before_program_leaves_page_erased(self):
        plan = CrashPlan()
        plan.arm("flash.program.before")
        chip = make_chip(crash_plan=plan)
        with pytest.raises(PowerFailure):
            chip.program(0, b"doomed")
        assert chip.state.page_states[0] == PAGE_ERASED


class TestFlashProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.binary(max_size=16)),
            max_size=60,
        )
    )
    def test_append_erase_cycle_never_corrupts(self, ops):
        """Random append/erase traffic: reads always return the last program."""
        chip = make_chip()
        expected: dict[int, bytes] = {}
        for block, payload in ops:
            if chip.state.write_points[block] == 4:  # full
                chip.erase(block)
                for ppn in list(expected):
                    if ppn // 4 == block:
                        del expected[ppn]
            ppn = block * 4 + chip.state.write_points[block]
            chip.program(ppn, payload)
            expected[ppn] = payload
            for known_ppn, known in expected.items():
                assert chip.peek(known_ppn) == known

    @settings(max_examples=30, deadline=None)
    @given(erases=st.lists(st.integers(min_value=0, max_value=7), max_size=30))
    def test_erase_count_accounting_exact(self, erases):
        chip = make_chip()
        for block in erases:
            chip.erase(block)
        assert sum(chip.state.erase_counts) == len(erases)
        assert chip.stats.block_erases == len(erases)


class TestRemovedStateShims:
    """The pre-BlockStateView per-page accessors are gone; ``chip.state``
    (the BlockStateView) answers what they used to."""

    def test_unknown_attributes_raise_plainly(self):
        chip = make_chip()
        with pytest.raises(AttributeError, match="no_such_attr"):
            chip.no_such_attr

    def test_state_view_replacements_answer(self):
        chip = make_chip()
        chip.program(0, b"x")
        chip.erase(3)
        assert chip.state.page_states[0] == 1  # PAGE_PROGRAMMED
        assert chip.state.write_points[0] == 1
        assert chip.state.erase_counts[3] == 1
