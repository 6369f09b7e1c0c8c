"""BlockStateView: page lifecycle, write points and wear against an oracle.

The flat-array state view holds exactly what the chip mutates and power
loss preserves, so it is driven here the only way it is ever mutated — by
``FlashChip.program`` (including torn programs) and ``FlashChip.erase`` —
and checked against the dumbest possible oracle: plain dicts mutated by the
same operation stream.  Liveness is FTL state; the reverse map has its own
tests in ``tests/test_ftl_ownership.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import PowerFailure
from repro.flash import FlashChip, FlashGeometry
from repro.flash.state import PAGE_ERASED, PAGE_PROGRAMMED, PAGE_TORN, BlockStateView
from repro.sim import CrashPlan
from repro.sim.rng import make_rng


class NaiveStateOracle:
    """Dict reference model of everything BlockStateView tracks."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self.states: dict[int, int] = {}  # ppn -> PAGE_*; absent = erased
        self.write_points: dict[int, int] = {}
        self.erase_counts: dict[int, int] = {}

    def program(self, ppn: int, state: int = PAGE_PROGRAMMED) -> None:
        self.states[ppn] = state
        block = ppn // self.geometry.pages_per_block
        self.write_points[block] = ppn % self.geometry.pages_per_block + 1

    def erase(self, block: int) -> None:
        per = self.geometry.pages_per_block
        for ppn in range(block * per, (block + 1) * per):
            self.states.pop(ppn, None)
        self.write_points[block] = 0
        self.erase_counts[block] = self.erase_counts.get(block, 0) + 1


def assert_agrees(view: BlockStateView, oracle: NaiveStateOracle) -> None:
    geo = view.geometry
    for ppn in range(geo.total_pages):
        state = oracle.states.get(ppn, PAGE_ERASED)
        assert view.page_states[ppn] == state, f"ppn {ppn} state"
    for block in range(geo.num_blocks):
        point = oracle.write_points.get(block, 0)
        assert view.write_points[block] == point
        assert view.erase_counts[block] == oracle.erase_counts.get(block, 0)
    counts = [oracle.erase_counts.get(block, 0) for block in range(geo.num_blocks)]
    assert view.wear_spread() == max(counts) - min(counts)


def tear(chip: FlashChip, ppn: int) -> None:
    """Lose power in the middle of programming ``ppn``."""
    chip.crash_plan = CrashPlan()  # a plan fires once
    chip.crash_plan.arm("flash.program.mid", tear_page=True)
    with pytest.raises(PowerFailure):
        chip.program(ppn, b"doomed")


class TestBlockStateView:
    GEO = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)

    def test_slots_are_what_the_chip_mutates(self):
        assert BlockStateView.__slots__ == (
            "geometry", "page_states", "write_points", "erase_counts",
        )

    def test_initial_state_all_erased(self):
        assert_agrees(BlockStateView(self.GEO), NaiveStateOracle(self.GEO))

    def test_program_advances_the_write_point(self):
        chip = FlashChip(self.GEO)
        chip.program(0, b"x")
        assert chip.state.page_states[0] == PAGE_PROGRAMMED
        assert chip.state.write_points[0] == 1

    def test_erase_resets_pages_and_bumps_wear(self):
        chip = FlashChip(self.GEO)
        for ppn in range(3):
            chip.program(ppn, b"x")
        tear(chip, 3)
        assert chip.state.write_points[0] == 4 and chip.state.page_states[3] == PAGE_TORN
        chip.erase(0)
        assert chip.state.write_points[0] == 0
        assert chip.state.erase_counts[0] == 1
        assert all(chip.state.page_states[ppn] == PAGE_ERASED for ppn in range(4))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_randomized_mixed_ops_agree_with_naive_oracle(seed: int) -> None:
    """Mixed program/tear/erase sequences: arrays == dict oracle at every probe.

    The arrays keep their identity throughout (the FTL and the collector
    alias them across power cycles).
    """
    geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=6)
    chip = FlashChip(geo)
    view = chip.state
    arrays = (view.page_states, view.write_points, view.erase_counts)
    oracle = NaiveStateOracle(geo)
    rng = make_rng(seed, "test.block_state_view", "mixed-ops")
    per = geo.pages_per_block
    for step in range(600):
        if rng.random() < 0.7:
            # Program (or rarely tear) the write point of a non-full block.
            candidates = [b for b in range(geo.num_blocks) if view.write_points[b] < per]
            if candidates:
                block = rng.choice(candidates)
                ppn = block * per + view.write_points[block]
                if rng.random() < 0.05:
                    tear(chip, ppn)
                    oracle.program(ppn, PAGE_TORN)
                else:
                    chip.program(ppn, b"x")
                    oracle.program(ppn)
        else:
            written = [b for b in range(geo.num_blocks) if view.write_points[b] > 0]
            if written:
                block = rng.choice(written)
                chip.erase(block)
                oracle.erase(block)
        if step % 40 == 0:
            assert_agrees(view, oracle)
    assert_agrees(view, oracle)
    now = (view.page_states, view.write_points, view.erase_counts)
    assert all(a is b for a, b in zip(now, arrays))
