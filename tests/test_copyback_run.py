"""``copyback_run`` is defined by equivalence: prove the equivalence.

``chip.copyback_run(srcs, dst, (kinds, keys, seqs, tags))`` must be
*exactly* ``program(dst + i, read(srcs[i]), kinds[i], keys[i], seqs[i],
tags[i])`` for each ``i`` — the same chip image (``tests/chip_image.py``),
overlap-region horizons and, when a page fails (a bad OOB field included),
the same exception at the same page with the earlier pages done.
Twin chips are built by one deterministic set-up; one is driven
through ``copyback_run``, the other through the loop that defines it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, FlashError, PowerFailure
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.state import PAGE_TORN
from repro.obs import Observability
from repro.sim.crash import CrashPlan
from repro.sim.rng import make_rng
from tests.chip_image import chip_image

PER = 8
BLOCKS = 16

#: channels: the serial (one-channel) chip, and a device where a block's
#: channel matters.
KINDS = {
    "chip": 1,
    "array-8ch": 8,
}

FAULTS = (
    "none",
    "torn-source",
    "erased-source",
    "source-in-another-block",
    "destination-behind-write-point",
    "destination-ahead-of-write-point",
    "run-crosses-block-end",
    "short-oobs",
    "bad-oob",
    "crash",
)

#: A field that does not fit each OOB column (the tag column takes anything).
BAD_FIELDS = {0: 256, 1: "key", 2: 2**63}
CRASH_POINTS = ["flash.program.before", "flash.program.mid", "flash.program.after"]


def run_oobs(count: int) -> tuple[list, ...]:
    """OOB columns ``(kinds, keys, seqs, tags)`` for a run of ``count`` pages."""
    positions = range(count)
    return (
        [3] * count,
        list(positions),
        [100 + position for position in positions],
        [position if position % 2 else None for position in positions],
    )


def finish_case(draw, fault: str, count: int, **case) -> dict:
    """``case`` plus its run's OOB columns (one short, or one bad field, for
    those faults), crash, overlap regions, dispatch floor and metrics."""
    oobs = run_oobs(count)
    crash = None
    if fault == "short-oobs" and count:
        oobs[draw(st.integers(0, 3))].pop()
    elif fault == "bad-oob" and count:
        column = draw(st.sampled_from(sorted(BAD_FIELDS)))
        oobs[column][draw(st.integers(0, count - 1))] = BAD_FIELDS[column]
    elif fault == "crash":
        point = draw(st.sampled_from(CRASH_POINTS))
        crash = (point, draw(st.integers(1, max(1, count))), draw(st.booleans()))
    return {
        **case,
        "oobs": oobs,
        "crash": crash,
        "regions": draw(st.integers(0, 2)),
        "floor_us": draw(st.sampled_from([0.0, 0.0, 1234.5, 1e7])),
        "metrics": draw(st.booleans()),
    }


@st.composite
def run_cases(draw):
    """One set-up plus one run; most are plain, each fault shows up often."""
    src_block = draw(st.integers(0, BLOCKS - 1))
    dst_block = draw(st.integers(0, BLOCKS - 1).filter(lambda b: b != src_block))
    if draw(st.booleans()):
        # The collector's shape: destination on the victim's channel.
        dst_block = (src_block + 8) % BLOCKS
    other_block = draw(
        st.integers(0, BLOCKS - 1).filter(lambda b: b not in (src_block, dst_block))
    )
    programmed = draw(st.integers(1, PER))  # pages written in the source block
    dst_used = draw(st.integers(0, PER - 1))  # filler pages in the destination block
    indexes = draw(st.lists(st.integers(0, programmed - 1), max_size=PER))
    srcs = [src_block * PER + index for index in indexes]
    dst = dst_block * PER + dst_used
    fault = draw(st.sampled_from(FAULTS))
    torn = None
    if fault == "torn-source" and srcs:
        torn = draw(st.sampled_from(srcs))
    elif fault == "erased-source" and programmed < PER:
        srcs.insert(draw(st.integers(0, len(srcs))), src_block * PER + programmed)
    elif fault == "source-in-another-block":
        srcs.insert(draw(st.integers(0, len(srcs))), other_block * PER)
    elif fault == "destination-behind-write-point" and dst_used:
        dst -= 1
    elif fault == "destination-ahead-of-write-point" and dst_used < PER - 1:
        dst += 1
    elif fault == "run-crosses-block-end":
        srcs = (srcs or [src_block * PER]) * PER
        srcs = srcs[: PER - dst_used + draw(st.integers(1, 3))]
    return finish_case(
        draw,
        fault,
        len(srcs),
        src_block=src_block,
        dst_block=dst_block,
        other_block=other_block,
        programmed=programmed,
        dst_used=dst_used,
        srcs=srcs,
        dst=dst,
        torn=torn,
    )


def build_chip(channels: int, case: dict) -> FlashChip:
    """A chip in the case's starting state (a case without a source block
    programs none)."""
    geometry = FlashGeometry(
        page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=channels
    )
    plan = CrashPlan()
    chip = FlashChip(geometry, crash_plan=plan, obs=Observability(enabled=case["metrics"]))
    # Written inside a region so the chip starts with backlog on its channels.
    with chip.overlap():
        for index in range(case.get("programmed", 0)):
            chip.program(case["src_block"] * PER + index, ("src", index), 1, index, index, None)
        for index in range(case["dst_used"]):
            chip.program(case["dst_block"] * PER + index, ("filler", index))
        chip.program(case["other_block"] * PER, ("other", 0), 2, 0, 0, -1)
    if case["torn"] is not None:
        chip.state.page_states[case["torn"]] = PAGE_TORN
    chip.dispatch_floor_us = case["floor_us"]
    if case["crash"] is not None:
        name, after, tear = case["crash"]
        plan.arm(name, after=after, tear_page=tear)
    return chip


def drive(chip, case: dict, run) -> dict:
    """``run(chip, case)`` inside the case's regions; everything observable afterwards."""
    raised = None
    with contextlib.ExitStack() as stack:
        regions = [stack.enter_context(chip.overlap()) for _ in range(case["regions"])]
        try:
            run(chip, case)
        except (FlashError, CorruptionError, PowerFailure, IndexError) as exc:
            raised = (type(exc), str(exc))
    return {
        "raised": raised,
        "region_end_us": [region.end_us for region in regions],
        **chip_image(chip),
    }


def counted_programs(chip, monkeypatch) -> list[int]:
    """The ppns ``chip.program`` is called with from now on."""
    programs: list[int] = []
    program = chip.program
    monkeypatch.setattr(
        chip, "program", lambda ppn, *args: (programs.append(ppn), program(ppn, *args))
    )
    return programs


def _as_a_run(chip, case: dict) -> None:
    chip.copyback_run(case["srcs"], case["dst"], case["oobs"])


def _page_by_page(chip, case: dict) -> None:
    for index, src in enumerate(case["srcs"]):
        fields = (column[index] for column in case["oobs"])
        chip.program(case["dst"] + index, chip.read(src), *fields)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(case=run_cases())
def test_a_run_is_the_page_by_page_loop(kind: str, case: dict) -> None:
    as_a_run = drive(build_chip(KINDS[kind], case), case, _as_a_run)
    page_by_page = drive(build_chip(KINDS[kind], case), case, _page_by_page)
    assert as_a_run == page_by_page


PLAIN = {
    "src_block": 1,
    "dst_block": 9,
    "other_block": 2,
    "programmed": PER,
    "dst_used": 2,
    "srcs": [PER + 1, PER + 3, PER + 4, PER + 7],
    "dst": 9 * PER + 2,
    "oobs": run_oobs(4),
    "torn": None,
    "crash": None,
    "regions": 1,
    "floor_us": 0.0,
    "metrics": False,
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_plain_run_takes_neither_read_nor_program(kind: str, monkeypatch) -> None:
    """The property above would also hold if the fast path were never taken."""
    chip = build_chip(KINDS[kind], PLAIN)

    def unreachable(*_args, **_kwargs):
        raise AssertionError("a plain run went page by page")

    monkeypatch.setattr(chip, "read", unreachable)
    monkeypatch.setattr(chip, "program", unreachable)
    chip.copyback_run(PLAIN["srcs"], PLAIN["dst"], PLAIN["oobs"])
    assert chip.stats.page_reads == 4
    assert [chip.peek(PLAIN["dst"] + i) for i in range(4)] == [
        ("src", 1), ("src", 3), ("src", 4), ("src", 7),
    ]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "change",
    [
        {"crash": ("flash.program.after", 99, False)},
        {"torn": PER + 4},
        {"dst": 9 * PER + 3},
        {"srcs": [PER + 1, 2 * PER]},
    ],
    ids=["crash-point-armed", "torn-source", "out-of-order", "two-source-blocks"],
)
def test_anything_else_goes_page_by_page(kind: str, change: dict, monkeypatch) -> None:
    case = {**PLAIN, **change}
    case["oobs"] = run_oobs(len(case["srcs"]))
    chip = build_chip(KINDS[kind], case)
    programs = counted_programs(chip, monkeypatch)
    with contextlib.suppress(FlashError, CorruptionError):
        chip.copyback_run(case["srcs"], case["dst"], case["oobs"])
    assert programs  # at least the first page went through program()


def _timeline_state(chip: FlashChip, channel: int, regions: list) -> tuple:
    timeline = chip.channel_timeline(channel)
    return (
        chip.clock._now_us,
        timeline.busy_until_us,
        timeline.busy_us,
        timeline.reservations,
        [region.end_us for region in regions],
    )


@pytest.mark.parametrize("regions", [0, 1, 2])
@pytest.mark.parametrize("floor", ["below-now", "above-now"])
def test_charge_run_is_charge_flash_per_operation(regions: int, floor: str) -> None:
    """``_charge_run`` leaves exactly what one ``_charge_flash`` per
    operation leaves: clock, busy-until, busy time, reservation count and
    every open region's horizon, compared with ``==``.  The durations mix a
    read and a program time that do not add exactly in binary, so a sum
    taken in any other order than the per-operation one shows."""
    read_us, program_us = 220.1, 1300.3
    rng = make_rng(7, "test.copyback_run", f"charge_run.{regions}.{floor}")
    for length in [*range(1, 41), *range(41, 301, 13), 300]:
        durations = tuple(rng.choice((read_us, program_us)) for _ in range(length))
        now = rng.uniform(0.0, 1e6)
        busy = now + rng.uniform(-1e4, 1e4)
        dispatch_floor = now + (rng.uniform(1.0, 1e4) if floor == "above-now" else -1.0)
        states = []
        for charge in ("run", "per-operation"):
            geometry = FlashGeometry(
                page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=2
            )
            chip = FlashChip(geometry)
            chip.clock._now_us = now
            timeline = chip.channel_timeline(1)
            timeline.busy_until_us = busy
            timeline.busy_us = 1234.567
            timeline.reservations = 3
            chip.dispatch_floor_us = dispatch_floor
            with contextlib.ExitStack() as stack:
                opened = [stack.enter_context(chip.overlap()) for _ in range(regions)]
                if charge == "run":
                    chip._charge_run(1, durations)
                else:
                    for duration_us in durations:
                        chip._charge_flash(duration_us, 1)
            states.append(_timeline_state(chip, 1, opened))
        assert states[0] == states[1], (length, durations)


@pytest.mark.parametrize("regions", [0, 1, 2])
@pytest.mark.parametrize("floor", ["below-now", "above-now"])
def test_charge_program_is_charge_flash_of_a_program(regions: int, floor: str) -> None:
    """``_charge_program``, the program path's inline charge, leaves exactly
    what ``_charge_flash(profile.page_program_us, channel)`` leaves, with
    the channel busy before, at and after now."""
    rng = make_rng(7, "test.copyback_run", f"charge_program.{regions}.{floor}")
    for _ in range(200):
        now = rng.uniform(0.0, 1e6)
        busy = now + rng.choice((-1.0, 0.0, 1.0)) * rng.uniform(0.0, 1e4)
        dispatch_floor = now + (rng.uniform(1.0, 1e4) if floor == "above-now" else -1.0)
        states = []
        for charge in ("program", "flash"):
            chip = FlashChip(
                FlashGeometry(page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=2)
            )
            chip.clock._now_us = now
            timeline = chip.channel_timeline(1)
            timeline.busy_until_us = busy
            timeline.busy_us = 1234.567
            timeline.reservations = 3
            chip.dispatch_floor_us = dispatch_floor
            with contextlib.ExitStack() as stack:
                opened = [stack.enter_context(chip.overlap()) for _ in range(regions)]
                for _ in range(3):
                    if charge == "program":
                        chip._charge_program(1)
                    else:
                        chip._charge_flash(chip.profile.page_program_us, 1)
            states.append(_timeline_state(chip, 1, opened))
        assert states[0] == states[1]
