"""``copyback_run`` is defined by equivalence: prove the equivalence.

``chip.copyback_run(srcs, dst, oobs)`` must be *exactly*
``program(dst + i, read(srcs[i]), oobs[i])`` for each ``i`` — the same page
content, OOB, page states, write points, counters, clock, channel timelines
(floats compared with ``==``), overlap-region horizons and, when a page
fails, the same exception at the same page with the earlier pages done.
Twin chips are built by one deterministic set-up; one is driven
through ``copyback_run``, the other through the loop that defines it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, FlashError, PowerFailure
from repro.flash.array import FlashArray
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.state import PAGE_TORN
from repro.obs import Observability
from repro.sim.crash import CrashPlan

PER = 8
BLOCKS = 16

#: (class, channels): the serial chip, its one-channel array twin, and a
#: device where a block's channel matters.
KINDS = {
    "chip": (FlashChip, 1),
    "array-1ch": (FlashArray, 1),
    "array-8ch": (FlashArray, 8),
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
    "crash",
)


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
    crash = None
    oob_count = len(srcs)
    if fault == "torn-source" and srcs:
        torn = draw(st.sampled_from(srcs))
    elif fault == "erased-source" and programmed < PER:
        srcs.insert(draw(st.integers(0, len(srcs))), src_block * PER + programmed)
        oob_count = len(srcs)
    elif fault == "source-in-another-block":
        srcs.insert(draw(st.integers(0, len(srcs))), other_block * PER)
        oob_count = len(srcs)
    elif fault == "destination-behind-write-point" and dst_used:
        dst -= 1
    elif fault == "destination-ahead-of-write-point" and dst_used < PER - 1:
        dst += 1
    elif fault == "run-crosses-block-end":
        srcs = (srcs or [src_block * PER]) * PER
        srcs = srcs[: PER - dst_used + draw(st.integers(1, 3))]
        oob_count = len(srcs)
    elif fault == "short-oobs" and srcs:
        oob_count = len(srcs) - 1
    elif fault == "crash":
        crash = (
            draw(
                st.sampled_from(
                    ["flash.program.before", "flash.program.mid", "flash.program.after"]
                )
            ),
            draw(st.integers(1, max(1, len(srcs)))),
            draw(st.booleans()),
        )
    return {
        "src_block": src_block,
        "dst_block": dst_block,
        "other_block": other_block,
        "programmed": programmed,
        "dst_used": dst_used,
        "srcs": srcs,
        "dst": dst,
        "oobs": [("oob", position) for position in range(oob_count)],
        "torn": torn,
        "crash": crash,
        "regions": draw(st.integers(0, 2)),
        "floor_us": draw(st.sampled_from([0.0, 0.0, 1234.5, 1e7])),
        "metrics": draw(st.booleans()),
    }


def _build(kind: str, case: dict):
    """A chip in the case's starting state."""
    cls, channels = KINDS[kind]
    geometry = FlashGeometry(
        page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=channels
    )
    plan = CrashPlan()
    chip = cls(geometry, crash_plan=plan, obs=Observability(enabled=case["metrics"]))
    # Written inside a region so an array starts with backlog on its channels.
    with chip.overlap():
        for index in range(case["programmed"]):
            chip.program(case["src_block"] * PER + index, ("src", index), ("old", index))
        for index in range(case["dst_used"]):
            chip.program(case["dst_block"] * PER + index, ("filler", index))
        chip.program(case["other_block"] * PER, ("other", 0), ("old-other", 0))
    if case["torn"] is not None:
        chip.state.page_states[case["torn"]] = PAGE_TORN
    chip.dispatch_floor_us = case["floor_us"]
    if case["crash"] is not None:
        name, after, tear = case["crash"]
        plan.arm(name, after=after, tear_page=tear)
    return chip


def _drive(chip, case: dict, copy) -> dict:
    """Run ``copy`` inside the case's regions; everything observable afterwards."""
    raised = None
    with contextlib.ExitStack() as stack:
        regions = [stack.enter_context(chip.overlap()) for _ in range(case["regions"])]
        try:
            copy(chip, case["srcs"], case["dst"], case["oobs"])
        except (FlashError, CorruptionError, PowerFailure, IndexError) as exc:
            raised = (type(exc), str(exc))
    seen = {
        "raised": raised,
        "data": list(chip._data),
        "oob": list(chip._oob),
        "page_states": bytes(chip.state.page_states),
        "write_points": list(chip.state.write_points),
        "stats": chip.stats.as_dict(),
        "now_us": chip.clock.now_us,
        "region_end_us": [region.end_us for region in regions],
        "obs": chip.obs.registry.as_dict(),
    }
    if isinstance(chip, FlashArray):
        seen["timelines"] = [
            (timeline.busy_until_us, timeline.busy_us, timeline.reservations)
            for timeline in chip.scheduler.timelines()
        ]
    return seen


def _as_a_run(chip, srcs, dst, oobs) -> None:
    chip.copyback_run(srcs, dst, oobs)


def _page_by_page(chip, srcs, dst, oobs) -> None:
    for index, src in enumerate(srcs):
        chip.program(dst + index, chip.read(src), oobs[index])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(case=run_cases())
def test_a_run_is_the_page_by_page_loop(kind: str, case: dict) -> None:
    as_a_run = _drive(_build(kind, case), case, _as_a_run)
    page_by_page = _drive(_build(kind, case), case, _page_by_page)
    assert as_a_run == page_by_page


PLAIN = {
    "src_block": 1,
    "dst_block": 9,
    "other_block": 2,
    "programmed": PER,
    "dst_used": 2,
    "srcs": [PER + 1, PER + 3, PER + 4, PER + 7],
    "dst": 9 * PER + 2,
    "oobs": [("oob", position) for position in range(4)],
    "torn": None,
    "crash": None,
    "regions": 1,
    "floor_us": 0.0,
    "metrics": False,
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_plain_run_takes_neither_read_nor_program(kind: str, monkeypatch) -> None:
    """The property above would also hold if the fast path were never taken."""
    chip = _build(kind, PLAIN)

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
    case["oobs"] = case["oobs"][: len(case["srcs"])]
    chip = _build(kind, case)
    programs = []
    program = chip.program
    monkeypatch.setattr(
        chip, "program", lambda ppn, data, oob=None: (programs.append(ppn), program(ppn, data, oob))
    )
    with contextlib.suppress(FlashError, CorruptionError):
        chip.copyback_run(case["srcs"], case["dst"], case["oobs"])
    assert programs  # at least the first page went through program()
