"""``program_run`` is defined by equivalence: prove the equivalence.

``chip.program_run(dst, data, oobs)`` must be *exactly*
``program(dst + i, data[i], oobs[i])`` for each ``i`` — the same page
content, OOB, page states, write points, counters, clock, channel timelines
(floats compared with ``==``), overlap-region horizons and, when a page
fails, the same exception at the same page with the earlier pages done.
Twin chips are built by one deterministic set-up; one is driven through
``program_run``, the other through the loop that defines it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlashError, PowerFailure
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
    "array-4ch": (FlashArray, 4),
}

FAULTS = (
    "none",
    "destination-behind-write-point",
    "destination-ahead-of-write-point",
    "torn-destination",
    "run-crosses-block-end",
    "run-past-the-last-page",
    "short-oobs",
    "crash",
)


@st.composite
def run_cases(draw):
    """One set-up plus one run; most are plain, each fault shows up often."""
    dst_block = draw(st.integers(0, BLOCKS - 1))
    other_block = draw(st.integers(0, BLOCKS - 1).filter(lambda b: b != dst_block))
    dst_used = draw(st.integers(0, PER - 1))  # filler pages in the destination block
    count = draw(st.integers(0, PER - dst_used))
    dst = dst_block * PER + dst_used
    fault = draw(st.sampled_from(FAULTS))
    torn = None
    crash = None
    oob_count = count
    if fault == "destination-behind-write-point" and dst_used:
        dst -= 1
    elif fault == "destination-ahead-of-write-point" and dst_used < PER - 1:
        dst += 1
    elif fault == "torn-destination" and count:
        # A page that is neither erased nor behind the write point.
        torn = dst + draw(st.integers(0, count - 1))
    elif fault == "run-crosses-block-end":
        count = PER - dst_used + draw(st.integers(1, 3))
        oob_count = count
    elif fault == "run-past-the-last-page":
        dst = (BLOCKS - 1) * PER + dst_used
        if other_block == BLOCKS - 1:
            other_block = 0
        count = PER - dst_used + draw(st.integers(1, 3))
        oob_count = count
    elif fault == "short-oobs" and count:
        oob_count = count - 1
    elif fault == "crash":
        crash = (
            draw(
                st.sampled_from(
                    ["flash.program.before", "flash.program.mid", "flash.program.after"]
                )
            ),
            draw(st.integers(1, max(1, count))),
            draw(st.booleans()),
        )
    return {
        "dst_block": dst // PER,
        "other_block": other_block,
        "dst_used": dst_used,
        "dst": dst,
        "data": [("new", position) for position in range(count)],
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


def _drive(chip, case: dict, program) -> dict:
    """Run ``program`` inside the case's regions; everything observable afterwards."""
    raised = None
    with contextlib.ExitStack() as stack:
        regions = [stack.enter_context(chip.overlap()) for _ in range(case["regions"])]
        try:
            program(chip, case["dst"], case["data"], case["oobs"])
        except (FlashError, PowerFailure, IndexError) as exc:
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


def _as_a_run(chip, dst, data, oobs) -> None:
    chip.program_run(dst, data, oobs)


def _page_by_page(chip, dst, data, oobs) -> None:
    for index, page in enumerate(data):
        chip.program(dst + index, page, oobs[index])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(case=run_cases())
def test_a_run_is_the_page_by_page_loop(kind: str, case: dict) -> None:
    as_a_run = _drive(_build(kind, case), case, _as_a_run)
    page_by_page = _drive(_build(kind, case), case, _page_by_page)
    assert as_a_run == page_by_page


PLAIN = {
    "dst_block": 5,
    "other_block": 2,
    "dst_used": 2,
    "dst": 5 * PER + 2,
    "data": [("new", position) for position in range(4)],
    "oobs": [("oob", position) for position in range(4)],
    "torn": None,
    "crash": None,
    "regions": 1,
    "floor_us": 0.0,
    "metrics": False,
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_plain_run_does_not_take_program(kind: str, monkeypatch) -> None:
    """The property above would also hold if the fast path were never taken."""
    chip = _build(kind, PLAIN)

    def unreachable(*_args, **_kwargs):
        raise AssertionError("a plain run went page by page")

    monkeypatch.setattr(chip, "program", unreachable)
    chip.program_run(PLAIN["dst"], PLAIN["data"], PLAIN["oobs"])
    assert chip.stats.page_programs == 2 + 1 + 4
    assert [chip.peek(PLAIN["dst"] + i) for i in range(4)] == PLAIN["data"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "change",
    [
        {"crash": ("flash.program.after", 99, False)},
        {"crash": ("flash.program.mid", 99, True)},
        {"tracer": True},
        {"dst": 5 * PER + 3},
        {"torn": 5 * PER + 4},
    ],
    ids=["crash-point-armed", "torn-crash-point-armed", "tracer-on", "out-of-order", "torn-page"],
)
def test_anything_else_goes_page_by_page(kind: str, change: dict, monkeypatch) -> None:
    case = {**PLAIN, **change}
    cls, channels = KINDS[kind]
    if case.pop("tracer", False):
        geometry = FlashGeometry(
            page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=channels
        )
        chip = cls(geometry, obs=Observability(enabled=True, trace=True))
        for index in range(case["dst_used"]):
            chip.program(case["dst_block"] * PER + index, ("filler", index))
        assert chip._tracer.enabled
    else:
        chip = _build(kind, case)
    programs = []
    program = chip.program
    monkeypatch.setattr(
        chip, "program", lambda ppn, data, oob=None: (programs.append(ppn), program(ppn, data, oob))
    )
    with contextlib.suppress(FlashError):
        chip.program_run(case["dst"], case["data"], case["oobs"])
    assert programs[:1] == [case["dst"]]  # at least the first page went through program()
