"""``program_run`` is defined by equivalence: prove the equivalence.

``chip.program_run(dst, data, (kinds, keys, seqs, tags))`` must be
*exactly* ``program(dst + i, data[i], kinds[i], keys[i], seqs[i], tags[i])``
for each ``i`` — the same chip image (``tests/chip_image.py``),
overlap-region horizons and, when a page fails (a bad OOB field included),
the same exception at the same page with the earlier pages done.
Twin chips are built by one deterministic set-up; one is driven through
``program_run``, the other through the loop that defines it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlashError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.obs import Observability
from tests.test_copyback_run import (
    BLOCKS,
    PER,
    build_chip,
    counted_programs,
    drive,
    finish_case,
    run_oobs,
)

#: channels: the serial (one-channel) chip, and a device where a block's
#: channel matters.
KINDS = {
    "chip": 1,
    "array-4ch": 4,
}

FAULTS = (
    "none",
    "destination-behind-write-point",
    "destination-ahead-of-write-point",
    "torn-destination",
    "run-crosses-block-end",
    "run-past-the-last-page",
    "short-oobs",
    "bad-oob",
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
    if fault == "destination-behind-write-point" and dst_used:
        dst -= 1
    elif fault == "destination-ahead-of-write-point" and dst_used < PER - 1:
        dst += 1
    elif fault == "torn-destination" and count:
        # A page that is neither erased nor behind the write point.
        torn = dst + draw(st.integers(0, count - 1))
    elif fault == "run-crosses-block-end":
        count = PER - dst_used + draw(st.integers(1, 3))
    elif fault == "run-past-the-last-page":
        dst = (BLOCKS - 1) * PER + dst_used
        if other_block == BLOCKS - 1:
            other_block = 0
        count = PER - dst_used + draw(st.integers(1, 3))
    return finish_case(
        draw,
        fault,
        count,
        dst_block=dst // PER,
        other_block=other_block,
        dst_used=dst_used,
        dst=dst,
        data=[("new", position) for position in range(count)],
        torn=torn,
    )


def _as_a_run(chip, case: dict) -> None:
    chip.program_run(case["dst"], case["data"], case["oobs"])


def _page_by_page(chip, case: dict) -> None:
    for index, page in enumerate(case["data"]):
        chip.program(case["dst"] + index, page, *(column[index] for column in case["oobs"]))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(case=run_cases())
def test_a_run_is_the_page_by_page_loop(kind: str, case: dict) -> None:
    as_a_run = drive(build_chip(KINDS[kind], case), case, _as_a_run)
    page_by_page = drive(build_chip(KINDS[kind], case), case, _page_by_page)
    assert as_a_run == page_by_page


PLAIN = {
    "dst_block": 5,
    "other_block": 2,
    "dst_used": 2,
    "dst": 5 * PER + 2,
    "data": [("new", position) for position in range(4)],
    "oobs": run_oobs(4),
    "torn": None,
    "crash": None,
    "regions": 1,
    "floor_us": 0.0,
    "metrics": False,
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_plain_run_does_not_take_program(kind: str, monkeypatch) -> None:
    """The property above would also hold if the fast path were never taken."""
    chip = build_chip(KINDS[kind], PLAIN)

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
        {"oobs": ([3, 3, 256, 3], *run_oobs(4)[1:])},
    ],
    ids=[
        "crash-point-armed",
        "torn-crash-point-armed",
        "tracer-on",
        "out-of-order",
        "torn-page",
        "bad-oob-field",
    ],
)
def test_anything_else_goes_page_by_page(kind: str, change: dict, monkeypatch) -> None:
    case = {**PLAIN, **change}
    channels = KINDS[kind]
    if case.pop("tracer", False):
        geometry = FlashGeometry(
            page_size=64, pages_per_block=PER, num_blocks=BLOCKS, channels=channels
        )
        chip = FlashChip(geometry, obs=Observability(enabled=True, trace=True))
        for index in range(case["dst_used"]):
            chip.program(case["dst_block"] * PER + index, ("filler", index))
        assert chip._tracer.enabled
    else:
        chip = build_chip(KINDS[kind], case)
    programs = counted_programs(chip, monkeypatch)
    with contextlib.suppress(FlashError):
        chip.program_run(case["dst"], case["data"], case["oobs"])
    assert programs[:1] == [case["dst"]]  # at least the first page went through program()
