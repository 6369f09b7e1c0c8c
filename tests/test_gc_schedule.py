"""The collector's per-page schedule decisions, pinned and checked.

Two kinds of check:

- *decision pins*: ``perf_sim_baseline.json`` runs with null instruments, so
  it cannot see a changed state transition.  Three devices run with metrics
  on and the schedule's own counters — watermark transitions, collections by
  path, stream writes, the pause and copyback histograms — must equal the
  values recorded at the parent commit of the one-decision-per-page
  collector;
- *the gate and the settle* (hypothesis): at every background decision the
  lazy ``_has_block_within`` equals its brute-force definition, and after
  every step the channel's state is what an unconditional re-settle would
  compute.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import StorageDevice
from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import FtlConfig, PageMappingFTL
from repro.ftl.gc import GC_POLICIES, GcState
from repro.obs import Observability
from repro.sim.rng import make_rng

COUNTERS = (
    "ftl.gc.transitions_to_idle",
    "ftl.gc.transitions_to_background",
    "ftl.gc.transitions_to_urgent",
    "ftl.gc.background_collections",
    "ftl.gc.urgent_collections",
    "ftl.gc.fifo_fallbacks",
    "ftl.gc.wear_migrations",
    "ftl.gc.hot_stream_writes",
    "ftl.gc.cold_stream_writes",
    "ftl.gc.trans_stream_writes",
)
HISTOGRAMS = ("ftl.gc.pause_us", "ftl.gc.copyback_pages")

BACKGROUND = dict(
    gc_mode="background",
    gc_background_watermark=4,
    gc_copyback_pages_per_step=4,
    gc_hot_write_threshold=4,
)


def _ftl_gc_shaped(obs: Observability) -> PageMappingFTL:
    """8 channels, queue depth 8, background cost-benefit GC, wear levelling."""
    chip = FlashChip(
        FlashGeometry(page_size=512, pages_per_block=32, num_blocks=64, channels=8), obs=obs
    )
    ftl = PageMappingFTL(
        chip,
        FtlConfig(
            gc_policy="cost-benefit",
            gc_wear_spread_threshold=4,
            gc_wear_check_interval=8,
            **BACKGROUND,
        ),
    )
    device = StorageDevice(ftl, queue_depth=8)
    # Less full than ftl_gc's 85 %, where every collection is urgent: this
    # fill reaches all three of urgent, paced and wear-levelling work.
    fill = int(ftl.exported_pages * 0.6)
    rng = make_rng(7, "test.gc_schedule", "ftl_gc")
    for lpn in range(fill):
        device.write(lpn, ("fill", lpn))
    device.flush()
    for step in range(4000):
        hot = rng.random() < 0.8
        device.write(rng.randrange(fill // 5 if hot else fill), ("w", step))
        if step % 8 == 7:
            device.flush()
    return ftl


def _small(obs: Observability, channels: int, config: dict, label: str) -> PageMappingFTL:
    chip = FlashChip(
        FlashGeometry(page_size=512, pages_per_block=8, num_blocks=48, channels=channels), obs=obs
    )
    ftl = PageMappingFTL(
        chip,
        FtlConfig(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1, **config),
    )
    rng = make_rng(11, "test.gc_schedule", label)
    fill = int(ftl.exported_pages * 0.9)
    for lpn in range(fill):
        ftl.write(lpn, ("fill", lpn))
    for step in range(3000):
        lpn = rng.randrange(fill // 5) if rng.random() < 0.8 else rng.randrange(fill)
        if step % 97 == 0:
            ftl.trim(lpn)
        else:
            ftl.write(lpn, ("w", step))
        if step % 40 == 39:
            ftl.barrier()
    return ftl


DEVICES = {
    "ftl_gc": _ftl_gc_shaped,
    "background-greedy-cmt": lambda obs: _small(
        obs,
        2,
        dict(BACKGROUND, gc_policy="greedy", cmt_pages=2, cmt_dirty_batch=1),
        "background-greedy-cmt",
    ),
    "inline-fifo": lambda obs: _small(obs, 1, dict(gc_policy="fifo"), "inline-fifo"),
}


def schedule_decisions(device: str) -> dict:
    obs = Observability(enabled=True)
    DEVICES[device](obs).check_invariants()
    registry = obs.registry
    decisions: dict = {name: registry.counter_value(name) for name in COUNTERS}
    for name in HISTOGRAMS:
        histogram = registry.histograms()[name]
        decisions[name] = (histogram.count, histogram.total)
    return decisions


#: Recorded at the parent commit (three ``headroom_pages`` and two
#: ``_set_state`` calls per background step, the gate inside
#: ``_background_step``).
EXPECTED = {
    "ftl_gc": {
        "ftl.gc.transitions_to_idle": 0,
        "ftl.gc.transitions_to_background": 61,
        "ftl.gc.transitions_to_urgent": 53,
        "ftl.gc.background_collections": 976,
        "ftl.gc.urgent_collections": 53,
        "ftl.gc.fifo_fallbacks": 0,
        "ftl.gc.wear_migrations": 4,
        "ftl.gc.hot_stream_writes": 6329,
        "ftl.gc.cold_stream_writes": 2172,
        "ftl.gc.trans_stream_writes": 0,
        "ftl.gc.pause_us": (53, 0.0),
        "ftl.gc.copyback_pages": (1029, 25785.0),
    },
    "background-greedy-cmt": {
        "ftl.gc.transitions_to_idle": 50,
        "ftl.gc.transitions_to_background": 66,
        "ftl.gc.transitions_to_urgent": 14,
        "ftl.gc.background_collections": 2229,
        "ftl.gc.urgent_collections": 14,
        "ftl.gc.fifo_fallbacks": 0,
        "ftl.gc.wear_migrations": 42,
        "ftl.gc.hot_stream_writes": 2615,
        "ftl.gc.cold_stream_writes": 688,
        "ftl.gc.trans_stream_writes": 3260,
        "ftl.gc.pause_us": (14, 31880.0),
        "ftl.gc.copyback_pages": (2243, 11709.0),
    },
    "inline-fifo": {
        **{name: 0 for name in COUNTERS},
        "ftl.gc.pause_us": (0, 0.0),
        "ftl.gc.copyback_pages": (1433, 6280.0),
    },
}


@pytest.mark.parametrize("device", DEVICES)
def test_schedule_decisions_are_unchanged(device: str) -> None:
    assert schedule_decisions(device) == EXPECTED[device]


#: Large enough that no schedule wedges at 80 % fill with a translation stream.
BLOCKS_PER_CHANNEL = {1: 32, 2: 20, 8: 24}
SCHEDULES = [(mode, policy) for mode, policies in GC_POLICIES.items() for policy in policies]
OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "write", "trim", "barrier", "power"]),
        st.integers(0, 1 << 16),
    ),
    min_size=20,
    max_size=300,
)


@settings(max_examples=40, deadline=None)
@given(
    schedule=st.sampled_from(SCHEDULES),
    channels=st.sampled_from(sorted(BLOCKS_PER_CHANNEL)),
    cmt=st.booleans(),
    ops=OPS,
)
def test_gate_is_its_definition_and_every_step_is_settled(schedule, channels, cmt, ops) -> None:
    gc_mode, gc_policy = schedule
    blocks = BLOCKS_PER_CHANNEL[channels] * channels
    chip = FlashChip(
        FlashGeometry(page_size=512, pages_per_block=8, num_blocks=blocks, channels=channels)
    )
    config = dict(
        overprovision=0.25,
        map_entries_per_page=16,
        barrier_meta_pages=1,
        gc_mode=gc_mode,
        gc_policy=gc_policy,
        cmt_pages=2 if cmt else 0,
    )
    if gc_mode == "background":
        config.update(BACKGROUND, gc_wear_spread_threshold=2, gc_wear_check_interval=4)
    ftl = PageMappingFTL(chip, FtlConfig(**config))
    gc = ftl.gc
    per = chip.geometry.pages_per_block
    watermark = BACKGROUND["gc_background_watermark"]
    has_block_within, step = gc._has_block_within, gc._step

    def brute_force(channel: int, pages: int) -> bool:
        excluded = gc._excluded(channel)
        return any(
            gc._write_points[block] and gc._valid_counts[block] <= pages and block not in excluded
            for block in chip.geometry.channel_blocks(channel)
        )

    def checked_gate(channel: int, pages: int) -> bool:
        found = has_block_within(channel, pages)
        assert found == brute_force(channel, pages)
        return found

    def checked_step(channel: int, *args) -> None:
        step(channel, *args)
        # What an unconditional re-settle after every step would write
        # (the step only settles after work).
        if gc.headroom_pages(channel) > per:
            idle = gc._jobs[channel] is None and len(gc._free_by_channel[channel]) > watermark
            assert gc._states[channel] is (GcState.IDLE if idle else GcState.BACKGROUND)

    gc._has_block_within, gc._step = checked_gate, checked_step
    fill = int(ftl.exported_pages * 0.8)
    for lpn in range(fill):
        ftl.write(lpn, ("fill", lpn))
    for op, value in ops:
        lpn = value % (fill // 4) if value & 1 else value % fill
        if op == "write":
            ftl.write(lpn, ("w", value))
        elif op == "trim":
            ftl.trim(lpn)
        elif op == "barrier":
            ftl.barrier()
        else:
            ftl.power_fail()
            ftl.remount()
    ftl.check_invariants()
