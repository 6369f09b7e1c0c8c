"""Everything a flash chip holds, for the twin-run equivalence tests."""

from __future__ import annotations


def chip_image(chip) -> dict:
    """Every page's data and OOB (read through ``read_oob``), the page
    states, write points and erase counts, the counters, the clock, the
    channel timelines (floats compared with ``==``) and the metrics."""
    state = chip.state
    return {
        "data": list(chip._data),
        "oob": [chip.read_oob(ppn) for ppn in range(chip.geometry.total_pages)],
        "page_states": bytes(state.page_states),
        "write_points": list(state.write_points),
        "erase_counts": list(state.erase_counts),
        "stats": chip.stats.as_dict(),
        "now_us": chip.clock.now_us,
        "timelines": [
            (timeline.busy_until_us, timeline.busy_us, timeline.reservations)
            for timeline in map(chip.channel_timeline, range(chip.num_channels))
        ],
        "obs": chip.obs.registry.as_dict(),
    }
