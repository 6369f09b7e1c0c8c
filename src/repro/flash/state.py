"""Flat-array flash state: what the chip mutates and power loss preserves.

:class:`BlockStateView` (``chip.state``) holds the per-page and per-block
state of one chip in flat arrays, the idiom of wiscsee-style simulators:

- ``page_states`` — one byte per physical page (``PAGE_ERASED`` /
  ``PAGE_PROGRAMMED`` / ``PAGE_TORN``), the chip's lifecycle map;
- ``write_points`` — next programmable page index per block (the MLC
  sequential-program rule);
- ``erase_counts`` — per-block erase (wear) counters.

The arrays themselves are the hot-path API: the chip, the FTL and the
collector bind them to locals and index directly (no method dispatch, no
enum compares), and the chip mutates them in place, so their identity is
stable across power cycles.  The methods are conveniences for tests.

Liveness — which structure keeps a programmed page alive — is not chip
state: it is volatile FTL state and lives in the ppn-indexed owner table
of :class:`~repro.ftl.pagemap.PageMappingFTL`.
"""

from __future__ import annotations

from repro.flash.geometry import FlashGeometry

# Page lifecycle states, as stored in ``page_states``.  Plain ints, not an
# enum: the hot path compares these millions of times per simulated second
# and enum identity checks cost an attribute load + richer dispatch.
PAGE_ERASED = 0
PAGE_PROGRAMMED = 1
PAGE_TORN = 2

#: Human-readable names indexed by state value (for error messages).
PAGE_STATE_NAMES = ("erased", "programmed", "torn")


class BlockStateView:
    """Flat-array view of one chip's page lifecycle, write points and wear.

    One instance per chip; the chip mutates the arrays inside ``program`` /
    ``erase``.  Everything else reads.
    """

    __slots__ = ("geometry", "page_states", "write_points", "erase_counts")

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self.page_states = bytearray(geometry.total_pages)
        self.write_points: list[int] = [0] * geometry.num_blocks
        self.erase_counts: list[int] = [0] * geometry.num_blocks

    def erase_block(self, block: int) -> None:
        """Record one block erase: reset its pages, bump its wear counter."""
        per = self.geometry.pages_per_block
        start = block * per
        self.page_states[start : start + per] = bytes(per)
        self.write_points[block] = 0
        self.erase_counts[block] += 1

    def wear_spread(self) -> int:
        """Max minus min erase count across blocks (wear-leveling signal)."""
        counts = self.erase_counts
        return max(counts) - min(counts)
