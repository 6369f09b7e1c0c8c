"""NAND flash simulation: geometry, chip/array operations, state, statistics."""

from repro.flash.geometry import FlashGeometry
from repro.flash.state import (
    PAGE_ERASED,
    PAGE_PROGRAMMED,
    PAGE_STATE_NAMES,
    PAGE_TORN,
    BlockStateView,
)
from repro.flash.chip import FlashChip, OverlapRegion
from repro.flash.array import FlashArray, FlashDie
from repro.flash.stats import FlashStats

__all__ = [
    "FlashGeometry",
    "BlockStateView",
    "PAGE_ERASED",
    "PAGE_PROGRAMMED",
    "PAGE_TORN",
    "PAGE_STATE_NAMES",
    "FlashChip",
    "FlashArray",
    "FlashDie",
    "OverlapRegion",
    "FlashStats",
]
