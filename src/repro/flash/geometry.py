"""Flash chip geometry.

The OpenSSD board in the paper carries Samsung K9LCG08U1M MLC NAND with 8 KB
pages and 128 pages per block; the default geometry matches that.  The number
of blocks is configurable so tests can use tiny chips and benchmarks can use
device-scale ones.

Geometry also describes the controller's parallelism: ``channels`` flash
channels.  Blocks are striped across channels round-robin (block ``b`` lives
on channel ``b % channels``), the classic superblock layout, so any
contiguous block range spreads over all channels.  The default (1 channel)
makes the chip strictly serial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FlashGeometryError


@dataclass(frozen=True)
class FlashGeometry:
    """Physical layout of one flash chip.

    Attributes:
        page_size: Bytes per page (data area; out-of-band metadata is
            modelled separately by the chip).
        pages_per_block: Pages in one erase block.
        num_blocks: Erase blocks on the chip (across all channels).
        channels: Independent flash channels; operations on different
            channels can overlap in time, operations within one channel
            serialize.
    """

    page_size: int = 8192
    pages_per_block: int = 128
    num_blocks: int = 256
    channels: int = 1

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.pages_per_block <= 0 or self.num_blocks <= 0:
            raise FlashGeometryError(f"non-positive geometry: {self}")
        if self.channels <= 0:
            raise FlashGeometryError(f"non-positive parallelism: {self}")
        if self.num_blocks % self.channels:
            raise FlashGeometryError(
                f"num_blocks ({self.num_blocks}) must divide evenly over "
                f"{self.channels} channel(s)"
            )

    @property
    def total_pages(self) -> int:
        """Total physical pages on the chip."""
        return self.pages_per_block * self.num_blocks

    def channel_of_block(self, block: int) -> int:
        """Channel owning ``block`` (round-robin superblock striping)."""
        self.check_block(block)
        return block % self.channels

    def channel_blocks(self, channel: int) -> range:
        """All blocks striped onto ``channel``, in ascending order."""
        if not 0 <= channel < self.channels:
            raise FlashGeometryError(f"channel {channel} outside (0..{self.channels - 1})")
        return range(channel, self.num_blocks, self.channels)

    def check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.total_pages:
            raise FlashGeometryError(f"ppn {ppn} outside chip (0..{self.total_pages - 1})")

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.num_blocks:
            raise FlashGeometryError(f"block {block} outside chip (0..{self.num_blocks - 1})")
