"""FTL interface and shared configuration."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.flash.chip import FlashChip
from repro.flash.stats import FlashStats


@dataclass(frozen=True)
class FtlConfig:
    """Tunables shared by the FTL implementations.

    Attributes:
        overprovision: Fraction of raw capacity hidden from the host and
            used as GC headroom (consumer SSDs: ~7-15%).
        gc_free_block_threshold: GC starts when the free-block pool drops
            to this size.
        map_entries_per_page: L2P entries stored per on-flash mapping page.
            OpenSSD-class firmware persists the map in small per-bank chunks,
            so the effective chunk is far below the 2048 8-byte entries that
            would fit in an 8 KB page.  A persisted image is always the
            full-range slice of the L2P table, however sparse the segment;
            simulated time is unaffected because a page program costs the
            same regardless of payload.
        barrier_meta_pages: Fixed number of firmware metadata pages (misc
            block: write points, erase counts, ...) persisted on every write
            barrier, on top of dirty map pages.  This fixed cost is why host
            fsyncs are expensive on the unmodified FTL.
        xl2p_capacity: Maximum entries in the X-L2P table (paper: 500-1000).
        gc_policy: Victim selection. ``"greedy"`` picks the block with the
            fewest valid pages; ``"fifo"`` rotates through blocks in
            allocation-age order (wear-leveling-style), which makes the
            carried-over valid ratio follow the device's aged state — the
            behaviour the paper controls in §6.3.1; ``"cost-benefit"``
            (background mode only) scores blocks by ``age * (1-u) / 2u``
            (Rosenblum's cleaning heuristic, per Dayan & Bonnet) so old,
            mostly-invalid blocks win over freshly-written ones.

            FIFO is *advisory*: when no block in allocation-age order is
            reclaimable (e.g. the oldest blocks are all fully valid or
            partially written), the collector explicitly falls back to the
            greedy pick rather than stalling.  Every fallback increments
            the ``ftl.gc.fifo_fallbacks`` obs counter so results produced
            under fallback are never silently mislabeled as pure FIFO.
        gc_mode: The *schedule* of the FTL's one space manager
            (:class:`repro.ftl.gc.Collector`); victim pickers, the copyback
            loop and block allocation are the same code under both.
            ``"inline"`` (default; the stock firmware and every paper
            table) reclaims synchronously inside the host write that finds
            a channel at its headroom floor or short of
            ``gc_free_block_threshold + 1`` free blocks.  ``"background"``
            adds the watermark state machine, copyback jobs paced into
            channel idle windows, hot/cold write streams and wear leveling
            (the ``gc_background_watermark`` ... ``gc_wear_check_interval``
            knobs below apply to it alone).
        gc_background_watermark: Background collection engages when a
            channel's free-block pool drops to this size (urgent/foreground
            collection still triggers at the page-granular headroom floor).
        gc_copyback_pages_per_step: Upper bound on pages relocated per
            background GC step; the gap between steps is where foreground
            writes preempt a collection in flight.
        gc_idle_backlog_us: A channel is considered idle for background GC
            when its reserved-but-unelapsed work is at most this long.
            Negative values mean no window ever qualifies: paced collection
            is disabled and all reclamation runs urgent/foreground.
        gc_hot_write_threshold: Cumulative write count at which an LPN's
            writes are steered to the channel's hot active block (``0``
            disables hot/cold separation).  Map/meta/X-L2P table pages are
            always treated as hot: they are rewritten on every flush.
        gc_wear_spread_threshold: Erase-count spread (max - min) beyond
            which the wear leveler migrates the coldest low-erase block
            into the free pool (``0`` disables wear leveling).
        gc_wear_check_interval: Background steps between wear-spread
            checks.
        cmt_pages: Cached-mapping-table capacity, in translation pages
            (DFTL-style demand paging; Dayan & Bonnet's flash-resident
            page-mapping design).  ``0`` — the default — keeps the whole
            L2P in controller DRAM, bit-identical to the seed model.  A
            positive value caps the resident translation pages: lookups
            outside the cache fetch the translation page from flash, and
            evicting a dirty page writes it back through the reserved
            translation-block stream.  A capacity large enough to hold
            every translation page of the exported space degenerates to
            the in-RAM mapping (never misses, never needs commit pinning),
            so the demand-paged machinery switches off wholesale — pinned
            by ``tests/test_cmt_equivalence.py``.
        cmt_dirty_batch: Dirty-batching width for CMT evictions: when a
            dirty translation page is evicted, up to this many *additional*
            LRU-most dirty resident pages are written back in the same
            overlap region (they stay resident, now clean), amortizing the
            writeback cost the way DFTL batches same-victim updates.
        retain_versions: Committed versions retained per logical page
            (multi-version X-L2P).  ``1`` — the default — keeps exactly the
            current committed copy, bit-identical to the single-version
            stack (pinned by ``tests/test_mvcc.py``).  A value ``N > 1``
            keeps up to ``N - 1`` superseded committed copies per lpn in a
            version chain: commits *publish* a new version instead of
            invalidating the old one, GC treats retained versions as live
            (copyback preserves chain order), and snapshot/AS-OF readers
            resolve reads against a pinned commit sequence number.  Chains
            older than the bound are released (deferred invalidation), but
            a version still visible to the oldest active snapshot — the
            floor the host publishes through ``set_snapshot_floor`` — stays
            pinned past the bound until its reader ends.
    """

    overprovision: float = 0.12
    gc_free_block_threshold: int = 3
    gc_policy: str = "greedy"
    gc_mode: str = "inline"
    gc_background_watermark: int = 4
    gc_copyback_pages_per_step: int = 4
    gc_idle_backlog_us: float = 0.0
    gc_hot_write_threshold: int = 4
    gc_wear_spread_threshold: int = 16
    gc_wear_check_interval: int = 32
    map_entries_per_page: int = 256
    barrier_meta_pages: int = 2
    xl2p_capacity: int = 1000
    cmt_pages: int = 0
    cmt_dirty_batch: int = 2
    retain_versions: int = 1


class Ftl(abc.ABC):
    """Abstract flash translation layer.

    All FTLs expose a logical page space of :attr:`exported_pages` pages and
    translate host reads/writes into chip operations.  Implementations share
    the chip's :class:`~repro.flash.stats.FlashStats` accumulator.
    """

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        self.chip = chip
        self.config = config or FtlConfig()
        self.stats: FlashStats = chip.stats
        # Observability rides on the chip, which binds the stats above.
        self.obs = chip.obs

    @property
    @abc.abstractmethod
    def exported_pages(self) -> int:
        """Logical pages visible to the host."""

    @abc.abstractmethod
    def read(self, lpn: int) -> Any:
        """Read the committed content of logical page ``lpn``."""

    @abc.abstractmethod
    def write(self, lpn: int, data: Any) -> None:
        """Write logical page ``lpn`` (non-transactional)."""

    @abc.abstractmethod
    def trim(self, lpn: int) -> None:
        """Discard logical page ``lpn`` (its physical copy becomes invalid)."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Write barrier / flush: make all acknowledged state durable."""

    @abc.abstractmethod
    def power_fail(self) -> None:
        """Drop all volatile (DRAM) state, as if power was cut."""

    @abc.abstractmethod
    def remount(self) -> None:
        """Rebuild volatile state from flash after :meth:`power_fail`."""
