"""Demand-paged cached mapping table (CMT) for the flash-resident L2P.

DFTL-style demand paging (Dayan & Bonnet, "Garbage Collection Techniques
for Flash-Resident Page-Mapping FTLs"): the full logical-to-physical map no
longer fits in controller DRAM, so translation pages live on flash behind a
Global Translation Directory (the FTL's existing ``_map_dir`` segment ->
ppn directory, published atomically through the root record) and only a
bounded working set of them is *resident* at a time.

The simulator keeps ``_l2p`` in host RAM as the oracle either way — what
the CMT models is the *I/O* of residency:

- every L2P lookup or update makes its segment resident first: a host
  read, write or trim, and X-FTL's commit fold (X-L2P entry -> L2P), which
  runs after the commit is published like any other mapping update;
- a lookup outside the cache demand-fetches the translation page with a
  real ``chip.read`` (latency + ``page_reads``), evicting the LRU resident
  page to make room;
- evicting a *dirty* page (its segment has unflushed mapping updates)
  writes it back through :meth:`PageMappingFTL._flush_pages` (one segment),
  batching up to ``cmt_dirty_batch`` additional LRU-most dirty residents
  into the same overlap region (they stay resident, now clean);
- correctness never depends on cache contents: recovery rebuilds the map
  from the root's directory plus the OOB scan exactly as before.

Crash points cover the new out-of-barrier write windows; they are swept by
the ``ftl.cmt`` verify layer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import FtlError
from repro.sim.crash import register_crash_point

CP_CMT_EVICT = register_crash_point(
    "ftl.cmt.evict", "ftl.cmt", "dirty translation page evicted, writeback not yet started"
)
CP_CMT_WRITEBACK = register_crash_point(
    "ftl.cmt.writeback", "ftl.cmt", "between translation-page writebacks of a dirty batch"
)


class CachedMappingTable:
    """LRU residency manager over translation-page segments.

    Owned by :class:`~repro.ftl.pagemap.PageMappingFTL` when
    ``FtlConfig.cmt_pages`` is positive and smaller than the number of
    translation pages covering the exported space (otherwise the whole map
    is resident by construction and the FTL skips the CMT wholesale —
    the documented degeneration that keeps large-cache behaviour
    bit-identical to the in-RAM mapping).

    Dirtiness is *not* tracked here: the FTL's ``_dirty_segments`` set
    stays the single source of truth, shared with the barrier flush.
    """

    def __init__(self, ftl, capacity: int, dirty_batch: int) -> None:
        if capacity <= 0:
            raise FtlError(f"CMT capacity must be positive, got {capacity}")
        if dirty_batch < 0:
            raise FtlError(f"cmt_dirty_batch must be >= 0, got {dirty_batch}")
        self.ftl = ftl
        self.capacity = capacity
        self.dirty_batch = dirty_batch
        # segment -> None; insertion order is LRU order (last = most recent).
        self._resident: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------ lookups

    def access(self, segment: int) -> None:
        """Make ``segment``'s translation page resident for a lookup/update."""
        resident = self._resident
        if segment in resident:
            resident.move_to_end(segment)
            self.ftl.stats.cmt_hits += 1
            return
        self.ftl.stats.cmt_misses += 1
        self._fetch(segment)
        resident[segment] = None
        self._shrink()

    def resident_segments(self) -> list[int]:
        """LRU -> MRU order, for tests."""
        return list(self._resident)

    # ------------------------------------------------------------ internals

    def _fetch(self, segment: int) -> None:
        """Demand-read the translation page from flash, if it was ever persisted.

        A miss on a segment with no flushed translation page (all of its
        mappings newer than the last flush, or never written) costs no
        flash read — the directory simply has no entry to load.
        """
        ppn = self.ftl._map_dir.get(segment)
        if ppn is None:
            return
        self.ftl.chip.read(ppn)
        self.ftl.stats.cmt_fetch_reads += 1

    def _shrink(self) -> None:
        ftl = self.ftl
        while len(self._resident) > self.capacity:
            victim, _ = self._resident.popitem(last=False)
            ftl.stats.cmt_evictions += 1
            if victim not in ftl._dirty_segments:
                continue
            ftl.chip.crash_plan.hit(CP_CMT_EVICT)
            with ftl.chip.overlap():
                self.writeback(victim)
                batched = 0
                for companion in list(self._resident):  # LRU-most first
                    if batched >= self.dirty_batch:
                        break
                    if companion in ftl._dirty_segments:
                        ftl.chip.crash_plan.hit(CP_CMT_WRITEBACK)
                        self.writeback(companion)
                        batched += 1

    def writeback(self, segment: int) -> None:
        """Persist ``segment``'s translation page and mark it clean.

        The flush clears the dirty marker *before* the program: a GC pass
        triggered by the program itself may relocate one of the segment's
        data pages and legitimately re-dirty it (the written image would
        then be stale), and that re-dirtying must survive this writeback.
        """
        self.ftl._flush_pages((segment,))
        self.ftl.stats.cmt_writebacks += 1

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Power loss: residency is DRAM state."""
        self._resident.clear()

    def check_invariants(self) -> None:
        ftl = self.ftl
        if len(self._resident) > self.capacity:
            raise FtlError(
                f"CMT resident count {len(self._resident)} exceeds capacity {self.capacity}"
            )
        # Every *clean* flushed translation page must match the live map:
        # any L2P mutation is obliged to re-dirty its segment, so a clean
        # flash copy is by definition current.  chip.peek reads without
        # latency or statistics.
        # Images are canonical (pagemap's format: lpn-ordered slice plus
        # lpn-ordered chains), so equality is the whole comparison.
        for segment, ppn in ftl._map_dir.items():
            if segment in ftl._dirty_segments:
                continue
            flushed = ftl.chip.peek(ppn)
            live = ftl._segment_image(segment)
            if flushed != live:
                raise FtlError(
                    f"clean translation page for segment {segment} is stale: "
                    f"flash has {flushed}, map has {live}"
                )
