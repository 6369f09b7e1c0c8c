"""TxFlash-style FTL (Prabhakaran et al., OSDI 2008) — baseline (§3.3).

TxFlash supports atomic multi-page writes *without* a separate commit
record: the pages of a group are linked into a cycle through their OOB
areas (Simple Cyclic Commit, SCC).  At recovery, a group is committed iff
its cycle is complete — every member page is present and points to the next.

As with :class:`~repro.ftl.atomic.AtomicWriteFTL`, atomicity is per call:
the group must be presented in one ``write_group`` invocation, which is the
restriction that conflicts with a steal buffer pool (the paper's §3.3).
TxFlash additionally rejects a group that conflicts with an in-flight group
on the same logical pages (its isolation guarantee).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import TransactionError
from repro.flash.chip import FlashChip
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL

OOB_SCC = "scc"


class TxFlashFTL(PageMappingFTL):
    """Per-call atomic group writes with Simple Cyclic Commit."""

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        super().__init__(chip, config)
        self._group_seq = 0
        self._inflight_lpns: set[int] = set()

    def write_group(self, pages: Sequence[tuple[int, Any]]) -> None:
        """Atomically write a group, SCC-style (no commit record).

        Each page's OOB names the group, its position, the group size and
        the *next* member's lpn, closing a cycle.  The last program completes
        the cycle and thereby commits the group.
        """
        self._check_power()
        if not pages:
            return
        lpns = [lpn for lpn, _data in pages]
        if len(set(lpns)) != len(lpns):
            raise TransactionError("SCC group may not repeat a logical page")
        conflict = self._inflight_lpns.intersection(lpns)
        if conflict:
            raise TransactionError(f"conflicting in-flight group on lpns {sorted(conflict)}")

        self._group_seq += 1
        group = self._group_seq
        self._inflight_lpns.update(lpns)
        try:
            staged: list[tuple[int, int]] = []
            size = len(pages)
            for position, (lpn, data) in enumerate(pages):
                self._check_lpn(lpn)
                next_lpn = lpns[(position + 1) % size]
                self._seq += 1
                scc = (group, position, size, next_lpn)
                ppn = self._program(data, (OOB_SCC, lpn, self._seq, scc))
                staged.append((lpn, ppn))
                self.stats.host_page_writes += 1
            # Cycle is complete on flash: publish the mappings.
            self._publish_mappings(staged)
        finally:
            self._inflight_lpns.difference_update(lpns)

    # ------------------------------------------------------------- recovery

    def power_fail(self) -> None:
        super().power_fail()
        self._inflight_lpns = set()

    def remount(self) -> None:
        """Standard recovery, then apply groups whose SCC cycle is complete."""
        super().remount()
        groups: dict[int, list[tuple[int, int, int, int]]] = {}
        sizes: dict[int, int] = {}
        for seq, kind, lpn, extra, ppn in self._scan_oob(min_seq=self._root.seq + 1):
            if kind != OOB_SCC:
                continue
            group, position, size, _next_lpn = extra
            groups.setdefault(group, []).append((position, seq, lpn, ppn))
            sizes[group] = size
        for group in sorted(groups):
            members = groups[group]
            positions = {m[0] for m in members}
            if positions != set(range(sizes[group])):
                continue  # incomplete cycle: group never committed
            for _position, seq, lpn, ppn in sorted(members, key=lambda m: m[1]):
                self._remap_for_recovery(lpn, ppn)
            if group > self._group_seq:
                self._group_seq = group
        self.gc.rebuild()

    def _gc_oob_extra(self, owner: tuple, old_ppn: int) -> tuple:
        return super()._gc_oob_extra(owner, old_ppn)
