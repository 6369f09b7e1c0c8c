"""TxFlash-style FTL (Prabhakaran et al., OSDI 2008) — baseline (§3.3).

TxFlash supports atomic multi-page writes *without* a separate commit
record: the pages of a group are linked into a cycle through their OOB
areas (Simple Cyclic Commit, SCC).  At recovery, a group is committed iff
its cycle is complete — every member page is present and points to the next
— and its pages take effect at the highest sequence of the cycle, the program
that closed it.

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
from repro.ftl.pagemap import OOB_DATA, PageMappingFTL

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
                ppn = self.gc.host_program(data, OOB_SCC, lpn, (group, position, size, next_lpn))
                staged.append((lpn, ppn))
                self.stats.host_page_writes += 1
                self._obs_host_writes.inc()
            # Cycle is complete on flash: publish the mappings.
            self._publish_mappings(staged)
        finally:
            self._inflight_lpns.difference_update(lpns)

    # ------------------------------------------------------------- recovery

    def power_fail(self) -> None:
        super().power_fail()
        self._inflight_lpns = set()

    def _effect_sequences(self, scanned):
        """A complete cycle's pages took effect when its last member was programmed."""
        cycles: dict[tuple[int, int], dict[int, tuple[int, int, int]]] = {}
        for seq, kind, lpn, scc, ppn in scanned:
            if kind == OOB_SCC:
                group, position, size, _next_lpn = scc
                cycles.setdefault((group, size), {})[position] = (seq, lpn, ppn)
            elif kind == OOB_DATA:
                yield seq, seq, lpn, ppn
        for (group, size), members in cycles.items():
            if members.keys() != set(range(size)):
                continue  # incomplete cycle: group never committed
            closed = max(seq for seq, _lpn, _ppn in members.values())
            for seq, lpn, ppn in members.values():
                yield closed, seq, lpn, ppn
            self._group_seq = max(self._group_seq, group)
