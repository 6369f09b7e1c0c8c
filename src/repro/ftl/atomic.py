"""Atomic-write FTL (Park et al., ISCE 2005) — related-work baseline (§3.3).

Supports atomic propagation of the pages named in a *single* write call,
``write_atomic([(lpn, data), ...])``: all pages are programmed copy-on-write,
then a commit record naming the group is programmed; only then are the
mappings published.  In recovery a group's pages take effect at the sequence
of its commit record; a group without one never does.

Limitation reproduced on purpose: atomicity is per call.  Pages stolen from
the buffer pool at different times (SQLite's steal policy) land in different
calls and are *not* atomic as a group — this is the contrast X-FTL draws.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.flash.chip import FlashChip
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import OOB_DATA, OWNER_COMMIT_RECORD, PageMappingFTL

OOB_COMMIT_RECORD = "commit-record"


class AtomicWriteFTL(PageMappingFTL):
    """Per-call atomic multi-page writes via commit records."""

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        super().__init__(chip, config)
        self._group_seq = 0
        self._live_commit_records: dict[int, int] = {}  # group id -> record ppn

    def write_atomic(self, pages: Sequence[tuple[int, Any]]) -> None:
        """Atomically write a group of pages: data pages, then a commit record.

        The mapping update is deferred until the commit record is durable, so
        a crash anywhere inside the call leaves all old copies current.
        """
        self._check_power()
        if not pages:
            return
        self._group_seq += 1
        group = self._group_seq
        staged: list[tuple[int, int]] = []
        lpns = tuple(lpn for lpn, _data in pages)
        for lpn, data in pages:
            self._check_lpn(lpn)
            # Tag with the group id in the tid slot: recovery treats a group
            # as committed only if its commit record exists.
            ppn = self.gc.host_program(data, OOB_DATA, lpn, ("group", group))
            staged.append((lpn, ppn))
            self.stats.host_page_writes += 1
        # Commit record makes the group durable/atomic.
        record = ("commit-record", group, lpns)
        record_ppn = self.gc.host_program(record, OOB_COMMIT_RECORD, group, None)
        self._own(record_ppn, OWNER_COMMIT_RECORD, group)
        self._live_commit_records[group] = record_ppn
        self.stats.map_page_writes += 1
        # Publish mappings now that the record is durable.
        self._publish_mappings(staged)

    def barrier(self) -> None:
        """Checkpoint the map, after which old commit records are prunable.

        A commit record must stay valid until the mappings it guards are
        durable in the map checkpoint; pruning earlier would un-commit the
        group on recovery.
        """
        super().barrier()
        for group, ppn in list(self._live_commit_records.items()):
            self._disown(ppn)
            del self._live_commit_records[group]

    # ------------------------------------------------- GC/recovery plumbing

    def _gc_oob(self, owner: int, detail, old_ppn: int, seq: int) -> tuple:
        if owner == OWNER_COMMIT_RECORD:
            # The record's sequence is when its group took effect, wherever
            # the record now sits: a relocated record keeps it.
            return (OOB_COMMIT_RECORD, detail, self.chip.read_oob(old_ppn)[2], None)
        return super()._gc_oob(owner, detail, old_ppn, seq)

    def _repoint_owner(self, owner: int, detail, old_ppn: int, new_ppn: int) -> None:
        if owner != OWNER_COMMIT_RECORD:
            super()._repoint_owner(owner, detail, old_ppn, new_ppn)
        elif self._live_commit_records.get(detail) == old_ppn:
            self._live_commit_records[detail] = new_ppn

    def power_fail(self) -> None:
        super().power_fail()
        self._live_commit_records = {}

    def _effect_sequences(self, scanned):
        """A group's pages took effect at the sequence of its commit record.

        Records at or below ``root.seq`` guard mappings the checkpoint
        already holds and were pruned by that barrier; the ones above it
        are live again.
        """
        records: dict[int, tuple[int, int]] = {}  # group -> (seq, ppn) of its record
        grouped: list[tuple[int, int, int, int]] = []
        for seq, kind, key, tag, ppn in scanned:
            if kind == OOB_COMMIT_RECORD:
                records[key] = (seq, ppn)
            elif kind == OOB_DATA and tag is None:
                yield seq, seq, key, ppn
            elif kind == OOB_DATA:
                grouped.append((tag[1], seq, key, ppn))
        for group, seq, lpn, ppn in grouped:
            if group in records:
                yield records[group][0], seq, lpn, ppn
        for group, (seq, ppn) in records.items():
            if seq > self._root.seq:
                self._own_for_recovery(ppn, OWNER_COMMIT_RECORD, group)
                self._live_commit_records[group] = ppn
                self._group_seq = max(self._group_seq, group)
