"""The transactional logical-to-physical mapping table (X-L2P, §4.2, §5.3).

One entry per (transaction, logical page) pair that the transaction has
updated: ``(tid, lpn, new_ppn, status)``.  Entries are 16 bytes in the paper;
the whole table is 500-1000 entries (8-16 KB), small enough to be flushed
copy-on-write to flash in one or two page programs at every commit.

Multi-version extension
-----------------------
:class:`VersionedL2P` relaxes the one-committed-ppn-per-lpn contract: when
``FtlConfig.retain_versions > 1``, a commit *publishes* a new current copy
and pushes the superseded one onto the lpn's version chain instead of
invalidating it.  Chains hold ``(ppn, superseded_commit_seq, oob_seq)``
entries, oldest first; a snapshot pinned at commit sequence ``snap``
resolves to the oldest entry superseded *after* it (``sup_seq > snap``), or
to the current copy when no retained entry qualifies.  The chain depth is
bounded by ``retain_versions - 1``; the oldest entries are released —
handed back to the FTL for deferred invalidation — unless the host-supplied
snapshot floor (the oldest active snapshot) still pins them.
"""

from __future__ import annotations

import enum
import math

from repro.errors import TransactionError

# Size of one X-L2P entry (paper: 16 bytes).
XL2P_ENTRY_BYTES = 16


class TxStatus(enum.Enum):
    """Status of an updater transaction, as tracked by the X-L2P table."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# A status as a flushed record stores it (``.value`` is a property lookup).
_STATUS_VALUES = {status: status.value for status in TxStatus}


class XL2PEntry:
    """One X-L2P row: transaction ``tid`` rewrote ``lpn`` at ``new_ppn``.

    ``order`` is the table's count of first writes when this one was made:
    a flush lists entries in that order.
    """

    __slots__ = ("tid", "lpn", "new_ppn", "status", "order")

    def __init__(
        self, tid: int, lpn: int, new_ppn: int, status: TxStatus = TxStatus.ACTIVE, order: int = 0
    ) -> None:
        self.tid = tid
        self.lpn = lpn
        self.new_ppn = new_ppn
        self.status = status
        self.order = order

    @classmethod
    def from_record(cls, record: tuple[int, int, int, str]) -> "XL2PEntry":
        tid, lpn, new_ppn, status = record
        return cls(tid=tid, lpn=lpn, new_ppn=new_ppn, status=TxStatus(status))


def _order(entry: XL2PEntry) -> int:
    return entry.order


class XL2PTable:
    """In-DRAM X-L2P table with capacity accounting.

    One insertion-ordered map ``lpn -> entry`` per transaction; a
    transaction updating the same page twice reuses its entry (only the
    newest uncommitted copy matters, §5.3).  Physical sizing (how many
    flash pages a flush takes) follows the capacity, at
    ``XL2P_ENTRY_BYTES`` an entry.
    """

    def __init__(self, capacity: int = 1000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._by_tid: dict[int, dict[int, XL2PEntry]] = {}
        self._size = 0  # entries over all transactions
        self._puts = 0  # first writes so far: the next entry's order

    def __len__(self) -> int:
        return self._size

    def get(self, tid: int, lpn: int) -> XL2PEntry | None:
        entries = self._by_tid.get(tid)
        return None if entries is None else entries.get(lpn)

    def put(self, tid: int, lpn: int, new_ppn: int) -> int | None:
        """Point ``(tid, lpn)``'s entry at ``new_ppn``, adding it on a first write.

        Returns the physical page a rewrite supersedes (so the caller can
        invalidate that uncommitted copy), or ``None`` for a first write.
        Raises :class:`TransactionError` when the table is full.
        """
        entries = self._by_tid.get(tid)
        if entries is not None:
            entry = entries.get(lpn)
            if entry is not None:
                previous = entry.new_ppn
                entry.new_ppn = new_ppn
                return previous
        if self._size >= self.capacity:
            raise TransactionError(
                f"X-L2P table full ({self.capacity} entries); commit or abort first"
            )
        if entries is None:
            entries = self._by_tid[tid] = {}
        entries[lpn] = XL2PEntry(tid, lpn, new_ppn, TxStatus.ACTIVE, self._puts)
        self._puts += 1
        self._size += 1
        return None

    def entries_of(self, tid: int) -> list[XL2PEntry]:
        """All entries belonging to transaction ``tid``, in lpn order
        (possibly empty).  A commit or an abort takes them once and sets
        each entry's ``status`` itself."""
        entries = self._by_tid.get(tid)
        if not entries:
            return []
        return [entries[lpn] for lpn in sorted(entries)]

    def remove_tid(self, tid: int) -> None:
        """Drop all of ``tid``'s entries (post commit/abort)."""
        entries = self._by_tid.pop(tid, None)
        if entries:
            self._size -= len(entries)

    def active_tids(self) -> set[int]:
        return set(self._by_tid)

    def update_ppn(self, tid: int, lpn: int, new_ppn: int) -> None:
        """Repoint an entry after garbage collection relocated its page."""
        entry = self.get(tid, lpn)
        if entry is None:
            raise TransactionError(f"no X-L2P entry for tid={tid} lpn={lpn}")
        entry.new_ppn = new_ppn

    # --------------------------------------------------------- persistence

    def flush_page_count(self, page_size: int) -> int:
        """Flash pages needed to persist the whole table copy-on-write.

        The paper flushes the *entire configured table* (8 or 16 KB) at each
        commit, not just the occupied prefix, so sizing follows capacity.
        """
        return max(1, math.ceil(self.capacity * XL2P_ENTRY_BYTES / page_size))

    def serialize(self, page_size: int) -> list[tuple]:
        """Split the table's rows, in the order they were first written,
        across ``flush_page_count`` page images."""
        by_tid = self._by_tid
        entries = [entry for tid_entries in by_tid.values() for entry in tid_entries.values()]
        if len(by_tid) > 1:
            entries.sort(key=_order)  # each map is in order; interleave them
        values = _STATUS_VALUES
        records = [
            (entry.tid, entry.lpn, entry.new_ppn, values[entry.status]) for entry in entries
        ]
        pages = self.flush_page_count(page_size)
        per_page = -(-len(records) // pages) or 1
        return [
            ("xl2p", index, tuple(records[index * per_page : (index + 1) * per_page]))
            for index in range(pages)
        ]

    @classmethod
    def deserialize(cls, images: list[tuple], capacity: int) -> "XL2PTable":
        """Rebuild a table from flushed page images (recovery path)."""
        table = cls(capacity=capacity)
        for image in images:
            tag, _index, records = image
            if tag != "xl2p":
                raise TransactionError(f"not an X-L2P page image: {tag!r}")
            for record in records:
                entry = XL2PEntry.from_record(record)
                entry.order = table._puts
                table._puts += 1
                table._by_tid.setdefault(entry.tid, {})[entry.lpn] = entry
                table._size += 1
        return table


class VersionedL2P:
    """Superseded-version chains for the multi-version X-L2P (module docstring).

    The FTL owns the side effects: this class only tracks chain membership
    and order.  A chain entry is ``(ppn, sup_seq, oob_seq)`` — the physical
    page, the commit sequence number that superseded it, and the flash OOB
    sequence number the page was programmed with (its stable identity for
    GC relocation and crash-recovery validation).  Entries are oldest first
    and ``sup_seq`` is non-decreasing along a chain.

    Release protocol: :meth:`push` and :meth:`set_floor` return the physical
    pages that fell off a chain; the caller retires them (deferred
    invalidation at the next root publish).  An entry whose ``sup_seq`` lies
    above the floor — the oldest active snapshot's pinned sequence — is
    never released, even past the depth bound: some active reader may still
    resolve through it.
    """

    __slots__ = ("bound", "floor", "_chains")

    def __init__(self, retain_versions: int) -> None:
        if retain_versions < 2:
            raise ValueError("VersionedL2P requires retain_versions >= 2")
        self.bound = retain_versions - 1
        self.floor: int | None = None  # oldest active snapshot (None: no readers)
        self._chains: dict[int, list[tuple[int, int, int]]] = {}

    def __len__(self) -> int:
        """Total retained version pages across all chains."""
        return sum(len(chain) for chain in self._chains.values())

    def __bool__(self) -> bool:
        return bool(self._chains)

    def chain(self, lpn: int) -> tuple[tuple[int, int, int], ...]:
        """This lpn's retained versions, oldest first (empty when none)."""
        return tuple(self._chains.get(lpn, ()))

    def chains(self):
        """Live ``(lpn, chain_list)`` view for invariant checks."""
        return self._chains.items()

    def push(self, lpn: int, ppn: int, sup_seq: int, oob_seq: int) -> list[int]:
        """Retain a superseded committed copy; return released ppns."""
        chain = self._chains.get(lpn)
        if chain is None:
            chain = self._chains[lpn] = []
        elif chain and sup_seq < chain[-1][1]:
            raise TransactionError(
                f"version chain for lpn {lpn} would lose commit order: "
                f"{sup_seq} after {chain[-1][1]}"
            )
        chain.append((ppn, sup_seq, oob_seq))
        return self._trim(lpn, chain)

    def _trim(self, lpn: int, chain: list[tuple[int, int, int]]) -> list[int]:
        released: list[int] = []
        floor = self.floor
        while len(chain) > self.bound:
            sup_seq = chain[0][1]
            if floor is not None and sup_seq > floor:
                break  # still (conservatively) visible to an active snapshot
            released.append(chain.pop(0)[0])
        if not chain:
            del self._chains[lpn]
        return released

    def set_floor(self, floor: int | None) -> dict[int, list[int]]:
        """Publish the oldest active snapshot; re-trim previously pinned chains."""
        self.floor = floor
        released: dict[int, list[int]] = {}
        for lpn in [l for l, chain in self._chains.items() if len(chain) > self.bound]:
            out = self._trim(lpn, self._chains[lpn])
            if out:
                released[lpn] = out
        return released

    def release_lpn(self, lpn: int) -> list[int]:
        """Drop the whole chain (the host trimmed the logical page)."""
        chain = self._chains.pop(lpn, None)
        if not chain:
            return []
        return [entry[0] for entry in chain]

    def resolve(self, lpn: int, snap: int) -> int | None:
        """Physical page a snapshot pinned at ``snap`` reads for ``lpn``.

        ``None`` means the snapshot reads the current committed copy.
        """
        chain = self._chains.get(lpn)
        if chain is None:
            return None
        for ppn, sup_seq, _oob_seq in chain:
            if sup_seq > snap:
                return ppn
        return None

    def oob_seq_of(self, lpn: int, ppn: int) -> int | None:
        """The stored OOB sequence identity of a retained version page."""
        for entry_ppn, _sup_seq, oob_seq in self._chains.get(lpn, ()):
            if entry_ppn == ppn:
                return oob_seq
        return None

    def relocate(self, lpn: int, old_ppn: int, new_ppn: int) -> None:
        """Repoint a chain entry after GC copyback (chain order preserved)."""
        chain = self._chains.get(lpn)
        if chain is not None:
            for index, (ppn, sup_seq, oob_seq) in enumerate(chain):
                if ppn == old_ppn:
                    chain[index] = (new_ppn, sup_seq, oob_seq)
                    return
        raise TransactionError(f"no retained version of lpn {lpn} at ppn {old_ppn}")

    def restore(self, lpn: int, entries) -> None:
        """Install a recovery-validated chain (oldest first)."""
        if entries:
            self._chains[lpn] = [tuple(entry) for entry in entries]

    def chains_in(self, lo: int, hi: int) -> tuple:
        """``(lpn, chain)`` for every lpn in ``lo..hi-1`` with retained versions."""
        chains = self._chains
        if not chains:
            return ()
        return tuple((lpn, tuple(chains[lpn])) for lpn in range(lo, hi) if lpn in chains)

    def clear(self) -> None:
        """Forget everything (power loss: chains are rebuilt from flash)."""
        self._chains.clear()
        self.floor = None
