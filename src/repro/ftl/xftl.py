"""X-FTL: the transactional flash translation layer (§4, §5).

Extends the stock page-mapped FTL with the paper's four extra commands:

``write_tx(tid, lpn, data)``
    Copy-on-write the page as usual, but record the new physical address in
    the X-L2P table instead of the main L2P table.  The committed copy stays
    readable; the uncommitted copy is pinned against garbage collection.

``read_tx(tid, lpn)``
    Return the transaction's own uncommitted copy if it has one, otherwise
    the committed copy (snapshot read, §4.2).

``commit(tid)``
    Mark the transaction's entries committed, flush the (tiny) X-L2P table
    copy-on-write to flash — one or two page programs — atomically update
    the meta-block root, then fold the entries into L2P in DRAM.  This is
    the entire durable cost of a commit; the large L2P map is checkpointed
    lazily.  (Figure 4.)

``abort(tid)``
    Drop the transaction's entries; its new physical pages become invalid
    and the old committed copies remain current.  No flash writes required:
    recovery discards any transaction that is not durably committed.

Recovery (§5.4): on remount, the inherited FTL recovery restores L2P from
the last checkpoint plus the OOB replay, which reflects every committed
write idempotently: the durable root maps each tid committed since that
checkpoint to the sequence its commit took effect at, and a tid-tagged data
page is applied at that sequence — commit order, not the order the pages
happened to be written or relocated in.  A page whose tid the root does not
name is never applied, which *is* the rollback.  The persisted X-L2P table
pages are then read back, validated and re-owned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable

from repro.errors import FtlError, TransactionError
from repro.flash.chip import FlashChip
from repro.flash.state import PAGE_PROGRAMMED
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import (
    DEAD,
    OOB_DATA,
    OOB_XL2P_TABLE,
    OWNER_DATA,
    OWNER_VERSION,
    OWNER_XL2P_DATA,
    OWNER_XL2P_TABLE,
    UNMAPPED,
    VERSION_TID,
    PageMappingFTL,
)
from repro.ftl.xl2p import TxStatus, VersionedL2P, XL2PEntry, XL2PTable
from repro.sim.crash import register_crash_point

CP_COMMIT_BEFORE_FLUSH = register_crash_point(
    "xftl.commit.before-flush", "ftl.xftl", "commit marked in DRAM, X-L2P flush not started"
)
CP_COMMIT_AFTER_FLUSH = register_crash_point(
    "xftl.commit.after-flush", "ftl.xftl", "X-L2P flushed and root republished, L2P fold pending"
)
CP_GROUP_FLUSH = register_crash_point(
    "xftl.group.flush",
    "ftl.xftl",
    "group commit: all members marked committed in DRAM, shared X-L2P flush not started",
)
CP_GROUP_PUBLISH = register_crash_point(
    "xftl.group.publish",
    "ftl.xftl",
    "group commit: shared X-L2P flush durable and root republished, L2P folds pending",
)
CP_VERSION_PUBLISH = register_crash_point(
    "xftl.version.publish",
    "ftl.mvcc",
    "superseded committed page re-owned as a retained version, chain push pending",
)
CP_VERSION_RELEASE = register_crash_point(
    "xftl.version.release",
    "ftl.mvcc",
    "version released from its chain, deferred invalidation pending",
)

# The L2P map is checkpointed lazily after this many committed transactions
# (the commit itself flushes only the tiny X-L2P table).
MAP_CHECKPOINT_INTERVAL = 64


@dataclass(slots=True)
class MvccCounts:
    """What the multi-version X-L2P counts."""

    OBS_NAMES: ClassVar[dict[str, str]] = {
        "ftl.mvcc.version_publishes": "version_publishes",
        "ftl.mvcc.version_releases": "version_releases",
        "ftl.mvcc.asof_reads": "asof_reads",
    }

    version_publishes: int = 0
    version_releases: int = 0
    asof_reads: int = 0


class XFTL(PageMappingFTL):
    """Transactional FTL over a page-mapped base (see module docstring)."""

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        super().__init__(chip, config)
        self.xl2p = self._new_xl2p()
        self._xl2p_page_ppns: list[int] = []
        self._commits_since_checkpoint = 0
        self._committed_tids: set[int] = set()
        self._aborted_tids: set[int] = set()
        self._started_tids: set[int] = set()  # tids with >= 1 write_tx this mount
        self.last_xl2p_recovery_us = 0.0
        # Multi-version X-L2P (FtlConfig.retain_versions).  ``None`` — the
        # retain_versions=1 default — keeps every code path bit-identical to
        # the single-version stack (same discipline as cmt_pages=0).
        if self.config.retain_versions < 1:
            raise TransactionError(
                f"retain_versions must be >= 1, got {self.config.retain_versions}"
            )
        if self.config.retain_versions > 1:
            self._versions: VersionedL2P | None = VersionedL2P(
                self.config.retain_versions
            )
        else:
            self._versions = None
        # Commit sequence counter: ticks once per committed transaction
        # (snapshots pin its value).  Stays 0 on the single-version stack.
        self._commit_counter = 0
        self.mvcc = MvccCounts()
        chip.obs.registry.bind(self.mvcc, MvccCounts.OBS_NAMES)

    # ------------------------------------------------------ transactional IO

    def write_tx(self, tid: int, lpn: int, data: Any) -> None:
        """Tagged write: new copy goes to X-L2P, committed copy untouched."""
        if tid is None:
            raise TransactionError("write_tx requires a transaction id")
        if not self._powered:
            raise FtlError("FTL is powered off")
        if not 0 <= lpn < self._exported_pages:
            raise FtlError(f"lpn {lpn} outside exported space (0..{self._exported_pages - 1})")
        ppn = self.gc.host_program(data, OOB_DATA, lpn, tid)
        self._started_tids.add(tid)
        previous = self.xl2p.put(tid, lpn, ppn)
        if previous is not None:
            # The transaction rewrote its own uncommitted copy.  Its death
            # is not recorded: the tid can still commit, and replay then
            # yields this copy too (the payload goes with its block's erase).
            self._disown(previous)
        owner = self._owner  # _own(ppn, OWNER_XL2P_DATA, (tid, lpn)), inline
        if owner[ppn] != DEAD:
            raise FtlError(f"ppn {ppn} already owned by {owner[ppn]}")
        owner[ppn] = OWNER_XL2P_DATA
        self._owner_detail[ppn] = (tid, lpn)
        self._valid_count[ppn // self._pages_per_block] += 1
        self.stats.host_page_writes += 1

    def read_tx(self, tid: int, lpn: int) -> Any:
        """Tagged read: the transaction sees its own writes, else committed."""
        self._check_power()
        self._check_lpn(lpn)
        entry = self.xl2p.get(tid, lpn)
        if entry is None:
            return self.read(lpn)
        self.stats.host_page_reads += 1
        return self.chip.read(entry.new_ppn)

    # ------------------------------------------------- multi-version X-L2P

    def _supersede(self, lpn: int, old_ppn: int, commit_seq: int | None) -> None:
        """Retain the superseded committed copy on the lpn's version chain."""
        if self._versions is None:
            self._bury(old_ppn)
            return
        if commit_seq is None:
            # A plain overwrite is its own one-page commit: it ticks the
            # commit counter so snapshots order it against both
            # transactional commits and other plain overwrites (two
            # overwrites sharing a sequence would make a snapshot between
            # them resolve to the older copy).
            self._commit_counter += 1
            commit_seq = self._commit_counter
        self._version_publish(lpn, old_ppn, commit_seq)

    def trim(self, lpn: int) -> None:
        super().trim(lpn)
        if self._versions is not None:
            for ppn in self._versions.release_lpn(lpn):
                self._release_version_page(lpn, ppn)

    def trim_run(self, lpns: Iterable[int]) -> None:
        """The ``trim`` loop; inline only when no version chain is kept."""
        if self._versions is None:
            super().trim_run(lpns)
            return
        for lpn in lpns:
            self.trim(lpn)

    def read_as_of(self, lpn: int, snap: int) -> Any:
        """Committed content of ``lpn`` as of commit sequence ``snap``.

        Resolves through the lpn's version chain: the oldest retained copy
        superseded *after* ``snap``, falling back to the current committed
        copy.  With ``retain_versions=1`` this degenerates to :meth:`read`.
        """
        self._check_power()
        self._check_lpn(lpn)
        versions = self._versions
        if versions is not None:
            ppn = versions.resolve(lpn, snap)
            if ppn is not None:
                self.stats.host_page_reads += 1
                self.mvcc.asof_reads += 1
                return self.chip.read(ppn)
            self.mvcc.asof_reads += 1
        return self.read(lpn)

    def snapshot_seq(self) -> int:
        """The commit sequence number a snapshot taken right now pins."""
        self._check_power()
        return self._commit_counter

    def set_snapshot_floor(self, floor: int | None) -> None:
        """Publish the oldest active snapshot to drive version reclamation.

        ``None`` means no active snapshots: chains trim purely to the
        retention bound.  Versions a floor had pinned past the bound are
        released (deferred invalidation) once the floor moves beyond them.
        """
        self._check_power()
        versions = self._versions
        if versions is None:
            return
        for lpn, ppns in versions.set_floor(floor).items():
            for ppn in ppns:
                self._release_version_page(lpn, ppn)

    def version_chain(self, lpn: int) -> tuple:
        """Retained ``(ppn, sup_seq, oob_seq)`` versions of ``lpn`` (tests/bench)."""
        if self._versions is None:
            return ()
        return self._versions.chain(lpn)

    def retained_version_count(self) -> int:
        """Total retained version pages across all chains."""
        return len(self._versions) if self._versions is not None else 0

    def _version_publish(self, lpn: int, old_ppn: int, sup_seq: int) -> None:
        """Push a superseded committed copy onto the lpn's version chain.

        The page stays valid (GC-live), owned as ``OWNER_VERSION`` keyed by
        the lpn; its OOB sequence number is recorded as its stable identity
        for GC relocation and recovery validation.  Entries that fall off
        the bounded chain are released with deferred invalidation.
        """
        oob = self.chip.read_oob(old_ppn)
        oob_seq = oob[2] if oob else 0
        self._disown(old_ppn)
        self._own(old_ppn, OWNER_VERSION, lpn)
        self.chip.crash_plan.hit(CP_VERSION_PUBLISH)
        self.mvcc.version_publishes += 1
        for released in self._versions.push(lpn, old_ppn, sup_seq, oob_seq):
            self._release_version_page(lpn, released)

    def _release_version_page(self, lpn: int, ppn: int) -> None:
        """Deferred invalidation of a released version (may still be
        referenced by the durable root's translation pages until the next
        publish)."""
        self.chip.crash_plan.hit(CP_VERSION_RELEASE)
        self._retire(ppn, OWNER_VERSION, lpn)
        self.mvcc.version_releases += 1
        # The chain shrank, so the segment's durable image is stale.
        self._mark_dirty(lpn)

    def commit(self, tid: int) -> None:
        """Durably commit ``tid`` (Figure 4). Cheap: flushes only the X-L2P."""
        self._commit_members([tid])

    def commit_group(self, tids: Iterable[int]) -> None:
        """Durably commit several transactions under ONE X-L2P flush.

        Group commit (§4's natural extension once many host transactions
        share the firmware): every member is marked committed in DRAM,
        then a single CoW flush + root republish makes the whole batch
        durable atomically — a crash before the republish loses every
        member, after it loses none.  The drain barrier inside
        :meth:`_flush_xl2p` is paid once per group instead of once per
        transaction, so on a multi-channel array the flush fans out
        across channels exactly once.

        Order within ``tids`` is the commit order for L2P folding: when two
        members wrote the same page, the later one wins.
        """
        self._commit_members(list(dict.fromkeys(tids)))

    def _commit_members(self, tids: list[int]) -> None:
        """The commit body; a single commit is the one-member group.

        The member count picks only the crash-point pair
        (``xftl.commit.*`` vs ``xftl.group.*``), the group-commit
        accounting and, in the instrumentation table, the span name.
        """
        self._check_power()
        # Each member's entries are taken once, in lpn order: the fold below
        # walks the same list, after GC may have repointed an entry's page.
        members: dict[int, list[XL2PEntry]] = {}
        for tid in tids:
            entries = self.xl2p.entries_of(tid)
            if entries:
                members[tid] = entries
                continue
            # A tid with nothing to commit: either a stale handle (already
            # committed/aborted — a host protocol error) or a transaction
            # that never wrote (an empty fsync), which has nothing to make
            # durable and must not pay for an X-L2P flush.
            if tid in self._committed_tids:
                raise TransactionError(f"tid {tid} is already committed")
            if tid in self._aborted_tids:
                raise TransactionError(f"tid {tid} was aborted; cannot commit")
            self._started_tids.discard(tid)
            self.stats.commits += 1  # the host command succeeded; just free
        if not members:
            return
        live = list(members)
        self._commit_tids(live, members)
        self._commits_since_checkpoint += len(live)
        if self._commits_since_checkpoint >= MAP_CHECKPOINT_INTERVAL:
            self._checkpoint_map()

    def _commit_tids(self, tids: list[int], members: dict[int, list[XL2PEntry]]) -> None:
        """Commit the members ``tids`` (``members``' keys, each with entries)."""
        if len(tids) == 1:
            cp_before, cp_after = CP_COMMIT_BEFORE_FLUSH, CP_COMMIT_AFTER_FLUSH
        else:
            cp_before, cp_after = CP_GROUP_FLUSH, CP_GROUP_PUBLISH
        # Step 1: status active -> committed (DRAM).
        for entries in members.values():
            for entry in entries:
                entry.status = TxStatus.COMMITTED
        self.chip.crash_plan.hit(cp_before)
        self._committed_tids.update(tids)
        # One commit sequence per member, assigned in fold order and
        # ticked before the flush so the published root carries the
        # post-commit counter atomically with the committed-tid set (a
        # post-crash snapshot must never pin a sequence below a durably
        # committed transaction's).
        commit_seqs: dict[int, int] = {}
        if self._versions is not None:
            for tid in tids:
                self._commit_counter += 1
                commit_seqs[tid] = self._commit_counter
        # Step 2+3: CoW-flush the X-L2P table, atomically repoint the root.
        self._flush_xl2p(tids)
        self.chip.crash_plan.hit(cp_after)
        # Step 4: remap the LPNs in the main L2P table (DRAM; idempotent):
        # each page passes from its X-L2P entry to the L2P.  Under a
        # demand-paged map this is an L2P update like any write, so the
        # translation page is made resident first.  The commit is already
        # published: an eviction here is ordinary out-of-barrier traffic,
        # and GC under its writeback may relocate the entry's page
        # (update_ppn repoints the entry), so new_ppn is read after.
        # Per entry this is _disown(new_ppn) then _map(lpn, new_ppn,
        # seq), inline: the page stays live on its block and only
        # changes owner, so its valid count does not move.
        cmt = self._cmt
        per = self._map_entries_per_page
        l2p, owner, detail = self._l2p, self._owner, self._owner_detail
        dirty = self._dirty_segments
        supersede = self._supersede
        for tid, entries in members.items():
            seq = commit_seqs.get(tid)
            for entry in entries:
                lpn = entry.lpn
                if cmt is not None:
                    cmt.access(lpn // per)
                ppn = entry.new_ppn
                del detail[ppn]
                owner[ppn] = OWNER_DATA
                old = l2p[lpn]
                if old != UNMAPPED:
                    supersede(lpn, old, seq)
                l2p[lpn] = ppn
                dirty.add(lpn // per)
            self.xl2p.remove_tid(tid)
        self._started_tids.difference_update(tids)
        self.stats.commits += len(tids)
        if len(tids) > 1:
            self.stats.group_commits += 1

    def abort(self, tid: int) -> None:
        """Roll back ``tid``: drop its entries, invalidate its new pages.

        Aborting a transaction that never wrote is a no-op (SQLite rolls
        back read-only transactions through the same ioctl), but aborting
        an already-committed tid is a host protocol error.
        """
        self._check_power()
        entries = self.xl2p.entries_of(tid)
        if not entries:
            if tid in self._committed_tids:
                raise TransactionError(f"tid {tid} is already committed; cannot abort")
            self._started_tids.discard(tid)
            return
        for entry in entries:
            entry.status = TxStatus.ABORTED
        self._aborted_tids.add(tid)
        self._started_tids.discard(tid)
        self.xl2p.remove_tid(tid)
        for entry in entries:
            self._bury(entry.new_ppn)
        self.stats.aborts += 1

    # ------------------------------------------------------------ internals

    def _new_xl2p(self) -> XL2PTable:
        return XL2PTable(capacity=self.config.xl2p_capacity)

    def _flush_xl2p(self, members: list[int]) -> None:
        """Write the whole X-L2P table copy-on-write and republish the root.

        The republish is what commits ``members``: it stamps each with the
        sequence its pages take effect at in recovery.

        On a multi-channel array the table pages (DRAM-sourced) round-robin
        across channels and overlap inside one region; ``chip.drain()`` is
        the cross-channel barrier that makes every page durable *before*
        the root repoints at them, preserving the commit ordering of
        Figure 4 step 3.
        """
        self._write_xl2p(self.xl2p.serialize(self.chip.geometry.page_size))
        # Atomic meta-block update: new X-L2P location + the members'
        # commit stamp (+ the commit sequence counter; constant 0 when
        # retain_versions=1).  The stamp is _seq as of *now*, not before the
        # flush: its programs may have made GC relocate the old committed
        # copy of a page a member rewrote, which the member must outrank.
        # No program runs from the drain to the end of the publish, so the
        # old table pages die here, with no retirement in between.
        old_ppns = self._root.xl2p_ppns
        self._root.xl2p_ppns = tuple(self._xl2p_page_ppns)
        for old in old_ppns:
            self._disown(old)
            self.chip.discard(old)  # no root names it any more
        self._root.committed_tids.update(dict.fromkeys(members, self._seq))
        self._root.commit_seq = self._commit_counter
        if self._cmt is not None:
            # Demand-paged mode repoints translation pages outside barriers
            # (CMT eviction writebacks); retired old copies become
            # collectable below, so the root must follow the directory in
            # the same atomic update.
            self._publish_map_dir()
        self._release_retired()

    def _write_xl2p(self, images: list) -> None:
        """Program the table ``images`` across the channels, then drain."""
        # The live list names each new page from its program on, so a GC
        # pass later in this flush that moves it repoints the list
        # (_repoint_owner); a moved old page is repointed in the root.
        self._xl2p_page_ppns = new_ppns = []
        with self.chip.overlap():
            for index, image in enumerate(images):
                ppn = self.gc.host_program(image, OOB_XL2P_TABLE, index, None)
                self._own(ppn, OWNER_XL2P_TABLE, index)
                new_ppns.append(ppn)
                self.stats.xl2p_page_writes += 1
        self.chip.drain()
        self.stats.xl2p_flushes += 1

    def _checkpoint_map(self) -> None:
        """Lazy L2P checkpoint: bounds OOB replay and prunes committed tids."""
        self.barrier()
        self._committed_tids.clear()
        self._root.committed_tids = {}
        self._commits_since_checkpoint = 0

    def _segment_chains(self, lo: int, hi: int) -> tuple:
        # Multi-version mode persists each segment's version chains beside
        # its mappings so retained versions survive power loss; chain
        # durability rides the existing flush points (barriers, CMT
        # writebacks) — a crash can cost retention depth, never integrity
        # (recovery validates every restored entry against its page's OOB
        # identity).
        return self._versions.chains_in(lo, hi) if self._versions is not None else ()

    # ------------------------------------------------- GC integration hooks

    def _gc_oob(self, owner: int, detail, old_ppn: int, seq: int) -> tuple:
        if owner == OWNER_XL2P_DATA:
            # Uncommitted data keeps its tid so recovery can judge it.
            tid, lpn = detail
            return (OOB_DATA, lpn, seq, tid)
        if owner == OWNER_VERSION:
            # A relocated retained version keeps its *original* sequence
            # number — the chain entry's stored identity — so recovery can
            # still match it against the persisted chain, and VERSION_TID,
            # which is never committed, so replay never applies it.
            oob_seq = self._versions.oob_seq_of(detail, old_ppn)
            if oob_seq is None:
                raise TransactionError(
                    f"version-owned ppn {old_ppn} missing from lpn {detail}'s chain"
                )
            return (OOB_DATA, detail, oob_seq, VERSION_TID)
        return super()._gc_oob(owner, detail, old_ppn, seq)

    def _repoint_owner(self, owner: int, detail, old_ppn: int, new_ppn: int) -> None:
        if owner == OWNER_XL2P_DATA:
            self.xl2p.update_ppn(*detail, new_ppn)
        elif owner == OWNER_VERSION:
            self._versions.relocate(detail, old_ppn, new_ppn)
            # The chain's durable image now names a stale ppn; re-flush it.
            self._mark_dirty(detail)
        else:
            table = self._xl2p_page_ppns
            if owner == OWNER_XL2P_TABLE and detail < len(table) and table[detail] == old_ppn:
                table[detail] = new_ppn
            super()._repoint_owner(owner, detail, old_ppn, new_ppn)

    # ------------------------------------------------------------- recovery

    def _effect_sequences(self, scanned):
        """A tagged page took effect at the sequence the root stamped its tid with."""
        committed = self._root.committed_tids
        for seq, kind, lpn, tid, ppn in scanned:
            if kind != OOB_DATA:
                continue
            effect = seq if tid is None else committed.get(tid)
            if effect is not None:
                yield effect, seq, lpn, ppn

    def power_fail(self) -> None:
        super().power_fail()
        self.xl2p = self._new_xl2p()
        self._xl2p_page_ppns = []
        self._committed_tids = set()
        self._aborted_tids = set()
        self._started_tids = set()
        self._commits_since_checkpoint = 0
        self._commit_counter = 0
        if self._versions is not None:
            self._versions.clear()

    def _finish_remount(self, chains: list) -> None:
        """Read, validate and re-own the persisted X-L2P table pages (§5.4).

        The replay has already applied their committed entries.  The
        measured duration is recorded in :attr:`last_xl2p_recovery_us` —
        this is the "X-FTL mode restart time" of Table 5.
        """
        t0 = self.chip.clock.now_us
        self._committed_tids = set(self._root.committed_tids)
        images = []
        for index, ppn in enumerate(self._root.xl2p_ppns):
            images.append(self.chip.read(ppn))
            self._own_for_recovery(ppn, OWNER_XL2P_TABLE, index)
        self._xl2p_page_ppns = list(self._root.xl2p_ppns)
        XL2PTable.deserialize(images, capacity=self.config.xl2p_capacity)
        # Active/aborted entries are discarded: that *is* the rollback.
        self.xl2p = self._new_xl2p()
        # Snapshots pinned before the crash are gone; the counter resumes
        # from the durable root so new snapshots sit above every durably
        # committed transaction.
        self._commit_counter = self._root.commit_seq
        if self._versions is not None:
            self._restore_version_chains(chains)
        self.last_xl2p_recovery_us = self.chip.clock.now_us - t0

    def _commit_seq_for_root(self) -> int:
        return self._commit_counter

    def _restore_version_chains(self, chains: list) -> None:
        """Re-validate and re-own the map pages' version chains (recovery).

        Runs after OOB replay, so every *current* page is already owned.
        A persisted chain entry can be stale — released and reclaimed, its
        block erased or reused since the map page flushed — so each entry
        is validated against the physical page's OOB identity (programmed,
        data kind, same lpn, same sequence number) and against the owner
        map (an entry may never claim a page something else keeps alive).
        Failures are dropped: an unowned page is simply reclaimed by the
        space-state rebuild, so a crash anywhere between version publish and
        release can lose retention depth but never orphan or double-free a
        page.
        """
        versions = self._versions
        versions.clear()
        page_states = self.chip.state.page_states
        owners = self._owner
        for lpn, chain in sorted(chains):
            restored = []
            for ppn, sup_seq, oob_seq in chain:
                if page_states[ppn] != PAGE_PROGRAMMED:
                    continue
                oob = self.chip.read_oob(ppn)
                if not oob or oob[0] != OOB_DATA or oob[1] != lpn or oob[2] != oob_seq:
                    continue
                if owners[ppn] != DEAD:
                    continue
                restored.append((ppn, sup_seq, oob_seq))
                self._own_for_recovery(ppn, OWNER_VERSION, lpn)
            if restored:
                versions.restore(lpn, restored)
                if len(restored) != len(chain):
                    # The durable chain shrank: persist the repair.
                    self._mark_dirty(lpn)
        # Snapshot pins died with the power; re-trim chains a floor had
        # held past the retention bound.
        for lpn, ppns in versions.set_floor(None).items():
            for ppn in ppns:
                self._release_version_page(lpn, ppn)

    # ----------------------------------------------------------- invariants

    def _check_owner_referenced(self, ppn: int, owner: int) -> None:
        super()._check_owner_referenced(ppn, owner)
        if owner == OWNER_XL2P_DATA:
            tid, lpn = self._owner_detail[ppn]
            entry = self.xl2p.get(tid, lpn)
            if entry is None or entry.new_ppn != ppn:
                raise TransactionError(
                    f"ppn {ppn} owned by X-L2P entry (tid={tid}, lpn={lpn}), which "
                    f"{'is gone' if entry is None else f'points at {entry.new_ppn}'}"
                )

    def check_invariants(self) -> None:
        """X-L2P live-union invariant on top of the base FTL checks.

        Every page referenced by an X-L2P entry must be owned as that
        entry's uncommitted copy — i.e. the union of L2P and X-L2P
        references is exactly the live set GC preserves.  This is the
        property every background-GC preemption point must uphold: a
        paused copyback job may never leave an uncommitted transactional
        page unreferenced (collectable) or stale (pointing at a reclaimed
        physical page).
        """
        super().check_invariants()
        detail = self._owner_detail
        for tid in self.xl2p.active_tids():
            for entry in self.xl2p.entries_of(tid):
                ppn = entry.new_ppn
                if self._owner[ppn] != OWNER_XL2P_DATA or detail[ppn] != (tid, entry.lpn):
                    raise TransactionError(
                        f"X-L2P entry (tid={tid}, lpn={entry.lpn}) points at ppn "
                        f"{ppn} owned by {self._owner[ppn]} ({detail.get(ppn)!r}); "
                        f"live-union broken"
                    )
                if self.chip.state.page_states[entry.new_ppn] != PAGE_PROGRAMMED:
                    raise TransactionError(
                        f"X-L2P entry (tid={tid}, lpn={entry.lpn}) points at "
                        f"non-programmed ppn {entry.new_ppn}"
                    )
        versions = self._versions
        if versions is None:
            return
        # Version-chain invariants: every chain entry is a programmed page
        # owned as this lpn's retained version (the live-union GC preserves
        # now includes chains), chains never alias the current copy, commit
        # order is monotone, and no OWNER_VERSION page is orphaned.
        chained = 0
        for lpn, chain in versions.chains():
            if not chain:
                raise TransactionError(f"empty version chain for lpn {lpn}")
            if versions.floor is None and len(chain) > versions.bound:
                raise TransactionError(
                    f"version chain for lpn {lpn} exceeds bound with no snapshot "
                    f"floor: {len(chain)} > {versions.bound}"
                )
            current = self._l2p[lpn]
            prev_seq = None
            for ppn, sup_seq, _oob_seq in chain:
                chained += 1
                if self._owner[ppn] != OWNER_VERSION or detail[ppn] != lpn:
                    raise TransactionError(
                        f"version chain entry (lpn={lpn}, ppn={ppn}) owned by "
                        f"{self._owner[ppn]} ({detail.get(ppn)!r}); live-union broken"
                    )
                if self.chip.state.page_states[ppn] != PAGE_PROGRAMMED:
                    raise TransactionError(
                        f"version chain entry (lpn={lpn}) points at "
                        f"non-programmed ppn {ppn}"
                    )
                if ppn == current:
                    raise TransactionError(
                        f"ppn {ppn} is both current and retained for lpn {lpn}"
                    )
                if prev_seq is not None and sup_seq < prev_seq:
                    raise TransactionError(
                        f"version chain for lpn {lpn} lost commit order"
                    )
                prev_seq = sup_seq
        owned = self._owner.count(OWNER_VERSION)
        if owned != chained:
            raise TransactionError(
                f"{owned} pages owned as versions but {chained} chain entries"
            )
