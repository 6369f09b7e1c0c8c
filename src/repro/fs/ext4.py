"""ext4-like file system over a simulated storage device.

Implements the parts of ext4 that the paper's experiments exercise:

- inodes with direct + indirect block pointers, a flat root directory,
  block/inode allocation bitmaps, a superblock;
- a page cache with force (fsync) and steal (dirty eviction) behaviour;
- four durability modes (:class:`JournalMode`), each a protocol that the
  constructor binds once — a sync body (``_sync_*``), a steal write
  (``_steal_*``) and ``transactional`` (fsync ends in ``commit(t)``):

  ``ORDERED``
      metadata journaling with data-before-metadata ordering — data and
      the journal frame, then the commit page as an ordered write (two
      write barriers per fsync on a drain device, none on a
      barrier-enabled one);
  ``FULL``
      data journaling — every data page goes through the journal and is
      later checkpointed home, i.e. written twice;
  ``XFTL``
      journaling off, transactions pushed down to the device: file data and
      metadata writes are tagged with a transaction id, fsync ends with a
      ``commit(t)``, and an ioctl ``abort(t)`` drops cached dirty pages and
      rolls back stolen ones inside the device (§5.2);
  ``NONE``
      no journaling, no transactions — fast and unsafe (ablation only).

Every sync entry point (``fsync``, ``fbarrier``, ``fdatabarrier``,
``fsync_group``, ``stage_tx``, ``sync_metadata``) states an intent — durable
or order-only — and runs through one frame, :meth:`Ext4._sync`, into the
sync body; whether order costs a drain is decided by the device.

Metadata pages are written with self-describing images so a crashed file
system can be remounted from the device alone.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Any, Iterator

from repro.device.ssd import StorageDevice
from repro.errors import (
    FileExistsFsError,
    FileNotFoundFsError,
    FsError,
    TransactionError,
)
from repro.fs.journal import Jbd2Journal
from repro.fs.pagecache import PageCache
from repro.sim.crash import register_crash_point

CP_FSYNC_MID = register_crash_point(
    "fs.fsync.mid",
    "fs.ext4",
    "fsync data writes done, commit record (journal frame / commit(t)) not yet issued",
)

DIRECT_PTRS = 12
NO_BLOCK = -1  # an indirect block's entry for a file page with no block
INODES_PER_PAGE = 32
TID_MOUNT_GAP = 10_000  # tid headroom reserved across remounts


class JournalMode(enum.Enum):
    """Durability strategy of the file system."""

    ORDERED = "ordered"
    FULL = "full"
    XFTL = "xftl"
    NONE = "none"


@dataclass
class FsStats:
    """File-system-side I/O accounting (the 'File System' column of Table 1).

    The only store of these counts, bound as obs ``fs.<field>``; one per mount.
    """

    data_page_writes: int = 0
    meta_page_writes: int = 0
    journal_page_writes: int = 0
    fsync_calls: int = 0
    file_creates: int = 0
    file_deletes: int = 0

    def snapshot(self) -> "FsStats":
        return FsStats(**vars(self))

    def delta(self, earlier: "FsStats") -> "FsStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return FsStats(**{k: v - getattr(earlier, k) for k, v in vars(self).items()})


@dataclass
class Inode:
    """On-media inode: name, size and block pointers."""

    ino: int
    name: str
    size_bytes: int = 0
    direct: list[int | None] = field(default_factory=lambda: [None] * DIRECT_PTRS)
    indirect: list[int] = field(default_factory=list)  # lpns of indirect blocks

    def as_record(self) -> tuple:
        return (self.ino, self.name, self.size_bytes, tuple(self.direct), tuple(self.indirect))

    @classmethod
    def from_record(cls, record: tuple) -> "Inode":
        ino, name, size_bytes, direct, indirect = record
        return cls(
            ino=ino,
            name=name,
            size_bytes=size_bytes,
            direct=list(direct),
            indirect=list(indirect),
        )


class Ext4:
    """The simulated file system (see module docstring)."""

    def __init__(
        self,
        device: StorageDevice,
        mode: JournalMode = JournalMode.ORDERED,
        journal_pages: int = 256,
        cache_capacity: int = 4096,
        max_inodes: int = 128,
    ) -> None:
        self.transactional = mode is JournalMode.XFTL  # fsync ends in commit(t)
        if self.transactional and not device.supports_transactions:
            raise FsError("XFTL mode requires a device with the extended command set")
        self.device = device
        self.mode = mode
        self.stats = FsStats()
        self._clock = device.clock
        self._profile = device.profile
        self.max_inodes = max_inodes
        self.obs = device.obs
        obs = device.obs
        obs.registry.bind(self.stats, {f"fs.{f.name}": f.name for f in fields(FsStats)})
        obs.instrument(self, self._clock)

        # ---- layout ----------------------------------------------------
        total = device.exported_pages
        page_size = device.page_size
        bits_per_page = page_size * 8
        self.sb_lpn = 0
        self.bitmap_start = 1
        self.bitmap_pages = math.ceil(total / bits_per_page)
        self.itable_start = self.bitmap_start + self.bitmap_pages
        self.itable_pages = math.ceil(max_inodes / INODES_PER_PAGE)
        self.dir_lpn = self.itable_start + self.itable_pages
        self.journal_start = self.dir_lpn + 1
        self.journal_pages = journal_pages
        self.data_start = self.journal_start + journal_pages
        if self.data_start >= total:
            raise FsError("device too small for this file-system layout")
        self.data_pages = total - self.data_start
        self.ptrs_per_page = page_size // 8

        # ---- volatile state ---------------------------------------------
        self._inodes: dict[int, Inode] = {}
        self._by_name: dict[str, int] = {}
        # Block bitmap over the data region: byte ``lpn - data_start`` is 1
        # while ``lpn`` is free.
        self._free_map = bytearray(b"\x01") * self.data_pages
        self._alloc_cursor = self.data_start  # next-fit allocation pointer
        # Indirect blocks: ind lpn -> its pointers, one C int each
        # (``NO_BLOCK`` for a hole); an "ind" image is a copy of the array.
        self._indirect: dict[int, array] = {}
        self._next_ino = 1
        self._free_inos: list[int] = []  # reusable inode numbers (unlinked)
        self._next_tid = 1
        self._dirty_meta: set[int] = set()
        self._dirty_data: dict[int, int] = {}  # lpn -> ino
        self._stolen: dict[int, int] = {}  # lpn -> tid (uncommitted, on device)
        self._txn_manager = None  # lazily built TxnManager (see txn_manager)
        # Namespace ownership (multi-tenant stacks): name prefix -> owner
        # label.  Volatile, like the rest of the mount state; the stack
        # re-registers namespaces after a remount.
        self._namespaces: dict[str, str] = {}
        self.cache = PageCache(cache_capacity, writeback=self._evict_writeback, obs=obs)
        self.journal: Jbd2Journal | None = None
        if mode in (JournalMode.ORDERED, JournalMode.FULL):
            self.journal = self._make_journal()
        # The durability protocol: the body behind every sync entry point, and
        # the write a dirty page evicted before its fsync (a steal) gets.
        self._sync_body, self._steal = {
            JournalMode.ORDERED: (self._sync_ordered, self._steal_home),
            JournalMode.FULL: (self._sync_full, self._steal_journaled),
            JournalMode.XFTL: (self._sync_xftl, self._steal_tagged),
            JournalMode.NONE: (self._sync_unjournaled, self._steal_home),
        }[mode]

    # ------------------------------------------------------------- factory

    @classmethod
    def mkfs(cls, device: StorageDevice, mode: JournalMode = JournalMode.ORDERED, **kwargs) -> "Ext4":
        """Create a fresh file system and persist its empty metadata."""
        fs = cls(device, mode=mode, **kwargs)
        fs._dirty_meta.add(fs.sb_lpn)
        fs._dirty_meta.update(range(fs.bitmap_start, fs.bitmap_start + fs.bitmap_pages))
        fs._dirty_meta.update(range(fs.itable_start, fs.itable_start + fs.itable_pages))
        fs._dirty_meta.add(fs.dir_lpn)
        for lpn in sorted(fs._dirty_meta):
            fs._write_meta_home(lpn)
        fs._dirty_meta.clear()
        device.flush()
        return fs

    @classmethod
    def mount(cls, device: StorageDevice, mode: JournalMode = JournalMode.ORDERED, **kwargs) -> "Ext4":
        """Mount an existing file system, replaying the journal if needed."""
        fs = cls(device, mode=mode, **kwargs)
        if fs.journal is not None:
            retired, max_txid, home_writes = Jbd2Journal.replay(
                fs.journal_start, fs.journal_pages, device.read
            )
            for lpn, image in home_writes:
                fs._device_write_meta_raw(lpn, image)
            if home_writes:
                device.flush()
            fs.journal.restore_position(retired, max_txid)
        fs._load_metadata()
        return fs

    def _make_journal(self) -> Jbd2Journal:
        return Jbd2Journal(
            region_start=self.journal_start,
            region_pages=self.journal_pages,
            write_page=self._device_write_journal,
            read_page=self.device.read,
            write_ordered=self._device_write_journal_ordered,
            write_home=self._journal_write_home,
            obs=self.obs,
        )

    # ---------------------------------------------------------- namespaces

    def register_namespace(self, prefix: str, owner: str) -> None:
        """Claim every name under ``prefix`` for ``owner``.

        Namespace ownership fences tenants sharing this file system: a
        namespaced call (``owner=`` passed to create/open/unlink) may only
        touch names inside its own prefix.  Calls without an owner are
        superuser (mount-time recovery, single-tenant stacks).  Volatile
        state — re-register after every mount; re-registering the same
        prefix for the same owner is idempotent.
        """
        existing = self._namespaces.get(prefix)
        if existing is not None and existing != owner:
            raise FsError(
                f"namespace {prefix!r} already owned by {existing!r}, "
                f"cannot re-register for {owner!r}"
            )
        self._namespaces[prefix] = owner

    def namespace_owner(self, name: str) -> str | None:
        """The owner of the longest registered prefix covering ``name``."""
        best = None
        best_len = -1
        for prefix, owner in self._namespaces.items():
            if len(prefix) > best_len and name.startswith(prefix):
                best, best_len = owner, len(prefix)
        return best

    def _check_namespace(self, name: str, owner: str | None) -> None:
        if owner is None:
            return  # superuser path (recovery, single-tenant callers)
        ns_owner = self.namespace_owner(name)
        if ns_owner != owner:
            raise FsError(
                f"tenant {owner!r} may not touch {name!r} "
                f"(owned by {ns_owner!r})"
            )

    # ------------------------------------------------------------ file API

    def create(self, name: str, owner: str | None = None) -> "FileHandle":
        """Create an empty file; metadata becomes dirty (journaled later)."""
        self._check_namespace(name, owner)
        if name in self._by_name:
            raise FileExistsFsError(name)
        if len(self._inodes) >= self.max_inodes:
            raise FsError("out of inodes")
        self._charge_syscall()
        if self._free_inos:
            ino = self._free_inos.pop()
        else:
            ino = self._next_ino
            self._next_ino += 1
        inode = Inode(ino=ino, name=name)
        self._inodes[ino] = inode
        self._by_name[name] = ino
        self._mark_meta_dirty_for_inode(ino)
        self._dirty_meta.add(self.dir_lpn)
        self._dirty_meta.add(self.sb_lpn)
        self.stats.file_creates += 1
        return FileHandle(self, inode)

    def open(self, name: str, owner: str | None = None) -> "FileHandle":
        self._check_namespace(name, owner)
        self._charge_syscall()
        ino = self._by_name.get(name)
        if ino is None:
            raise FileNotFoundFsError(name)
        return FileHandle(self, self._inodes[ino])

    def exists(self, name: str) -> bool:
        return name in self._by_name

    def unlink(self, name: str, owner: str | None = None) -> None:
        """Delete a file: free its blocks (with device trim) and its inode."""
        self._check_namespace(name, owner)
        self._charge_syscall()
        ino = self._by_name.pop(name, None)
        if ino is None:
            raise FileNotFoundFsError(name)
        inode = self._inodes.pop(ino)
        for lpn in self._block_lpns(inode):
            self._release_block(lpn)
        for ind_lpn in inode.indirect:
            self._indirect.pop(ind_lpn, None)
            self._dirty_meta.discard(ind_lpn)  # no image left to render
            self._release_block(ind_lpn)
        self._mark_meta_dirty_for_inode(ino)
        self._dirty_meta.add(self.dir_lpn)
        self._free_inos.append(ino)
        self.stats.file_deletes += 1

    def listdir(self) -> list[str]:
        return sorted(self._by_name)

    def allocation_frontier(self) -> int:
        """Lowest lpn above every block in use and every block this mount
        has allocated.

        Device-aging utilities place cold filler above this point so they
        never clobber live file contents; the file system is still free to
        grow into (and overwrite) the filler region later.  A fresh mount
        starts its next-fit cursor at ``data_start``, so the blocks its
        files already hold come from the bitmap (its highest used byte).
        """
        return max(self._alloc_cursor, self.data_start + self._free_map.rfind(0) + 1)

    # ---------------------------------------------------------- txn / sync

    @property
    def txn_manager(self):
        """The :class:`~repro.stack.txn.TxnManager` minting this fs's contexts.

        Built lazily with a function-level import: ``repro.stack`` imports
        this module at package init, so importing it back at module top
        would cycle.
        """
        if self._txn_manager is None:
            from repro.stack.txn import TxnManager

            self._txn_manager = TxnManager(self)
        return self._txn_manager

    def _allocate_tid(self) -> int:
        """Next tid from the persistent sequence (superblock + mount gap)."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    @staticmethod
    def check_txn(txn) -> None:
        """Reject a raw integer tid at the front door.

        Transactions are :class:`TransactionContext` objects minted by
        ``fs.txn_manager.begin()``; an int would only fail later, as an
        ``AttributeError`` somewhere below the page cache.
        """
        if isinstance(txn, int):
            raise TransactionError(
                f"txn={txn!r}: pass the TransactionContext from "
                "fs.txn_manager.begin(), not a raw integer tid"
            )

    # The sync entry points.  Each states an intent — which files, which
    # transaction, durable or order-only — and hands it to :meth:`_sync`;
    # none calls another.  What order costs is the device's decision
    # (``flush`` / ``barrier`` / ``write_barrier``), never tested here.

    def fsync(self, handle: "FileHandle", txn=None) -> None:
        """Force the file's dirty data (and all dirty metadata) durable.

        In XFTL mode this ends with a ``commit(tid)`` on the device —
        making every page the transaction wrote (whether force-written now
        or stolen earlier) atomically durable.
        """
        self._sync("fsync", [handle], txn)

    def fbarrier(self, handle: "FileHandle", txn=None) -> None:
        """Order-only fsync (the barrier-enabled stack's ``fbarrier``).

        The same writes in the same order as :meth:`fsync` — data, then
        the journal frame or ``commit(t)`` — but the caller only needs
        them *ordered* before whatever it writes next, not durable on
        return.  A barrier-enabled device pays no drain for that; a drain
        device pays the same flushes as an fsync.
        """
        self._sync("fbarrier", [handle], txn, order_only=True)

    def fdatabarrier(self, handle: "FileHandle") -> None:
        """Order-only data barrier (``fdatabarrier``): no metadata, no wait.

        Pushes the file's dirty data pages down to the device and issues
        one order-only barrier — everything written before this call is
        ordered before everything written after it.
        """
        self._sync("fdatabarrier", [handle], None, data_only=True)

    def fsync_group(self, handles: list["FileHandle"], txn) -> None:
        """Atomically force several files' dirty data under one transaction.

        This is the §4.3 multi-file case: where stock SQLite needs a master
        journal to make updates spanning database files atomic, X-FTL just
        tags every page of every file with the same tid and issues a single
        ``commit(t)``.  Only meaningful in XFTL mode.
        """
        if not self.transactional:
            raise FsError("fsync_group requires XFTL mode")
        self._sync("fsync_group", handles, txn)

    def stage_tx(self, handle: "FileHandle", txn) -> None:
        """Group commit, phase 1: fsync minus the device commit.

        Drains the file's dirty data and writes it (plus all dirty
        metadata) tagged under ``txn``, leaving the transaction staged
        (COMMITTING) on the device.  A later :meth:`commit_tx_group`
        makes a whole batch of staged transactions durable with one
        commit sweep.  XFTL mode only.
        """
        if not self.transactional:
            raise FsError("stage_tx requires XFTL mode")
        if txn is None:
            raise FsError("stage_tx requires a transaction")
        self._sync("stage_tx", [handle], txn, commit=False)

    def sync_metadata(self, txn=None, order_only: bool = False) -> None:
        """Directory-style fsync: flush only metadata (after create/unlink).

        ``order_only=True`` is the ``fbarrier`` of directory syncs: the
        caller needs the metadata ordered, not durable on return.
        """
        self._sync("sync_metadata", [], txn, order_only=order_only)

    def _sync(
        self,
        name: str,
        handles: list["FileHandle"],
        txn,
        order_only: bool = False,
        data_only: bool = False,
        commit: bool = True,
    ) -> None:
        """The one sync frame behind every entry point above.

        Drains the dirty data of ``handles`` and makes it, together with
        all dirty metadata, durable — or just ordered, when ``order_only``
        — by the protocol's sync body.  ``data_only`` skips the metadata
        and the protocol for one order-only barrier (``fdatabarrier``);
        ``commit=False`` stops an XFTL sync short of ``commit(t)``
        (``stage_tx``).
        """
        self.check_txn(txn)
        self.stats.fsync_calls += 1
        self._sync_frame(name, handles, txn, order_only, data_only, commit)

    def _sync_frame(
        self,
        name: str,
        handles: list["FileHandle"],
        txn,
        order_only: bool,
        data_only: bool,
        commit: bool,
    ) -> None:
        """The part of :meth:`_sync` that takes time: entry point ``name``'s span."""
        self._clock.advance(self._profile.host_fsync_us)
        dirty: list[tuple[int, Any]] = []
        for handle in handles:
            dirty.extend(self._drain_dirty_data(handle.inode.ino, staged=not commit))
        if data_only:
            self._write_data_home(dirty)
            self.device.barrier()
        else:
            self._sync_body(dirty, handles, txn, order_only, commit)

    def commit_tx_group(self, txns) -> None:
        """Group commit, phase 2: one commit sweep for all staged ``txns``.

        The device pays a single drain barrier and the X-FTL firmware a
        single X-L2P CoW flush for the whole batch; afterwards every
        member is durable (all-or-nothing under a crash).
        """
        if not self.transactional:
            raise FsError("commit_tx_group requires XFTL mode")
        txns = [txn for txn in txns if txn is not None]
        if not txns:
            return
        for txn in txns:
            self.check_txn(txn)
        self.device.commit_group([txn.tid for txn in txns])
        for txn in txns:
            # The staged cache pages' data is the committed copy now: untag
            # them so foreign readers resolve to the fresh data instead of
            # re-reading the (now superseded) committed copy off the device.
            self.cache.clear_txn_tag(txn)
            self._forget_stolen(txn.tid)
            txn.mark_committed()
            self.txn_manager.release(txn)

    def ioctl_abort(self, txn) -> None:
        """Abort a transaction (the new ioctl request type, §5.1).

        Cached dirty pages of the transaction are dropped; changes already
        stolen to the device are rolled back by the device's abort command.
        """
        if txn is None:
            raise FsError("ioctl_abort requires a transaction")
        self.check_txn(txn)
        self._charge_syscall()
        for lpn in self.cache.drop_txn(txn):
            self._dirty_data.pop(lpn, None)
        if self.transactional:
            self.device.abort(txn.tid)
        self._forget_stolen(txn.tid)
        txn.mark_aborted()
        self.txn_manager.release(txn)

    # ------------------------------------------------------- sync protocols

    def _forget_stolen(self, tid: int) -> None:
        """The device settled ``tid``: none of its pages is stolen any more."""
        for lpn in [lpn for lpn, owner in self._stolen.items() if owner == tid]:
            del self._stolen[lpn]

    def _write_data_home(self, dirty: list[tuple[int, Any]]) -> None:
        for lpn, data in dirty:
            self._device_write_data(lpn, data)

    def _sync_ordered(self, dirty, handles, txn, order_only: bool, commit: bool) -> None:
        # Data home ahead of the metadata frame: the commit page, an ordered
        # write, orders both before it (two barriers per fsync, §6.3.4).
        self._write_data_home(dirty)
        self._sync_full([], handles, txn, order_only, commit)

    def _sync_unjournaled(self, dirty, handles, txn, order_only: bool, commit: bool) -> None:
        self._write_data_home(dirty)
        for lpn in sorted(self._dirty_meta):
            self._write_meta_home(lpn)
        self._dirty_meta.clear()
        self.device.flush()

    def _sync_xftl(self, dirty, handles, txn, order_only: bool, commit: bool) -> None:
        """XFTL: tagged writes + commit(t), one barrier-equivalent per fsync.

        If any tagged write fails (e.g. the device's X-L2P table is full),
        the affected pages are dropped from the cache: their cached images
        are uncommitted, and the caller is expected to abort ``txn``.
        """
        if txn is None:
            txn = self.txn_manager.begin()
        txn.begin_commit()
        try:
            for lpn, data in dirty:
                self._device_write_data(lpn, data, tid=txn.tid)
            for lpn, image in self._render_dirty_meta():
                self._device_write_meta_raw(lpn, image, tid=txn.tid)
        except BaseException:
            for lpn, _data in dirty:
                self.cache.drop(lpn)
            raise
        self._dirty_meta.clear()
        self.device.chip.crash_plan.hit(CP_FSYNC_MID)
        if commit:
            self.device.commit(txn.tid)
            self._forget_stolen(txn.tid)
            txn.mark_committed()
            self.txn_manager.release(txn)
            return
        # Staged copies live on the device uncommitted, exactly like stolen
        # pages: route plain readers to the committed copy and tagged
        # self-reads to the transaction's version even if the cached page
        # gets evicted before the commit sweep.
        for lpn, _data in dirty:
            self._stolen[lpn] = txn.tid

    def _sync_full(self, dirty, handles, txn, order_only: bool, commit: bool) -> None:
        """One journal frame of ``dirty`` (FULL: the data, so it is written
        twice overall) plus the dirty metadata, or the durability point."""
        if handles:  # a directory sync has no data phase to crash after
            self.device.chip.crash_plan.hit(CP_FSYNC_MID)
        records = dirty + self._render_dirty_meta()
        if records:
            assert self.journal is not None
            self.journal.commit(records)
        elif self.device.dirty_since_flush:
            # Nothing to journal, but writes landed since the last flush
            # (data sent home just now, say): still a durability point for
            # them — order-only if that is all the caller asked for.  On a
            # device clean since its last flush the point is already
            # satisfied and a second flush would be pure stall.
            if order_only:
                self.device.barrier()
            else:
                self.device.flush()
        self._dirty_meta.clear()

    def _drain_dirty_data(self, ino: int, staged: bool = False) -> list[tuple[int, Any]]:
        lpns = sorted(lpn for lpn, owner in self._dirty_data.items() if owner == ino)
        out: list[tuple[int, Any]] = []
        for lpn in lpns:
            page = self.cache.peek(lpn)
            if page is not None and page.dirty:
                out.append((lpn, page.data))
                if staged:
                    # Group-commit stage: the data is about to be written
                    # under its transaction but stays uncommitted until the
                    # commit sweep — keep the page's txn tag so foreign
                    # readers don't see it from the cache meanwhile.
                    self.cache.mark_staged(lpn)
                else:
                    self.cache.mark_clean(lpn)
            del self._dirty_data[lpn]
        return out

    # --------------------------------------------------------- device plumb

    def _charge_syscall(self) -> None:
        self._clock.advance(self._profile.host_syscall_us)

    def _device_write_data(self, lpn: int, data: Any, tid: int | None = None) -> None:
        self.stats.data_page_writes += 1
        if tid is not None:
            self.device.write_tx(tid, lpn, data)
        else:
            self.device.write(lpn, data)

    def _device_write_meta_raw(self, lpn: int, image: Any, tid: int | None = None) -> None:
        self.stats.meta_page_writes += 1
        if tid is not None:
            self.device.write_tx(tid, lpn, image)
        else:
            self.device.write(lpn, image)

    def _device_write_journal(self, lpn: int, image: Any) -> None:
        self.stats.journal_page_writes += 1
        self.device.write(lpn, image)

    def _device_write_journal_ordered(self, lpn: int, image: Any) -> None:
        """Journal commit page / superblock: one ordered write."""
        self.stats.journal_page_writes += 1
        self.device.write_barrier(lpn, image)

    def _journal_write_home(self, lpn: int, image: Any) -> None:
        """Checkpoint write-back: journaled image to its home location."""
        if self.data_start <= lpn:
            self._device_write_data(lpn, image)
        else:
            self._device_write_meta_raw(lpn, image)

    def _write_meta_home(self, lpn: int) -> None:
        self._device_write_meta_raw(lpn, self._render_meta(lpn))

    # ------------------------------------------------------- block plumbing

    def _block_lpns(self, inode: Inode) -> Iterator[int]:
        for lpn in inode.direct:
            if lpn is not None:
                yield lpn
        for ind_lpn in inode.indirect:
            for lpn in self._indirect.get(ind_lpn, ()):
                if lpn != NO_BLOCK:
                    yield lpn

    def _lookup_block(self, inode: Inode, index: int) -> int | None:
        if index < DIRECT_PTRS:
            return inode.direct[index]
        index -= DIRECT_PTRS
        ind_slot, offset = divmod(index, self.ptrs_per_page)
        if ind_slot >= len(inode.indirect):
            return None
        lpn = self._indirect[inode.indirect[ind_slot]][offset]
        return None if lpn == NO_BLOCK else lpn

    def _ensure_block(self, inode: Inode, index: int) -> int:
        """Return the lpn for file page ``index``, allocating if needed."""
        existing = self._lookup_block(inode, index)
        if existing is not None:
            return existing
        lpn = self._allocate_block()
        if index < DIRECT_PTRS:
            inode.direct[index] = lpn
        else:
            rel = index - DIRECT_PTRS
            ind_slot, offset = divmod(rel, self.ptrs_per_page)
            while ind_slot >= len(inode.indirect):
                ind_lpn = self._allocate_block()
                inode.indirect.append(ind_lpn)
                self._indirect[ind_lpn] = array("i", (NO_BLOCK,)) * self.ptrs_per_page
            ind_lpn = inode.indirect[ind_slot]
            self._indirect[ind_lpn][offset] = lpn
            self._dirty_meta.add(ind_lpn)
        self._mark_meta_dirty_for_inode(inode.ino)
        page_size = self.device.page_size
        inode.size_bytes = max(inode.size_bytes, (index + 1) * page_size)
        return lpn

    def _allocate_block(self) -> int:
        """Next-fit block allocation: the first free block at or above the
        cursor, else the first free block of the data region."""
        free = self._free_map
        base = self.data_start
        index = free.find(1, self._alloc_cursor - base)
        if index < 0:
            index = free.find(1)
            if index < 0:
                raise FsError("file system out of space")
        free[index] = 0
        lpn = base + index
        self._alloc_cursor = lpn + 1
        self._dirty_meta.add(self._bitmap_lpn_for(lpn))
        return lpn

    def _release_block(self, lpn: int) -> None:
        self._free_map[lpn - self.data_start] = 1
        self._dirty_meta.add(self._bitmap_lpn_for(lpn))
        self._dirty_data.pop(lpn, None)
        self._stolen.pop(lpn, None)
        self.cache.drop(lpn)
        self.device.trim(lpn)

    def _bitmap_lpn_for(self, lpn: int) -> int:
        bits_per_page = self.device.page_size * 8
        return self.bitmap_start + lpn // bits_per_page

    def _mark_meta_dirty_for_inode(self, ino: int) -> None:
        self._dirty_meta.add(self.itable_start + (ino - 1) // INODES_PER_PAGE)

    # ------------------------------------------------------- metadata pages

    def _render_meta(self, lpn: int) -> Any:
        """Self-describing image for a metadata page."""
        if lpn == self.sb_lpn:
            return ("sb", self._next_ino, self._next_tid)
        if self.bitmap_start <= lpn < self.bitmap_start + self.bitmap_pages:
            # Bitmap images carry no payload: mount reconstructs allocation
            # from the inodes (like e2fsck would).  The page write itself is
            # what matters for the I/O accounting.
            index = lpn - self.bitmap_start
            return ("bitmap", index)
        if self.itable_start <= lpn < self.itable_start + self.itable_pages:
            index = lpn - self.itable_start
            lo_ino = index * INODES_PER_PAGE + 1
            hi_ino = lo_ino + INODES_PER_PAGE
            records = tuple(
                inode.as_record()
                for ino, inode in sorted(self._inodes.items())
                if lo_ino <= ino < hi_ino
            )
            return ("itable", index, records)
        if lpn == self.dir_lpn:
            return ("dir", tuple(sorted(self._by_name.items())))
        if lpn in self._indirect:
            return ("ind", lpn, self._indirect[lpn][:])
        raise FsError(f"lpn {lpn} is not a metadata page")

    def _render_dirty_meta(self) -> list[tuple[int, Any]]:
        return [(lpn, self._render_meta(lpn)) for lpn in sorted(self._dirty_meta)]

    def _load_metadata(self) -> None:
        """Rebuild in-memory metadata from on-device images (mount path)."""
        sb = self.device.read(self.sb_lpn)
        if not sb or sb[0] != "sb":
            raise FsError("no file system found (bad superblock)")
        self._next_ino = sb[1]
        self._next_tid = sb[2] + TID_MOUNT_GAP
        self._inodes = {}
        self._by_name = {}
        for index in range(self.itable_pages):
            image = self.device.read(self.itable_start + index)
            if not image:
                continue
            for record in image[2]:
                inode = Inode.from_record(record)
                self._inodes[inode.ino] = inode
        dir_image = self.device.read(self.dir_lpn)
        if dir_image:
            self._by_name = dict(dir_image[1])
        # Drop inodes with no directory entry (unlinked but itable page stale).
        live = set(self._by_name.values())
        self._inodes = {ino: inode for ino, inode in self._inodes.items() if ino in live}
        self._free_inos = [ino for ino in range(1, self._next_ino) if ino not in live]
        # Indirect blocks, then the bitmap: every block a live inode holds
        # is cleared in a fresh all-free map.
        self._indirect = {}
        free = self._free_map = bytearray(b"\x01") * self.data_pages
        base = self.data_start
        for inode in self._inodes.values():
            for ind_lpn in inode.indirect:
                image = self.device.read(ind_lpn)
                if image and image[0] == "ind":
                    self._indirect[ind_lpn] = image[2][:]
                else:
                    self._indirect[ind_lpn] = array("i", (NO_BLOCK,)) * self.ptrs_per_page
                free[ind_lpn - base] = 0
        for inode in self._inodes.values():
            for lpn in self._block_lpns(inode):
                free[lpn - base] = 0

    # ------------------------------------------------------------ data path

    def read_lpn(self, lpn: int, txn=None) -> Any:
        """Read one file data page through cache/journal/device layers.

        Snapshot-read isolation: a cache page tagged by some *other*
        transaction — dirty, or staged for a pending group commit — is
        invisible: the reader gets the committed copy from the device
        instead (uncached, since the committed copy goes stale the moment
        the writer commits).  A transaction always sees its own tagged
        pages; untagged dirty pages (non-XFTL modes, plain writes) are
        shared as before.
        """
        self.check_txn(txn)
        page = self.cache.get(lpn)
        if page is not None:
            owner = page.txn
            if owner is not None and (txn is None or owner.tid != txn.tid):
                self._charge_syscall()
                return self.device.read(lpn)
            return page.data
        self._charge_syscall()
        if self.journal is not None:
            pending = self.journal.pending_image(lpn)
            if pending is not None:
                self.cache.put(lpn, pending)
                return pending
        if lpn in self._stolen:
            # An uncommitted (stolen) copy is on the device.  Plain readers
            # get the committed copy, and it must not be cached: the cache
            # would go stale the moment the stealing transaction commits.
            return self.device.read(lpn)
        data = self.device.read(lpn)
        if data is not None:
            self.cache.put(lpn, data)
        return data

    def read_lpn_as_of(self, lpn: int, snapshot_seq: int) -> Any:
        """Snapshot (AS-OF) read: the committed copy as of ``snapshot_seq``.

        Bypasses the page cache in both directions — the cache tracks the
        *current* committed state, not historical versions, so a snapshot
        reader neither trusts nor populates it.
        """
        self._charge_syscall()
        return self.device.read_as_of(lpn, snapshot_seq)

    def write_lpn(self, lpn: int, data: Any, ino: int, txn) -> None:
        """Buffer one file data page write in the cache (dirty, txn-tagged)."""
        self.check_txn(txn)
        self._charge_syscall()
        self.cache.put(lpn, data, dirty=True, txn=txn)
        self._dirty_data[lpn] = ino

    def _evict_writeback(self, lpn: int, data: Any, txn) -> None:
        """Steal path: a dirty page leaves the cache before any fsync."""
        self._dirty_data.pop(lpn, None)
        self._steal(lpn, data, txn)

    def _steal_home(self, lpn: int, data: Any, txn) -> None:
        self._device_write_data(lpn, data)

    def _steal_journaled(self, lpn: int, data: Any, txn) -> None:
        self.journal.commit([(lpn, data)])

    def _steal_tagged(self, lpn: int, data: Any, txn) -> None:
        if txn is None:
            self._device_write_data(lpn, data)
        else:
            self._device_write_data(lpn, data, tid=txn.tid)
            self._stolen[lpn] = txn.tid


class FileHandle:
    """Page-granular file handle (SQLite reads/writes whole pages)."""

    def __init__(self, fs: Ext4, inode: Inode) -> None:
        self.fs = fs
        self.inode = inode

    @property
    def name(self) -> str:
        return self.inode.name

    @property
    def size_bytes(self) -> int:
        return self.inode.size_bytes

    @property
    def n_pages(self) -> int:
        return math.ceil(self.inode.size_bytes / self.fs.device.page_size)

    def read_page(self, index: int, txn=None) -> Any:
        """Read file page ``index``; None if unallocated (sparse read).

        ``txn`` identifies the reader for snapshot isolation: without it,
        another transaction's dirty cached pages are bypassed in favor of
        the committed copy (see :meth:`Ext4.read_lpn`).
        """
        lpn = self.fs._lookup_block(self.inode, index)
        if lpn is None:
            return None
        return self.fs.read_lpn(lpn, txn=txn)

    def write_page(self, index: int, data: Any, txn=None) -> None:
        """Buffer a page write; ``txn`` tags it for XFTL-mode transactions."""
        lpn = self.fs._ensure_block(self.inode, index)
        self.fs.write_lpn(lpn, data, self.inode.ino, txn)

    def read_page_as_of(self, index: int, snapshot_seq: int) -> Any:
        """Snapshot read of file page ``index`` (see :meth:`Ext4.read_lpn_as_of`)."""
        lpn = self.fs._lookup_block(self.inode, index)
        if lpn is None:
            return None
        return self.fs.read_lpn_as_of(lpn, snapshot_seq)

    def read_page_tx(self, index: int, txn) -> Any:
        """Tagged read: transaction ``txn`` sees its own stolen writes.

        Pages that were never stolen read through the shared cache like any
        committed data (with the reader's identity, so the transaction sees
        its own dirty cached pages but not a foreign writer's).  Stolen
        (uncommitted, on-device) pages bypass the cache — other readers
        must keep seeing the committed copy.
        """
        fs = self.fs
        fs.check_txn(txn)
        lpn = fs._lookup_block(self.inode, index)
        if lpn is None:
            return None
        stolen_tid = fs._stolen.get(lpn)
        if stolen_tid is None:
            return fs.read_lpn(lpn, txn=txn)
        page = fs.cache.peek(lpn)
        if page is not None and (
            page.txn is None or (txn is not None and page.txn.tid == txn.tid)
        ):
            return page.data
        fs._charge_syscall()
        if txn is not None and stolen_tid == txn.tid and fs.transactional:
            return fs.device.read_tx(txn.tid, lpn)
        return fs.device.read(lpn)  # someone else's steal: committed copy

    def fallocate(self, n_pages: int) -> None:
        """Preallocate blocks for the first ``n_pages`` pages (no data I/O).

        Like ``fallocate(2)``: the blocks are reserved and the metadata
        updated, but nothing is written to them — FIO lays its test file
        out this way before measuring, so allocation work stays out of the
        measured loop.
        """
        fs = self.fs
        fs._charge_syscall()
        for index in range(n_pages):
            fs._ensure_block(self.inode, index)

    def truncate(self, n_pages: int = 0) -> None:
        """Shrink the file to ``n_pages`` pages, freeing the rest."""
        fs = self.fs
        fs._charge_syscall()
        inode = self.inode
        for index in range(n_pages, self.n_pages):
            lpn = fs._lookup_block(inode, index)
            if lpn is None:
                continue
            if index < DIRECT_PTRS:
                inode.direct[index] = None
            else:
                rel = index - DIRECT_PTRS
                ind_slot, offset = divmod(rel, fs.ptrs_per_page)
                fs._indirect[inode.indirect[ind_slot]][offset] = NO_BLOCK
                fs._dirty_meta.add(inode.indirect[ind_slot])
            fs._release_block(lpn)
        inode.size_bytes = min(inode.size_bytes, n_pages * fs.device.page_size)
        fs._mark_meta_dirty_for_inode(inode.ino)

    def fsync(self, txn=None) -> None:
        self.fs.fsync(self, txn=txn)
