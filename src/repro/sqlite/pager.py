"""The pager: SQLite's buffer pool and journal-mode machinery.

Implements the I/O behaviour of Figure 1 for the three modes the paper
compares, one subclass of :class:`Pager` each: :class:`RollbackPager`
(RBJ), :class:`WalPager` and :class:`OffPager` (X-FTL).  ``Pager(fs, name,
mode, ...)`` builds the mode's class, which owns that mode's state and its
bootstrap, begin, read, spill, commit, rollback and recovery steps.  The
base keeps the cache and the header, page access, eviction, and the commit
/ rollback skeleton around the mode's step.

The buffer pool is managed with the *steal* and *force* policies (§2.1):
dirty pages may spill to the database file before commit (steal), and all
dirty pages are force-written at commit (force).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CorruptionError, DatabaseError
from repro.fs.ext4 import Ext4, FileHandle
from repro.sim.crash import register_crash_point

CP_COMMIT_MID = register_crash_point(
    "sqlite.commit.mid",
    "sqlite.pager",
    "rollback journal is hot (synced), database-file writes not started",
)


class SqliteJournalMode(enum.Enum):
    """SQLite journal modes compared in the paper."""

    ROLLBACK = "rollback"
    WAL = "wal"
    OFF = "off"  # journaling off; transactional device (X-FTL) underneath


@dataclass
class DbHeader:
    """Page 0 of the database file."""

    page_count: int = 1
    freelist: list[int] = None  # type: ignore[assignment]
    schema_cookie: int = 0

    def __post_init__(self) -> None:
        if self.freelist is None:
            self.freelist = []

    def to_image(self) -> tuple:
        return ("dbheader", self.page_count, tuple(self.freelist), self.schema_cookie)

    @classmethod
    def from_image(cls, image: tuple) -> "DbHeader":
        _tag, page_count, freelist, cookie = image
        return cls(page_count=page_count, freelist=list(freelist), schema_cookie=cookie)


class Pager:
    """Buffer pool + journal machinery over one database file.

    Every ordering point in the commit protocols (journal before db writes
    before journal delete, WAL frames before the index update) only needs
    *order*, so the commit paths call ``fs.fbarrier`` and
    ``fs.sync_metadata(order_only=True)``; what order costs — a drain or
    an epoch close — is the device's business.  Recovery paths call
    ``fs.fsync``: after replaying a journal the restored state must
    actually be on flash.
    """

    _txn = None  # the device transaction context (OffPager only)
    snapshot_seq: int | None = None  # pinned epoch of a snapshot txn (OffPager only)

    def __new__(cls, fs: Ext4, name: str, mode: SqliteJournalMode, *args, **kwargs):
        return super().__new__(_PAGERS[mode] if cls is Pager else cls)

    def __init__(
        self,
        fs: Ext4,
        name: str,
        mode: SqliteJournalMode,
        page_decoder: Callable[[tuple], Any],
        cache_pages: int = 512,
        checkpoint_interval: int = 1000,  # WalPager's; no other mode checkpoints
        session=None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.mode = mode
        self._decode = page_decoder
        self.cache_pages = cache_pages
        self.session = session  # owning Session, if any (concurrency runs)
        self.obs = fs.obs
        obs = fs.obs
        obs.annotate(f"sqlite.{name}.journal_mode", mode.value)
        self._obs_commits = obs.counter("sqlite.txn_commits")
        self._obs_rollbacks = obs.counter("sqlite.txn_rollbacks")
        self._obs_page_writes = obs.counter("sqlite.page_writes")
        self._obs_spills = obs.counter("sqlite.spilled_pages")
        self._obs_checkpoints = obs.counter("sqlite.wal_checkpoints")
        self._obs_commit_us = obs.histogram("sqlite.commit.latency_us")

        # The cache maps pno -> page object, least recently used first; the
        # open transaction's dirty pages are tracked as they are dirtied, so
        # a commit or rollback costs what the transaction touched, not the
        # cache size (:meth:`_dirty_pages`).
        self._cache: OrderedDict[int, Any] = OrderedDict()
        self._dirty: set[int] = set()
        self.in_txn = False
        created = not fs.exists(name)
        self.file: FileHandle = fs.create(name) if created else fs.open(name)
        self.last_recovery_us = 0.0
        self.header = DbHeader()  # replaced by recovery on an existing file
        if created:
            self._bootstrap()
            return
        # Reopening an existing file: the mode's crash recovery, timed for
        # Table 5, then the header it left behind.
        t0 = fs.device.clock.now_us
        self._recover()
        header_image = self.file.read_page(0)
        if header_image is None:
            raise DatabaseError(f"database {name!r} has no header page")
        self.header = DbHeader.from_image(header_image)
        self.last_recovery_us = fs.device.clock.now_us - t0

    # ----------------------------------------------------------- bootstrap

    def _bootstrap(self) -> None:
        """Persist an empty database (header only)."""
        self.file.write_page(0, self.header.to_image())
        self.fs.fsync(self.file)

    def _recover(self) -> None:
        """Nothing to do by default: the device already guarantees atomicity."""

    # ------------------------------------------------------------ txn API

    def begin(self, txn=None) -> None:
        """Start a transaction.

        ``txn`` lets a multi-file coordinator (§4.3) make several databases
        share one device transaction context; only OFF mode takes one.
        """
        if self.in_txn:
            raise DatabaseError("transaction already active")
        self._begin(txn)
        self.in_txn = True

    def _begin(self, txn) -> None:
        if txn is not None:
            raise DatabaseError("external transaction contexts are only supported in OFF mode")

    # Snapshots and staged commits exist in OFF mode only (see OffPager).

    def begin_snapshot(self, snapshot_seq: int | None = None) -> int:
        raise DatabaseError("snapshot transactions require OFF mode (X-FTL)")

    def stage_commit(self):
        raise DatabaseError("staged commits require OFF mode")

    def commit(self) -> None:
        """Commit: force dirty pages out per the journal mode's protocol."""
        if not self.in_txn:
            raise DatabaseError("no active transaction")
        dirty = self._dirty_pages()
        start_us = self.fs.device.clock.now_us
        with self.obs.tracer.span(
            "commit", "sqlite", tid=None if self._txn is None else self._txn.tid
        ):
            self._commit(dirty)
        self._obs_commits.inc()
        self._obs_page_writes.inc(len(dirty))
        self._obs_commit_us.observe(self.fs.device.clock.now_us - start_us)
        self._dirty.clear()
        self._end_txn()

    def rollback(self) -> None:
        """Abort: drop cached changes and undo stolen writes."""
        if not self.in_txn:
            raise DatabaseError("no active transaction")
        self._obs_rollbacks.inc()
        # Drop all uncommitted in-memory changes.
        cache = self._cache
        for pno, _page in self._dirty_pages():
            del cache[pno]
        self._dirty.clear()
        self._rollback()
        self.header = self._read_header_from_disk()
        self._end_txn()

    def _end_txn(self) -> None:
        self.in_txn = False

    def _dirty_pages(self) -> list[tuple[int, Any]]:
        """``(pno, page)`` of every dirty page, in the cache's LRU order.

        The order is what commit writes in, so it is simulated state.  The
        walk starts at the MRU end, where a transaction's pages are, and
        stops once every tracked page is found.  The header is never
        evicted or stolen and an update leaves it where it sits, often near
        the LRU end: once the walk has found every other dirty page without
        meeting it, it is the least recently used of them, so it goes first
        without being walked to.
        """
        dirty = self._dirty
        left = len(dirty)
        if not left:
            return []
        header = 1 if 0 in dirty else 0  # 1 until the walk meets page 0
        found = []
        if left > header:
            for pno, page in reversed(self._cache.items()):
                if pno in dirty:
                    found.append((pno, page))
                    left -= 1
                    if not pno:
                        header = 0
                    if left == header:
                        break
        if header:
            found.append((0, self._cache[0]))
        found.reverse()
        return found

    # --------------------------------------------------------- page access

    def get(self, pno: int) -> Any:
        """Fetch a page object (deserializing from storage on miss)."""
        cache = self._cache
        page = cache.get(pno)
        if page is not None:
            cache.move_to_end(pno)
            return page
        image = self._read_page_image(pno)
        if image is None:
            raise DatabaseError(f"page {pno} does not exist in {self.name!r}")
        page = cache[pno] = self._decode(image)
        self._enforce_capacity()
        return page

    def holds(self, pno: int) -> bool:
        """Whether page ``pno`` is in the cache (touches nothing)."""
        return pno in self._cache

    def put_new(self, pno: int, page: Any) -> None:
        """Install a freshly allocated page object."""
        self.mark_dirty(pno, page)

    def mark_dirty(self, pno: int, page: Any) -> None:
        """Declare that ``page`` (at ``pno``) was modified by this txn."""
        if not self.in_txn:
            raise DatabaseError("page modified outside a transaction")
        self._before_write(pno)
        cache = self._cache
        cache[pno] = page
        cache.move_to_end(pno)
        self._dirty.add(pno)
        self._enforce_capacity()

    def _before_write(self, pno: int) -> None:
        """The mode's step before the open transaction changes ``pno``."""

    def allocate(self) -> int:
        """Allocate a page number (from the freelist or by growing the file)."""
        self.mark_dirty_header()
        if self.header.freelist:
            return self.header.freelist.pop()
        pno = self.header.page_count
        self.header.page_count += 1
        return pno

    def free(self, pno: int) -> None:
        """Return a page to the freelist."""
        self.mark_dirty_header()
        self.header.freelist.append(pno)
        self._cache.pop(pno, None)
        self._dirty.discard(pno)

    def mark_dirty_header(self) -> None:
        """Declare the database header (page 0) modified by this txn."""
        if not self.in_txn:
            raise DatabaseError("page modified outside a transaction")
        self._before_write(0)
        self._cache[0] = self.header  # an update keeps page 0 where it is in the LRU
        self._dirty.add(0)

    @property
    def page_count(self) -> int:
        """Pages in the database file (including the header page)."""
        return self.header.page_count

    # -------------------------------------------------------------- reading

    def _read_page_image(self, pno: int) -> tuple | None:
        """Storage-level read of page ``pno``, as the journal mode resolves it."""
        return self.file.read_page(pno)

    def _read_header_from_disk(self) -> DbHeader:
        image = self._read_page_image(0)
        if image is None:
            return DbHeader()
        return DbHeader.from_image(image)

    # ------------------------------------------------------- steal eviction

    def _enforce_capacity(self) -> None:
        """Evict clean LRU pages; spill (steal) LRU dirty pages when needed.

        A stolen page is written to storage *uncommitted* — legal because
        rollback can restore it (journal original / WAL reset / device
        abort).  The object stays cached so in-flight operations never see
        stale copies; it becomes evictable once clean.
        """
        cache, dirty = self._cache, self._dirty
        while len(cache) > self.cache_pages:
            victim = None
            for pno in cache:
                if pno not in dirty and pno != 0:
                    victim = pno
                    break
            if victim is not None:
                del cache[victim]
                continue
            stolen = self._steal_one()
            if not stolen:
                return  # everything pinned: allow temporary over-capacity

    def _steal_one(self) -> bool:
        dirty = self._dirty
        for pno, page in self._cache.items():
            if pno in dirty and pno != 0:
                self._obs_spills.inc()
                self._spill(pno, page.to_image())
                dirty.discard(pno)
                return True
        return False


class RollbackPager(Pager):
    """``ROLLBACK`` (RBJ): the original content of every page about to
    change is appended to a rollback journal first.

    Commit = fsync(journal data), write header, fsync(journal header), write
    dirty pages to the database file, fsync(db), delete journal (+ metadata
    sync) — three-plus fsyncs.  The journal file is created lazily, on the
    transaction's first page modification — read-only transactions never
    touch it (SQLite defers journal creation the same way).
    """

    def __init__(self, *args, **kwargs) -> None:
        self._journal: FileHandle | None = None
        self._journaled: dict[int, tuple | None] = {}  # pno -> original image
        self._journal_pages_written = 0  # originals in the open journal (slots 1..n)
        self._txn_counter = 0
        super().__init__(*args, **kwargs)

    @property
    def journal_name(self) -> str:
        """File name of the rollback journal for this database."""
        return f"{self.name}-journal"

    def _end_txn(self) -> None:
        super()._end_txn()
        self._journaled = {}

    def _before_write(self, pno: int) -> None:
        if pno not in self._journaled:
            self._journal_original(pno)

    def allocate(self) -> int:
        grows = not self.header.freelist
        pno = super().allocate()
        if grows:
            self._journaled.setdefault(pno, None)  # new page: nothing to restore
        return pno

    def _spill(self, pno: int, image: tuple) -> None:
        # The journal must be hot before the db file holds uncommitted data:
        # ext4 may steal the page home before COMMIT, and recovery treats a
        # headerless journal as cold.  So the originals, then a header
        # naming them, are made durable first (SQLite syncs the journal
        # header before any cache spill).
        journal = self._journal
        self.fs.fbarrier(journal)
        journal.write_page(0, ("jhdr", self._journal_pages_written, self._txn_counter + 1))
        self.fs.fbarrier(journal)
        self.file.write_page(pno, image)

    def _open_journal(self) -> None:
        self._journal = self.fs.create(self.journal_name)
        # The journal file must exist (durably ordered) before any original
        # lands in it; order-only suffices on a barrier device.
        self.fs.sync_metadata(order_only=True)
        self._journal_pages_written = 0

    def _journal_original(self, pno: int) -> None:
        """Append the pre-transaction image of ``pno`` to the rollback journal."""
        if self._journal is None:
            self._open_journal()
        assert self._journal is not None
        original = self.file.read_page(pno)
        self._journaled[pno] = original
        if original is None:
            return  # brand-new page: nothing to restore on rollback
        self._journal_pages_written += 1
        self._journal.write_page(self._journal_pages_written, ("jorig", pno, original))

    def _commit(self, dirty: list[tuple[int, Any]]) -> None:
        journal = self._journal
        if journal is not None:
            # 1. Journal data pages durable (ordered before the header).
            self.fs.fbarrier(journal)
            # 2. Journal header (page 0 of the journal) + separate fsync: the
            #    header is what marks the journal "hot" (valid for rollback).
            self._txn_counter += 1
            journal.write_page(0, ("jhdr", self._journal_pages_written, self._txn_counter))
            self.fs.fbarrier(journal)
            # The journal is now "hot": a crash from here until the journal
            # is deleted must roll the database back from it.
            self.fs.device.chip.crash_plan.hit(CP_COMMIT_MID)
        elif not dirty:
            return  # read-only: no journal, nothing to force
        # 3. Force dirty pages into the database file, one more fsync (with
        #    no journal only brand-new pages were written: nothing to protect).
        for pno, page in dirty:
            self.file.write_page(pno, page.to_image())
        self.fs.fbarrier(self.file)
        if journal is not None:
            # 4. Transaction complete: delete the journal (atomic, §2.1).
            self.fs.unlink(self.journal_name)
            self.fs.sync_metadata(order_only=True)
            self._journal = None

    def _rollback(self) -> None:
        """Undo stolen writes from the journal, then drop the journal."""
        restores = [(pno, img) for pno, img in self._journaled.items() if img is not None]
        if restores:
            for pno, image in restores:
                self.file.write_page(pno, image)
            self.fs.fsync(self.file)
        if self._journal is not None:
            self.fs.unlink(self.journal_name)
            self.fs.sync_metadata(order_only=True)
            self._journal = None

    def _recover(self) -> None:
        """Hot-journal recovery: restore originals, delete the journal."""
        if not self.fs.exists(self.journal_name):
            return
        journal = self.fs.open(self.journal_name)
        try:
            header = journal.read_page(0)
        except CorruptionError:
            header = None  # torn header write: the journal never went hot
        if header is not None and header[0] == "jhdr":
            count = header[1]
            for slot in range(1, count + 1):
                try:
                    record = journal.read_page(slot)
                except CorruptionError:
                    break  # torn journal page: stop replay here
                if record is None or record[0] != "jorig":
                    break
                _tag, pno, original = record
                if original is not None:
                    self.file.write_page(pno, original)
            self.fs.fsync(self.file)
        # Cold (headerless) journals mean the transaction never committed
        # its journal: the database file was not yet touched.  Either way
        # the journal is deleted now.
        self.fs.unlink(self.journal_name)
        self.fs.sync_metadata()


class WalPager(Pager):
    """``WAL``: new page images are appended to a shared write-ahead log.

    A commit frame marker ends each transaction, followed by one fsync.
    Readers consult the WAL index (pno -> frame slot) before the database
    file, and a transaction its own spilled frames (``_txn_frames``) before
    that; page content is read back *from the WAL file* — the extra
    lookup/read the paper blames for WAL's read overhead (§6.3.3).  Only
    committed frames enter the index, and a checkpoint copies the index
    home every ``checkpoint_interval`` frames (SQLite default: 1000).
    """

    def __init__(self, *args, checkpoint_interval: int = 1000, **kwargs) -> None:
        self.checkpoint_interval = checkpoint_interval
        self._wal: FileHandle | None = None
        self._wal_index: dict[int, int] = {}  # committed frames: pno -> slot
        self._wal_frames = 0  # frames written (committed + uncommitted)
        self._wal_committed_frames = 0
        self._txn_frames: dict[int, int] = {}  # this txn's spills: pno -> newest slot
        super().__init__(*args, **kwargs)

    @property
    def wal_name(self) -> str:
        """File name of the write-ahead log for this database."""
        return f"{self.name}-wal"

    def _bootstrap(self) -> None:
        super()._bootstrap()
        self._ensure_wal()

    def _end_txn(self) -> None:
        super()._end_txn()
        self._txn_frames = {}

    def _read_page_image(self, pno: int) -> tuple | None:
        """This transaction's newest spilled frame, else the newest committed
        frame, else the database file."""
        slot = self._txn_frames.get(pno)
        if slot is None:
            slot = self._wal_index.get(pno)
            if slot is None:
                return self.file.read_page(pno)
        return self._wal.read_page(slot)[2]

    def _spill(self, pno: int, image: tuple) -> None:
        self._txn_frames[pno] = self._append_wal_frame(pno, image, commit_size=0)

    def _ensure_wal(self) -> None:
        if self._wal is None:
            if self.fs.exists(self.wal_name):
                self._wal = self.fs.open(self.wal_name)
            else:
                self._wal = self.fs.create(self.wal_name)
                self.fs.sync_metadata(order_only=True)

    def _append_wal_frame(self, pno: int, image: tuple, commit_size: int) -> int:
        slot = self._wal_frames
        self._wal.write_page(slot, ("frame", pno, image, commit_size))
        self._wal_frames += 1
        return slot

    def _commit(self, dirty: list[tuple[int, Any]]) -> None:
        images = [(pno, page.to_image()) for pno, page in dirty]
        if not images:
            if not self._txn_frames:
                return  # read-only transaction: nothing to log
            # Everything was spilled earlier; re-log the last frame with the
            # commit marker so the transaction becomes visible.
            images = [self._wal.read_page(self._wal_frames - 1)[1:3]]
        last = len(images) - 1
        for index, (pno, image) in enumerate(images):
            commit_size = self.header.page_count if index == last else 0
            self._txn_frames[pno] = self._append_wal_frame(pno, image, commit_size)
        self.fs.fbarrier(self._wal)
        self._wal_index.update(self._txn_frames)
        self._wal_committed_frames = self._wal_frames
        if self._wal_committed_frames >= self.checkpoint_interval:
            self.checkpoint()

    def _rollback(self) -> None:
        self._txn_frames = {}
        self._wal_frames = self._wal_committed_frames

    def checkpoint(self) -> None:
        """Copy committed WAL content into the database file; reset the WAL."""
        if not self._wal_index:
            return
        self._obs_checkpoints.inc()
        assert self._wal is not None
        for pno, slot in sorted(self._wal_index.items()):
            frame = self._wal.read_page(slot)
            self.file.write_page(pno, frame[2])
        self.fs.fbarrier(self.file)
        self._wal.truncate(0)
        self.fs.sync_metadata(order_only=True)
        self._wal_index = {}
        self._wal_frames = 0
        self._wal_committed_frames = 0

    def _recover(self) -> None:
        """Rebuild the WAL index from committed frames, then checkpoint.

        The paper measures WAL restart as copying committed frames home
        (§6.4), which is exactly a recovery checkpoint.
        """
        if not self.fs.exists(self.wal_name):
            self._ensure_wal()
            return
        self._wal = self.fs.open(self.wal_name)
        pending: dict[int, int] = {}
        frames = 0
        for slot in range(self._wal.n_pages):
            try:
                record = self._wal.read_page(slot)
            except CorruptionError:
                break  # torn frame: it and everything after never committed
            if record is None or record[0] != "frame":
                break
            _tag, pno, _image, commit_size = record
            frames += 1
            pending[pno] = slot
            if commit_size:
                self._wal_index.update(pending)
                pending = {}
        self._wal_frames = frames
        self._wal_committed_frames = frames - len(pending)
        self.checkpoint()


class OffPager(Pager):
    """``OFF`` (X-FTL): journaling is off; atomicity and durability are the
    device's problem.

    Page writes go straight to the database file, tagged with the
    transaction context the file system's transaction manager minted (or a
    multi-file coordinator handed in); commit is a single fsync (which the
    fs turns into ``commit(t)``); rollback is the abort ioctl (§5.1).  Only
    this mode has snapshot (AS-OF) transactions, which resolve every page
    through the device's version chains, and staged commits: one staging
    step and one finishing step, between which a coordinator issues the
    device step for all the transactions it settles.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._txn = None  # TransactionContext of the open transaction
        self._txn_wrote = False  # it changed a page (stolen ones included)
        # Snapshot transactions: the pinned epoch is ``snapshot_seq`` (None:
        # no snapshot open), its TxnManager pin token ``_snapshot_token``.
        self.snapshot_seq = None
        self._snapshot_token: int | None = None
        self._stage_start_us: float | None = None  # set while a staged commit waits
        super().__init__(*args, **kwargs)

    def _begin(self, txn) -> None:
        """Without ``txn``, mint a fresh context attributed to this pager's session."""
        self.fs.check_txn(txn)
        self._txn = txn if txn is not None else self.fs.txn_manager.begin(session=self.session)
        self._txn_wrote = False

    def begin_snapshot(self, snapshot_seq: int | None = None) -> int:
        """Start a read-only snapshot transaction.

        Pins a commit-sequence epoch with the transaction manager — the
        device's current sequence for ``BEGIN SNAPSHOT``, or a caller-
        supplied historical sequence for AS-OF reads — and resolves every
        page read through the device's version chains at that epoch until
        the transaction ends.  Returns the pinned sequence.

        The pager cache is cleared on entry and exit: its pages track the
        *current* committed state, which a snapshot must neither see nor
        pollute with historical images.
        """
        if self.in_txn:
            raise DatabaseError("transaction already active")
        token, seq = self.fs.txn_manager.pin_snapshot(snapshot_seq)
        self.in_txn = True
        self._snapshot_token = token
        self.snapshot_seq = seq
        self._cache.clear()
        header_image = self._read_page_image(0)
        if header_image is not None:
            self.header = DbHeader.from_image(header_image)
        return seq

    def commit(self) -> None:
        if self.snapshot_seq is None:
            return super().commit()
        # Snapshot transactions are read-only: ending one is pure host-side
        # bookkeeping (release the pin, drop the epoch cache).
        self._obs_commits.inc()
        self._end_txn()

    def rollback(self) -> None:
        if self.snapshot_seq is None:
            return super().rollback()
        self._obs_rollbacks.inc()
        self._end_txn()

    def _end_txn(self) -> None:
        if self.snapshot_seq is not None:
            self.fs.txn_manager.release_snapshot(self._snapshot_token)
            self.snapshot_seq = None
            self._snapshot_token = None
            self._cache.clear()  # historical images must not outlive the epoch
            self.header = self._read_header_from_disk()
        if self._txn is not None:
            # Idempotent: commit/abort paths already released the context;
            # this catches read-only transactions that never reached the fs.
            self.fs.txn_manager.release(self._txn)
        self._txn = None
        self._stage_start_us = None
        super()._end_txn()

    def _before_write(self, pno: int) -> None:
        if self.snapshot_seq is not None:
            raise DatabaseError("snapshot transactions are read-only")
        self._txn_wrote = True

    def _read_page_image(self, pno: int) -> tuple | None:
        if self.snapshot_seq is not None:
            # Snapshot epoch: resolve through the device's version chains,
            # bypassing every current-state cache along the way.
            return self.file.read_page_as_of(pno, self.snapshot_seq)
        if self._txn is not None:
            # Tagged read: this transaction must see its own stolen writes.
            return self.file.read_page_tx(pno, self._txn)
        return self.file.read_page(pno)

    def _spill(self, pno: int, image: tuple) -> None:
        self.file.write_page(pno, image, txn=self._txn)

    def _commit(self, dirty: list[tuple[int, Any]]) -> None:
        if self._txn is None:
            raise DatabaseError("OFF-mode transaction lost its context before commit")
        if not dirty and not self._txn_wrote:
            return  # read-only transaction: no fsync, no device commit
        for pno, page in dirty:
            self.file.write_page(pno, page.to_image(), txn=self._txn)
        self.fs.fsync(self.file, txn=self._txn)

    def _rollback(self) -> None:
        txn = self._txn
        if txn is None:
            raise DatabaseError("OFF-mode transaction lost its context before rollback")
        # A multi-file coordinator aborts its shared context once, for every
        # file, before its participants roll back: then it is no longer live.
        if self.fs.txn_manager.get(txn.tid) is txn:
            self.fs.ioctl_abort(txn)

    def stage_commit(self):
        """Staged commit, step 1: write the dirty pages into the file under
        the transaction's context, in :meth:`_dirty_pages` order.

        Returns the context, or ``None`` when the transaction is read-only.
        A coordinator's device step (``stage_tx`` + ``commit_tx_group``, or
        ``fsync_group``) makes it durable; then :meth:`finish_commit`.
        """
        if not self.in_txn:
            raise DatabaseError("no active transaction")
        txn = self._txn
        if txn is None:
            raise DatabaseError("OFF-mode transaction lost its context before commit")
        self._stage_start_us = self.fs.device.clock.now_us
        dirty = self._dirty_pages()
        if not dirty and not self._txn_wrote:
            return None
        with self.obs.tracer.span("commit_stage", "sqlite", tid=txn.tid):
            for pno, page in dirty:
                self.file.write_page(pno, page.to_image(), txn=txn)
        self._obs_page_writes.inc(len(dirty))
        return txn  # the pages stay dirty: a failed device step rolls them back

    def finish_commit(self) -> None:
        """Staged commit, step 2: count the commit, note the session's and
        close the transaction.  The latency spans staging through the
        device step, so the wait for the group is visible."""
        if self._stage_start_us is None:
            raise DatabaseError("no staged commit to finish")
        latency_us = self.fs.device.clock.now_us - self._stage_start_us
        self._obs_commits.inc()
        self._obs_commit_us.observe(latency_us)
        if self.session is not None:
            self.session.note_commit(latency_us)
        self._dirty.clear()
        self._end_txn()


#: ``Pager(fs, name, mode, ...)`` builds the class this table names for the mode.
_PAGERS = {
    SqliteJournalMode.ROLLBACK: RollbackPager,
    SqliteJournalMode.WAL: WalPager,
    SqliteJournalMode.OFF: OffPager,
}
