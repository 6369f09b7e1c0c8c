"""Page-mapped FTL with greedy garbage collection.

This models the OpenSSD board's stock firmware (§5.3, §6.1):

- a page-granularity L2P mapping table held in controller DRAM;
- host writes are appended copy-on-write into an *active* block; the old
  physical copy of the logical page becomes invalid;
- space management — free pools, active blocks, victim selection, copyback
  and erase — belongs to the FTL's :class:`~repro.ftl.gc.Collector`: when a
  channel's free pool runs low it picks a victim block, copies its valid
  pages into the active block and erases it.  On a chip with more than one
  channel host writes round-robin across channels so consecutive appends
  land on different channels and overlap;
- a *write barrier* (the device-level effect of a host fsync / FUA) persists
  all dirty mapping-table chunks plus a fixed set of firmware metadata pages
  to flash, in one pass (:meth:`PageMappingFTL._flush_pages`).  This is the
  hidden cost that makes fsync-heavy hosts slow on the stock FTL, and the
  cost that X-FTL's commit command avoids.

Durability model
----------------
Each programmed page carries OOB metadata ``(kind, lpn, seq, tid)``.  A tiny
*root record* — modelling the FTL's reserved meta block, which the paper
assumes is updated atomically — points at the persisted map pages and stores
the sequence number as of the last barrier.  Each map page image records the
sequence it was built at.  Remounting after power loss loads the map pages
from the root, then scans block OOB areas once and replays, for each lpn, the
data pages that took effect above its segment's *horizon*: the image's
sequence, capped at ``root.seq``.  Torn pages (power cut mid program) are
detected and skipped.

A host write, a trim and a commit fold dirty their lpn's translation
segment, so the next barrier builds a new image of it.  A GC copyback does
not: the OOB record it writes names the lpn at a sequence above every image
of that segment built before it, and that record is the relocation's
durable mapping until the segment's next image includes it.  (A relocated
retained version is the exception: chains live only in the images, so
moving one still dirties its segment.)  The cap at ``root.seq`` covers the
one image built after a mapping change it does not hold: a CMT writeback
during an X-FTL commit fold, before the fold reaches the segment, built
after the commit's stamp.  ``root.seq`` is below that stamp until the next
barrier, which flushes the segment the fold re-dirtied.

One decision orders everything found on flash, taken in this module alone:
*sequence order is effect order*.

- *A page draws its sequence when it is programmed.*  Host-originated pages
  go through :meth:`Collector.host_program <repro.ftl.gc.Collector.host_program>`,
  which draws the number after reclaiming and picking the block, immediately
  before ``chip.program`` (its run form draws a run's numbers in page order
  before one ``chip.program_run``; a copyback draws its own in ``_gc_oobs``).
  So a host page always outranks the copybacks its own program caused.
- *Recovery applies every page at the sequence where it took effect*
  (``remount`` step 2: above its segment's horizon, the newest effect
  winning, then the newest write sequence).  An untagged write took effect
  at its own sequence; a tagged page when its commit became durable, the one
  question :class:`~repro.ftl.xftl.XFTL` answers
  (:meth:`PageMappingFTL._effect`): its root maps each committed tid to
  ``_seq`` as of the publish that committed it.  A page whose commit is not
  on flash has no effect sequence and is never applied: that is the
  rollback.
- *The commit stamp is taken at the publish, not before the flush*: the
  programs of the commit's own X-L2P flush can make the collector relocate
  the old committed copy of a page the transaction rewrote, and a stamp
  drawn earlier would rank below that relocation.

*Payload lifetime.*  The chip keeps a page's payload until its block's
erase, unless the FTL releases it earlier with
:meth:`FlashChip.discard <repro.flash.chip.FlashChip.discard>`, once
nothing remount could map names the page (``check_invariants`` holds that
rule).  A translation, meta or X-L2P table page is released by the publish
that stops the root naming it.  A data page that dies — superseded on the
single-version path (``_supersede``), trimmed, or written by an aborted
transaction — is released by the first barrier that *begins* after its
death.  Its death dirtied its segment, so that segment was dirty (or
written back by the CMT) when the barrier began: the image the new root
names was built after the death, at a sequence above the page's, and so is
the published ``root.seq``.  The page is then at or below its segment's
horizon, and replay never yields it.  A copyback, which dirties nothing,
kills only its source, and a source is kept until its erase (below).  Each
death is recorded as a (ppn, erase count of its
block) pair in one flat ``array('i')``; the barrier swaps the record out
before its flush and releases its pages right after the publish
(:meth:`FlashChip.discard_unerased
<repro.flash.chip.FlashChip.discard_unerased>`), skipping any whose block
was erased since, and a power cut drops it.  Everything else keeps its
payload until the erase: a GC relocation's source, a transaction's own
rewritten uncommitted copy (its tid can still commit, and replay then
yields it), a released retained version (the map images carry its chain),
and whatever a crash leaves behind before the first barrier after
remount.

The L2P table is one flat ``array('i')`` of physical page numbers indexed
by lpn (``UNMAPPED`` = -1; :meth:`~PageMappingFTL.mapped_ppn` still answers
``None``), the controller-DRAM table of §5.3: four bytes per entry, which
:class:`~repro.flash.geometry.FlashGeometry` guarantees by refusing a chip
of more than ``2**31 - 1`` pages.  A translation (map) page image is
``(ppns, chains, seq)``: ``ppns`` is the array slice covering the segment's
whole lpn range (one copy when built, freed by the publish that stops the
root naming it — :meth:`FlashChip.discard <repro.flash.chip.FlashChip.discard>`
— or else by its block's erase; four bytes per entry, like the table),
``chains`` the retained version chains of the same range (empty unless the
multi-version XFTL adds them) and ``seq`` the ``_seq`` it was built at.
The format is decided here alone —
:meth:`PageMappingFTL._segment_image` builds an image and
:meth:`PageMappingFTL._load_segment_image` loads one.

Ownership
---------
The reverse map mirrors the L2P: ``_owner`` is one ``bytearray`` indexed by
ppn, one byte per physical page holding the code of the structure that
keeps the page alive.  A dead page holds ``DEAD`` (0), a page the L2P maps
holds ``OWNER_DATA`` and every other page one of the ``OWNER_*`` codes
below.  A data page's lpn is not copied here: it is the key of the page's
OOB record (``chip.oob_keys[ppn]``).  Every data program and copyback
writes the lpn there, remount claims a page only for the lpn its OOB names,
and a commit fold maps a page under the lpn it was written for;
``check_invariants`` holds every ``OWNER_DATA`` page's key to an L2P entry
that maps the page.  Only the pages of the other codes have an
entry in the one side table ``_owner_detail`` (ppn -> the code's key: a
segment, a slot, a ``(tid, lpn)``...).  Reading a byte costs what reading a
list item does (CPython hands back a cached small int), without an
eight-byte pointer, or an ``int`` object, per page.  The table is the only
liveness state — ``_valid_count`` is its
per-block population, kept in step by the three verbs that are the only
writers of either: :meth:`PageMappingFTL._own` (checked: an owned page may
never be claimed twice), :meth:`~PageMappingFTL._own_for_recovery` (remount
may overwrite a stale claim) and :meth:`~PageMappingFTL._disown` — plus
their inline forms on per-page paths: the claims of ``_map`` and of the one
flush loop :meth:`~PageMappingFTL._flush_pages` (check included; it also
retires inline), ``_retire`` (one write) and the collector's run pass
:meth:`~PageMappingFTL._apply_relocations` (block counts settled once).  "This
lpn now lives at that ppn" is :meth:`~PageMappingFTL._map` and nothing
else: it hands the old copy to the ``_supersede`` hook (here: ``_bury``,
which disowns it and records its death; the multi-version XFTL pushes it
onto the lpn's version chain), points the L2P
at the new one, owns it and dirties its translation segment.  A plain
:meth:`~PageMappingFTL.write` runs ``_map`` and ``_bury`` inline, in its
own body, while its class keeps the stock ``_supersede``.  A live page
is exactly one the L2P or any other mapping structure references (§5), so
the collector moves what the table says is owned, a run at a time: it reads
the victim's owner codes and OOB keys once and hands each run's share to
``_gc_oobs`` and ``_apply_relocations``, where one slice assignment hands
the destinations their owners; only a moved retained version dirties its
translation segment.  An all-L2P run, the common case, takes its keys as its lpns,
draws its OOBs in one pass over its sequence range and is relocated with no
owner test per page; a page of any other owner dispatches on its code
(``_gc_oob``, ``_repoint_owner``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import CorruptionError, FlashError, FtlError
from repro.flash.chip import FlashChip
from repro.flash.state import PAGE_PROGRAMMED
from repro.ftl.base import FtlConfig
from repro.ftl.cmt import CachedMappingTable
from repro.sim.crash import register_crash_point

CP_BARRIER_MID = register_crash_point(
    "ftl.barrier.mid", "ftl.pagemap", "between mapping pages of a barrier flush"
)

UNMAPPED = -1  # an L2P entry naming no physical page

# Owner codes, one byte each in the owner table.
DEAD = 0  # no owner
OWNER_DATA = 1  # the L2P maps the page; its lpn is the page's OOB key
# The codes of the pages the L2P does not map, each with the key
# ``_owner_detail`` keeps for the page.
OWNER_MAP = 2  # translation page; key: segment
OWNER_META = 3  # firmware metadata page; key: slot
OWNER_RETIRED = 4  # superseded page still pinned by the durable root; key: (code, key)
OWNER_XL2P_DATA = 5  # uncommitted transactional data (XFTL); key: (tid, lpn)
OWNER_XL2P_TABLE = 6  # persisted X-L2P table page (XFTL); key: page index
OWNER_VERSION = 7  # committed page retained in a version chain (XFTL); key: lpn

# OOB tid sentinel for GC-relocated retained versions: a relocated version
# keeps its *original* sequence number (the identity its chain entry stores)
# and carries this tid, which by construction is never a committed tid, so it
# has no effect sequence — recovery identifies version pages only through the
# persisted chains, never through replay.
VERSION_TID = -1

# OOB kinds: the chip's one-byte kind column (0 means "no OOB record").
OOB_DATA = 1
OOB_MAP = 2
OOB_META = 3
OOB_XL2P_TABLE = 4
_OOB_KINDS = {OWNER_MAP: OOB_MAP, OWNER_META: OOB_META, OWNER_XL2P_TABLE: OOB_XL2P_TABLE}


@dataclass
class RootRecord:
    """The atomically-updated meta-block contents.

    Survives power loss by construction (the paper assumes the meta-block
    pointer update is atomic, §5.3).  Everything else in DRAM is volatile.
    """

    map_dir: dict[int, int] = field(default_factory=dict)  # segment -> ppn
    meta_dir: dict[int, int] = field(default_factory=dict)  # meta slot -> ppn
    seq: int = 0
    # Used by XFTL: physical pages of the persisted X-L2P table, and each tid
    # committed since the last full map checkpoint -> the sequence its commit
    # took effect at (where recovery applies the transaction's pages).
    xl2p_ppns: tuple[int, ...] = ()
    committed_tids: dict[int, int] = field(default_factory=dict)
    # Multi-version X-L2P: the commit sequence counter as of the last root
    # publish.  Stays 0 on the single-version stack (retain_versions=1).
    commit_seq: int = 0


class PageMappingFTL:
    """Stock page-mapped FTL (see module docstring).

    The host sees a logical page space of :attr:`exported_pages` pages.  The
    FTL counts into the chip's :class:`~repro.flash.stats.FlashStats` and
    reports through the chip's observability registry.
    """

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        self.chip = chip
        self.config = config or FtlConfig()
        self.stats = chip.stats
        self.obs = chip.obs
        geo = chip.geometry
        reserve = max(2, int(geo.num_blocks * self.config.overprovision))
        if geo.num_blocks - reserve < 1:
            raise FtlError("chip too small for overprovisioning reserve")
        self._exported_pages = (geo.num_blocks - reserve) * geo.pages_per_block
        # Power loss propagates from the crash plan: when an armed point
        # fires, the FTL drops its DRAM state without a manual power_fail().
        chip.crash_plan.subscribe(self.power_fail)

        self._powered = True
        # Volatile (DRAM) state: the L2P and its reverse map (module
        # docstring), with the owner table's per-block population beside it
        # (reset in place — the collector aliases the list).
        self._l2p = array("i", [UNMAPPED]) * self._exported_pages
        self._owner = bytearray(geo.total_pages)  # DEAD everywhere
        self._oob_keys = chip.oob_keys  # an OWNER_DATA page's lpn
        self._owner_detail: dict[int, Any] = {}
        self._valid_count: list[int] = [0] * geo.num_blocks
        # Page lifecycle state lives on the chip's BlockStateView, which
        # mutates it in place, so the alias survives power cycles.
        self._page_states = chip.state.page_states
        self._pages_per_block = geo.pages_per_block
        self._map_entries_per_page = self.config.map_entries_per_page
        self._seq = 0
        self._dirty_segments: set[int] = set()
        self._map_dir: dict[int, int] = {}
        self._meta_dir: dict[int, int] = {}
        # Durable root (atomic meta block), and the segments whose _map_dir
        # entry it does not name yet: a publish applies those and no more.
        # An insertion-ordered set, so the root's directory lists segments
        # in the live one's order (remount reads map pages in that order).
        self._root = RootRecord()
        self._unpublished_segments: dict[int, None] = {}
        self._pending_retired: set[int] = set()
        # The data pages that died since the last barrier began, as flat
        # (ppn, erase count of its block at death) pairs: the next barrier
        # releases their payloads (module docstring, "Payload lifetime").
        self._deaths = array("i")
        self._erase_counts = chip.state.erase_counts
        # Demand-paged mapping (DFTL-style CMT, repro.ftl.cmt).  A capacity
        # of zero — or one covering every translation page of the exported
        # space — degenerates to the all-in-DRAM map: the cache can never
        # miss, so the machinery switches off wholesale (``_cmt`` is None;
        # tests/test_ftl_cmt.py::TestConstruction).
        if self.config.cmt_pages < 0:
            raise FtlError(f"cmt_pages must be >= 0, got {self.config.cmt_pages}")
        if self._map_entries_per_page < 1:
            raise FtlError(
                f"map_entries_per_page must be >= 1, got {self._map_entries_per_page}"
            )
        self._total_segments = -(-self._exported_pages // self._map_entries_per_page)
        if 0 < self.config.cmt_pages < self._total_segments:
            self._cmt: CachedMappingTable | None = CachedMappingTable(
                self, self.config.cmt_pages, self.config.cmt_dirty_batch
            )
        else:
            self._cmt = None
        # Space management (free pools, active blocks, garbage collection)
        # under the schedule FtlConfig.gc_mode names.
        from repro.ftl.gc import Collector  # deferred: gc imports this module

        self.gc = Collector(self)
        # A plain write maps its page inline unless a subclass keeps more
        # than the stock FTL when a copy is superseded (XFTL's versions).
        self._stock_supersede = type(self)._supersede is PageMappingFTL._supersede
        self.obs.instrument(self, chip.clock)

    # ------------------------------------------------------------ interface

    @property
    def exported_pages(self) -> int:
        """Logical pages visible to the host."""
        return self._exported_pages

    @property
    def powered(self) -> bool:
        return self._powered

    def read(self, lpn: int) -> Any:
        """The committed content of ``lpn`` (``None`` if it holds none)."""
        self._check_power()
        self._check_lpn(lpn)
        if self._cmt is not None:
            self._cmt.access(lpn // self._map_entries_per_page)
        ppn = self._l2p[lpn]
        if ppn == UNMAPPED:
            return None  # unwritten logical page reads as zeros
        self.stats.host_page_reads += 1
        return self.chip.read(ppn)

    def write(self, lpn: int, data: Any) -> None:
        """Write ``lpn`` outside any transaction: it takes effect at once."""
        if not self._powered:
            raise FtlError("FTL is powered off")
        if not 0 <= lpn < self._exported_pages:
            raise FtlError(f"lpn {lpn} outside exported space (0..{self._exported_pages - 1})")
        if self._cmt is not None:
            # Updating the mapping is a read-modify of its translation
            # page, so residency comes first (may evict/write back).
            self._cmt.access(lpn // self._map_entries_per_page)
        ppn = self.gc.host_program(data, OOB_DATA, lpn, None)
        if not self._stock_supersede:
            self._map(lpn, ppn)
            self.stats.host_page_writes += 1
            return
        # _map(lpn, ppn) with the stock _supersede, i.e. _bury, inline.  An
        # L2P-mapped page is owned as OWNER_DATA (check_invariants), so it
        # has no side-table entry to drop.
        l2p = self._l2p
        owner = self._owner
        valid = self._valid_count
        per = self._pages_per_block
        old = l2p[lpn]
        if old != UNMAPPED:
            owner[old] = DEAD
            block = old // per
            valid[block] -= 1
            self._deaths.extend((old, self._erase_counts[block]))
        l2p[lpn] = ppn
        if owner[ppn] != DEAD:
            raise FtlError(f"ppn {ppn} already owned by {owner[ppn]}")
        owner[ppn] = OWNER_DATA
        valid[ppn // per] += 1
        self._dirty_segments.add(lpn // self._map_entries_per_page)
        self.stats.host_page_writes += 1

    def write_run(self, lpns: Sequence[int], data: Any) -> None:
        """``write(lpn, data)`` for each ``lpn`` of ``lpns``, in order.

        That loop is the definition.  Where the collector appends a run
        without a decision (:meth:`Collector.host_program_run
        <repro.ftl.gc.Collector.host_program_run>`), the run's pages are
        mapped in list order: by slice when the lpns are consecutive,
        through :meth:`_map` otherwise, so a repeated lpn supersedes its own
        copy of the same run as the loop does.  Every other page goes
        through :meth:`write`, and so does every page when an lpn lies
        outside the exported space (the loop raises there).
        """
        done = 0
        count = len(lpns)
        if count and self._powered and 0 <= min(lpns) and max(lpns) < self._exported_pages:
            host_program_run = self.gc.host_program_run
            while done < count:
                ppns = host_program_run(data, lpns[done:])
                if not ppns:
                    self.write(lpns[done], data)
                    done += 1
                    continue
                run = lpns[done : done + len(ppns)]
                if isinstance(run, range) and run.step == 1:
                    self._map_slice(run, ppns)
                else:
                    for lpn, ppn in zip(run, ppns):
                        self._map(lpn, ppn)
                self.stats.host_page_writes += len(ppns)
                done += len(ppns)
        for lpn in lpns[done:]:
            self.write(lpn, data)

    def trim(self, lpn: int) -> None:
        """Discard ``lpn``: its page dies, and the drop is durable at the next barrier."""
        self._check_power()
        self._check_lpn(lpn)
        if self._cmt is not None:
            self._cmt.access(lpn // self._map_entries_per_page)
        old = self._l2p[lpn]
        if old != UNMAPPED:
            self._l2p[lpn] = UNMAPPED
            self._bury(old)
            self._mark_dirty(lpn)

    def trim_run(self, lpns: Iterable[int]) -> None:
        """``trim(lpn)`` for each ``lpn`` of ``lpns``, in order.

        That loop is the definition, and it runs as written under a
        demand-paged map, where each trim is a residency decision.
        Otherwise it runs inline: a trim only unmaps the lpn and buries its
        page (the L2P's page, owned by its lpn), and an lpn outside the
        exported space raises the same ``FtlError`` after the trims before
        it, as the loop does.
        """
        if self._cmt is not None or not self._powered:
            for lpn in lpns:
                self.trim(lpn)
            return
        l2p = self._l2p
        owner = self._owner
        valid = self._valid_count
        dirty = self._dirty_segments
        record = self._deaths.append
        counts = self._erase_counts
        per = self._pages_per_block
        entries = self._map_entries_per_page
        top = self._exported_pages
        for lpn in lpns:
            if not 0 <= lpn < top:
                self._check_lpn(lpn)
            old = l2p[lpn]
            if old != UNMAPPED:
                l2p[lpn] = UNMAPPED
                owner[old] = DEAD
                block = old // per
                valid[block] -= 1
                record(old)
                record(counts[block])
                dirty.add(lpn // entries)

    def barrier(self) -> None:
        """Persist dirty map chunks + firmware metadata (fsync cost center).

        Superseded map/meta pages are *retired* rather than invalidated
        immediately: they stay valid (GC-pinned) until the new root record
        is published, so a crash mid-barrier still finds every page the old
        root references.

        On a multi-channel array the flush fans out: map/meta pages are
        DRAM-sourced, so their programs round-robin across channels inside
        one overlap region, and the root is published only after
        ``chip.drain()`` — the cross-channel ordering point that preserves
        barrier durability semantics.

        The publish makes every data page that died before the barrier
        began unreachable, so their payloads are released right after it
        (module docstring, "Payload lifetime").
        """
        if not self._powered:
            raise FtlError("FTL is powered off")
        self._barrier()

    def _barrier(self) -> None:
        deaths, self._deaths = self._deaths, array("i")
        self.stats.barriers += 1
        self.chip.clock.advance(self.chip.profile.barrier_overhead_us)
        # Publish the sequence number as of *before* the flush programs.
        # A page the flush's own GC relocates carries a sequence above the
        # image of its segment, whichever image that is, so it stays
        # replayable without dirtying anything: the map flush cannot feed
        # itself.  Only a relocated retained version (its chain lives in
        # its image) re-dirties a segment, and that marker survives into
        # the next barrier.
        seq_snapshot = self._seq
        with self.chip.overlap():
            self._flush_pages(
                sorted(self._dirty_segments), self.config.barrier_meta_pages, CP_BARRIER_MID
            )
        if not self._dirty_segments:
            # The flush's per-key discards never shrink the set's
            # table; clear() does, and every later barrier sorts it.
            self._dirty_segments.clear()
        self.chip.drain()
        self._publish_root(seq_snapshot)
        self.chip.discard_unerased(deaths)
        self._release_retired()

    # ------------------------------------------------------------- power

    def power_fail(self) -> None:
        """Drop all DRAM state.  The chip (and the root record) persist."""
        self._powered = False
        self._l2p = array("i", [UNMAPPED]) * self._exported_pages
        self._reset_ownership()
        self._dirty_segments = set()
        self._map_dir = {}
        self._meta_dir = {}
        self._unpublished_segments = {}
        self._pending_retired = set()
        self._deaths = array("i")
        self._seq = 0
        if self._cmt is not None:
            self._cmt.reset()
        self.gc.reset()

    def remount(self) -> None:
        """Rebuild DRAM state from the root record plus an OOB scan."""
        if self._powered:
            raise FtlError("remount on a powered FTL")
        self._powered = True
        root = self._root
        self._map_dir = dict(root.map_dir)
        self._meta_dir = dict(root.meta_dir)
        self._seq = root.seq

        # Dirty tracking restarts before anything is loaded: the stale
        # entries step 1 drops and every mapping step 2 replays exist only
        # in DRAM, so each dirties its segment and the barrier that advances
        # root.seq persists it.
        self._dirty_segments = set()

        # 1. Load the persisted map pages, each with its replay horizon:
        # the sequence its image was built at, capped at root.seq.  Every
        # mapping change since the build took effect above that sequence.
        # Host writes, trims and commit folds dirty the segment, so the next
        # barrier persists them; a GC copyback does not, and its OOB record
        # stays replayable until the segment's next image.  The cap keeps a
        # commit replayable whose fold had not reached the segment when a
        # CMT writeback built its image.  Chain parts are handed to
        # _finish_remount, which runs after OOB replay settles the current
        # mapping.
        self._l2p = array("i", [UNMAPPED]) * self._exported_pages
        self._reset_ownership()
        chains: list = []
        horizons = array("q", [root.seq]) * self._total_segments
        for segment, ppn in self._map_dir.items():
            image = self.chip.read(ppn)
            self._own_for_recovery(ppn, OWNER_MAP, segment)
            chains.extend(self._load_segment_image(segment, image))
            horizons[segment] = min(image[2], root.seq)
        for slot, ppn in self._meta_dir.items():
            self._own_for_recovery(ppn, OWNER_META, slot)
        entries = self._map_entries_per_page
        stale: list[int] = []
        for lpn, ppn in enumerate(self._l2p):
            if ppn == UNMAPPED:
                continue
            # A persisted mapping can be stale: its physical page may have
            # been invalidated (or relocated), erased and reused — possibly
            # for one of the very map/meta pages claimed above (their
            # programs carry sequence numbers past the published root.seq,
            # so they can postdate the stale mapping's correction), or for
            # another lpn whose entry claimed it first.  A page another owner
            # holds is never this lpn's, and neither is one that is erased or
            # reused under a different identity: such an entry is dropped
            # (and dirtied, so the drop is persisted).  For an overwritten or
            # relocated lpn the OOB replay below carries the fresher mapping;
            # a *trimmed* lpn has none, and reads as zeros again.
            if self._owner[ppn] == DEAD and self._page_states[ppn] == PAGE_PROGRAMMED:
                # Keep the entry only if the page is still a data page of
                # this lpn written at or below the segment's horizon.  A page
                # programmed after the image was built carries a later
                # sequence, whatever lpn its OOB names (a translation page
                # whose segment number equals it, or its own uncommitted
                # transactional copy); one above the horizon that took effect
                # is replayed in step 2 anyway.
                oob = self.chip.read_oob(ppn)
                if (
                    oob
                    and oob[0] == OOB_DATA
                    and oob[1] == lpn
                    and oob[2] <= horizons[lpn // entries]
                ):
                    self._own_for_recovery(ppn, OWNER_DATA)
                    continue
            stale.append(lpn)
        for lpn in stale:
            self._l2p[lpn] = UNMAPPED
            self._mark_dirty(lpn)

        # 2. One OOB scan replays the data pages that took effect above
        # their segment's horizon.  A page wins its lpn when its (effect,
        # write) sequence pair beats the page the lpn maps so far, read from
        # that page's OOB, so the newest effect wins whatever the scan order
        # (write order breaks the tie between pages of one commit), in no
        # memory beyond the horizons.  Nothing else rebuilds the L2P.
        effect_of = self._effect
        read_oob = self.chip.read_oob
        l2p = self._l2p
        for seq, kind, lpn, tag, ppn in self._scan_oob():
            if kind != OOB_DATA:
                continue
            effect = effect_of(seq, tag)
            if effect is None or effect <= horizons[lpn // entries]:
                continue
            current = l2p[lpn]
            if current != UNMAPPED:
                # An lpn maps only a data page of its own (step 1's check).
                _kind, _lpn, current_seq, current_tag = read_oob(current)
                current_effect = effect_of(current_seq, current_tag)
                if current_effect is not None and (current_effect, current_seq) > (effect, seq):
                    continue
            self._remap_for_recovery(lpn, ppn)

        self._finish_remount(chains)

        # 3. Rebuild the free pools and active blocks from the write points.
        self.gc.rebuild()

    def _remap_for_recovery(self, lpn: int, ppn: int) -> None:
        """Point ``lpn`` at ``ppn`` during recovery.

        The previous mapping may be stale — a persisted map chunk can name a
        physical page that was since erased and reused by a *different*
        logical page — so its owner is only dropped when it really belongs
        to this lpn.
        """
        old = self._l2p[lpn]
        if (
            old != UNMAPPED
            and old != ppn
            and self._owner[old] == OWNER_DATA
            and self._oob_keys[old] == lpn
        ):
            self._disown(old)
        self._l2p[lpn] = ppn
        self._own_for_recovery(ppn, OWNER_DATA)
        # The recovered mapping exists only in OOB + DRAM; dirty it so the
        # next barrier persists it (see remount).
        self._mark_dirty(lpn)

    def _effect(self, seq: int, tag: Any) -> int | None:
        """The sequence a data page written at ``seq`` with OOB tag ``tag``
        took effect at, or ``None`` if it never did.

        The stock FTL writes untagged data pages only, which take effect as
        written.  Subclasses place their tagged pages at their commit's
        sequence; a page whose commit is not on flash has none.
        """
        return seq if tag is None else None

    def _finish_remount(self, chains: list) -> None:
        """Hook for subclasses (XFTL reloads the X-L2P table here).

        ``chains`` is the chain part of every loaded map page.
        """

    # ------------------------------------------------------------ internals

    def _check_power(self) -> None:
        if not self._powered:
            raise FtlError("FTL is powered off")

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._exported_pages:
            raise FtlError(f"lpn {lpn} outside exported space (0..{self._exported_pages - 1})")

    def _mark_dirty(self, lpn: int) -> None:
        self._dirty_segments.add(lpn // self._map_entries_per_page)

    # -------- ownership (see the module docstring) ----------------------

    def _reset_ownership(self) -> None:
        """Every page dead (power loss, and the blank slate remount fills)."""
        self._owner = bytearray(len(self._owner))
        self._owner_detail = {}
        self._valid_count[:] = [0] * len(self._valid_count)

    def _own(self, ppn: int, owner: int, detail: Any = None) -> None:
        """``owner`` (``OWNER_DATA``, or another code with its ``detail``)
        takes the dead page ``ppn``; claiming a live one is a bug."""
        if self._owner[ppn] != DEAD:
            raise FtlError(f"ppn {ppn} already owned by {self._owner[ppn]}")
        self._owner[ppn] = owner
        if owner > OWNER_DATA:
            self._owner_detail[ppn] = detail
        self._valid_count[ppn // self._pages_per_block] += 1

    def _own_for_recovery(self, ppn: int, owner: int, detail: Any = None) -> None:
        """Remount's claim: the newest claim wins over a stale one."""
        self._disown(ppn)
        self._own(ppn, owner, detail)

    def _disown(self, ppn: int) -> None:
        """Nothing references ``ppn`` any more (a no-op on a dead page)."""
        owner = self._owner[ppn]
        if owner != DEAD:
            if owner > OWNER_DATA:
                del self._owner_detail[ppn]
            self._owner[ppn] = DEAD
            self._valid_count[ppn // self._pages_per_block] -= 1

    def _map(self, lpn: int, ppn: int) -> None:
        """``lpn`` now lives at the freshly programmed ``ppn`` (a plain
        write: no commit supersedes the old copy)."""
        old = self._l2p[lpn]
        if old != UNMAPPED:
            self._supersede(lpn, old, None)
        self._l2p[lpn] = ppn
        owner = self._owner  # _own, inline: the per-host-page path
        if owner[ppn] != DEAD:
            raise FtlError(f"ppn {ppn} already owned by {owner[ppn]}")
        owner[ppn] = OWNER_DATA
        self._valid_count[ppn // self._pages_per_block] += 1
        self._dirty_segments.add(lpn // self._map_entries_per_page)

    def _map_slice(self, lpns: range, ppns: range) -> None:
        """``_map(lpns[i], ppns[i])`` for each ``i``, for consecutive lpns:
        the old copies are superseded in lpn order, then the run is mapped
        and owned by slice."""
        l2p = self._l2p
        owner = self._owner
        start, stop = lpns.start, lpns.stop
        dst = ppns.start
        if owner[dst : ppns.stop].count(DEAD) != len(ppns):
            raise FtlError(f"ppns {dst}..{ppns.stop - 1} already owned")
        olds = l2p[start:stop]
        if olds.count(UNMAPPED) != len(olds):
            for lpn, old in enumerate(olds, start):
                if old != UNMAPPED:
                    self._supersede(lpn, old, None)
        l2p[start:stop] = array("i", ppns)
        owner[dst : ppns.stop] = bytes((OWNER_DATA,)) * len(ppns)
        self._valid_count[dst // self._pages_per_block] += len(ppns)
        entries = self._map_entries_per_page
        self._dirty_segments.update(range(start // entries, (stop - 1) // entries + 1))

    def _supersede(self, lpn: int, old_ppn: int, commit_seq: int | None) -> None:
        """The committed copy of ``lpn`` at ``old_ppn`` was just replaced."""
        self._bury(old_ppn)

    def _bury(self, ppn: int) -> None:
        """The owned data page ``ppn`` died: disown it (``_disown``, inline)
        and record the death, so the next barrier releases its payload."""
        owner = self._owner
        if owner[ppn] > OWNER_DATA:
            del self._owner_detail[ppn]
        owner[ppn] = DEAD
        block = ppn // self._pages_per_block
        self._valid_count[block] -= 1
        self._deaths.extend((ppn, self._erase_counts[block]))

    def _release_retired(self) -> None:
        """The root was republished: pages only the old root pinned die
        (``_disown``, inline: a pending page is always ``OWNER_RETIRED``)."""
        for ppn in self._pending_retired:
            self._owner[ppn] = DEAD
            del self._owner_detail[ppn]
            self._valid_count[ppn // self._pages_per_block] -= 1
        self._pending_retired.clear()

    # -------- space management (see repro.ftl.gc) ----------------------

    def _gc_oobs(self, owners: list[int], keys: list[int], srcs: list[int]) -> tuple:
        """OOB columns ``(kinds, keys, seqs, tags)`` for a GC-relocated run:
        page ``i`` is ``srcs[i]``, owned by ``owners[i]``, its OOB key
        ``keys[i]``.  One sequence draw per page, in page order."""
        count = len(owners)
        seqs = range(self._seq + 1, self._seq + count + 1)
        self._seq += count
        if owners.count(OWNER_DATA) == count:
            # All committed data, replayable by anyone (tid=None); a data
            # page's key is its lpn.
            return bytes((OOB_DATA,)) * count, keys, seqs, (None,) * count
        detail = self._owner_detail
        pages = [
            self._gc_oob(owner, detail.get(ppn, lpn), ppn, seq)
            for owner, lpn, ppn, seq in zip(owners, keys, srcs, seqs)
        ]
        return tuple(zip(*pages))

    def _gc_oob(self, owner: int, detail: Any, old_ppn: int, seq: int) -> tuple:
        """OOB metadata for one GC-relocated page, drawing sequence ``seq``;
        ``detail`` is the page's ``_owner_detail`` key (a data page's: its
        lpn)."""
        if owner == OWNER_DATA:
            return (OOB_DATA, detail, seq, None)
        if owner == OWNER_RETIRED:
            # Keep the retired page's real identity: a relocated retired
            # X-L2P table page must stay recognisable as OOB_XL2P_TABLE (and
            # keep its page index) or recovery misclassifies it as firmware
            # metadata.
            kind, key = detail
            return (_OOB_KINDS.get(kind, OOB_META), key, seq, None)
        if owner in _OOB_KINDS:
            return (_OOB_KINDS[owner], detail, seq, None)
        raise FtlError(f"unknown page owner {owner} ({detail!r})")

    def _apply_relocations(
        self, owners: list[int], keys: list[int], srcs: list[int], dst: int
    ) -> None:
        """Ownership follows a GC-relocated run, then each owning structure.

        Page ``i`` of the run, owned by ``owners[i]`` with OOB key
        ``keys[i]``, moved from ``srcs[i]`` to ``dst + i``; the sources
        share one block and so do the destinations.
        """
        owner_table = self._owner
        l2p = self._l2p
        n = len(srcs)
        if owner_table[dst : dst + n].count(DEAD) != n:
            raise FtlError(f"ppns {dst}..{dst + n - 1} already owned")
        owner_table[dst : dst + n] = owners
        if owners.count(OWNER_DATA) == n:
            # All L2P pages, the common case: every key is an lpn.
            for old_ppn in srcs:
                owner_table[old_ppn] = DEAD
            for lpn, new_ppn in zip(keys, range(dst, dst + n)):
                l2p[lpn] = new_ppn
        else:
            detail = self._owner_detail
            for owner, lpn, old_ppn, new_ppn in zip(owners, keys, srcs, range(dst, dst + n)):
                owner_table[old_ppn] = DEAD
                if owner == OWNER_DATA:  # a data page's key is its lpn
                    l2p[lpn] = new_ppn
                else:
                    key = detail[new_ppn] = detail.pop(old_ppn)
                    self._repoint_owner(owner, key, old_ppn, new_ppn)
        # No translation segment is dirtied: a copyback's OOB record is its
        # own durable mapping.  It carries a sequence above the one every
        # image of its lpn's segment was built at, so remount replays it
        # over whatever stale page that image names (module docstring).
        per = self._pages_per_block
        self._valid_count[srcs[0] // per] -= n
        self._valid_count[dst // per] += n

    def _repoint_owner(self, owner: int, detail: Any, old_ppn: int, new_ppn: int) -> None:
        """The structures naming a relocated page follow it: its owner's
        (subclasses add their codes; the L2P's is in :meth:`_apply_relocations`)
        and the durable root's, which may name a live or a retired page."""
        if owner == OWNER_RETIRED:
            self._pending_retired.discard(old_ppn)
            self._pending_retired.add(new_ppn)
            owner, detail = detail
        elif owner == OWNER_MAP:
            self._map_dir[detail] = new_ppn
        elif owner == OWNER_META:
            self._meta_dir[detail] = new_ppn
        elif owner != OWNER_XL2P_TABLE:
            raise FtlError(f"unknown page owner {owner} ({detail!r})")
        root = self._root  # each update below is an atomic meta update
        if owner == OWNER_MAP and root.map_dir.get(detail) == old_ppn:
            root.map_dir[detail] = new_ppn
        elif owner == OWNER_META and root.meta_dir.get(detail) == old_ppn:
            root.meta_dir[detail] = new_ppn
        elif owner == OWNER_XL2P_TABLE and old_ppn in root.xl2p_ppns:
            root.xl2p_ppns = tuple(new_ppn if p == old_ppn else p for p in root.xl2p_ppns)

    # -------- map persistence ------------------------------------------

    def _segment_image(self, segment: int) -> tuple:
        """The image a translation-page flush of ``segment`` would program,
        stamped with the sequence it is built at."""
        lo = segment * self._map_entries_per_page
        hi = lo + self._map_entries_per_page
        return (self._l2p[lo:hi], self._segment_chains(lo, hi), self._seq)

    def _image_lag(self, segment: int, image: tuple) -> list[int]:
        """The lpns at which ``image``, a persisted image of ``segment``,
        lags the live map for any reason but a GC copyback made after it
        was built: none for a clean segment's image.

        A copyback dirties no segment; its page carries its lpn's OOB at a
        sequence above the image's, which remount replays over the image.
        Chains must match in full: moving a retained version dirties its
        segment.
        """
        ppns, chains, built = image
        live, live_chains, _now = self._segment_image(segment)
        read_oob = self.chip.read_oob
        behind = []
        for lpn, (flushed, current) in enumerate(
            zip(ppns, live), segment * self._map_entries_per_page
        ):
            if flushed != current:
                oob = read_oob(current) if current != UNMAPPED else None
                if not (oob and oob[1] == lpn and oob[2] > built):
                    behind.append(lpn)
        if chains != live_chains:
            flushed_chains, live_chains = dict(chains), dict(live_chains)
            behind += [
                lpn
                for lpn in flushed_chains.keys() | live_chains.keys()
                if flushed_chains.get(lpn) != live_chains.get(lpn)
            ]
        return sorted(behind)

    def _segment_chains(self, lo: int, hi: int) -> tuple:
        """Chain part of the image covering lpns ``lo..hi-1`` (XFTL overrides)."""
        return ()

    def _load_segment_image(self, segment: int, image: tuple) -> tuple:
        """Install a persisted image into the L2P; returns its chain part."""
        if not 0 <= segment < self._total_segments:
            raise CorruptionError(f"map page for segment {segment} outside exported space")
        lo = segment * self._map_entries_per_page
        hi = min(lo + self._map_entries_per_page, self._exported_pages)
        ppns, chains, _built = image
        if len(ppns) != hi - lo:
            raise CorruptionError(
                f"map page for segment {segment} holds {len(ppns)} entries, expected {hi - lo}"
            )
        self._l2p[lo:hi] = ppns
        return chains

    def _retire(self, ppn: int, kind: int, key: object) -> None:
        """Keep a superseded root-referenced page valid until root publish (one write)."""
        if self._owner[ppn] == DEAD:
            self._valid_count[ppn // self._pages_per_block] += 1
        self._owner[ppn] = OWNER_RETIRED
        self._owner_detail[ppn] = (kind, key)
        self._pending_retired.add(ppn)

    def _flush_pages(
        self,
        segments: Iterable[int],
        meta_slots: int = 0,
        mid_point: str | None = None,
    ) -> None:
        """Program the translation page of each of ``segments``, then
        ``meta_slots`` firmware metadata pages (write points, erase counts...).

        A barrier is one call; a CMT eviction writeback flushes one segment.
        Per page: drop the dirty marker (a GC pass inside the program may
        re-dirty it by relocating one of its retained versions, and that
        must survive), build the image, program it, retire the old copy,
        claim the new one.  ``mid_point`` is hit before
        each translation page.
        """
        host_program = self.gc.host_program
        crash_plan = self.chip.crash_plan
        dirty = self._dirty_segments
        unpublished = self._unpublished_segments
        owner = self._owner
        detail = self._owner_detail
        valid = self._valid_count
        per = self._pages_per_block
        pending = self._pending_retired
        written = 0
        try:
            for code, keys, live_dir, root_dir in (
                (OWNER_MAP, segments, self._map_dir, self._root.map_dir),
                (OWNER_META, range(meta_slots), self._meta_dir, self._root.meta_dir),
            ):
                for key in keys:
                    if code == OWNER_MAP:
                        if mid_point is not None and crash_plan._points:
                            crash_plan.hit(mid_point)
                        dirty.discard(key)
                        ppn = host_program(self._segment_image(key), OOB_MAP, key, None)
                        unpublished[key] = None
                    else:
                        ppn = host_program(("meta", key), OOB_META, key, None)
                    old = live_dir.get(key)
                    if old is not None and owner[old] != DEAD:
                        if root_dir.get(key) == old:
                            # The durable root names it: pin it until the
                            # next publish (_retire, inline; it is owned).
                            owner[old] = OWNER_RETIRED
                            detail[old] = (code, key)
                            pending.add(old)
                        else:
                            # A CMT segment rewritten since the last publish:
                            # pinning would pile retired pages up until then.
                            self._disown(old)
                    live_dir[key] = ppn
                    if owner[ppn] != DEAD:
                        raise FtlError(f"ppn {ppn} already owned by {owner[ppn]}")
                    owner[ppn] = code
                    detail[ppn] = key
                    valid[ppn // per] += 1
                    written += 1
        finally:
            if written:
                self.stats.map_page_writes += written

    def _publish_root(self, seq: int) -> None:
        """Atomically update the meta block (assumed atomic, §5.3).

        ``seq`` caps every segment's replay horizon: remount replays the
        data pages above ``min(image seq, seq)`` of their lpn's segment.
        The barrier passes its pre-flush snapshot.
        """
        root = self._root
        unnamed = self._publish_map_dir()
        # Every barrier rewrites every meta slot: all of them changed.
        root_dir = root.meta_dir
        for slot, ppn in self._meta_dir.items():
            old = root_dir.get(slot)
            root_dir[slot] = ppn
            if old is not None:
                unnamed.append(old)
        self.chip.discard_pages(unnamed)
        root.seq = seq
        root.commit_seq = self._commit_seq_for_root()

    def _publish_map_dir(self) -> list[int]:
        """The root's map directory catches up with the live one.

        Only translation-page writes leave the two apart (a relocation
        edits both in place), so the segments written since the last
        publish are all there is to copy.  Returns the pages the root named
        before: they are unreachable from then on, and the caller discards
        their payloads.
        """
        map_dir = self._map_dir
        root_dir = self._root.map_dir
        unnamed = []
        for segment in self._unpublished_segments:
            old = root_dir.get(segment)
            root_dir[segment] = map_dir[segment]
            if old is not None:
                unnamed.append(old)
        self._unpublished_segments.clear()
        return unnamed

    def _commit_seq_for_root(self) -> int:
        """Commit sequence counter published with the root (XFTL overrides)."""
        return self._root.commit_seq

    # -------- recovery helpers ------------------------------------------

    def _scan_oob(self) -> Iterator[tuple[int, int, int, Any, int]]:
        """Yield ``(seq, kind, key, tag, ppn)`` for every programmed page.

        ``_seq`` resumes above the highest sequence seen: a sequence number
        is never reused after a crash.
        """
        read_oob = self.chip.read_oob
        for ppn, state in enumerate(self._page_states):
            if state != PAGE_PROGRAMMED:
                continue
            oob = read_oob(ppn)
            if not oob:
                continue
            kind, key, seq, tag = oob
            if seq > self._seq:
                self._seq = seq
            yield seq, kind, key, tag, ppn

    # -------- inspection --------------------------------------------------

    def mapped_ppn(self, lpn: int) -> int | None:
        """Current physical page of ``lpn`` in the committed L2P view."""
        self._check_lpn(lpn)
        ppn = self._l2p[lpn]
        return None if ppn == UNMAPPED else ppn

    def free_block_count(self) -> int:
        return sum(self.gc.free_block_counts())

    def utilization(self) -> float:
        """Fraction of raw flash pages currently holding valid data."""
        return sum(self._valid_count) / self.chip.geometry.total_pages

    def wear_stats(self) -> dict[str, float]:
        """Erase-count distribution across blocks (wear levelling view)."""
        counts = self.chip.state.erase_counts
        total = sum(counts)
        n = len(counts)
        mean = total / n
        variance = sum((c - mean) ** 2 for c in counts) / n
        return {
            "total_erases": float(total),
            "mean": mean,
            "max": float(max(counts)),
            "min": float(min(counts)),
            "stddev": variance**0.5,
        }

    def gc_mean_valid_ratio(self) -> float:
        """Average fraction of valid pages carried over per GC (Fig. 5/6 knob)."""
        return self.gc.mean_valid_ratio()

    def _check_owner_referenced(self, ppn: int, owner: int) -> None:
        """The converse of "referenced implies owned" (XFTL adds the X-L2P's).

        An L2P-owned page's OOB names the lpn whose entry maps it: the
        collector relocates the page over the mapping its key names, so a
        stale page would overwrite the current mapping, and a key that is no
        such lpn would corrupt another.
        """
        if owner != OWNER_DATA:
            return
        oob = self.chip.read_oob(ppn)
        if not oob or oob[0] != OOB_DATA or not 0 <= oob[1] < self._exported_pages:
            raise FtlError(f"ppn {ppn} owned by the l2p holds no data OOB of an lpn: {oob!r}")
        lpn = oob[1]
        if self._l2p[lpn] != ppn:
            raise FtlError(f"ppn {ppn} owned by l2p[{lpn}], which maps to {self._l2p[lpn]}")

    def check_invariants(self) -> None:
        """Internal consistency checks used by tests (not by benchmarks)."""
        counts = [0] * self.chip.geometry.num_blocks
        for ppn, owner in enumerate(self._owner):
            if owner == DEAD:
                continue
            counts[ppn // self._pages_per_block] += 1
            if self._page_states[ppn] != PAGE_PROGRAMMED:
                raise FlashError(f"owned page {ppn} ({owner}) is not programmed")
            self._check_owner_referenced(ppn, owner)
        if counts != self._valid_count:
            raise FtlError("valid-count accounting out of sync")
        coded = {ppn for ppn, owner in enumerate(self._owner) if owner > OWNER_DATA}
        if coded != self._owner_detail.keys():
            raise FtlError("owner details out of sync with the owner codes")
        if any(self._owner[ppn] != OWNER_RETIRED for ppn in self._pending_retired):
            raise FtlError("a page pending release is not owned as retired")
        keys = self._oob_keys
        for lpn, ppn in enumerate(self._l2p):
            if ppn != UNMAPPED and (self._owner[ppn] != OWNER_DATA or keys[ppn] != lpn):
                raise FtlError(f"l2p[{lpn}]={ppn} not owned by l2p as lpn {lpn}")
        if self._powered:
            root = self._root
            if root.meta_dir != self._meta_dir:
                raise FtlError("root meta directory differs from the live one outside a barrier")
            behind = {
                segment
                for segment in root.map_dir.keys() | self._map_dir.keys()
                if root.map_dir.get(segment) != self._map_dir.get(segment)
            }
            if not behind <= self._unpublished_segments.keys():
                raise FtlError(
                    f"root map directory is behind on segments "
                    f"{sorted(behind - self._unpublished_segments.keys())} no publish would apply"
                )
        self._check_discarded()
        if self._cmt is not None:
            self._cmt.check_invariants()
        self.gc.check_invariants()

    def _check_discarded(self) -> None:
        """No page remount could map holds a discarded payload.

        Those are the owned pages, the pages the root names, every entry of
        the root's map images that remount keeps (an L2P entry naming an
        ``OOB_DATA`` page of its lpn at or below its segment's horizon, a
        chain entry naming the page its OOB identity matches) and every data
        page the OOB replay may apply (an effect sequence above its
        segment's horizon).
        """
        discarded = set(self.chip.discarded_pages())
        if not discarded:
            return
        owned = [ppn for ppn in discarded if self._owner[ppn] != DEAD]
        if owned:
            raise FtlError(f"owned pages {sorted(owned)} hold discarded payloads")
        root = self._root
        named = discarded & {*root.map_dir.values(), *root.meta_dir.values(), *root.xl2p_ppns}
        if named:
            raise FtlError(f"pages {sorted(named)} the root names hold discarded payloads")
        read_oob = self.chip.read_oob
        entries = self._map_entries_per_page
        horizons = [root.seq] * self._total_segments  # remount's, step 1
        kept = []
        for segment, map_ppn in root.map_dir.items():
            ppns, chains, built = self.chip.peek(map_ppn)
            horizon = horizons[segment] = min(built, root.seq)
            for lpn, ppn in enumerate(ppns, segment * entries):
                if ppn in discarded:
                    oob = read_oob(ppn)
                    if oob and oob[0] == OOB_DATA and oob[1] == lpn and oob[2] <= horizon:
                        kept.append(ppn)
            for lpn, chain in chains:
                for ppn, _sup_seq, oob_seq in chain:
                    oob = read_oob(ppn) if ppn in discarded else None
                    if oob and oob[:3] == (OOB_DATA, lpn, oob_seq):
                        kept.append(ppn)
        for ppn in sorted(discarded):
            oob = read_oob(ppn)
            if oob and oob[0] == OOB_DATA:
                effect = self._effect(oob[2], oob[3])
                if effect is not None and effect > horizons[oob[1] // entries]:
                    kept.append(ppn)
        if kept:
            raise FtlError(f"pages {sorted(kept)} remount would map hold discarded payloads")
