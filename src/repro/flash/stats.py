"""Flash and FTL I/O statistics.

The paper's Table 1 and Figure 6 report FTL-side counters (page writes and
reads including internal copybacks, garbage-collection invocations, block
erases).  :class:`FlashStats` is the single accumulator both the raw chip and
the FTL write into, so a benchmark can snapshot/delta it around a workload.
It is also the only store of these counts: the chip binds it to the obs
registry under :attr:`FlashStats.OBS_NAMES`, which reads the fields when
asked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass
class FlashStats:
    """Counters across the flash stack, one field per event.

    Chip-level (raw NAND operations):
        page_reads, page_programs, block_erases

    FTL-level breakdown (subsets/causes of the chip-level counts):
        host_page_writes: programs triggered directly by host write commands
        host_page_reads: reads triggered directly by host read commands
        gc_copyback_reads / gc_copyback_writes: valid-page moves during GC
        gc_invocations: victim blocks garbage-collected
        map_page_writes: mapping-table (L2P) pages persisted on barriers
        xl2p_page_writes: X-L2P table pages persisted on transaction commits
        barriers: flush/barrier commands processed
        commits / aborts: transactional commands processed (X-FTL only)
        xl2p_flushes: X-L2P CoW table flushes (one per commit sweep; group
            commit amortizes one flush over many commits)
        group_commits: commit sweeps that served two or more transactions
        gc_urgent_collections: background-GC victims collected synchronously
            at the headroom floor (each is a foreground pause; the inline
            collector does not count here — all of its work is foreground)
        gc_wear_migrations: wear-leveling jobs that migrated a low-erase
            block's contents into the cold stream
        cmt_hits: CMT lookups served from a resident translation page
        cmt_misses: CMT lookups that demand-paged a translation page in
        cmt_fetch_reads: translation-page reads performed by CMT misses
            (a miss on a never-persisted page costs no read)
        cmt_evictions: resident translation pages evicted to make room
        cmt_writebacks: translation pages programmed outside barriers —
            dirty evictions and their dirty-batch companions (each also
            counts into map_page_writes / page_programs)
        gc_translation_collections: GC victims that were translation-stream
            blocks (Dayan & Bonnet's translation-block victim accounting)
    """

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0

    host_page_writes: int = 0
    host_page_reads: int = 0
    gc_copyback_reads: int = 0
    gc_copyback_writes: int = 0
    gc_invocations: int = 0
    map_page_writes: int = 0
    xl2p_page_writes: int = 0
    barriers: int = 0
    commits: int = 0
    aborts: int = 0
    xl2p_flushes: int = 0
    group_commits: int = 0
    gc_urgent_collections: int = 0
    gc_wear_migrations: int = 0
    cmt_hits: int = 0
    cmt_misses: int = 0
    cmt_fetch_reads: int = 0
    cmt_evictions: int = 0
    cmt_writebacks: int = 0
    gc_translation_collections: int = 0

    #: obs counter name -> field, one name per field.
    OBS_NAMES: ClassVar[dict[str, str]] = {
        "flash.page_reads": "page_reads",
        "flash.page_programs": "page_programs",
        "flash.block_erases": "block_erases",
        "ftl.host_page_writes": "host_page_writes",
        "ftl.host_page_reads": "host_page_reads",
        "ftl.gc.copyback_reads": "gc_copyback_reads",
        "ftl.gc.copyback_writes": "gc_copyback_writes",
        "ftl.gc.invocations": "gc_invocations",
        "ftl.map_page_writes": "map_page_writes",
        "ftl.xl2p.page_writes": "xl2p_page_writes",
        "ftl.barriers": "barriers",
        "ftl.commits": "commits",
        "ftl.aborts": "aborts",
        "ftl.xl2p.flushes": "xl2p_flushes",
        "ftl.group_commits": "group_commits",
        "ftl.gc.urgent_collections": "gc_urgent_collections",
        "ftl.gc.wear_migrations": "gc_wear_migrations",
        "ftl.cmt.hits": "cmt_hits",
        "ftl.cmt.misses": "cmt_misses",
        "ftl.cmt.fetch_reads": "cmt_fetch_reads",
        "ftl.cmt.evictions": "cmt_evictions",
        "ftl.cmt.writebacks": "cmt_writebacks",
        "ftl.gc.translation_collections": "gc_translation_collections",
    }

    def snapshot(self) -> "FlashStats":
        """Return an independent copy of the current counters."""
        return FlashStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "FlashStats") -> "FlashStats":
        """Counters accumulated since ``earlier`` (a prior snapshot).

        The canonical benchmark idiom::

            before = stack.chip.stats.snapshot()
            ... run workload ...
            used = stack.chip.stats.delta(before)
        """
        return FlashStats(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view, handy for report tables."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class ChipCounts:
    """What the chip counts that no FTL-level table reports: programs a
    power failure tore (kept out of :class:`FlashStats`, whose fields the
    benchmark tables and baselines list in full)."""

    OBS_NAMES: ClassVar[dict[str, str]] = {"flash.torn_programs": "torn_programs"}

    torn_programs: int = 0
