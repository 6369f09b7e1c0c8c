"""File-system page cache.

Models the kernel page cache: reads and writes go through cached pages;
dirty pages are written back on fsync (force) or on eviction under memory
pressure (steal).  Each dirty page remembers the transaction (an opaque
token — in the full stack a ``TransactionContext``) that last dirtied it,
so the X-FTL mode can tag the eventual device write, an aborting
transaction can drop exactly its own cached changes (§5.2), and readers
from *other* transactions can be routed to the committed copy instead
(snapshot-read isolation).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from repro.obs import NULL_OBS, Observability


@dataclass(slots=True)
class CachedPage:
    """One page-cache slot, keyed by device lpn."""

    lpn: int
    data: Any
    dirty: bool = False
    txn: object | None = None


@dataclass(slots=True)
class CacheCounts:
    """What a page cache counts."""

    OBS_NAMES: ClassVar[dict[str, str]] = {
        "fs.cache.hits": "hits",
        "fs.cache.misses": "misses",
        "fs.cache.evictions": "evictions",
        "fs.cache.dirty_evictions": "dirty_evictions",
    }

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0


class PageCache:
    """LRU page cache with dirty write-back on eviction.

    ``writeback`` is called as ``writeback(lpn, data, txn)`` when a dirty
    page is evicted (the *steal* path).  Clean pages are evicted silently.
    """

    def __init__(
        self,
        capacity: int,
        writeback: Callable[[int, Any, object | None], None],
        obs: Observability = NULL_OBS,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._writeback = writeback
        self._pages: OrderedDict[int, CachedPage] = OrderedDict()
        self.counts = CacheCounts()
        obs.registry.bind(self.counts, CacheCounts.OBS_NAMES)

    def __len__(self) -> int:
        return len(self._pages)

    # Read by benchmarks/perf/measure.py, which predates ``counts``.
    @property
    def hits(self) -> int:
        return self.counts.hits

    @property
    def misses(self) -> int:
        return self.counts.misses

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._pages

    def get(self, lpn: int) -> CachedPage | None:
        """Look up a page, refreshing its LRU position."""
        page = self._pages.get(lpn)
        if page is None:
            self.counts.misses += 1
            return None
        self._pages.move_to_end(lpn)
        self.counts.hits += 1
        return page

    def peek(self, lpn: int) -> CachedPage | None:
        """Look up without touching LRU order or hit statistics."""
        return self._pages.get(lpn)

    def put(self, lpn: int, data: Any, dirty: bool = False, txn: object | None = None) -> CachedPage:
        """Insert or update a page, evicting LRU pages beyond capacity."""
        page = self._pages.get(lpn)
        if page is None:
            page = CachedPage(lpn=lpn, data=data, dirty=dirty, txn=txn)
            self._pages[lpn] = page
        else:
            page.data = data
            if dirty:
                page.dirty = True
                page.txn = txn
            self._pages.move_to_end(lpn)
        self._evict_to_capacity()
        return page

    def mark_clean(self, lpn: int) -> None:
        page = self._pages.get(lpn)
        if page is not None:
            page.dirty = False
            page.txn = None

    def mark_staged(self, lpn: int) -> None:
        """Clean but still transaction-tagged (group-commit stage window).

        The page's data has been written to the device under its
        transaction but the transaction has not committed yet, so foreign
        readers must keep treating the cached copy as uncommitted and read
        the committed version from the device instead.  The tag is cleared
        by :meth:`clear_txn_tag` once the group commit lands (or the page
        is dropped by :meth:`drop_txn` on abort).
        """
        page = self._pages.get(lpn)
        if page is not None:
            page.dirty = False

    def clear_txn_tag(self, txn: object) -> list[int]:
        """Untag ``txn``'s staged (clean) pages — its commit landed.

        Their cached data *is* now the committed copy, so they become
        plain shared pages.  Dirty pages keep their tag: those belong to
        the transaction's next, not-yet-staged batch of changes.
        """
        cleared = []
        for page in self._pages.values():
            if not page.dirty and page.txn == txn:
                page.txn = None
                cleared.append(page.lpn)
        return cleared

    def drop(self, lpn: int) -> None:
        """Remove a page without write-back (used by abort)."""
        self._pages.pop(lpn, None)

    def drop_txn(self, txn: object) -> list[int]:
        """Drop every page belonging to ``txn``; return their lpns.

        This is how an aborting transaction's cached (not-yet-stolen)
        changes are undone (§5.2).  Both dirty pages and staged (clean but
        still tagged — see :meth:`mark_staged`) pages are uncommitted, so
        both are dropped.
        """
        doomed = [lpn for lpn, page in self._pages.items() if page.txn == txn]
        for lpn in doomed:
            del self._pages[lpn]
        return doomed

    def _evict_to_capacity(self) -> None:
        while len(self._pages) > self.capacity:
            victim_lpn = self._pick_eviction_victim()
            page = self._pages.pop(victim_lpn)
            self.counts.evictions += 1
            if page.dirty:
                self.counts.dirty_evictions += 1
                self._writeback(page.lpn, page.data, page.txn)

    def _pick_eviction_victim(self) -> int:
        """Prefer the least-recently-used clean page; else LRU dirty (steal)."""
        for lpn, page in self._pages.items():
            if not page.dirty:
                return lpn
        return next(iter(self._pages))
