"""B-trees on pager pages: tables and indexes.

Each tree maps tuple keys to payloads.  Tables are keyed by ``(rowid,)``
with the row as payload; indexes are keyed by ``(value..., rowid)`` with an
empty ``bytes`` payload (presence is the information).

Page layout follows SQLite's spirit: pages have a byte budget (page size
minus a header allowance), cells carry keys and local payloads, and payloads
above a threshold, ``max_local``, spill into a chain of overflow pages (how
SQLite stores Facebook's thumbnail blobs, §6.3.2).  A split keeps the root's
page number stable, so the catalog never needs updating when a tree grows.

Cell layout.  A leaf cell is ``(local, overflow pno, size)``, and only
``BTree._make_cell`` decides its form, by one rule.  A ``tuple`` row whose
record fits ``max_local`` is kept as it is, ``(row, None, record_size(row))``:
nothing encodes it on a write or decodes it on a read, and page images hold
the (immutable) row; its values are exact SQL types (made so at bind), so it
reads back as its record would decode.  Any other row is its record, spilled:
its first ``max_local`` bytes and an overflow chain holding the rest.  A
``bytes`` payload is stored whole when it fits and spills the same way when
it does not.  Every index entry's payload is empty, and every index cell is
one shared constant, ``INDEX_CELL`` = ``(b"", None, 0)`` (a cell is an
immutable tuple, and a replace puts a new one in the list), so an index leaf
holds one reference per entry and no cell tuple of its own.

Range scans re-descend from the root to cross leaf boundaries instead of
maintaining sibling links; this keeps deletion simple (empty pages are
unlinked, no rebalancing — a documented simplification) at O(log n) per
leaf transition.  A delete leaves the separators above its leaf alone, so a
separator bounds its leaf's keys without having to be one of them.

Byte accounting.  What a page uses of its budget is a sum over its entries —
leaf: ``key_size_bytes(key) + local size + CELL_OVERHEAD`` per cell (the
local size is ``size``, or ``max_local`` for a cell with an overflow chain);
interior: ``key_size_bytes(key) + INTERIOR_ENTRY_OVERHEAD`` per separator —
and it decides when the page splits, hence how many pages a transaction
dirties.  Keys and rows are sized without being encoded: ``key_size_bytes``
and ``record_size`` are the record length by arithmetic, so a row takes the
same bytes in either cell form.  Each leaf and interior page carries that sum
as a running count (``used_bytes()``) instead of re-sizing every key on every
insert.  The count changes in exactly eight places, all in this module: leaf
insert (the new cell), leaf replace (the *local* length delta: ``_make_cell``
may move a payload across ``max_local``), leaf delete, the leaf split and the
interior split (one half is measured, the other gets the rest), the separator
a split pushes into the parent, the separator of a new root, and the separator
``_remove_empty`` drops.  A root collapse re-homes the child object, count
included.  The page image does not carry the count: images are what is stored
on flash and what the recorded baselines hash, and the count is derivable, so
a decoded page is measured on first demand — a page that is only read, or
only replaced into or deleted from, never is — and an adjustment to a page
not measured yet is a no-op.  Rollback drops dirty page objects from the
pager cache, so a count cannot outlive the change it counted.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.errors import DatabaseError
from repro.sqlite.pager import Pager
from repro.sqlite.records import encode_record, key_size_bytes, key_sort_tuple, record_size

PAGE_HEADER_BYTES = 64
CELL_OVERHEAD = 16
INTERIOR_ENTRY_OVERHEAD = 12


Cell = tuple[Any, int | None, int]  # (row or local bytes, overflow pno, size)

# The one cell of every empty payload: each index entry's (see "Cell layout").
INDEX_CELL: Cell = (b"", None, 0)


def _local_size(cell: Cell) -> int:
    """What a leaf cell's local part takes of its page (see "Cell layout")."""
    return cell[2] if cell[1] is None else len(cell[0])


def _cell_bytes(key: tuple, cell: Cell) -> int:
    """What one leaf cell takes of its page's byte budget."""
    return key_size_bytes(key) + _local_size(cell) + CELL_OVERHEAD


def _separator_bytes(key: tuple) -> int:
    """What one interior separator takes of its page's byte budget."""
    return key_size_bytes(key) + INTERIOR_ENTRY_OVERHEAD


class _AccountedPage:
    """The running byte count of a keyed page (see "Byte accounting" above)."""

    __slots__ = ("_used",)

    def __init__(self) -> None:
        self._used: int | None = 0  # None: decoded or freshly split, not measured yet

    def used_bytes(self) -> int:
        """Bytes of the page's budget in use; measures on first demand only."""
        if self._used is None:
            self._used = self._measure()
        return self._used

    def adjust(self, delta: int) -> None:
        """Keep the count in step with a key or cell that came or went."""
        if self._used is not None:
            self._used += delta

    def share_out(
        self, left: "_AccountedPage", right: "_AccountedPage", promoted: int = 0
    ) -> None:
        """Split the count over the two halves: measure one, the other gets the
        rest (less ``promoted``, the separator an interior split moves up)."""
        left._used = None
        right._used = self.used_bytes() - promoted - left.used_bytes()

    def _measure(self) -> int:
        raise NotImplementedError


class LeafPage(_AccountedPage):
    """Leaf: sorted keys and their cells (see "Cell layout")."""

    TAG = "leaf"
    __slots__ = ("keys", "sort_keys", "cells")

    def __init__(self) -> None:
        super().__init__()
        self.keys: list[tuple] = []
        self.sort_keys: list[tuple] = []
        self.cells: list[Cell] = []

    def to_image(self) -> tuple:
        return (self.TAG, tuple(self.keys), tuple(self.cells))

    @classmethod
    def from_image(cls, image: tuple) -> "LeafPage":
        page = cls()
        page.keys = list(image[1])
        page.sort_keys = [key_sort_tuple(k) for k in page.keys]
        page.cells = list(image[2])
        page._used = None
        return page

    def _measure(self) -> int:
        return sum(map(_cell_bytes, self.keys, self.cells))


class InteriorPage(_AccountedPage):
    """Interior: separator keys and child page numbers (len+1 children)."""

    TAG = "interior"
    __slots__ = ("keys", "sort_keys", "children")

    def __init__(self) -> None:
        super().__init__()
        self.keys: list[tuple] = []
        self.sort_keys: list[tuple] = []
        self.children: list[int] = []

    def to_image(self) -> tuple:
        return (self.TAG, tuple(self.keys), tuple(self.children))

    @classmethod
    def from_image(cls, image: tuple) -> "InteriorPage":
        page = cls()
        page.keys = list(image[1])
        page.sort_keys = [key_sort_tuple(k) for k in page.keys]
        page.children = list(image[2])
        page._used = None
        return page

    def _measure(self) -> int:
        return sum(map(_separator_bytes, self.keys))


class OverflowPage:
    """One link of an overflow chain holding a payload chunk."""

    TAG = "overflow"
    __slots__ = ("chunk", "next_pno")

    def __init__(self, chunk: bytes = b"", next_pno: int | None = None) -> None:
        self.chunk = chunk
        self.next_pno = next_pno

    def to_image(self) -> tuple:
        return (self.TAG, self.chunk, self.next_pno)

    @classmethod
    def from_image(cls, image: tuple) -> "OverflowPage":
        return cls(chunk=image[1], next_pno=image[2])


_PAGE_TYPES = {cls.TAG: cls for cls in (LeafPage, InteriorPage, OverflowPage)}


def page_from_image(image: tuple) -> Any:
    """Decode any B-tree page image (the pager's page decoder)."""
    cls = _PAGE_TYPES.get(image[0])
    if cls is None:
        raise DatabaseError(f"unknown page image tag {image[0]!r}")
    return cls.from_image(image)


class BTree:
    """One B-tree rooted at a fixed page number."""

    def __init__(self, pager: Pager, root_pno: int) -> None:
        self.pager = pager
        self.root_pno = root_pno
        page_size = pager.fs.device.page_size
        self.capacity = page_size - PAGE_HEADER_BYTES
        # Payloads above this spill to overflow pages (SQLite-like rule).
        self.max_local = self.capacity // 4
        self.overflow_chunk = self.capacity - 32

    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        """Allocate an empty tree (root starts as a leaf)."""
        root_pno = pager.allocate()
        pager.put_new(root_pno, LeafPage())
        return cls(pager, root_pno)

    # ------------------------------------------------------------ lookups

    def get(self, key: tuple) -> tuple | bytes | None:
        """Payload for ``key`` or None."""
        sort_key = key_sort_tuple(key)
        leaf, _path = self._descend(sort_key)
        index = self._find_in_leaf(leaf, sort_key)
        if index is None:
            return None
        return self._load_payload(leaf.cells[index])

    def contains(self, key: tuple) -> bool:
        """Whether ``key`` exists in the tree."""
        sort_key = key_sort_tuple(key)
        leaf, _path = self._descend(sort_key)
        return self._find_in_leaf(leaf, sort_key) is not None

    def scan(
        self,
        lo: tuple | None = None,
        hi: tuple | None = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[tuple[tuple, tuple | bytes]]:
        """Yield (key, payload) in key order within [lo, hi].

        ``lo_open``/``hi_open`` exclude the endpoints.  The tree must not be
        structurally modified while a scan is running (callers materialize
        matches before mutating).
        """
        cursor = key_sort_tuple(lo) if lo is not None else None
        cursor_open = lo_open
        hi_sort = key_sort_tuple(hi) if hi is not None else None
        while True:
            leaf, path = self._descend(cursor or (), after=cursor_open)
            if cursor is None:
                start = 0
            else:
                start = (
                    bisect.bisect_right(leaf.sort_keys, cursor)
                    if cursor_open
                    else bisect.bisect_left(leaf.sort_keys, cursor)
                )
            emitted = False
            for index in range(start, len(leaf.keys)):
                sort_key = leaf.sort_keys[index]
                if hi_sort is not None:
                    if hi_open and sort_key >= hi_sort:
                        return
                    if not hi_open and sort_key > hi_sort:
                        return
                yield leaf.keys[index], self._load_payload(leaf.cells[index])
                emitted = True
            if not leaf.keys:
                return
            if emitted:
                cursor = leaf.sort_keys[-1]
            else:
                # Nothing beyond the cursor in the leaf the descent chose.
                # Deletes leave separators in place, so a leaf's separator
                # may exceed its largest key and the gap can hold the cursor:
                # go on after the separator.  The rightmost leaf has none.
                cursor = self._upper_bound(path)
                if cursor is None:
                    return
            cursor_open = True  # continue strictly after this leaf

    def last_key(self) -> tuple | None:
        """Largest key in the tree (rowid allocation uses this)."""
        page = self.pager.get(self.root_pno)
        while isinstance(page, InteriorPage):
            page = self.pager.get(page.children[-1])
        if not page.keys:
            return None
        return page.keys[-1]

    # ------------------------------------------------------------- updates

    def insert(self, key: tuple, payload: tuple | bytes, replace: bool = False) -> None:
        """Insert ``key`` -> ``payload`` (a row or bytes); duplicate keys
        require ``replace``."""
        cell = self._make_cell(payload)
        sort_key = key_sort_tuple(key)
        leaf, path = self._descend(sort_key)
        index = self._find_in_leaf(leaf, sort_key)
        if index is None:
            self._add_cell(key, sort_key, cell, leaf, path)
            return
        if not replace:
            raise DatabaseError(f"duplicate key {key!r}")
        old = leaf.cells[index]
        self._free_cell(old)
        cell = leaf.cells[index] = self._spill(cell)
        leaf.adjust(_local_size(cell) - _local_size(old))
        self.pager.mark_dirty(path[-1][0], leaf)

    def insert_absent(self, key: tuple, payload: tuple | bytes) -> bool:
        """``contains(key)``, then ``insert(key, payload)`` if it was absent, in one
        descent; returns whether it inserted.

        The pager sees what it saw of the two calls.  The second descent of
        that pair touches the pages the first just touched, in the same
        order, which changes nothing it keeps -- unless loading one of them
        evicted an earlier one (a cache full of dirty pages); then the pages
        are fetched again, as the pair fetched them.
        """
        cell = self._make_cell(payload)
        sort_key = key_sort_tuple(key)
        leaf, path = self._descend(sort_key)
        if self._find_in_leaf(leaf, sort_key) is not None:
            return False
        held = self.pager.holds
        for pno, _page, _child in path:
            if not held(pno):
                leaf, path = self._descend(sort_key)
                break
        self._add_cell(key, sort_key, cell, leaf, path)
        return True

    def delete(self, key: tuple) -> bool:
        """Remove ``key``; returns whether it existed."""
        sort_key = key_sort_tuple(key)
        leaf, path = self._descend(sort_key)
        index = self._find_in_leaf(leaf, sort_key)
        if index is None:
            return False
        self._free_cell(leaf.cells[index])
        leaf.adjust(-_cell_bytes(leaf.keys[index], leaf.cells[index]))
        del leaf.keys[index]
        del leaf.sort_keys[index]
        del leaf.cells[index]
        self.pager.mark_dirty(path[-1][0], leaf)
        if not leaf.keys:
            self._remove_empty(path)
        return True

    def drop(self) -> None:
        """Free every page of the tree (DROP TABLE)."""
        self._drop_subtree(self.root_pno)

    def _drop_subtree(self, pno: int) -> None:
        page = self.pager.get(pno)
        if isinstance(page, InteriorPage):
            for child in page.children:
                self._drop_subtree(child)
        else:
            for cell in page.cells:
                self._free_cell(cell)
        self.pager.free(pno)

    # ----------------------------------------------------------- internals

    def _descend(
        self, sort_key: tuple, after: bool = False
    ) -> tuple[LeafPage, list[tuple[int, Any, int]]]:
        """Walk to the leaf for ``sort_key``.

        Separators route equal keys to the *left* child (they are the left
        child's largest key), so point operations use ``after=False``.
        Scans continuing strictly past a cursor use ``after=True`` to land
        on the next leaf when the cursor equals a separator.

        Returns (leaf, path) where path is [(pno, page, child_index), ...]
        from root to leaf (the leaf's entry is last, child_index unused).
        """
        pno = self.root_pno
        path: list[tuple[int, Any, int]] = []
        page = self.pager.get(pno)
        choose = bisect.bisect_right if after else bisect.bisect_left
        while isinstance(page, InteriorPage):
            child_index = choose(page.sort_keys, sort_key)
            path.append((pno, page, child_index))
            pno = page.children[child_index]
            page = self.pager.get(pno)
        path.append((pno, page, 0))
        return page, path

    @staticmethod
    def _upper_bound(path: list[tuple[int, Any, int]]) -> tuple | None:
        """Sort key of the separator bounding ``path``'s leaf from above, if any."""
        for _pno, page, child_index in reversed(path[:-1]):
            if child_index < len(page.sort_keys):
                return page.sort_keys[child_index]
        return None

    @staticmethod
    def _find_in_leaf(leaf: LeafPage, sort_key: tuple) -> int | None:
        index = bisect.bisect_left(leaf.sort_keys, sort_key)
        if index < len(leaf.sort_keys) and leaf.sort_keys[index] == sort_key:
            return index
        return None

    def _add_cell(
        self,
        key: tuple,
        sort_key: tuple,
        cell: Cell,
        leaf: LeafPage,
        path: list[tuple[int, Any, int]],
    ) -> None:
        """Put a new cell into the leaf ``path`` ends at, splitting it if it overflows."""
        cell = self._spill(cell)
        position = bisect.bisect_left(leaf.sort_keys, sort_key)
        leaf.keys.insert(position, key)
        leaf.sort_keys.insert(position, sort_key)
        leaf.cells.insert(position, cell)
        leaf.adjust(_cell_bytes(key, cell))
        self.pager.mark_dirty(path[-1][0], leaf)
        if leaf.used_bytes() > self.capacity:
            self._split(path)

    # -------- cell / overflow handling ----------------------------------

    def _make_cell(self, payload: tuple | bytes) -> Cell:
        """The cell of ``payload`` (see "Cell layout"), before any overflow
        chain: it touches no page, so a row that cannot be stored raises
        before the descent.  :meth:`_spill` gives a long payload its chain
        once the cell's place is known."""
        if type(payload) is tuple:
            size = record_size(payload)
            if size <= self.max_local:
                return (payload, None, size)
            payload = encode_record(payload)
        elif not payload:
            return INDEX_CELL
        return (payload, None, len(payload))

    def _spill(self, cell: Cell) -> Cell:
        """``cell`` as a leaf stores it: a payload over ``max_local`` keeps its
        first ``max_local`` bytes, the rest goes to a new overflow chain."""
        payload, _pno, total = cell
        if total <= self.max_local:
            return cell
        local = payload[: self.max_local]
        rest = payload[self.max_local :]
        first_pno: int | None = None
        prev: OverflowPage | None = None
        prev_pno = 0
        for offset in range(0, len(rest), self.overflow_chunk):
            chunk = rest[offset : offset + self.overflow_chunk]
            pno = self.pager.allocate()
            page = OverflowPage(chunk=chunk)
            self.pager.put_new(pno, page)
            if prev is None:
                first_pno = pno
            else:
                prev.next_pno = pno
                self.pager.mark_dirty(prev_pno, prev)
            prev, prev_pno = page, pno
        return (local, first_pno, total)

    def _load_payload(self, cell: Cell) -> tuple | bytes:
        local, overflow_pno, total = cell
        if overflow_pno is None:
            return local
        parts = [local]
        pno: int | None = overflow_pno
        while pno is not None:
            page = self.pager.get(pno)
            parts.append(page.chunk)
            pno = page.next_pno
        payload = b"".join(parts)
        if len(payload) != total:
            raise DatabaseError("overflow chain length mismatch")
        return payload

    def _free_cell(self, cell: Cell) -> None:
        """Free ``cell``'s overflow chain, if it has one."""
        pno = cell[1]
        while pno is not None:
            next_pno = self.pager.get(pno).next_pno
            self.pager.free(pno)
            pno = next_pno

    # -------- structural changes -----------------------------------------

    def _split(self, path: list[tuple[int, Any, int]]) -> None:
        """Split the overfull page at the end of ``path``, cascading upward."""
        pno, page, _ = path[-1]
        parents = path[:-1]
        if isinstance(page, LeafPage):
            left, right, separator = self._split_leaf(page)
        else:
            left, right, separator = self._split_interior(page)

        if not parents:
            # Root split: keep the root page number stable.
            left_pno = self.pager.allocate()
            right_pno = self.pager.allocate()
            self.pager.put_new(left_pno, left)
            self.pager.put_new(right_pno, right)
            new_root = InteriorPage()
            new_root.keys = [separator]
            new_root.sort_keys = [key_sort_tuple(separator)]
            new_root.children = [left_pno, right_pno]
            new_root.adjust(_separator_bytes(separator))
            self.pager.mark_dirty(pno, new_root)
            return

        parent_pno, parent, child_index = parents[-1]
        right_pno = self.pager.allocate()
        self.pager.mark_dirty(pno, left)
        self.pager.put_new(right_pno, right)
        sort_sep = key_sort_tuple(separator)
        parent.keys.insert(child_index, separator)
        parent.sort_keys.insert(child_index, sort_sep)
        parent.children.insert(child_index + 1, right_pno)
        parent.adjust(_separator_bytes(separator))
        self.pager.mark_dirty(parent_pno, parent)
        if parent.used_bytes() > self.capacity:
            self._split(parents)

    @staticmethod
    def _split_leaf(page: LeafPage) -> tuple[LeafPage, LeafPage, tuple]:
        middle = len(page.keys) // 2
        if middle == 0:
            raise DatabaseError("page too small for a single cell")
        left, right = LeafPage(), LeafPage()
        left.keys, right.keys = page.keys[:middle], page.keys[middle:]
        left.sort_keys, right.sort_keys = page.sort_keys[:middle], page.sort_keys[middle:]
        left.cells, right.cells = page.cells[:middle], page.cells[middle:]
        page.share_out(left, right)
        return left, right, left.keys[-1]

    @staticmethod
    def _split_interior(page: InteriorPage) -> tuple[InteriorPage, InteriorPage, tuple]:
        middle = len(page.keys) // 2
        separator = page.keys[middle]
        left, right = InteriorPage(), InteriorPage()
        left.keys = page.keys[:middle]
        left.sort_keys = page.sort_keys[:middle]
        left.children = page.children[: middle + 1]
        right.keys = page.keys[middle + 1 :]
        right.sort_keys = page.sort_keys[middle + 1 :]
        right.children = page.children[middle + 1 :]
        page.share_out(left, right, _separator_bytes(separator))
        return left, right, separator

    def _remove_empty(self, path: list[tuple[int, Any, int]]) -> None:
        """Unlink an empty leaf from its parent, cascading if needed."""
        pno, _page, _ = path[-1]
        parents = path[:-1]
        if not parents:
            return  # empty root stays (an empty tree)
        parent_pno, parent, child_index = parents[-1]
        del parent.children[child_index]
        if parent.keys:
            # The separator between children[i-1] and children[i] is keys[i-1].
            drop = child_index - 1 if child_index > 0 else 0
            parent.adjust(-_separator_bytes(parent.keys[drop]))
            del parent.keys[drop]
            del parent.sort_keys[drop]
        self.pager.free(pno)
        self.pager.mark_dirty(parent_pno, parent)
        if not parent.children:
            self._remove_empty(parents)
        elif len(parent.children) == 1 and len(parents) == 1:
            # Root left with a single child: collapse the child into the
            # root page so the root page number stays stable.
            child_pno = parent.children[0]
            child = self.pager.get(child_pno)
            self.pager.mark_dirty(parent_pno, child)
            self.pager.free(child_pno)
