"""Row storage over B-trees: tables keyed by rowid, indexes by value+rowid.

Which pages a row write touches, and in what order, is simulated state: the
order decides what the pager cache evicts and spills (``repro.sqlite.database``,
"Statement lifecycle").  A page access may be dropped only where the same pages
were just accessed in the same order with nothing in between, so that the
repeat changes nothing the pager keeps.  One INSERT into a table with no unique
index is one descent of the table tree plus one per index: the rowid probe and
the insert share their descent (:meth:`BTree.insert_absent`).  With a unique
index the order stays probe, unique check, insert, because the unique check
runs between the two descents.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.errors import IntegrityError
from repro.sqlite.btree import BTree
from repro.sqlite.pager import Pager
from repro.sqlite.records import SqlValue, key_sort_tuple, row_of
from repro.sqlite.schema import Index, Table


class TableStore:
    """Rows of one table plus maintenance of all its indexes.

    The table B-tree maps ``(rowid,)`` to the row (``repro.sqlite.btree``,
    "Cell layout").  Each index maps ``(value, ..., rowid)`` to an empty
    payload.  An INTEGER PRIMARY KEY column aliases the rowid (SQLite
    semantics); other primary keys are enforced through a unique index
    created with the table.

    A store is part of a statement's plan and lives as long as the plan does:
    it holds handles (tree roots, index column positions) and no page, so
    building one reads nothing, and it is dropped with the plan whenever the
    catalog changes (:mod:`repro.sqlite.database`, "Statement lifecycle").
    """

    def __init__(self, table: Table, pager: Pager) -> None:
        self.table = table
        self.pager = pager
        self.tree = BTree(pager, table.root_pno)
        self._index_trees = {
            index.name: BTree(pager, index.root_pno) for index in table.indexes
        }
        # (tree, column positions) per index, in catalog order: the order in
        # which every row write keeps them in step.
        self._indexes = [
            (self._index_trees[index.name], [table.column_index(c) for c in index.columns])
            for index in table.indexes
        ]
        self._unique = [
            (tree, positions, index)
            for (tree, positions), index in zip(self._indexes, table.indexes)
            if index.unique
        ]

    # ------------------------------------------------------------- writes

    def next_rowid(self) -> int:
        """Next unused rowid (max existing + 1, SQLite-style)."""
        last = self.tree.last_key()
        return (last[0] + 1) if last else 1

    def insert_row(self, values: tuple[SqlValue, ...]) -> int:
        """Insert a row; returns the assigned rowid."""
        alias = self.table.rowid_alias
        if alias is not None and values[alias] is not None:
            rowid = values[alias]
            if not isinstance(rowid, int):
                raise IntegrityError(
                    f"INTEGER PRIMARY KEY value must be an integer, got {rowid!r}"
                )
        else:
            rowid = self.next_rowid()
        if alias is not None:
            values = values[:alias] + (rowid,) + values[alias + 1 :]
        key = (rowid,)
        if self._unique:
            if self.tree.contains(key):
                raise self._duplicate(rowid)
            self._check_unique(values, rowid)
            self.tree.insert(key, values)
        elif not self.tree.insert_absent(key, values):
            raise self._duplicate(rowid)
        for tree, positions in self._indexes:
            tree.insert(tuple([values[p] for p in positions]) + key, b"")
        return rowid

    def delete_row(self, rowid: int, values: tuple[SqlValue, ...]) -> None:
        """Delete the row the caller matched as ``values``, and its index entries."""
        for tree, positions in self._indexes:
            tree.delete(tuple([values[p] for p in positions]) + (rowid,))
        self.tree.delete((rowid,))

    def indexes_over(self, positions: list[int]) -> list[tuple[BTree, list[int]]]:
        """The indexes (tree, column positions) over any column at ``positions``,
        in catalog order: all that a write to those columns can change."""
        written = set(positions)
        return [index for index in self._indexes if written.intersection(index[1])]

    def update_row(
        self,
        rowid: int,
        old_values: tuple[SqlValue, ...],
        new_values: tuple[SqlValue, ...],
        indexes: list[tuple[BTree, list[int]]],
    ) -> None:
        """Replace the row the caller matched as ``old_values``, keeping
        ``indexes`` in sync: :meth:`indexes_over` the columns the new values
        may differ in (no other index can change)."""
        alias = self.table.rowid_alias
        if alias is not None and new_values[alias] != rowid:
            raise IntegrityError("updating an INTEGER PRIMARY KEY is not supported")
        if self._unique:
            # Every unique index is probed, written columns or not: the probe
            # is page access, which the pager's LRU order records.
            self._check_unique(new_values, rowid)
        for tree, positions in indexes:
            old = tuple([old_values[p] for p in positions])
            new = tuple([new_values[p] for p in positions])
            if old != new:
                tree.delete(old + (rowid,))
                tree.insert(new + (rowid,), b"")
        self.tree.insert((rowid,), new_values, replace=True)

    # ------------------------------------------------------------- reads

    def get_row(self, rowid: int) -> tuple[SqlValue, ...] | None:
        """Fetch one row by rowid, or None."""
        payload = self.tree.get((rowid,))
        if payload is None:
            return None
        return row_of(payload)

    def scan_rows(
        self,
        lo: int | None = None,
        hi: int | None = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[tuple[int, tuple[SqlValue, ...]]]:
        """Yield (rowid, values) over a rowid range."""
        lo_key = (lo,) if lo is not None else None
        hi_key = (hi,) if hi is not None else None
        for key, payload in self.tree.scan(lo_key, hi_key, lo_open, hi_open):
            yield key[0], row_of(payload)

    def index_rows(
        self,
        index: Index,
        lo: tuple | None,
        hi: tuple | None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[tuple[int, tuple[SqlValue, ...]]]:
        """Yield (rowid, values) of the rows whose index key falls in the range,
        in index order, each row fetched as its index entry is reached.

        One loop: it is ``get_row`` over the rowids of a :meth:`BTree.scan`
        of the index between the padded bounds, flattened, and touches the
        pages that pair touches in the same order -- the index
        descent, each entry's table lookup as the entry is reached, and, when
        the entries run to the end of a leaf, the re-descent past it that
        :meth:`BTree.scan` makes (the index payload is empty, so reading it
        touches nothing).
        """
        tree = self._index_trees[index.name]
        descend = tree._descend
        get = self.tree.get
        cursor, hi_sort = _index_bounds(lo, hi, lo_open, hi_open)
        after = False
        while True:
            leaf, path = descend(cursor, after)
            sort_keys = leaf.sort_keys
            if not sort_keys:
                return
            start = bisect_right(sort_keys, cursor) if after else bisect_left(sort_keys, cursor)
            keys = leaf.keys
            for position in range(start, len(keys)):
                if hi_sort is not None and sort_keys[position] > hi_sort:
                    return
                rowid = keys[position][-1]
                payload = get((rowid,))
                if payload is not None:
                    yield rowid, row_of(payload)
            if start < len(keys):
                cursor = sort_keys[-1]
            else:
                # Nothing at or past the cursor here (see BTree.scan).
                cursor = tree._upper_bound(path)
                if cursor is None:
                    return
            after = True

    # ----------------------------------------------------------- internals

    @staticmethod
    def _index_rowids(tree: BTree, prefix: tuple) -> Iterator[int]:
        """Rowids whose index key starts with the value ``prefix``, in index
        order: the prefix padded with a value that sorts below / above every
        rowid bounds one inclusive B-tree scan."""
        for key, _payload in tree.scan(prefix + (_BELOW_ROWIDS,), prefix + (_ABOVE_ROWIDS,)):
            yield key[-1]

    def _check_unique(self, values: tuple[SqlValue, ...], rowid: int) -> None:
        for tree, positions, index in self._unique:
            prefix = tuple([values[p] for p in positions])
            for other_rowid in self._index_rowids(tree, prefix):
                if other_rowid != rowid:
                    columns = ", ".join(f"{index.table_name}.{c}" for c in index.columns)
                    raise IntegrityError(f"UNIQUE constraint failed: {columns}")

    def _duplicate(self, rowid: int) -> IntegrityError:
        return IntegrityError(f"duplicate rowid {rowid} in {self.table.name!r}")


# Index keys end in an integer rowid; NULL sorts below every integer and a
# blob above, so these pad a value prefix past all of that prefix's rowids.
_BELOW_ROWIDS = None
_ABOVE_ROWIDS = b""
_SORT_BELOW_ROWIDS = key_sort_tuple((_BELOW_ROWIDS,))
_SORT_ABOVE_ROWIDS = key_sort_tuple((_ABOVE_ROWIDS,))


def _index_bounds(
    lo: tuple | None, hi: tuple | None, lo_open: bool, hi_open: bool
) -> tuple[tuple, tuple | None]:
    """Sort keys of the inclusive index range a value-prefix range covers:
    each prefix padded past its rowids by ``_BELOW_ROWIDS`` /
    ``_ABOVE_ROWIDS``, below for a closed lower bound and an open upper
    one, above otherwise (``()`` sorts below every key, ``None`` is no
    upper bound).  An equality probe
    passes one tuple as both bounds, and it is sorted once (a pad is one
    element of the flat sort key, two items, so ``[:-2]`` drops it)."""
    lo_sort, hi_sort = (), None
    if lo is not None:
        lo_sort = key_sort_tuple(lo) + (_SORT_ABOVE_ROWIDS if lo_open else _SORT_BELOW_ROWIDS)
    if hi is not None:
        prefix = lo_sort[:-2] if hi is lo else key_sort_tuple(hi)
        hi_sort = prefix + (_SORT_BELOW_ROWIDS if hi_open else _SORT_ABOVE_ROWIDS)
    return lo_sort, hi_sort
