"""Row storage over B-trees: tables keyed by rowid, indexes by value+rowid."""

from __future__ import annotations

from typing import Iterator

from repro.errors import IntegrityError
from repro.sqlite.btree import BTree
from repro.sqlite.pager import Pager
from repro.sqlite.records import SqlValue, decode_record, encode_record
from repro.sqlite.schema import Index, Table


class TableStore:
    """Rows of one table plus maintenance of all its indexes.

    The table B-tree maps ``(rowid,)`` to the encoded row.  Each index maps
    ``(value, ..., rowid)`` to an empty payload.  An INTEGER PRIMARY KEY
    column aliases the rowid (SQLite semantics); other primary keys are
    enforced through a unique index created with the table.

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
        self._index_positions = {
            index.name: [table.column_index(c) for c in index.columns]
            for index in table.indexes
        }

    # ------------------------------------------------------------- writes

    def next_rowid(self) -> int:
        """Next unused rowid (max existing + 1, SQLite-style)."""
        last = self.tree.last_key()
        return (last[0] + 1) if last else 1

    def insert_row(self, values: tuple[SqlValue, ...], rowid: int | None = None) -> int:
        """Insert a row; returns the assigned rowid."""
        alias = self.table.rowid_alias
        if rowid is None:
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
        if self.tree.contains((rowid,)):
            raise IntegrityError(f"duplicate rowid {rowid} in {self.table.name!r}")
        self._check_unique(values, rowid)
        self.tree.insert((rowid,), encode_record(values))
        for index in self.table.indexes:
            self._index_trees[index.name].insert(self._index_key(index, values, rowid), b"")
        return rowid

    def delete_row(self, rowid: int, values: tuple[SqlValue, ...]) -> None:
        """Delete the row the caller matched as ``values``, and its index entries."""
        for index in self.table.indexes:
            self._index_trees[index.name].delete(self._index_key(index, values, rowid))
        self.tree.delete((rowid,))

    def update_row(
        self, rowid: int, old_values: tuple[SqlValue, ...], new_values: tuple[SqlValue, ...]
    ) -> None:
        """Replace the row the caller matched as ``old_values``, keeping every index in sync."""
        alias = self.table.rowid_alias
        if alias is not None and new_values[alias] != rowid:
            raise IntegrityError("updating an INTEGER PRIMARY KEY is not supported")
        self._check_unique(new_values, rowid)
        for index in self.table.indexes:
            old_key = self._index_key(index, old_values, rowid)
            new_key = self._index_key(index, new_values, rowid)
            if old_key != new_key:
                tree = self._index_trees[index.name]
                tree.delete(old_key)
                tree.insert(new_key, b"")
        self.tree.insert((rowid,), encode_record(new_values), replace=True)

    # ------------------------------------------------------------- reads

    def get_row(self, rowid: int) -> tuple[SqlValue, ...] | None:
        """Fetch one row by rowid, or None."""
        payload = self.tree.get((rowid,))
        if payload is None:
            return None
        return decode_record(payload)

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
            yield key[0], decode_record(payload)

    def index_rowids(
        self,
        index: Index,
        lo: tuple | None,
        hi: tuple | None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[int]:
        """Rowids whose index key falls in the range, in index order.

        Bounds are *value prefixes* (without the trailing rowid).  Open and
        closed bounds are both expressed by padding the prefix with a rowid
        sentinel below/above every real rowid, so the underlying B-tree scan
        is always inclusive.
        """
        if lo is None:
            lo_key = None
        else:
            lo_key = lo + (_MAX_ROWID,) if lo_open else lo + (_MIN_ROWID,)
        if hi is None:
            hi_key = None
        else:
            hi_key = hi + (_MIN_ROWID,) if hi_open else hi + (_MAX_ROWID,)
        for key, _payload in self._index_trees[index.name].scan(lo_key, hi_key):
            yield key[-1]

    def count(self) -> int:
        """Number of rows in the table (full scan)."""
        return self.tree.count()

    # ----------------------------------------------------------- internals

    def _index_key(self, index: Index, values: tuple[SqlValue, ...], rowid: int) -> tuple:
        return tuple(values[p] for p in self._index_positions[index.name]) + (rowid,)

    def _check_unique(self, values: tuple[SqlValue, ...], rowid: int) -> None:
        for index in self.table.indexes:
            if not index.unique:
                continue
            prefix = tuple(values[p] for p in self._index_positions[index.name])
            for other_rowid in self.index_rowids(index, prefix, prefix):
                if other_rowid != rowid:
                    raise IntegrityError(
                        f"UNIQUE constraint failed: {index.table_name}.{index.columns}"
                    )


_MIN_ROWID = -(2**62)
_MAX_ROWID = 2**62
