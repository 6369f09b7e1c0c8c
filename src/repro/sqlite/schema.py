"""Schema objects and the catalog (sqlite_master equivalent).

The catalog is itself a B-tree (rooted at a fixed page) whose rows are
``(type, name, tbl_name, rootpage, sql)`` — as in SQLite, the original DDL
text is stored and re-parsed when the database is opened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.sqlite.btree import BTree
from repro.sqlite.pager import Pager
from repro.sqlite.records import row_of

CATALOG_ROOT_PNO = 1
VALID_TYPES = {"INTEGER", "REAL", "TEXT", "BLOB"}


@dataclass
class Column:
    """One table column."""

    name: str
    type: str = "TEXT"
    primary_key: bool = False

    def __post_init__(self) -> None:
        self.type = self.type.upper()
        if self.type == "INT":
            self.type = "INTEGER"
        if self.type not in VALID_TYPES:
            raise SchemaError(f"unsupported column type {self.type!r}")


@dataclass
class Index:
    """A secondary index on one or more columns of a table."""

    name: str
    table_name: str
    columns: list[str]
    root_pno: int
    unique: bool = False
    sql: str = ""


@dataclass
class Table:
    """A table: columns, B-tree root, and its indexes."""

    name: str
    columns: list[Column]
    root_pno: int
    sql: str = ""
    indexes: list[Index] = field(default_factory=list)
    #: Index of an INTEGER PRIMARY KEY column (aliases the rowid), or None.
    rowid_alias: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column in table {self.name!r}")
        # Columns never change after construction (there is no ALTER), so
        # both per-row lookups are resolved here, once.
        self._positions = {name: position for position, name in enumerate(names)}
        self.rowid_alias = next(
            (
                position
                for position, column in enumerate(self.columns)
                if column.primary_key and column.type == "INTEGER"
            ),
            None,
        )

    def column_index(self, name: str) -> int:
        """Position of column ``name``; raises SchemaError if absent."""
        position = self._positions.get(name)
        if position is None:
            raise SchemaError(f"no column {name!r} in table {self.name!r}")
        return position

    @property
    def explicit_pk(self) -> int | None:
        """Index of a non-INTEGER primary key column (backed by an index)."""
        for position, column in enumerate(self.columns):
            if column.primary_key and column.type != "INTEGER":
                return position
        return None

    def index_on(self, column_name: str) -> Index | None:
        """An index whose leading column is ``column_name``, if any."""
        for index in self.indexes:
            if index.columns and index.columns[0] == column_name:
                return index
        return None


class Catalog:
    """The schema catalog, persisted in the catalog B-tree."""

    def __init__(self, pager: Pager) -> None:
        self.pager = pager
        self.tree = BTree(pager, CATALOG_ROOT_PNO)
        self.tables: dict[str, Table] = {}
        self._next_catalog_rowid = 1

    @classmethod
    def bootstrap(cls, pager: Pager) -> "Catalog":
        """Create the catalog tree in a fresh database (must be page 1)."""
        tree = BTree.create(pager)
        if tree.root_pno != CATALOG_ROOT_PNO:
            raise SchemaError(
                f"catalog root allocated at page {tree.root_pno}, expected {CATALOG_ROOT_PNO}"
            )
        return cls(pager)

    def persist_entry(self, kind: str, name: str, tbl_name: str, root: int, sql: str) -> None:
        """Append a catalog row (kind is 'table' or 'index')."""
        rowid = self._next_catalog_rowid
        self._next_catalog_rowid += 1
        self.tree.insert((rowid,), (kind, name, tbl_name, root, sql))

    def remove_entries(self, names: set[str]) -> None:
        """Delete the catalog rows for the named objects."""
        doomed = [
            key
            for key, payload in self.tree.scan()
            if row_of(payload)[1] in names
        ]
        for key in doomed:
            self.tree.delete(key)

    def entries(self) -> list[tuple]:
        """All catalog rows as tuples (kind, name, tbl, root, sql)."""
        return [row_of(payload) for _key, payload in self.tree.scan()]

    def register_table(self, table: Table) -> None:
        """Add a table to the in-memory schema (not persisted here)."""
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table

    def register_index(self, index: Index) -> None:
        """Attach an index to its table in the in-memory schema."""
        table = self.get_table(index.table_name)
        if any(existing.name == index.name for t in self.tables.values() for existing in t.indexes):
            raise SchemaError(f"index {index.name!r} already exists")
        table.indexes.append(index)

    def forget_table(self, name: str) -> Table:
        """Remove and return a table from the in-memory schema."""
        table = self.tables.pop(name, None)
        if table is None:
            raise SchemaError(f"no such table: {name}")
        return table

    def forget_index(self, name: str) -> Index:
        """Remove and return an index from the in-memory schema."""
        for table in self.tables.values():
            for index in table.indexes:
                if index.name == name:
                    table.indexes.remove(index)
                    return index
        raise SchemaError(f"no such index: {name}")

    def get_table(self, name: str) -> Table:
        """Look up a table; raises SchemaError if it does not exist."""
        table = self.tables.get(name)
        if table is None:
            raise SchemaError(f"no such table: {name}")
        return table

    def sync_next_rowid(self) -> None:
        """Resynchronize the catalog rowid counter after (re)loading."""
        last = self.tree.last_key()
        self._next_catalog_rowid = (last[0] + 1) if last else 1
