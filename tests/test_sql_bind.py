"""A value enters the engine at bind, and only there.

``Parameters.bind`` (``repro.sqlite.sql.engine``) makes every argument an
exact SQL value, as ``sqlite3`` types a value when it is bound, and refuses a
value of no SQL type before the statement touches a page.  Held here against
the standard library's ``sqlite3`` (test-only):

- ``IntEnum``, ``bool`` and ``str``-subclass arguments select, update and
  index the rows their exact values would, in an indexed column, a filter on
  an unindexed one, a rowid equality and an ``UPDATE ... SET``;
- ``list``, ``Decimal`` and ``object()`` arguments raise at bind, with no page
  dirtied, and a statement that fails at bind is not cached, counted or
  charged;
- a ``UNIQUE`` violation names its columns as ``sqlite3`` does;
- a failed statement inside an explicit transaction is not undone (a known
  model limit, pinned as a strict xfail).
"""

from __future__ import annotations

import enum
import sqlite3
from decimal import Decimal

import pytest

from repro.errors import DatabaseError, IntegrityError, SqlError
from repro.stack import Mode, StackConfig, build_stack

MODES = [Mode.RBJ, Mode.WAL, Mode.XFTL]


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Name(str):
    pass


class Color(str, enum.Enum):
    RED = "red"

    def __str__(self):
        return "Color.RED"  # str() of a member; bind stores its value, "red"


def make_db(mode=Mode.XFTL):
    stack = build_stack(StackConfig(mode=mode, num_blocks=256, pages_per_block=32))
    return stack, stack.open_database("t.db")


def both(schema, rows=()):
    """This engine and ``sqlite3`` (autocommit), each given ``schema`` and ``rows``."""
    _stack, ours = make_db()
    reference = sqlite3.connect(":memory:", isolation_level=None)
    for connection in (ours, reference):
        for sql in schema:
            connection.execute(sql)
        for row in rows:
            connection.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    return ours, reference


def same(ours, reference, sql, args=()):
    """Both run ``sql``; the rows must match, types included."""
    got = [tuple(row) for row in ours.execute(sql, args)]
    assert repr(got) == repr(reference.execute(sql, args).fetchall())
    return got


SCHEMA = ["CREATE TABLE t (id INTEGER PRIMARY KEY, k, v)", "CREATE INDEX t_k ON t (k)"]
ROWS = [
    (1, Level.LOW, Level.HIGH),
    (2, True, False),
    (3, Name("ann"), Name("bob")),
    (4, Color.RED, Color.RED),
    (5, 300, "red"),
]
ARGUMENTS = [Level.LOW, Level.HIGH, True, False, Name("ann"), Name("bob"), Color.RED]


class TestSubclassArgumentsAgreeWithSqlite:
    def test_rows_read_back_as_exact_values(self):
        ours, reference = both(SCHEMA, ROWS)
        rows = same(ours, reference, "SELECT id, k, v FROM t ORDER BY id")
        assert rows[1] == (2, 1, 0) and type(rows[1][1]) is int
        assert type(rows[2][1]) is str and rows[3] == (4, "red", "red")

    @pytest.mark.parametrize("value", ARGUMENTS, ids=repr)
    def test_indexed_column(self, value):
        ours, reference = both(SCHEMA, ROWS)
        same(ours, reference, "SELECT id FROM t WHERE k = ? ORDER BY id", (value,))
        same(ours, reference, "SELECT id FROM t WHERE k >= ? ORDER BY id", (value,))

    @pytest.mark.parametrize("value", ARGUMENTS, ids=repr)
    def test_filter_on_an_unindexed_column(self, value):
        ours, reference = both(SCHEMA, ROWS)
        same(ours, reference, "SELECT id FROM t WHERE v = ? ORDER BY id", (value,))
        same(ours, reference, "SELECT id FROM t WHERE v < ? ORDER BY id", (value,))

    @pytest.mark.parametrize("value", [True, Level.LOW, Level.HIGH], ids=repr)
    def test_rowid_equality(self, value):
        ours, reference = both(SCHEMA, ROWS + [(300, "x", "y")])
        assert same(ours, reference, "SELECT id, v FROM t WHERE id = ?", (value,))

    def test_update_set(self):
        ours, reference = both(SCHEMA, ROWS)
        for sql, args in [
            ("UPDATE t SET k = ?, v = ? WHERE id = ?", (Level.HIGH, True, 1)),
            ("UPDATE t SET k = ? WHERE k = ?", (Name("cat"), Name("ann"))),
            ("UPDATE t SET v = ? WHERE id = ?", (Color.RED, True)),
        ]:
            ours.execute(sql, args)
            reference.execute(sql, args)
        same(ours, reference, "SELECT id, k, v FROM t ORDER BY id")
        by_k = "SELECT id FROM t WHERE k = ? ORDER BY id"
        assert same(ours, reference, by_k, (Level.HIGH,)) == [(1,), (5,)]
        assert same(ours, reference, by_k, ("cat",)) == [(3,)]


class TestUnsupportedArgumentsFailAtBind:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "value", [[1], Decimal("1.5"), object()], ids=lambda value: type(value).__name__
    )
    def test_raised_with_no_page_dirtied(self, mode, value):
        stack, db = make_db(mode)
        db.execute(SCHEMA[0])
        db.execute(SCHEMA[1])
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (1, 1, 1))
        dirty = set(db.pager._dirty)
        writes = stack.device.counters.writes
        with pytest.raises(DatabaseError, match="unsupported SQL value type"):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (2, value, 2))
        with pytest.raises(DatabaseError, match="unsupported SQL value type"):
            db.execute("UPDATE t SET v = ? WHERE id = 1", (value,))
        assert db.pager._dirty == dirty
        assert stack.device.counters.writes == writes
        db.execute("COMMIT")
        assert db.execute("SELECT id, k, v FROM t") == [(1, 1, 1)]
        with pytest.raises(sqlite3.Error):  # sqlite3 refuses them at bind too
            sqlite3.connect(":memory:").execute("SELECT ?", (value,))


class TestBindFailureLeavesNoTrace:
    """A statement that fails at bind is not cached, counted or charged, as
    one that fails to prepare is not."""

    @pytest.mark.parametrize("mode", MODES)
    def test_not_cached_counted_or_charged(self, mode):
        stack = build_stack(
            StackConfig(mode=mode, num_blocks=256, pages_per_block=32, metrics=True)
        )
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (v)")
        sql = "INSERT INTO t VALUES (?)"
        statements = stack.obs.registry.counter_value("sqlite.statements")
        now_us = stack.clock.now_us
        with pytest.raises(SqlError, match="requires at least 1 parameters"):
            db.execute(sql, ())
        with pytest.raises(DatabaseError, match="unsupported SQL value type"):
            db.execute(sql, (object(),))
        assert sql not in db._prepared
        assert stack.obs.registry.counter_value("sqlite.statements") == statements
        assert stack.clock.now_us == now_us


class TestUniqueErrorText:
    @pytest.mark.parametrize(
        "index, row",
        [
            ("CREATE UNIQUE INDEX t_k ON t (k)", (2, 10, 21)),
            ("CREATE UNIQUE INDEX t_kv ON t (k, v)", (2, 10, 20)),
        ],
        ids=["one column", "two columns"],
    )
    def test_matches_sqlite(self, index, row):
        schema = ["CREATE TABLE t (id INTEGER PRIMARY KEY, k, v)", index]
        ours, reference = both(schema, [(1, 10, 20)])
        with pytest.raises(sqlite3.IntegrityError) as expected:
            reference.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        with pytest.raises(IntegrityError) as got:
            ours.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        assert str(got.value) == str(expected.value)


class TestFailedStatementInExplicitTransaction:
    @pytest.mark.xfail(
        strict=True,
        reason="a failed statement inside BEGIN is not undone: only an autocommit "
        "statement rolls back, so the rows it wrote before failing commit",
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_is_undone_as_in_sqlite(self, mode):
        _stack, ours = make_db(mode)
        reference = sqlite3.connect(":memory:", isolation_level=None)
        for connection in (ours, reference):
            connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, u)")
            connection.execute("CREATE UNIQUE INDEX t_u ON t (u)")
            connection.execute("INSERT INTO t VALUES (1, 10)")
            connection.execute("BEGIN")
            with pytest.raises(Exception, match="UNIQUE constraint failed: t.u"):
                connection.execute("INSERT INTO t VALUES (2, 20), (3, 10)")
            connection.execute("COMMIT")
        assert reference.execute("SELECT * FROM t").fetchall() == [(1, 10)]
        assert ours.execute("SELECT * FROM t") == [(1, 10)]
