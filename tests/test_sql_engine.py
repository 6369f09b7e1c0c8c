"""Unit tests for the query engine internals (planner, expressions)."""

import pytest

from repro.stack import Mode, StackConfig, build_stack
from repro.errors import SqlError
from repro.sqlite.sql import ast, parse
from repro.sqlite.sql.engine import (
    ExprCompiler,
    Parameters,
    choose_access_path,
    split_conjuncts,
    sql_compare,
    sql_truth,
)
from repro.sqlite.table import TableStore


def make_db():
    stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32))
    db = stack.open_database("t.db")
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c REAL)"
    )
    db.execute("CREATE INDEX idx_a ON t (a)")
    return db


def path_for(db, where_sql):
    statement = parse(f"SELECT id FROM t WHERE {where_sql}")
    table = db.catalog.get_table("t")
    compiler = ExprCompiler([("t", table)], Parameters())
    conjuncts = split_conjuncts(statement.where)
    store = TableStore(table, db.pager)
    path, leftovers = choose_access_path("t", store, conjuncts, set(), compiler)
    return path, leftovers


class TestValueSemantics:
    def test_sql_truth(self):
        assert not sql_truth(None)
        assert not sql_truth(0)
        assert not sql_truth(0.0)
        assert sql_truth(1)
        assert sql_truth("x")
        assert sql_truth(-2)

    def test_sql_compare_null_propagates(self):
        assert sql_compare(None, 1) is None
        assert sql_compare(1, None) is None

    def test_sql_compare_numeric(self):
        assert sql_compare(1, 2) == -1
        assert sql_compare(2.5, 2) == 1
        assert sql_compare(2, 2.0) == 0

    def test_sql_compare_cross_type(self):
        assert sql_compare(10**6, "a") == -1  # numbers sort before text
        assert sql_compare("z", b"a") == -1  # text before blob


class TestAccessPathSelection:
    def test_rowid_equality_wins(self):
        db = make_db()
        path, leftovers = path_for(db, "id = 5")
        assert path.kind == "rowid-eq"
        assert leftovers == []

    def test_rowid_alias_column_recognized(self):
        db = make_db()
        path, _ = path_for(db, "rowid = 5")
        assert path.kind == "rowid-eq"

    def test_index_equality(self):
        db = make_db()
        path, leftovers = path_for(db, "a = 5")
        assert path.kind == "index-eq"
        assert path.index.name == "idx_a"
        assert leftovers == []

    def test_rowid_eq_preferred_over_index(self):
        db = make_db()
        path, _ = path_for(db, "a = 5 AND id = 5")
        assert path.kind == "rowid-eq"

    def test_rowid_range(self):
        db = make_db()
        path, _ = path_for(db, "id > 2 AND id <= 8")
        assert path.kind == "rowid-range"
        assert path.lo_open and not path.hi_open

    def test_index_range(self):
        db = make_db()
        path, _ = path_for(db, "a >= 3")
        assert path.kind == "index-range"

    def test_unindexed_column_full_scan(self):
        db = make_db()
        path, leftovers = path_for(db, "b = 'x'")
        assert path.kind == "full"
        assert len(leftovers) == 1

    def test_flipped_comparison_recognized(self):
        db = make_db()
        path, _ = path_for(db, "5 = id")
        assert path.kind == "rowid-eq"
        path, _ = path_for(db, "5 > id")
        assert path.kind == "rowid-range"
        assert path.hi_open

    def test_leftover_predicates_preserved(self):
        db = make_db()
        path, leftovers = path_for(db, "id = 5 AND b = 'x' AND c > 1.0")
        assert path.kind == "rowid-eq"
        assert len(leftovers) == 2

    def test_or_disables_constraint_extraction(self):
        db = make_db()
        path, leftovers = path_for(db, "id = 5 OR id = 6")
        assert path.kind == "full"
        assert len(leftovers) == 1


class TestJoinPlans:
    def test_inner_lookup_by_rowid_join_key(self):
        db = make_db()
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
        db.execute("BEGIN")
        for i in range(1, 21):
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, i % 5, f"b{i}", 0.5))
            db.execute("INSERT INTO u VALUES (?, ?)", (i, i))
        db.execute("COMMIT")
        rows = db.execute(
            "SELECT COUNT(*) FROM u JOIN t ON t.id = u.t_id WHERE u.id <= 10"
        )
        assert rows == [(10,)]

    def test_join_on_indexed_column(self):
        db = make_db()
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, val INTEGER)")
        db.execute("BEGIN")
        for i in range(1, 13):
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, i % 3, "x", 0.0))
        db.execute("INSERT INTO u VALUES (1, 0), (2, 1), (3, 2)")
        db.execute("COMMIT")
        rows = db.execute("SELECT COUNT(*) FROM u JOIN t ON t.a = u.val")
        assert rows == [(12,)]


class TestCompilerErrors:
    def test_aggregate_in_where_rejected(self):
        db = make_db()
        with pytest.raises(SqlError):
            db.execute("SELECT id FROM t WHERE COUNT(*) > 1")

    def test_ambiguous_column(self):
        db = make_db()
        db.execute("CREATE TABLE t2 (id INTEGER PRIMARY KEY, a INTEGER)")
        with pytest.raises(SqlError):
            db.execute("SELECT a FROM t JOIN t2 ON t.id = t2.id")

    def test_arithmetic_on_text_rejected(self):
        db = make_db()
        db.execute("INSERT INTO t VALUES (1, 1, 'x', 0.0)")
        with pytest.raises(SqlError):
            db.execute("SELECT b + 1 FROM t")


class TestLikeSemantics:
    @pytest.fixture
    def db(self):
        db = make_db()
        db.execute(
            "INSERT INTO t (id, b) VALUES (1, 'hello'), (2, 'help'), (3, 'world'), (4, NULL)"
        )
        return db

    def test_percent(self, db):
        assert len(db.execute("SELECT id FROM t WHERE b LIKE 'hel%'")) == 2

    def test_underscore(self, db):
        assert db.execute("SELECT id FROM t WHERE b LIKE 'hel_'") == [(2,)]

    def test_case_insensitive(self, db):
        assert db.execute("SELECT id FROM t WHERE b LIKE 'HELLO'") == [(1,)]

    def test_null_never_matches(self, db):
        assert db.execute("SELECT id FROM t WHERE b LIKE '%'") != [(4,)]

    def test_regex_metacharacters_escaped(self, db):
        db.execute("INSERT INTO t (id, b) VALUES (9, 'a.c')")
        assert db.execute("SELECT id FROM t WHERE b LIKE 'a.c'") == [(9,)]
        assert db.execute("SELECT id FROM t WHERE b LIKE 'abc'") == []
