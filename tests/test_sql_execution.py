"""Integration tests for SQL execution through the full stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stack import Mode, StackConfig, build_stack
from repro.errors import IntegrityError, SchemaError, SqlError
from repro.sqlite import database


def make_db(mode=Mode.XFTL, num_blocks=256):
    stack = build_stack(StackConfig(mode=mode, num_blocks=num_blocks, pages_per_block=32))
    return stack.open_database("test.db")


@pytest.fixture
def db():
    return make_db()


@pytest.fixture
def users(db):
    db.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)")
    db.execute(
        "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), "
        "(3, 'carol', 35), (4, 'dan', 25)"
    )
    return db


class TestSelect:
    def test_select_all(self, users):
        assert len(users.execute("SELECT * FROM users")) == 4

    def test_projection(self, users):
        rows = users.execute("SELECT name FROM users WHERE id = 1")
        assert rows == [("alice",)]

    def test_where_comparisons(self, users):
        assert len(users.execute("SELECT id FROM users WHERE age > 25")) == 2
        assert len(users.execute("SELECT id FROM users WHERE age >= 25")) == 4
        assert len(users.execute("SELECT id FROM users WHERE age != 25")) == 2

    def test_and_or_not(self, users):
        rows = users.execute(
            "SELECT name FROM users WHERE age = 25 AND NOT name = 'bob'"
        )
        assert rows == [("dan",)]
        rows = users.execute("SELECT name FROM users WHERE id = 1 OR id = 3 ORDER BY id")
        assert rows == [("alice",), ("carol",)]

    def test_in_and_between(self, users):
        assert len(users.execute("SELECT id FROM users WHERE id IN (1, 3, 99)")) == 2
        assert len(users.execute("SELECT id FROM users WHERE age BETWEEN 25 AND 30")) == 3

    def test_like(self, users):
        rows = users.execute("SELECT name FROM users WHERE name LIKE 'c%'")
        assert rows == [("carol",)]

    def test_order_by_desc_limit_offset(self, users):
        rows = users.execute("SELECT name FROM users ORDER BY age DESC, name LIMIT 2 OFFSET 1")
        assert rows == [("alice",), ("bob",)]

    def test_distinct(self, users):
        rows = users.execute("SELECT DISTINCT age FROM users ORDER BY age")
        assert rows == [(25,), (30,), (35,)]

    def test_aggregates(self, users):
        assert users.execute("SELECT COUNT(*) FROM users") == [(4,)]
        assert users.execute("SELECT SUM(age) FROM users") == [(115,)]
        assert users.execute("SELECT MIN(age), MAX(age) FROM users") == [(25, 35)]
        assert users.execute("SELECT AVG(age) FROM users") == [(28.75,)]

    def test_count_distinct(self, users):
        assert users.execute("SELECT COUNT(DISTINCT age) FROM users") == [(3,)]

    def test_aggregate_on_empty_set(self, users):
        assert users.execute("SELECT SUM(age) FROM users WHERE id > 100") == [(None,)]
        assert users.execute("SELECT COUNT(*) FROM users WHERE id > 100") == [(0,)]

    def test_rowid_visible(self, users):
        rows = users.execute("SELECT rowid FROM users WHERE name = 'bob'")
        assert rows == [(2,)]

    def test_expression_select(self, db):
        assert db.execute("SELECT 2 + 3 * 4") == [(14,)]

    def test_arithmetic_on_columns(self, users):
        rows = users.execute("SELECT age * 2 FROM users WHERE id = 2")
        assert rows == [(50,)]

    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0") == [(None,)]

    def test_null_comparisons_filtered(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, NULL), (2, 5)")
        assert db.execute("SELECT id FROM t WHERE v = 5") == [(2,)]
        assert db.execute("SELECT id FROM t WHERE v IS NULL") == [(1,)]
        assert db.execute("SELECT id FROM t WHERE v IS NOT NULL") == [(2,)]

    def test_unknown_column_rejected(self, users):
        with pytest.raises(SqlError):
            users.execute("SELECT bogus FROM users")

    def test_parameter_count_checked(self, users):
        with pytest.raises(SqlError):
            users.execute("SELECT * FROM users WHERE id = ?")


class TestJoins:
    @pytest.fixture
    def shop(self, users):
        users.execute("CREATE TABLE orders (oid INTEGER PRIMARY KEY, uid INTEGER, amt REAL)")
        users.execute(
            "INSERT INTO orders VALUES (1, 1, 10.0), (2, 2, 20.0), (3, 1, 30.0), (4, 9, 40.0)"
        )
        return users

    def test_inner_join(self, shop):
        rows = shop.execute(
            "SELECT u.name, o.amt FROM users u JOIN orders o ON u.id = o.uid ORDER BY o.oid"
        )
        assert rows == [("alice", 10.0), ("bob", 20.0), ("alice", 30.0)]

    def test_join_with_filter_on_both(self, shop):
        rows = shop.execute(
            "SELECT u.name FROM users u JOIN orders o ON u.id = o.uid "
            "WHERE o.amt > 15 AND u.age = 30"
        )
        assert rows == [("alice",)]

    def test_three_way_join(self, shop):
        shop.execute("CREATE TABLE tags (tid INTEGER PRIMARY KEY, oid INTEGER, label TEXT)")
        shop.execute("INSERT INTO tags VALUES (1, 1, 'gift'), (2, 3, 'rush')")
        rows = shop.execute(
            "SELECT u.name, t.label FROM users u "
            "JOIN orders o ON u.id = o.uid JOIN tags t ON t.oid = o.oid "
            "ORDER BY t.tid"
        )
        assert rows == [("alice", "gift"), ("alice", "rush")]

    def test_join_aggregate(self, shop):
        rows = shop.execute(
            "SELECT SUM(o.amt) FROM users u JOIN orders o ON u.id = o.uid WHERE u.id = 1"
        )
        assert rows == [(40.0,)]


class TestDml:
    def test_insert_partial_columns(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b TEXT)")
        db.execute("INSERT INTO t (id, b) VALUES (1, 'bee')")
        assert db.execute("SELECT a, b FROM t") == [(None, "bee")]

    def test_insert_auto_rowid(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t (v) VALUES ('a')")
        db.execute("INSERT INTO t (v) VALUES ('b')")
        assert db.execute("SELECT id, v FROM t ORDER BY id") == [(1, "a"), (2, "b")]

    def test_duplicate_pk_rejected(self, users):
        with pytest.raises(IntegrityError):
            users.execute("INSERT INTO users VALUES (1, 'dup', 1)")

    def test_text_primary_key_unique_via_autoindex(self, db):
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO kv VALUES ('a', '1')")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO kv VALUES ('a', '2')")

    def test_update_with_where(self, users):
        users.execute("UPDATE users SET age = age + 1 WHERE age = 25")
        assert users.execute("SELECT COUNT(*) FROM users WHERE age = 26") == [(2,)]

    def test_update_all_rows(self, users):
        users.execute("UPDATE users SET age = 0")
        assert users.execute("SELECT SUM(age) FROM users") == [(0,)]

    def test_delete_with_where(self, users):
        users.execute("DELETE FROM users WHERE age = 25")
        assert users.execute("SELECT COUNT(*) FROM users") == [(2,)]

    def test_update_maintains_index(self, users):
        users.execute("CREATE INDEX idx_age ON users (age)")
        users.execute("UPDATE users SET age = 99 WHERE id = 1")
        assert users.execute("SELECT name FROM users WHERE age = 99") == [("alice",)]
        assert users.execute("SELECT COUNT(*) FROM users WHERE age = 30") == [(0,)]

    def test_delete_maintains_index(self, users):
        users.execute("CREATE INDEX idx_age ON users (age)")
        users.execute("DELETE FROM users WHERE id = 2")
        assert users.execute("SELECT COUNT(*) FROM users WHERE age = 25") == [(1,)]


class TestDdl:
    def test_create_index_populates_existing_rows(self, users):
        users.execute("CREATE INDEX idx_age ON users (age)")
        assert users.execute("SELECT COUNT(*) FROM users WHERE age = 25") == [(2,)]

    def test_drop_table(self, users):
        users.execute("DROP TABLE users")
        with pytest.raises(SchemaError):
            users.execute("SELECT * FROM users")

    def test_drop_index(self, users):
        users.execute("CREATE INDEX idx_age ON users (age)")
        users.execute("DROP INDEX idx_age")
        assert len(users.execute("SELECT id FROM users WHERE age = 25")) == 2

    def test_create_existing_table_rejected(self, users):
        with pytest.raises(SchemaError):
            users.execute("CREATE TABLE users (x TEXT)")
        users.execute("CREATE TABLE IF NOT EXISTS users (x TEXT)")  # no error

    def test_schema_persists_across_reopen(self, users):
        fs = users.fs
        db2 = __import__("repro.sqlite.database", fromlist=["Connection"]).Connection(
            fs, "test.db", users.journal_mode
        )
        assert db2.execute("SELECT COUNT(*) FROM users") == [(4,)]

    def test_ddl_inside_rolled_back_txn_forgotten(self, db):
        db.execute("CREATE TABLE keep (id INTEGER PRIMARY KEY)")
        db.execute("BEGIN")
        db.execute("CREATE TABLE temp (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO temp VALUES (1)")
        db.execute("ROLLBACK")
        with pytest.raises(SchemaError):
            db.execute("SELECT * FROM temp")
        db.execute("CREATE TABLE temp (id INTEGER PRIMARY KEY)")  # name is free again


class TestTransactions:
    @pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
    def test_rollback_restores_state(self, mode):
        db = make_db(mode)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'original')")
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'changed' WHERE id = 1")
        db.execute("INSERT INTO t VALUES (2, 'extra')")
        assert db.execute("SELECT v FROM t WHERE id = 1") == [("changed",)]
        db.execute("ROLLBACK")
        assert db.execute("SELECT v FROM t WHERE id = 1") == [("original",)]
        assert db.execute("SELECT COUNT(*) FROM t") == [(1,)]

    @pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
    def test_commit_persists(self, mode):
        db = make_db(mode)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM t") == [(20,)]

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            db.execute("BEGIN")
        db.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, db):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            db.execute("COMMIT")

    def test_autocommit_statement_failure_rolls_back(self, users):
        # Multi-row insert where the second row violates the PK: the whole
        # statement must be undone.
        with pytest.raises(IntegrityError):
            users.execute("INSERT INTO users VALUES (10, 'x', 1), (1, 'dup', 1)")
        assert users.execute("SELECT COUNT(*) FROM users WHERE id = 10") == [(0,)]


class TestPreparedStatements:
    def test_too_few_parameters_raise_before_any_row_is_touched(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
        insert = "INSERT INTO t (id, a) VALUES (?, ?), (?, ?)"
        db.execute("BEGIN")
        with pytest.raises(SqlError, match="statement requires at least 4 parameters, got 3"):
            db.execute(insert, (1, 10, 2))
        db.execute("COMMIT")
        # The first row's arguments were all there; it must not have gone in.
        assert db.execute("SELECT * FROM t") == []
        # The same (now warm) statement, enough arguments, then a surplus one.
        db.execute(insert, (1, 10, 2, 20))
        db.execute(insert, (3, 30, 4, 40, "ignored"))
        assert db.execute("SELECT id, a FROM t") == [(1, 10), (2, 20), (3, 30), (4, 40)]
        with pytest.raises(SqlError, match="statement requires at least 4 parameters, got 0"):
            db.execute(insert)

    def test_statement_map_evicts_the_least_recently_used_text(self, users, monkeypatch):
        parsed = []
        parse = database.parse

        def counting_parse(sql):
            parsed.append(sql)
            return parse(sql)

        monkeypatch.setattr(database, "parse", counting_parse)
        early = "SELECT name FROM users WHERE id = ?"
        late = "SELECT age FROM users WHERE id = ?"
        assert users.execute(early, (1,)) == [("alice",)]
        for n in range(600):  # more one-shot texts than the map holds
            assert users.execute(f"SELECT {n}") == [(n,)]
            assert users.execute(early, (2,)) == [("bob",)]
        # A text first seen after the map filled up is admitted like any other,
        # and one in use throughout was never the least recently used.
        for _ in range(10):
            assert users.execute(late, (3,)) == [(35,)]
        assert parsed.count(late) == 1
        assert parsed.count(early) == 1
        for n in range(600, 1200):
            users.execute(f"SELECT {n}")
            assert len(users._prepared) <= database.PREPARED_STATEMENTS
        assert len(users._prepared) == database.PREPARED_STATEMENTS


class TestSqlProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=1, max_value=30),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=60,
        )
    )
    def test_engine_matches_reference_dict(self, ops):
        db = make_db()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        reference = {}
        for op, key, value in ops:
            if op == "insert":
                if key in reference:
                    continue
                db.execute("INSERT INTO t VALUES (?, ?)", (key, value))
                reference[key] = value
            elif op == "update":
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value, key))
                if key in reference:
                    reference[key] = value
            else:
                db.execute("DELETE FROM t WHERE id = ?", (key,))
                reference.pop(key, None)
        rows = db.execute("SELECT id, v FROM t ORDER BY id")
        assert rows == sorted(reference.items())
        # The index agrees with the table for every stored value.
        for key, value in reference.items():
            assert (key,) in [
                (r[0],) for r in db.execute("SELECT id FROM t WHERE v = ?", (value,))
            ]
