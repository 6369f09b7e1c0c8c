"""Access paths select what their conjuncts select, and cost what they should.

A plan binds one row function per access path (``repro.sqlite.sql.engine``,
``AccessPath``).  Three things are held here:

- regression cases, each checked against the standard library's ``sqlite3``
  (test-only): rowid bounds that are floats, text or NULL, an index range with
  only an upper bound over a NULL key, and negative LIMIT / OFFSET;
- a property: for ``=``, ``<``, ``<=``, ``>``, ``>=`` on the rowid and on an
  indexed column, with bounds drawn from ints, floats, NULL, text and bytes,
  the rows a path selects are the rows the same predicate selects as a filter;
- count guards on the host work of a statement: one B-tree descent per point
  SELECT, one per tree per INSERT into a table without a unique index, and no
  generator behind a rowid-eq path.
"""

from __future__ import annotations

import inspect
import math
import sqlite3
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, SqlError
from repro.sqlite.btree import BTree, InteriorPage
from repro.sqlite.table import _ABOVE_ROWIDS, _BELOW_ROWIDS
from repro.stack import Mode, StackConfig, build_stack
from tests.test_sqlite_records import nested_sort_key


def make_db():
    stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32))
    return stack.open_database("t.db")


# ------------------------------------------------------------- regressions

# (id, v): a 5-row table with one NULL in the indexed column.
ROWS = [(1, 10), (2, 20), (3, None), (4, 30), (5, 40)]
SCHEMA = ["CREATE TABLE t (id INTEGER PRIMARY KEY, v)", "CREATE INDEX t_v ON t (v)"]


def both():
    """The regression table in this engine and in ``sqlite3``."""
    ours, reference = make_db(), sqlite3.connect(":memory:")
    for sql in SCHEMA:
        ours.execute(sql)
        reference.execute(sql)
    for row in ROWS:
        ours.execute("INSERT INTO t VALUES (?, ?)", row)
        reference.execute("INSERT INTO t VALUES (?, ?)", row)
    return ours, reference


def same_rows(sql, args=()):
    ours, reference = both()
    got = ours.execute(sql, args)
    assert got == reference.execute(sql, args).fetchall()
    return got


class TestRowidPathsAgreeWithSqlite:
    def test_integral_float_equality(self):
        assert same_rows("SELECT id FROM t WHERE id = ?", (2.0,)) == [(2,)]

    def test_fractional_lower_bound_rounds_up(self):
        assert same_rows("SELECT id FROM t WHERE id > ?", (3.5,)) == [(4,), (5,)]
        assert same_rows("SELECT id FROM t WHERE id >= ?", (3.5,)) == [(4,), (5,)]

    def test_fractional_upper_bound_rounds_down(self):
        assert same_rows("SELECT id FROM t WHERE id < ?", (2.5,)) == [(1,), (2,)]
        assert same_rows("SELECT id FROM t WHERE id <= ?", (2.5,)) == [(1,), (2,)]

    def test_text_bound_is_above_every_integer(self):
        assert same_rows("SELECT id FROM t WHERE id < ?", ("a",)) == [(i,) for i in range(1, 6)]
        assert same_rows("SELECT id FROM t WHERE id > ?", ("a",)) == []

    def test_null_bound_selects_nothing(self):
        assert same_rows("SELECT id FROM t WHERE id > ?", (None,)) == []
        assert same_rows("SELECT id FROM t WHERE id = ?", (None,)) == []

    def test_delete_with_a_null_bound_deletes_nothing(self):
        ours, reference = both()
        ours.execute("DELETE FROM t WHERE id > ?", (None,))
        reference.execute("DELETE FROM t WHERE id > ?", (None,))
        select = "SELECT id, v FROM t ORDER BY id"
        assert ours.execute(select) == reference.execute(select).fetchall() == ROWS


class TestIndexRangeAgreesWithSqlite:
    def test_upper_bound_only_skips_null_keys(self):
        assert same_rows("SELECT id FROM t WHERE v < 25 ORDER BY id") == [(1,), (2,)]
        assert same_rows("SELECT id FROM t WHERE v <= ? ORDER BY id", ("z",)) == [
            (1,), (2,), (4,), (5,)
        ]


class TestLimitAgreesWithSqlite:
    def test_negative_limit_means_no_limit(self):
        assert same_rows("SELECT id FROM t ORDER BY id LIMIT -1") == [(i,) for i in range(1, 6)]
        assert same_rows("SELECT id FROM t ORDER BY id LIMIT ? OFFSET ?", (-3, 2)) == [
            (3,), (4,), (5,)
        ]

    def test_negative_offset_means_zero(self):
        assert same_rows("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET -1") == [(1,), (2,)]

    def test_non_integer_limit_is_still_an_error(self):
        ours, _reference = both()
        with pytest.raises(SqlError, match="LIMIT/OFFSET must be integers"):
            ours.execute("SELECT id FROM t LIMIT ?", ("x",))


# ---------------------------------------------------------------- property

_OPS = ["=", "<", "<=", ">", ">="]
_N = 8
_STORED = st.one_of(
    st.integers(-3, 12),
    st.floats(-3, 12, allow_nan=False),
    st.none(),
    st.text("ab", max_size=2),
    st.binary(max_size=2),
)
# NaN is left out: a filter compares it equal to every number, a path as NULL.
_BOUNDS = st.one_of(
    st.integers(-2, _N + 2),
    st.floats(-2, _N + 2, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, 1e300, -0.0]),
    st.none(),
    st.text("ab", max_size=2),
    st.binary(max_size=2),
)


def _path_kind(db, sql):
    return db._prepared[sql].scans[0].path.kind


class TestPathsSelectWhatFiltersSelect:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(_STORED, min_size=_N, max_size=_N),
        present=st.lists(st.booleans(), min_size=_N, max_size=_N),
        checks=st.lists(st.tuples(st.sampled_from(_OPS), _BOUNDS), min_size=1, max_size=12),
    )
    def test_rowid_and_index_paths(self, values, present, checks):
        db = make_db()
        # p has an index on v and q does not; the same rows, with gaps in the rowids.
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, v)")
        db.execute("CREATE INDEX p_v ON p (v)")
        db.execute("CREATE TABLE q (id INTEGER PRIMARY KEY, v)")
        db.execute("BEGIN")
        for rowid, (value, keep) in enumerate(zip(values, present), 1):
            if keep:
                db.execute("INSERT INTO p VALUES (?, ?)", (rowid, value))
                db.execute("INSERT INTO q VALUES (?, ?)", (rowid, value))
        db.execute("COMMIT")
        for op, bound in checks:
            rowid_path = f"SELECT id FROM p WHERE id {op} ?"
            rowid_filter = f"SELECT id FROM p WHERE id + 0 {op} ?"
            assert sorted(db.execute(rowid_path, (bound,))) == sorted(
                db.execute(rowid_filter, (bound,))
            ), (op, bound)
            assert _path_kind(db, rowid_path) == ("rowid-eq" if op == "=" else "rowid-range")
            assert _path_kind(db, rowid_filter) == "full"

            index_path = f"SELECT id FROM p WHERE v {op} ?"
            index_filter = f"SELECT id FROM q WHERE v {op} ?"
            assert sorted(db.execute(index_path, (bound,))) == sorted(
                db.execute(index_filter, (bound,))
            ), (op, bound)
            assert _path_kind(db, index_path) == ("index-eq" if op == "=" else "index-range")
            assert _path_kind(db, index_filter) == "full"


# ------------------------------------------------------------ count guards


@pytest.fixture
def descents(monkeypatch):
    """Counts ``BTree._descend`` calls: one per trip from a root to a leaf."""
    counter = {"n": 0}
    original = BTree._descend

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BTree, "_descend", counting)
    return counter


@pytest.fixture
def loaded():
    db = make_db()
    db.execute("CREATE TABLE plain (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)")
    db.execute("CREATE INDEX plain_a ON plain (a)")
    db.execute("CREATE INDEX plain_b ON plain (b)")
    db.execute("BEGIN")
    for i in range(1, 400):
        db.execute("INSERT INTO plain VALUES (?, ?, ?, ?)", (i, i % 7, i % 11, f"row {i}" * 4))
    db.execute("COMMIT")
    return db


class TestDescentCounts:
    def test_one_descent_per_point_select(self, loaded, descents):
        select = "SELECT c FROM plain WHERE id = ?"
        loaded.execute(select, (1,))
        descents["n"] = 0
        for rowid in range(100, 150):
            assert loaded.execute(select, (rowid,)) == [(f"row {rowid}" * 4,)]
        assert descents["n"] == 50

    def test_one_descent_per_tree_per_insert_without_a_unique_index(self, loaded, descents):
        insert = "INSERT INTO plain VALUES (?, ?, ?, ?)"
        loaded.execute(insert, (1000, 1, 1, "warm"))
        descents["n"] = 0
        for rowid in range(1001, 1021):
            loaded.execute(insert, (rowid, rowid % 7, rowid % 11, "x"))
        assert descents["n"] == 20 * (1 + 2)  # the table and its two indexes

    def test_a_duplicate_rowid_still_raises_after_one_descent(self, loaded, descents):
        loaded.execute("BEGIN")  # an autocommit failure would reload the catalog
        descents["n"] = 0
        with pytest.raises(IntegrityError, match="^duplicate rowid 5 in 'plain'$"):
            loaded.execute("INSERT INTO plain VALUES (5, 0, 0, 'again')")
        assert descents["n"] == 1
        loaded.execute("COMMIT")
        assert loaded.execute("SELECT a, b FROM plain WHERE id = 5") == [(5, 5)]


class TestIndexRangesOverMixedTypes:
    """``TableStore.index_rows`` over an index holding NULL, int, float and
    text values yields what a filter over every row yields, in index order,
    for equality probes and for open, closed and one-sided ranges."""

    VALUES = [None, -(2**64), -3, -0.0, 0, 0.0, 0.5, 1, 1.0, 2, 2**63, float("inf"), "", "a",
              "ab", "b", b"", b"z"]
    PROBES = [-(2**64), 0, -0.0, 0.5, 1, 1.5, 2**63, float("inf"), "", "ab", "c", b"z"]

    def test_probes_match_a_filter_over_every_row(self):
        # Small pages: the index spans many leaves.
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32, page_size=512)
        )
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v, pad TEXT)")
        db.execute("CREATE INDEX t_v ON t (v)")
        db.execute("BEGIN")
        rows = []
        for rowid in range(1, 241):  # each value many times
            row = (rowid, self.VALUES[rowid * 7 % len(self.VALUES)], "p" * 30)
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
            rows.append(row)
        db.execute("COMMIT")
        db.execute("SELECT * FROM t WHERE v = 1")
        store = db._prepared["SELECT * FROM t WHERE v = 1"].scans[0].store
        index = store.table.indexes[0]
        root = db.pager.get(store._index_trees[index.name].root_pno)
        assert isinstance(root, InteriorPage) and len(root.children) >= 10
        # The reference: every row with its value's sort key, in index order.
        ordered = sorted(((nested_sort_key((row[1],)), row[0], row) for row in rows))

        def brute(lo, hi, lo_open, hi_open):
            low = nested_sort_key(lo) if lo is not None else None
            high = nested_sort_key(hi) if hi is not None else None
            return [
                (rowid, row)
                for key, rowid, row in ordered
                if (low is None or (key > low if lo_open else key >= low))
                and (high is None or (key < high if hi_open else key <= high))
            ]

        for value in [None] + self.PROBES:
            key = (value,)
            want = brute(key, key, False, False)
            assert list(store.index_rows(index, key, key)) == want, value  # one tuple, both bounds
            assert list(store.index_rows(index, key, (value,))) == want, value
        bounds = [None] + [(value,) for value in self.PROBES]
        for lo in bounds:
            for hi in bounds:
                for lo_open in (False, True):
                    for hi_open in (False, True):
                        got = list(store.index_rows(index, lo, hi, lo_open, hi_open))
                        assert got == brute(lo, hi, lo_open, hi_open), (lo, hi, lo_open, hi_open)


def index_rowids(tree, lo, hi, lo_open, hi_open):
    """The reference scan: the rowids of one inclusive ``BTree.scan`` of an
    index, each value-prefix bound padded with a value that sorts below /
    above every rowid (so an open bound excludes the prefix's entries)."""
    lo_key = None if lo is None else lo + ((_ABOVE_ROWIDS if lo_open else _BELOW_ROWIDS),)
    hi_key = None if hi is None else hi + ((_BELOW_ROWIDS if hi_open else _ABOVE_ROWIDS),)
    for key, _payload in tree.scan(lo_key, hi_key):
        yield key[-1]


class TestIndexRowsIsGetRowOverTheIndexScan:
    """``TableStore.index_rows`` is one flat loop; it yields what ``get_row``
    over ``index_rowids`` (a ``BTree.scan`` of the index) yields, and makes
    the same page accesses in the same order, re-descents past a leaf end
    and past a deleted leaf's separator included."""

    def test_same_rows_and_same_page_accesses(self):
        db = make_db()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
        db.execute("CREATE INDEX t_v ON t (v)")
        db.execute("BEGIN")
        for i in range(1, 601):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i % 23, "p" * 40))
        db.execute("COMMIT")
        db.execute("SELECT * FROM t WHERE v = 1")  # plan it
        store = db._prepared["SELECT * FROM t WHERE v = 1"].scans[0].store
        index = store.table.indexes[0]
        tree = store._index_trees[index.name]
        pager = db.pager
        # Delete the value that ends the first leaf: the separator above
        # the leaf stays, so a probe for it lands in the gap below the
        # separator and goes on past it.
        root = pager.get(tree.root_pno)
        first_leaf = pager.get(root.children[0])
        gap = first_leaf.keys[-1][0]
        db.execute("DELETE FROM t WHERE v = ? OR (v = 12 AND id > 100)", (gap,))
        assert first_leaf.keys and first_leaf.keys[-1] < root.keys[0]
        touched = []
        original = pager.get

        def recording(pno):
            touched.append(pno)
            return original(pno)

        pager.get = recording
        bounds = [((v,), (v,), False, False) for v in (0, gap, gap + 1, 12, 22, 23)]
        bounds += [((3,), (9,), True, False), ((11,), (13,), False, True), (None, (2,), False, False)]
        bounds += [((20,), None, True, False), (None, None, False, False)]
        for lo, hi, lo_open, hi_open in bounds:
            del touched[:]
            got = list(store.index_rows(index, lo, hi, lo_open, hi_open))
            flat = touched[:]
            del touched[:]
            reference = []
            for rowid in index_rowids(tree, lo, hi, lo_open, hi_open):
                row = store.get_row(rowid)
                if row is not None:
                    reference.append((rowid, row))
            assert got == reference, (lo, hi, lo_open, hi_open)
            assert flat == touched, (lo, hi, lo_open, hi_open)


class TestRowidEqualityRunsNoGenerator:
    def test_row_function_returns_a_tuple_without_a_generator_frame(self, loaded):
        select = "SELECT c FROM plain WHERE id = ?"
        loaded.execute(select, (7,))
        path = loaded._prepared[select].scans[0].path
        assert path.kind == "rowid-eq"
        generators = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
                generators.append(frame.f_code.co_name)

        params = loaded._prepared[select].params  # still holds (7,)
        sys.setprofile(profile)
        try:
            found = path.rows({})
            params.bind((10**6,))
            missing = path.rows({})
        finally:
            sys.setprofile(None)
        assert generators == []
        assert type(found) is tuple and len(found) == 1 and found[0][0] == 7
        assert missing == ()
