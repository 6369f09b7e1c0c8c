"""The prepared-statement map: a warm plan is never a stale plan, and a warm
statement does no planning work.

``Connection`` prepares each SQL text once (``repro.sqlite.database``,
"Statement lifecycle").  Three things are held here: every way the catalog can
change under a warm plan leaves the connection answering exactly like one that
has never seen the statement; a statement list gives the same rows, errors,
simulated time and page images whether its plans are warm or rebuilt for every
call; and a warmed-up workload parses, plans and compiles nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.ftl import FtlConfig
from repro.sqlite import btree, database, records, table
from repro.sqlite.database import Connection
from repro.sqlite.sql.engine import ExprCompiler
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads import MIXES, SyntheticWorkload, TpccConfig, TpccDriver, TpccLoader


def make_stack(mode=Mode.XFTL, **config):
    return build_stack(StackConfig(mode=mode, num_blocks=256, pages_per_block=32, **config))


def fresh(db):
    """A second connection to ``db``'s file: it has prepared nothing."""
    return Connection(db.fs, db.name, db.journal_mode)


def path_kinds(db, sql):
    """``AccessPath.kind`` per nested-loop level of the plan ``db`` holds for ``sql``."""
    return [scan.path.kind for scan in db._prepared[sql].scans]


BY_A = "SELECT id, a, b FROM t WHERE a = ? ORDER BY id"
INSERT = "INSERT INTO t VALUES (?, ?, ?)"


@pytest.fixture
def db():
    db = make_stack().open_database("test.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
    db.execute("BEGIN")
    for i in range(1, 41):
        db.execute(INSERT, (i, i % 5, f"b{i}"))
    db.execute("COMMIT")
    return db


def rows_with_a(value):
    return [(i, value, f"b{i}") for i in range(1, 41) if i % 5 == value]


class TestInvalidation:
    """Each case prepares a statement, changes the catalog under it, and holds
    the warm connection to what a fresh connection on the same file answers."""

    def test_create_index_switches_the_path_to_the_index(self, db):
        assert db.execute(BY_A, (3,)) == rows_with_a(3)
        assert path_kinds(db, BY_A) == ["full"]
        db.execute("CREATE INDEX t_a ON t (a)")
        assert db.execute(BY_A, (3,)) == rows_with_a(3) == fresh(db).execute(BY_A, (3,))
        assert path_kinds(db, BY_A) == ["index-eq"]

    def test_drop_index_goes_back_to_a_scan_not_through_the_freed_root(self, db):
        db.execute("CREATE INDEX t_a ON t (a)")
        assert db.execute(BY_A, (2,)) == rows_with_a(2)
        assert path_kinds(db, BY_A) == ["index-eq"]
        freed_root = db._prepared[BY_A].scans[0].path.index.root_pno
        db.execute("DROP INDEX t_a")
        # The freed root is reused at once by a tree of another shape.
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY, v TEXT)")
        assert db.catalog.get_table("other").root_pno == freed_root
        db.execute("INSERT INTO other VALUES (1, 'x'), (2, 'y')")
        assert db.execute(BY_A, (2,)) == rows_with_a(2) == fresh(db).execute(BY_A, (2,))
        assert path_kinds(db, BY_A) == ["full"]

    def test_table_recreated_with_its_columns_reordered(self, db):
        select = "SELECT a, b FROM t WHERE id = ?"
        update = "UPDATE t SET b = ? WHERE a = ?"
        assert db.execute(select, (7,)) == [(2, "b7")]
        db.execute(update, ("B", 2))
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (b TEXT, id INTEGER PRIMARY KEY, a INTEGER)")
        db.execute(INSERT, ("first", 7, 70))  # same text, new column order
        db.execute(INSERT, ("second", 8, 70))
        db.execute(update, ("third", 70))
        assert db.execute(select, (7,)) == [(70, "third")] == fresh(db).execute(select, (7,))
        assert db.execute("SELECT * FROM t") == [("third", 7, 70), ("third", 8, 70)]

    def test_dropped_table_is_a_schema_error_not_a_stale_root_read(self, db):
        assert db.execute(BY_A, (1,)) == rows_with_a(1)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
        db.execute("INSERT INTO other VALUES (1, 1, 'not t')")  # lives in t's old pages
        for connection in (db, fresh(db)):
            with pytest.raises(SchemaError, match="no such table: t"):
                connection.execute(BY_A, (1,))
            with pytest.raises(SchemaError, match="no such table: t"):
                connection.execute(INSERT, (99, 1, "x"))
        assert BY_A not in db._prepared

    def test_rollback_of_a_transaction_that_ran_ddl(self, db):
        db.execute("BEGIN")
        db.execute("CREATE INDEX t_a ON t (a)")
        db.execute("CREATE TABLE extra (id INTEGER PRIMARY KEY)")
        assert db.execute(BY_A, (4,)) == rows_with_a(4)
        assert path_kinds(db, BY_A) == ["index-eq"]
        assert db.execute("SELECT COUNT(*) FROM extra") == [(0,)]
        db.execute("ROLLBACK")
        assert db.execute(BY_A, (4,)) == rows_with_a(4) == fresh(db).execute(BY_A, (4,))
        assert path_kinds(db, BY_A) == ["full"]
        with pytest.raises(SchemaError, match="no such table: extra"):
            db.execute("SELECT COUNT(*) FROM extra")

        db.execute("BEGIN")
        db.execute("DROP TABLE t")
        with pytest.raises(SchemaError):
            db.execute(BY_A, (4,))
        db.execute("ROLLBACK")
        assert db.execute(BY_A, (4,)) == rows_with_a(4)

    def test_failed_autocommit_ddl(self, db):
        db.execute("CREATE INDEX t_a ON t (a)")
        assert db.execute(BY_A, (0,)) == rows_with_a(0)
        plan = db._prepared[BY_A]
        with pytest.raises(SchemaError):
            db.execute("CREATE INDEX t_nope ON t (nope)")
        # The statement's rollback reloaded the catalog: the plan went with it.
        assert BY_A not in db._prepared
        db.execute(INSERT, (41, 0, "b41"))
        expected = rows_with_a(0) + [(41, 0, "b41")]
        assert db.execute(BY_A, (0,)) == expected == fresh(db).execute(BY_A, (0,))
        assert db._prepared[BY_A] is not plan
        assert path_kinds(db, BY_A) == ["index-eq"]

    def test_reopen_after_a_power_cycle(self):
        stack = make_stack()
        db = stack.open_database("test.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
        db.execute("CREATE INDEX t_a ON t (a)")
        db.execute(INSERT, (1, 3, "kept"))
        assert db.execute(BY_A, (3,)) == [(1, 3, "kept")]
        stack.remount_after_crash()
        reopened = stack.open_database("test.db")
        assert not reopened._prepared  # plans are per connection and die with it
        assert reopened.execute(BY_A, (3,)) == [(1, 3, "kept")]
        assert path_kinds(reopened, BY_A) == ["index-eq"]

    def test_snapshot_reads_through_a_plan_prepared_outside_the_snapshot(self):
        stack = make_stack(ftl=FtlConfig(retain_versions=4))
        db = stack.open_database("test.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
        db.execute("CREATE INDEX t_a ON t (a)")
        db.execute("BEGIN")
        for i in range(1, 9):
            db.execute(INSERT, (i, i % 2, "old"))
        db.execute("COMMIT")
        old = [(i, 1, "old") for i in (1, 3, 5, 7)]
        assert db.execute(BY_A, (1,)) == old
        plan = db._prepared[BY_A]
        past = stack.device.snapshot_seq()
        db.execute("UPDATE t SET b = ? WHERE a = ?", ("new", 1))
        new = [(i, 1, "new") for i in (1, 3, 5, 7)]
        other = fresh(db)
        with db.read_as_of(past), other.read_as_of(past):
            assert db.execute(BY_A, (1,)) == old == other.execute(BY_A, (1,))
        db.execute("BEGIN SNAPSHOT")
        assert db.execute(BY_A, (1,)) == new
        db.execute("COMMIT")
        assert db.execute(BY_A, (1,)) == new
        assert db._prepared[BY_A] is plan  # one plan served all four reads


# ------------------------------------------------------------ warm == cold

# A small grammar: SQL text, how many arguments it takes, how often it is drawn.
# Texts repeat with different arguments, so a warm connection reuses plans
# across DML, joins, aggregates, ORDER BY / LIMIT ?, interleaved DDL (which must
# drop them) and transaction boundaries (ROLLBACK reloads the catalog).
_TEXTS = [
    ("INSERT INTO t VALUES (?, ?, ?)", 3, 6),
    ("INSERT INTO t (id, a) VALUES (?, ?), (?, ?)", 4, 3),
    ("INSERT INTO u VALUES (?, ?)", 2, 3),
    ("UPDATE t SET a = ? WHERE id = ?", 2, 4),
    ("UPDATE t SET a = a + 1, b = ? WHERE a >= ? AND a < ?", 3, 3),
    ("UPDATE u SET t_id = ? WHERE t_id = ?", 2, 2),
    ("DELETE FROM t WHERE id = ?", 1, 3),
    ("DELETE FROM t WHERE a = ? AND id > ?", 2, 1),
    ("DELETE FROM u WHERE t_id = ?", 1, 1),
    ("SELECT * FROM t WHERE id = ?", 1, 3),
    ("SELECT id, a FROM t WHERE a = ? ORDER BY id DESC LIMIT ?", 2, 3),
    ("SELECT t.id, u.id, b FROM t JOIN u ON u.t_id = t.id WHERE t.a < ? ORDER BY u.id, t.id", 1, 3),
    ("SELECT COUNT(*), SUM(a), MIN(b), MAX(a) + 1 FROM t WHERE a BETWEEN ? AND ?", 2, 3),
    ("SELECT COUNT(DISTINCT t_id) * 2 FROM u JOIN t ON t.id = u.t_id", 0, 1),
    ("SELECT DISTINCT a FROM t WHERE id IN (?, ?, 3) ORDER BY a LIMIT ? OFFSET ?", 4, 2),
    ("SELECT ? + 1, ?", 2, 1),
    ("SELECT nope FROM t WHERE id = ?", 1, 1),
    ("CREATE INDEX t_a ON t (a)", 0, 2),
    ("CREATE INDEX IF NOT EXISTS u_t ON u (t_id)", 0, 1),
    ("DROP INDEX t_a", 0, 2),
    ("DROP INDEX IF EXISTS u_t", 0, 1),
    ("DROP TABLE u", 0, 1),
    ("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)", 0, 2),
    ("CREATE TABLE u (t_id INTEGER, id INTEGER PRIMARY KEY)", 0, 2),
    ("BEGIN", 0, 6),
    ("COMMIT", 0, 3),
    ("ROLLBACK", 0, 3),
]
_VALUES = st.sampled_from(list(range(60)) * 2 + list(range(8)) * 6 + [None, "x", "b7", 2.5])
# How many arguments to pass relative to the text's arity: mostly right,
# sometimes one short (must raise before any row is touched) or one too many.
_STEPS = st.tuples(
    st.sampled_from([entry[:2] for entry in _TEXTS for _ in range(entry[2])]),
    st.lists(_VALUES, min_size=5, max_size=5),
    st.sampled_from([0] * 8 + [-1, 1]),
)


def _seeded():
    # 512-byte pages, a four-page pager cache over an eight-page file-system
    # cache: every statement evicts, so the order in which pages are touched
    # decides what is read from the device and what is spilled to it, and
    # shows up in simulated time.  A plan whose building touched a page is caught.
    stack = make_stack(page_size=512, fs_cache_pages=8)
    db = stack.open_database("test.db", cache_pages=4)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
    db.execute("BEGIN")
    for i in range(1, 61, 2):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i % 8, f"b{i}"))
        db.execute("INSERT INTO u VALUES (?, ?)", (i, 1 + i % 30))
    db.execute("COMMIT")
    return stack, db


def _run(steps, cold):
    stack, db = _seeded()
    outcomes = []
    for (sql, arity), values, extra in steps:
        if cold:
            db._prepared.clear()
        try:
            outcomes.append(db.execute(sql, tuple(values[: max(0, arity + extra)])))
        except Exception as error:  # the property is "the same one on both sides"
            outcomes.append((type(error).__name__, str(error)))
    if db.in_transaction:
        db.execute("COMMIT")
    pager = db.pager
    state = (stack.clock.now_us, list(pager._cache))  # sim time; cached pages, LRU first
    images = [pager.file.read_page(pno) for pno in range(pager.page_count)]
    return outcomes, state, images


class TestWarmPlansChangeNothing:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEPS, min_size=20, max_size=80))
    def test_same_results_with_the_map_emptied_before_every_statement(self, steps):
        warm_outcomes, warm_state, warm_images = _run(steps, cold=False)
        cold_outcomes, cold_state, cold_images = _run(steps, cold=True)
        assert warm_outcomes == cold_outcomes
        assert warm_state == cold_state
        assert warm_images == cold_images


# ------------------------------------------------------------- work guard


class _Work:
    """Counting wrappers around the planning entry points and the record
    codec (``encode_record`` where the B-tree and the codec call it,
    ``decode_record`` where ``row_of`` does), and a count of the rows that
    UPDATE and DELETE wrote."""

    CODEC = ("encode_record", "decode_record")

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(("parse", "choose_access_path", "compile") + self.CODEC, 0)
        self.rows_written = 0
        self._count(monkeypatch, database, "parse")
        self._count(monkeypatch, database, "choose_access_path")
        self._count(monkeypatch, ExprCompiler, "compile")
        self._count(monkeypatch, btree, "encode_record")
        self._count(monkeypatch, records, "encode_record")
        self._count(monkeypatch, records, "decode_record")
        for name in ("update_row", "delete_row"):
            self._mark_write(monkeypatch, name)

    def _count(self, monkeypatch, owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def _mark_write(self, monkeypatch, name):
        original = getattr(table.TableStore, name)

        def writing(store, *args):
            self.rows_written += 1
            return original(store, *args)

        monkeypatch.setattr(table.TableStore, name, writing)


class TestWarmStatementsDoNoPlanningWork:
    """The host half of the benchmark, guarded as a count (wall time is too
    noisy for CI): once every text of a workload has been seen, running it
    parses, plans and compiles nothing, and a row its leaf cell keeps (every
    row of these workloads) is never encoded or decoded: an UPDATE hands the
    B-tree the new row as it is, a SELECT or a match reads the stored one."""

    PLANNING = ("parse", "choose_access_path", "compile")

    def test_synthetic_update_transactions(self, monkeypatch):
        db = make_stack().open_database("test.db")
        workload = SyntheticWorkload(db, rows=300)
        workload.load()
        workload.run(transactions=1, updates_per_txn=5)
        work = _Work(monkeypatch)
        workload.run(transactions=50, updates_per_txn=5)
        assert {name: work.calls[name] for name in self.PLANNING} == dict.fromkeys(self.PLANNING, 0)
        assert work.rows_written == 250
        assert {name: work.calls[name] for name in work.CODEC} == dict.fromkeys(work.CODEC, 0)

    def test_tpcc_write_intensive_mix(self, monkeypatch):
        db = make_stack(Mode.WAL).open_database("test.db")
        config = TpccConfig(warehouses=1, customers_per_district=10, items=50)
        TpccLoader(db, config).load()
        driver = TpccDriver(db, config)
        # Warm-up: every transaction type, often enough that the branches a
        # single run can skip (no order to report or deliver) have been taken.
        for name in MIXES["write-intensive"]:
            for _ in range(3):
                getattr(driver.transactions, name)()
        work = _Work(monkeypatch)
        driver.run("write-intensive", 50)
        assert {name: work.calls[name] for name in self.PLANNING} == dict.fromkeys(self.PLANNING, 0)
        assert work.rows_written > 100
        assert {name: work.calls[name] for name in work.CODEC} == dict.fromkeys(work.CODEC, 0)
