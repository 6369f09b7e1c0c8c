"""Tests for multi-file transactions on X-FTL (§4.3)."""

import pytest

from repro.stack import Mode, StackConfig, build_stack
from repro.errors import DatabaseError, FsError
from repro.sqlite.multifile import MultiFileTransaction


@pytest.fixture
def pair():
    stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32))
    db_a = stack.open_database("a.db")
    db_b = stack.open_database("b.db")
    db_a.execute("CREATE TABLE ta (id INTEGER PRIMARY KEY, v TEXT)")
    db_b.execute("CREATE TABLE tb (id INTEGER PRIMARY KEY, v TEXT)")
    db_a.execute("INSERT INTO ta VALUES (1, 'base-a')")
    db_b.execute("INSERT INTO tb VALUES (1, 'base-b')")
    return stack, db_a, db_b


class TestCommit:
    def test_commit_spans_both_files(self, pair):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'new-a' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'new-b' WHERE id = 1")
        txn.commit()
        assert db_a.execute("SELECT v FROM ta WHERE id = 1") == [("new-a",)]
        assert db_b.execute("SELECT v FROM tb WHERE id = 1") == [("new-b",)]

    def test_single_device_commit_for_group(self, pair):
        stack, db_a, db_b = pair
        commits0 = stack.device.counters.commits
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'x' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'y' WHERE id = 1")
        txn.commit()
        assert stack.device.counters.commits - commits0 == 1

    def test_one_fsync_for_group(self, pair):
        stack, db_a, db_b = pair
        fsyncs0 = stack.fs.stats.fsync_calls
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'x' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'y' WHERE id = 1")
        txn.commit()
        assert stack.fs.stats.fsync_calls - fsyncs0 == 1

    def test_connections_usable_after_group_commit(self, pair):
        _stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'x' WHERE id = 1")
        txn.commit()
        db_a.execute("INSERT INTO ta VALUES (2, 'post')")
        assert db_a.execute("SELECT COUNT(*) FROM ta") == [(2,)]


class TestCounted:
    """A multi-file commit is counted like any other commit, once per
    database file: the commit counter, the latency histogram and the
    owning session's (and so its tenant's) commit count."""

    def test_commit_counts_reach_obs_session_and_tenant(self):
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32, metrics=True)
        )
        tenant = stack.open_tenant("t")
        session = tenant.open_session()
        dbs = [session.open_database(name) for name in ("a.db", "b.db")]
        for db in dbs:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'base')")
        registry = stack.obs.registry
        account = stack.chip.tenants.accounts[tenant.id]
        commits0 = registry.counter_value("sqlite.txn_commits")
        latencies0 = registry.histograms()["sqlite.commit.latency_us"].count
        session0, tenant0 = session.counts.commits, account.commits
        txn = MultiFileTransaction(*dbs)
        txn.begin()
        for db in dbs:
            db.execute("UPDATE t SET v = 'new' WHERE id = 1")
        txn.commit()
        assert registry.counter_value("sqlite.txn_commits") - commits0 == 2
        assert registry.histograms()["sqlite.commit.latency_us"].count - latencies0 == 2
        assert session.counts.commits - session0 == 2
        assert account.commits - tenant0 == 2


class TestParticipantCannotSettleAlone:
    """Only the coordinator settles the shared transaction."""

    def test_participant_commit_raises_and_the_group_stays_atomic(self, pair):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'new' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'new' WHERE id = 1")
        with pytest.raises(DatabaseError, match="MultiFileTransaction"):
            db_a.execute("COMMIT")
        txn.rollback()
        stack.remount_after_crash()
        assert stack.open_database("a.db").execute("SELECT v FROM ta") == [("base-a",)]
        assert stack.open_database("b.db").execute("SELECT v FROM tb") == [("base-b",)]

    def test_participant_rollback_raises_and_the_group_commits(self, pair):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'new' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'new' WHERE id = 1")
        with pytest.raises(DatabaseError, match="MultiFileTransaction"):
            db_a.rollback()
        assert db_b.execute("SELECT v FROM tb") == [("new",)]
        txn.commit()
        assert db_a.execute("SELECT v FROM ta") == [("new",)]
        stack.remount_after_crash()
        assert stack.open_database("a.db").execute("SELECT v FROM ta") == [("new",)]
        assert stack.open_database("b.db").execute("SELECT v FROM tb") == [("new",)]


class TestRollback:
    def test_rollback_spans_both_files(self, pair):
        _stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'doomed-a' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'doomed-b' WHERE id = 1")
        txn.rollback()
        assert db_a.execute("SELECT v FROM ta WHERE id = 1") == [("base-a",)]
        assert db_b.execute("SELECT v FROM tb WHERE id = 1") == [("base-b",)]

    def test_rollback_after_a_failed_device_step_drops_the_staged_pages(
        self, pair, monkeypatch
    ):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'doomed-a' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'doomed-b' WHERE id = 1")

        def failing(handles, txn):
            raise FsError("device step failed")

        monkeypatch.setattr(stack.fs, "fsync_group", failing)
        with pytest.raises(FsError):
            txn.commit()
        monkeypatch.undo()
        txn.rollback()
        assert db_a.execute("SELECT v FROM ta") == [("base-a",)]
        assert db_b.execute("SELECT v FROM tb") == [("base-b",)]

    def test_three_file_rollback_is_one_device_abort(self, pair):
        stack, db_a, db_b = pair
        db_c = stack.open_database("c.db")
        db_c.execute("CREATE TABLE tc (id INTEGER PRIMARY KEY, v TEXT)")
        db_c.execute("INSERT INTO tc VALUES (1, 'base-c')")
        aborts0 = stack.device.counters.aborts
        txn = MultiFileTransaction(db_a, db_b, db_c)
        txn.begin()
        for db, table in ((db_a, "ta"), (db_b, "tb"), (db_c, "tc")):
            db.execute(f"UPDATE {table} SET v = 'doomed' WHERE id = 1")
        txn.rollback()
        assert stack.device.counters.aborts - aborts0 == 1
        expected = {"a.db": ("ta", "base-a"), "b.db": ("tb", "base-b"), "c.db": ("tc", "base-c")}
        for db in (db_a, db_b, db_c):
            table, value = expected[db.name]
            assert db.execute(f"SELECT v FROM {table}") == [(value,)]
        stack.remount_after_crash()
        for name, (table, value) in expected.items():
            assert stack.open_database(name).execute(f"SELECT v FROM {table}") == [(value,)]


class TestCrashAtomicity:
    def test_crash_before_commit_rolls_back_both(self, pair):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'doomed-a' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'doomed-b' WHERE id = 1")
        stack.remount_after_crash()
        db_a2 = stack.open_database("a.db")
        db_b2 = stack.open_database("b.db")
        assert db_a2.execute("SELECT v FROM ta WHERE id = 1") == [("base-a",)]
        assert db_b2.execute("SELECT v FROM tb WHERE id = 1") == [("base-b",)]

    def test_crash_after_commit_preserves_both(self, pair):
        stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        db_a.execute("UPDATE ta SET v = 'durable-a' WHERE id = 1")
        db_b.execute("UPDATE tb SET v = 'durable-b' WHERE id = 1")
        txn.commit()
        stack.remount_after_crash()
        db_a2 = stack.open_database("a.db")
        db_b2 = stack.open_database("b.db")
        assert db_a2.execute("SELECT v FROM ta WHERE id = 1") == [("durable-a",)]
        assert db_b2.execute("SELECT v FROM tb WHERE id = 1") == [("durable-b",)]

    def test_never_half_committed(self, pair):
        """Crash at every program during the group commit: all-or-nothing."""
        from repro.errors import PowerFailure

        for crash_after in range(1, 8):
            stack = build_stack(
                StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32)
            )
            db_a = stack.open_database("a.db")
            db_b = stack.open_database("b.db")
            db_a.execute("CREATE TABLE ta (id INTEGER PRIMARY KEY, v TEXT)")
            db_b.execute("CREATE TABLE tb (id INTEGER PRIMARY KEY, v TEXT)")
            db_a.execute("INSERT INTO ta VALUES (1, 'base')")
            db_b.execute("INSERT INTO tb VALUES (1, 'base')")
            txn = MultiFileTransaction(db_a, db_b)
            txn.begin()
            db_a.execute("UPDATE ta SET v = 'new' WHERE id = 1")
            db_b.execute("UPDATE tb SET v = 'new' WHERE id = 1")
            stack.crash_plan.arm("flash.program.after", after=crash_after)
            try:
                txn.commit()
            except PowerFailure:
                pass
            stack.crash_plan.disarm_all()
            stack.remount_after_crash()
            value_a = stack.open_database("a.db").execute("SELECT v FROM ta")[0][0]
            value_b = stack.open_database("b.db").execute("SELECT v FROM tb")[0][0]
            assert value_a == value_b, (crash_after, value_a, value_b)


class TestConcurrentSessions:
    """Two sessions, each running its own multi-file transaction."""

    @pytest.fixture
    def two_sessions(self):
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32)
        )
        pairs = []
        for name in ("alice", "bob"):
            session = stack.open_session(name=name)
            db_x = session.open_database(f"{name}_x.db")
            db_y = session.open_database(f"{name}_y.db")
            db_x.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            db_y.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            db_x.execute("INSERT INTO t VALUES (1, 'base')")
            db_y.execute("INSERT INTO t VALUES (1, 'base')")
            pairs.append((session, db_x, db_y))
        return stack, pairs

    def test_interleaved_abort_and_commit(self, two_sessions):
        stack, pairs = two_sessions
        (_alice, a_x, a_y), (_bob, b_x, b_y) = pairs
        txn_a = MultiFileTransaction(a_x, a_y)
        txn_b = MultiFileTransaction(b_x, b_y)
        # Interleave: both begin, statements alternate, then one aborts
        # while the other commits.  Distinct contexts keep them isolated.
        txn_a.begin()
        txn_b.begin()
        assert txn_a.txn.tid != txn_b.txn.tid
        a_x.execute("UPDATE t SET v = 'doomed' WHERE id = 1")
        b_x.execute("UPDATE t SET v = 'kept' WHERE id = 1")
        a_y.execute("UPDATE t SET v = 'doomed' WHERE id = 1")
        b_y.execute("UPDATE t SET v = 'kept' WHERE id = 1")
        txn_a.rollback()
        txn_b.commit()
        assert a_x.execute("SELECT v FROM t") == [("base",)]
        assert a_y.execute("SELECT v FROM t") == [("base",)]
        assert b_x.execute("SELECT v FROM t") == [("kept",)]
        assert b_y.execute("SELECT v FROM t") == [("kept",)]
        # The abort must also hold across a crash/remount.
        stack.remount_after_crash()
        assert stack.open_database("alice_x.db").execute("SELECT v FROM t") == [("base",)]
        assert stack.open_database("bob_y.db").execute("SELECT v FROM t") == [("kept",)]

    def test_coordinator_abort_releases_context(self, two_sessions):
        stack, pairs = two_sessions
        (_alice, a_x, a_y), _ = pairs
        live0 = stack.fs.txn_manager.live_count
        txn = MultiFileTransaction(a_x, a_y)
        txn.begin()
        a_x.execute("UPDATE t SET v = 'doomed' WHERE id = 1")
        txn.rollback()
        assert txn.txn is None
        assert stack.fs.txn_manager.live_count == live0
        # Both connections are reusable after the coordinator abort.
        txn2 = MultiFileTransaction(a_x, a_y)
        txn2.begin()
        a_x.execute("UPDATE t SET v = 'second' WHERE id = 1")
        a_y.execute("UPDATE t SET v = 'second' WHERE id = 1")
        txn2.commit()
        assert a_x.execute("SELECT v FROM t") == [("second",)]

    @pytest.mark.parametrize(
        ("point", "survives"),
        [
            ("fs.fsync.mid", False),
            ("xftl.commit.before-flush", False),
            ("xftl.commit.after-flush", True),
        ],
    )
    def test_mid_commit_crash_is_atomic_across_sessions(
        self, two_sessions, point, survives
    ):
        """Crash inside bob's group fsync: alice's earlier commit stays
        durable and bob's transaction is all-or-nothing on both files."""
        from repro.errors import PowerFailure

        stack, pairs = two_sessions
        (_alice, a_x, a_y), (_bob, b_x, b_y) = pairs
        txn_a = MultiFileTransaction(a_x, a_y)
        txn_a.begin()
        a_x.execute("UPDATE t SET v = 'alice' WHERE id = 1")
        a_y.execute("UPDATE t SET v = 'alice' WHERE id = 1")
        txn_a.commit()

        txn_b = MultiFileTransaction(b_x, b_y)
        txn_b.begin()
        b_x.execute("UPDATE t SET v = 'bob' WHERE id = 1")
        b_y.execute("UPDATE t SET v = 'bob' WHERE id = 1")
        stack.crash_plan.arm(point, after=1)
        with pytest.raises(PowerFailure):
            txn_b.commit()
        stack.crash_plan.disarm_all()
        stack.remount_after_crash()

        assert stack.open_database("alice_x.db").execute("SELECT v FROM t") == [("alice",)]
        assert stack.open_database("alice_y.db").execute("SELECT v FROM t") == [("alice",)]
        expected = "bob" if survives else "base"
        assert stack.open_database("bob_x.db").execute("SELECT v FROM t") == [(expected,)]
        assert stack.open_database("bob_y.db").execute("SELECT v FROM t") == [(expected,)]


class TestValidation:
    def test_requires_off_mode(self):
        stack = build_stack(StackConfig(mode=Mode.WAL, num_blocks=128))
        db = stack.open_database("w.db")
        with pytest.raises(DatabaseError):
            MultiFileTransaction(db)

    def test_requires_at_least_one_connection(self):
        with pytest.raises(DatabaseError):
            MultiFileTransaction()

    def test_double_begin_rejected(self, pair):
        _stack, db_a, db_b = pair
        txn = MultiFileTransaction(db_a, db_b)
        txn.begin()
        with pytest.raises(DatabaseError):
            txn.begin()
        txn.rollback()

    def test_failed_begin_releases_the_shared_context(self, pair):
        stack, db_a, db_b = pair
        live0 = stack.fs.txn_manager.live_count
        db_b.begin()  # b cannot join: the coordinator's begin fails on it first
        with pytest.raises(DatabaseError, match="within a transaction"):
            MultiFileTransaction(db_b, db_a).begin()
        assert not db_a.in_transaction
        db_b.rollback()
        assert stack.fs.txn_manager.live_count == live0

    def test_commit_without_begin_rejected(self, pair):
        _stack, db_a, db_b = pair
        with pytest.raises(DatabaseError):
            MultiFileTransaction(db_a, db_b).commit()
