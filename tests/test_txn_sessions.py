"""Tests for TransactionContext/TxnManager, sessions, and group commit.

Covers the transaction-context state machine, the manager's minting and
adoption rules, the pager's typed error paths, snapshot-read isolation at
the file-system page cache, and the SessionScheduler's group commit —
including the bit-identity guarantees (single-member groups delegate to
the plain commit path; grouping changes only the commit protocol, never
the data pages programmed).
"""

import pytest

from repro.errors import DatabaseError, TransactionError
from repro.stack import (
    Mode,
    SessionScheduler,
    StackConfig,
    TxnState,
    build_stack,
    open_stack,
)
from repro.verify.drivers import run_scenario


def _xftl_stack(**overrides):
    defaults = dict(num_blocks=256, pages_per_block=32)
    defaults.update(overrides)
    return open_stack("xftl", **defaults)


# ------------------------------------------------------------ state machine


class TestTransactionContext:
    def test_begin_mints_live_context(self):
        stack = _xftl_stack()
        txn = stack.fs.txn_manager.begin()
        assert txn.state is TxnState.ACTIVE
        assert int(txn) == txn.tid
        assert stack.fs.txn_manager.get(txn.tid) is txn
        assert stack.fs.txn_manager.live_count == 1

    def test_commit_transitions(self):
        stack = _xftl_stack()
        txn = stack.fs.txn_manager.begin()
        txn.begin_commit()
        assert txn.state is TxnState.COMMITTING
        txn.mark_committed()
        assert txn.state is TxnState.COMMITTED

    def test_illegal_transition_rejected(self):
        stack = _xftl_stack()
        txn = stack.fs.txn_manager.begin()
        txn.begin_commit()
        txn.mark_committed()
        with pytest.raises(TransactionError, match="illegal transition"):
            txn.mark_aborted()

    def test_same_state_transition_is_idempotent(self):
        stack = _xftl_stack()
        txn = stack.fs.txn_manager.begin()
        txn.mark_aborted()
        txn.mark_aborted()  # double abort tolerated (multifile rollback path)
        assert txn.state is TxnState.ABORTED

    def test_release_is_idempotent(self):
        stack = _xftl_stack()
        manager = stack.fs.txn_manager
        txn = manager.begin()
        manager.release(txn)
        manager.release(txn)
        assert manager.live_count == 0
        assert manager.get(txn.tid) is None

    def test_minting_uses_the_fs_tid_sequence(self):
        # Contexts draw from the file system's persistent tid sequence (the
        # one the superblock records and a remount resumes past).
        stack = _xftl_stack()
        manager = stack.fs.txn_manager
        first = manager.begin()
        second = manager.begin()
        assert second.tid == first.tid + 1
        assert stack.fs._next_tid == second.tid + 1


# ------------------------------------------------------- pager error paths


class TestPagerErrorPaths:
    def test_double_begin_raises_typed_error(self):
        stack = _xftl_stack()
        db = stack.open_database("t.db")
        db.begin()
        with pytest.raises(DatabaseError, match="within a transaction"):
            db.begin()
        db.rollback()

    def test_rollback_after_commit_raises(self):
        stack = _xftl_stack()
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.commit()
        with pytest.raises(DatabaseError, match="no transaction is active"):
            db.rollback()

    @pytest.mark.parametrize("mode", ["rbj", "wal"])
    def test_external_context_rejected_outside_off_mode(self, mode):
        stack = open_stack(mode, num_blocks=256, pages_per_block=32)
        db = stack.open_database("t.db")
        with pytest.raises(DatabaseError, match="only supported in OFF mode"):
            db.begin_with_txn(999)

    def test_raw_tid_rejected_at_begin_with_txn(self):
        """An int tid fails at the front door, not as an AttributeError at COMMIT."""
        stack = _xftl_stack()
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(TransactionError, match="raw integer tid"):
            db.begin_with_txn(5)
        assert not db.in_transaction
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("COMMIT")
        assert db.execute("SELECT id FROM t") == [(1,)]

    def test_commit_without_begin_raises(self):
        stack = _xftl_stack()
        db = stack.open_database("t.db")
        with pytest.raises(DatabaseError, match="no transaction is active"):
            db.commit()


# ------------------------------------------------------------ snapshot reads


class TestSnapshotReads:
    def test_plain_reader_sees_committed_while_txn_pending(self):
        stack = _xftl_stack()
        fs = stack.fs
        handle = fs.create("data.bin")
        base = fs.txn_manager.begin()
        handle.write_page(0, ("committed",), txn=base)
        fs.fsync(handle, txn=base)

        pending = fs.txn_manager.begin()
        handle.write_page(0, ("pending",), txn=pending)
        # Snapshot isolation: a reader with no transaction resolves the
        # page through the committed L2P even though the dirty cached
        # copy belongs to the pending transaction.
        assert handle.read_page(0) == ("committed",)
        # The writer itself still sees its own uncommitted data.
        assert handle.read_page_tx(0, pending) == ("pending",)

    def test_foreign_transaction_sees_committed(self):
        stack = _xftl_stack()
        fs = stack.fs
        handle = fs.create("data.bin")
        base = fs.txn_manager.begin()
        handle.write_page(0, ("committed",), txn=base)
        fs.fsync(handle, txn=base)

        writer = fs.txn_manager.begin()
        reader = fs.txn_manager.begin()
        handle.write_page(0, ("mine",), txn=writer)
        assert handle.read_page_tx(0, reader) == ("committed",)
        assert handle.read_page_tx(0, writer) == ("mine",)

    def test_commit_publishes_to_plain_readers(self):
        stack = _xftl_stack()
        fs = stack.fs
        handle = fs.create("data.bin")
        txn = fs.txn_manager.begin()
        handle.write_page(0, ("value",), txn=txn)
        fs.fsync(handle, txn=txn)
        assert handle.read_page(0) == ("value",)


# ------------------------------------------------------------- group commit


def _sessions_stack():
    return build_stack(
        StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=64)
    )


def _run_interleaved(stack, n_sessions, txns_each, group_commit=True):
    """N sessions, each its own db, interleaved inserts with commit parking."""
    scheduler = SessionScheduler(stack, group_commit=group_commit)
    sessions, dbs = [], []
    for index in range(n_sessions):
        session = stack.open_session(name=f"s{index}")
        db = session.open_database(f"db{index}.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        scheduler.prepare(db)
        sessions.append(session)
        dbs.append(db)

    def task(index, db):
        for n in range(txns_each):
            db.begin()
            db.execute("INSERT INTO t VALUES (?, ?)", (n, f"v{index}"))
            db.commit()
            yield scheduler.commit_token(db)

    scheduler.run(task(index, db) for index, db in enumerate(dbs))
    return scheduler, sessions, dbs


class TestGroupCommit:
    def test_four_sessions_under_one_flush_per_commit(self):
        stack = _sessions_stack()
        flushes0 = stack.ftl.stats.xl2p_flushes
        scheduler, sessions, dbs = _run_interleaved(stack, 4, 6)
        commits = sum(session.counts.commits for session in sessions)
        flushes = stack.ftl.stats.xl2p_flushes - flushes0
        assert commits == 24
        assert flushes / commits < 1.0
        assert scheduler.groups_committed == 6  # one sweep per round
        assert scheduler.transactions_grouped == 24
        for db in dbs:
            assert db.execute("SELECT COUNT(*) FROM t") == [(6,)]
        assert stack.fs.txn_manager.live_count == 0

    def test_grouping_programs_identical_data_pages(self):
        grouped = _sessions_stack()
        serial = _sessions_stack()
        g0 = grouped.chip.stats.snapshot()
        s0 = serial.chip.stats.snapshot()
        _run_interleaved(grouped, 4, 6, group_commit=True)
        _run_interleaved(serial, 4, 6, group_commit=False)
        g = grouped.chip.stats.delta(g0)
        s = serial.chip.stats.delta(s0)
        # Same statement streams -> same data pages programmed; only the
        # commit protocol (X-L2P flush count) may differ.
        assert g.host_page_writes == s.host_page_writes
        assert g.xl2p_flushes < s.xl2p_flushes

    def test_single_session_group_path_matches_plain_commit(self):
        # A group of one must take the plain commit path bit for bit.
        deferred = _sessions_stack()
        plain = _sessions_stack()

        _run_interleaved(deferred, 1, 5, group_commit=True)

        session = plain.open_session(name="s0")
        db = session.open_database("db0.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        for n in range(5):
            db.begin()
            db.execute("INSERT INTO t VALUES (?, ?)", (n, "v0"))
            db.commit()

        assert deferred.chip.stats.as_dict() == plain.chip.stats.as_dict()
        assert deferred.clock.now_us == plain.clock.now_us

    def test_read_only_transactions_commit_inline(self):
        stack = _sessions_stack()
        scheduler = SessionScheduler(stack)
        session = stack.open_session()
        db = session.open_database("r.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        scheduler.prepare(db)
        db.begin()
        db.execute("SELECT * FROM t")
        db.commit()  # nothing dirty: completes inline, nothing staged
        assert not db.pending_commit
        assert scheduler.commit_token(db) is None
        assert session.counts.commits == 1

    def test_staged_commit_blocks_new_work_until_finished(self):
        stack = _sessions_stack()
        scheduler = SessionScheduler(stack)
        session = stack.open_session()
        db = session.open_database("s.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        scheduler.prepare(db)
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.commit()
        assert db.pending_commit
        with pytest.raises(DatabaseError, match="staged"):
            db.rollback()
        db.finish_commit()
        assert not db.pending_commit
        assert db.execute("SELECT COUNT(*) FROM t") == [(1,)]

    def test_a_write_while_staged_raises_before_it_dirties_a_page(self):
        """The staged pages are already on the device, so the group's commit
        would never write a page this INSERT dirtied: the row would show in
        the cache and be gone after a power cycle."""
        stack = _sessions_stack()
        scheduler = SessionScheduler(stack)
        session = stack.open_session()
        db = session.open_database("w.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        scheduler.prepare(db)
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.commit()
        staged_pages = set(db.pager._dirty)
        with pytest.raises(DatabaseError, match="staged"):
            db.execute("INSERT INTO t VALUES (2)")
        assert set(db.pager._dirty) == staged_pages
        stack.fs.commit_tx_group([db.staged_txn])
        db.finish_commit()
        assert db.execute("SELECT a FROM t") == [(1,)]
        stack.remount_after_crash()
        assert stack.open_database("w.db").execute("SELECT a FROM t") == [(1,)]

    def test_group_commit_inert_on_non_transactional_stack(self):
        stack = build_stack(
            StackConfig(mode=Mode.WAL, num_blocks=256, pages_per_block=64)
        )
        scheduler = SessionScheduler(stack)
        assert not scheduler.group_commit
        session = stack.open_session()
        db = session.open_database("w.db")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        scheduler.prepare(db)
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.commit()  # commits inline: deferral never arms outside OFF mode
        assert not db.pending_commit
        assert session.counts.commits == 1


# -------------------------------------------------------- crash consistency


class TestGroupCommitCrash:
    @pytest.mark.parametrize("point", ["xftl.group.flush", "xftl.group.publish"])
    @pytest.mark.parametrize("after", [1, 2, 3])
    def test_group_crash_points_recover_clean(self, point, after):
        result = run_scenario("ftl.xftl.group", point, after=after, seed=3)
        assert result.ok, result.violations

    @pytest.mark.parametrize("point", ["xftl.group.flush", "xftl.group.publish"])
    def test_concurrent_sqlite_group_crash_recovers_clean(self, point):
        result = run_scenario("sqlite.concurrent", point, after=1, seed=5)
        assert result.ok, result.violations
        assert result.fired
