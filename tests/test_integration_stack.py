"""Whole-stack integration tests: SQL down to flash cells and back.

These tests cut across every layer at once — checking cross-layer
bookkeeping (page accounting between SQLite, ext4 and the FTL), long mixed
workloads with GC churn, and multi-database coexistence on one device.
"""

import pytest

from repro.stack import Mode, StackConfig, build_stack
from repro.ftl.base import FtlConfig


def make_stack(mode=Mode.XFTL, **kwargs):
    kwargs.setdefault("num_blocks", 384)
    kwargs.setdefault("pages_per_block", 64)
    return build_stack(StackConfig(mode=mode, **kwargs))


def _drive_small_cache(stack):
    """Writes that overflow a 4-page fs cache (steals) and a 12-page journal
    (checkpoints)."""
    if stack.config.mode.is_database_mode:
        db = stack.open_database("x.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        for txn in range(6):
            db.execute("BEGIN")
            for i in range(60):
                db.execute("INSERT INTO t VALUES (?, ?)", (txn * 100 + i, "v" * 200))
            db.execute("COMMIT")
    else:
        handle = stack.fs.create("data.bin")
        for rnd in range(10):
            for index in range(rnd * 3, rnd * 3 + 6):  # the file grows: fresh metadata
                handle.write_page(index, (rnd, index))
            handle.fsync()


class TestCrossLayerAccounting:
    @pytest.mark.parametrize(
        "mode", [Mode.RBJ, Mode.WAL, Mode.XFTL, Mode.FS_ORDERED, Mode.FS_FULL]
    )
    def test_every_host_write_reaches_the_chip(self, mode):
        stack = make_stack(mode, fs_cache_pages=4, journal_pages=12)
        fs, device = stack.fs, stack.device
        chip_before = stack.ftl.stats.snapshot()
        fs_before = fs.stats.snapshot()
        dev_before = device.counters.snapshot()
        _drive_small_cache(stack)
        assert fs.cache.counts.dirty_evictions > 0  # the steal path ran
        if fs.journal is not None:
            assert fs.journal.counts.checkpoints > 0
        fs_delta = fs.stats.delta(fs_before)
        fs_writes = (
            fs_delta.data_page_writes + fs_delta.meta_page_writes + fs_delta.journal_page_writes
        )
        dev = device.counters.delta(dev_before)
        # One count per page the file system sends: each is one write command.
        assert fs_writes == dev.writes + dev.tagged_writes + dev.barrier_writes > 0
        # Every command lands on the chip, plus map/X-L2P overhead.
        assert stack.ftl.stats.delta(chip_before).page_programs >= fs_writes

    def test_xftl_commit_count_matches_transactions(self):
        stack = make_stack(Mode.XFTL)
        db = stack.open_database("x.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        commits_before = stack.ftl.stats.snapshot()
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?)", (i,))  # autocommit each
        assert stack.ftl.stats.delta(commits_before).commits == 10

    def test_ftl_invariants_after_long_workload(self):
        stack = make_stack(Mode.XFTL)
        db = stack.open_database("x.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("CREATE INDEX iv ON t (v)")
        for round_number in range(30):
            db.execute("BEGIN")
            for i in range(20):
                db.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    (round_number * 100 + i, f"r{round_number}"),
                )
            db.execute("COMMIT")
            db.execute("DELETE FROM t WHERE v = ?", (f"r{round_number - 2}",))
        stack.ftl.check_invariants()
        expected = 2 * 20  # only rounds 28 and 29 survive the rolling deletes
        assert db.execute("SELECT COUNT(*) FROM t")[0][0] == expected


class TestMultiDatabaseCoexistence:
    def test_many_databases_one_device(self):
        stack = make_stack(Mode.XFTL)
        connections = {}
        for index in range(5):
            db = stack.open_database(f"app{index}.db")
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            db.execute("INSERT INTO t VALUES (1, ?)", (f"owner-{index}",))
            connections[index] = db
        for index, db in connections.items():
            assert db.execute("SELECT v FROM t") == [(f"owner-{index}",)]

    def test_databases_isolated_after_crash(self):
        stack = make_stack(Mode.XFTL)
        for index in range(3):
            db = stack.open_database(f"app{index}.db")
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            db.execute("INSERT INTO t VALUES (1, ?)", (f"v{index}",))
        # One database has an in-flight transaction at the crash.
        victim = stack.open_database("app1.db")
        victim.execute("BEGIN")
        victim.execute("UPDATE t SET v = 'doomed' WHERE id = 1")
        stack.remount_after_crash()
        for index in range(3):
            db = stack.open_database(f"app{index}.db")
            assert db.execute("SELECT v FROM t") == [(f"v{index}",)]


class TestGcUnderSqlWorkload:
    def test_sustained_overwrites_trigger_gc_and_stay_correct(self):
        from repro.bench.aging import age_device

        stack = make_stack(Mode.XFTL, num_blocks=192, ftl=FtlConfig(gc_policy="greedy"))
        db = stack.open_database("x.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for i in range(200):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "initial"))
        db.execute("COMMIT")
        age_device(stack, 0.4)  # free pool six blocks above the GC edge
        for round_number in range(200):  # GC first runs in round 132
            db.execute("BEGIN")
            for i in range(0, 200, 10):
                db.execute(
                    "UPDATE t SET v = ? WHERE id = ?", (f"round-{round_number}", i)
                )
            db.execute("COMMIT")
        assert stack.ftl.stats.gc_invocations > 0
        stack.ftl.check_invariants()
        assert db.execute("SELECT COUNT(*) FROM t") == [(200,)]
        assert db.execute("SELECT v FROM t WHERE id = 0") == [("round-199",)]
        assert db.execute("SELECT v FROM t WHERE id = 1") == [("initial",)]

    def test_crash_during_gc_heavy_phase(self):
        from repro.errors import PowerFailure

        stack = make_stack(Mode.XFTL, num_blocks=192)
        db = stack.open_database("x.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for i in range(100):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "committed"))
        db.execute("COMMIT")
        # Heavy churn, then crash somewhere deep inside it.
        stack.crash_plan.arm("flash.program.after", after=500)
        committed_rounds = 0
        try:
            for round_number in range(100):
                db.execute("BEGIN")
                for i in range(50):
                    db.execute(
                        "UPDATE t SET v = ? WHERE id = ?", (f"r{round_number}", i)
                    )
                db.execute("COMMIT")
                committed_rounds += 1
        except PowerFailure:
            pass
        stack.crash_plan.disarm_all()
        stack.remount_after_crash()
        db2 = stack.open_database("x.db")
        values = {v for (v,) in db2.execute("SELECT v FROM t WHERE id < 50")}
        assert len(values) == 1  # all 50 rows agree: commit was atomic
        assert db2.execute("SELECT COUNT(*) FROM t") == [(100,)]
