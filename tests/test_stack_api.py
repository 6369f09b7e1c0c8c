"""Tests for the redesigned top-level stack API.

``repro.stack`` (and its ``repro.open_stack`` front door) replaced
``repro.bench.runner`` as the home of stack assembly.  These tests pin the
new surface: mode coercion, the Mode enum as single source of truth for
journal modes, and the ``snapshot()``/``delta()`` protocol on the stats
accumulators.
"""

import pytest

import repro
from repro.device.commands import DeviceCounters
from repro.flash.stats import FlashStats
from repro.fs.ext4 import FsStats, JournalMode
from repro.sqlite.pager import SqliteJournalMode
from repro.stack import Mode, StackConfig, build_stack, open_stack


class TestOpenStack:
    def test_top_level_reexport(self):
        assert repro.open_stack is open_stack
        assert repro.Mode is Mode
        assert repro.StackConfig is StackConfig
        assert repro.build_stack is build_stack

    @pytest.mark.parametrize("spec", ["X-FTL", "xftl", "XFTL", Mode.XFTL])
    def test_mode_coercion_spellings(self, spec):
        stack = open_stack(spec, num_blocks=64, pages_per_block=32)
        assert stack.config.mode is Mode.XFTL

    def test_unknown_mode_lists_valid_names(self):
        with pytest.raises(ValueError, match="unknown stack mode"):
            Mode.coerce("btrfs")

    def test_overrides_reach_the_config(self):
        stack = open_stack("wal", num_blocks=64, pages_per_block=32, journal_pages=99)
        assert stack.config.num_blocks == 64
        assert stack.config.journal_pages == 99

    def test_metrics_off_by_default(self):
        stack = open_stack("rbj", num_blocks=64, pages_per_block=32)
        assert not stack.obs.enabled

    def test_metrics_flag_enables_registry(self):
        stack = open_stack("rbj", metrics=True, num_blocks=64, pages_per_block=32)
        assert stack.obs.enabled
        assert stack.obs.meta["mode"] == "RBJ"

    def test_trace_implies_metrics(self):
        stack = open_stack("X-FTL", trace=True, num_blocks=64, pages_per_block=32)
        assert stack.obs.enabled
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        assert [s for s in stack.obs.tracer.find("commit") if s.layer == "sqlite"]
        assert stack.obs.registry.counters_of_layer("flash")

    def test_config_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            build_stack(StackConfig(), num_blocks=64)


class TestSessionNames:
    def test_an_open_name_raises_and_generated_names_skip_taken_ones(self):
        stack = build_stack(mode=Mode.XFTL, num_blocks=128, pages_per_block=64, metrics=True)
        stack.open_session("s1")
        with pytest.raises(ValueError, match="'s1' is already open"):
            stack.open_session("s1")
        assert [stack.open_session().name for _ in range(3)] == ["s2", "s3", "s4"]
        stack.open_session("s6")
        assert [stack.open_session().name for _ in range(2)] == ["s5", "s7"]

    def test_each_session_counts_into_its_own_names(self):
        stack = build_stack(mode=Mode.XFTL, num_blocks=128, pages_per_block=64, metrics=True)
        sessions = [stack.open_session(), stack.open_session()]
        for commits, session in zip((1, 2), sessions):
            db = session.open_database(f"{session.name}.db")
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            for i in range(commits):
                db.execute("BEGIN")
                db.execute("INSERT INTO t VALUES (?)", (i,))
                db.execute("COMMIT")
        registry = stack.obs.registry
        for session in sessions:
            assert registry.counter_value(f"session.{session.name}.commits") == (
                session.counts.commits
            )
        assert [session.counts.commits for session in sessions] == [1, 2]


class TestModeSingleSourceOfTruth:
    @pytest.mark.parametrize(
        ("mode", "expected"),
        [
            (Mode.RBJ, SqliteJournalMode.ROLLBACK),
            (Mode.WAL, SqliteJournalMode.WAL),
            (Mode.XFTL, SqliteJournalMode.OFF),
        ],
    )
    def test_sqlite_journal_modes(self, mode, expected):
        assert mode.sqlite_journal_mode() is expected

    @pytest.mark.parametrize(
        ("mode", "expected"),
        [
            (Mode.RBJ, JournalMode.ORDERED),
            (Mode.WAL, JournalMode.ORDERED),
            (Mode.XFTL, JournalMode.XFTL),
            (Mode.FS_ORDERED, JournalMode.ORDERED),
            (Mode.FS_FULL, JournalMode.FULL),
            (Mode.FS_NONE, JournalMode.NONE),
        ],
    )
    def test_fs_journal_modes(self, mode, expected):
        assert mode.fs_journal_mode() is expected

    @pytest.mark.parametrize("mode", [Mode.FS_ORDERED, Mode.FS_FULL, Mode.FS_NONE])
    def test_fs_only_modes_have_no_sqlite_journal_mode(self, mode):
        assert not mode.is_database_mode
        with pytest.raises(ValueError, match="file-system-only"):
            mode.sqlite_journal_mode()

    @pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
    def test_database_modes_flagged(self, mode):
        assert mode.is_database_mode


class TestShimRemoved:
    def test_runner_shim_is_gone(self):
        # The deprecated re-export module promised its own removal; imports
        # must now fail instead of warning.
        with pytest.raises(ModuleNotFoundError):
            import repro.bench.runner  # noqa: F401


class TestStatsDelta:
    def test_flash_stats_delta(self):
        stats = FlashStats(page_programs=10, barriers=2)
        before = stats.snapshot()
        stats.page_programs += 5
        stats.barriers += 1
        delta = stats.delta(before)
        assert delta.page_programs == 5
        assert delta.barriers == 1
        assert delta.page_reads == 0
        # snapshot() is an independent copy, not an alias.
        assert before.page_programs == 10

    def test_fs_stats_delta(self):
        stats = FsStats(data_page_writes=4, fsync_calls=1)
        before = stats.snapshot()
        stats.data_page_writes += 3
        assert stats.delta(before).data_page_writes == 3

    def test_device_counters_delta(self):
        counters = DeviceCounters(writes=7)
        before = counters.snapshot()
        counters.writes += 2
        counters.commits += 1
        delta = counters.delta(before)
        assert delta.writes == 2
        assert delta.commits == 1
