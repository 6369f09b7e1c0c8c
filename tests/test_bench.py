"""Tests for the benchmark harness: stack assembly, aging, reporting."""

import pytest

from repro.bench.aging import age_device
from repro.bench.reporting import format_table
from repro.stack import Mode, StackConfig, build_stack, open_stack
from repro.ftl import FtlConfig, XFTL, PageMappingFTL
from repro.fs.ext4 import JournalMode


class TestBuildStack:
    def test_xftl_mode_uses_xftl_firmware(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=128))
        assert isinstance(stack.ftl, XFTL)
        assert stack.fs.mode is JournalMode.XFTL

    def test_rbj_and_wal_use_stock_firmware(self):
        for mode in (Mode.RBJ, Mode.WAL):
            stack = build_stack(StackConfig(mode=mode, num_blocks=128))
            assert type(stack.ftl) is PageMappingFTL
            assert stack.fs.mode is JournalMode.ORDERED

    def test_fs_modes(self):
        assert build_stack(StackConfig(mode=Mode.FS_FULL, num_blocks=128)).fs.mode is (
            JournalMode.FULL
        )
        assert build_stack(StackConfig(mode=Mode.FS_NONE, num_blocks=128)).fs.mode is (
            JournalMode.NONE
        )

    def test_keyword_overrides(self):
        stack = open_stack(Mode.XFTL, num_blocks=64)
        assert stack.chip.geometry.num_blocks == 64

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(TypeError):
            build_stack(StackConfig(), num_blocks=64)

    def test_open_database_rejected_for_fs_modes(self):
        stack = build_stack(StackConfig(mode=Mode.FS_FULL, num_blocks=128))
        with pytest.raises(ValueError):
            stack.open_database()

    def test_remount_after_crash(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=128))
        db = stack.open_database("a.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        stack.remount_after_crash()
        db2 = stack.open_database("a.db")
        assert db2.execute("SELECT COUNT(*) FROM t") == [(1,)]


class TestAging:
    def test_target_validity_reached(self):
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=256, ftl=FtlConfig(gc_policy="fifo"))
        )
        surviving = age_device(stack, 0.5)
        assert surviving > 0
        # Now hammer writes and check the carried-over ratio tracks ~50%.
        for round_number in range(20):
            for lpn in range(64):
                stack.ftl.write(lpn, ("hot", round_number))
        measured = stack.ftl.gc_mean_valid_ratio()
        assert 0.30 <= measured <= 0.65

    def test_higher_validity_more_copyback(self):
        copybacks = {}
        for validity in (0.3, 0.7):
            stack = build_stack(
                StackConfig(mode=Mode.XFTL, num_blocks=256, ftl=FtlConfig(gc_policy="fifo"))
            )
            age_device(stack, validity)
            before = stack.ftl.stats.gc_copyback_writes
            for round_number in range(20):
                for lpn in range(64):
                    stack.ftl.write(lpn, ("hot", round_number))
            copybacks[validity] = stack.ftl.stats.gc_copyback_writes - before
        assert copybacks[0.7] > copybacks[0.3]

    def test_leaves_free_pool_near_threshold(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256))
        age_device(stack, 0.5)
        threshold = stack.ftl.config.gc_free_block_threshold
        assert stack.ftl.free_block_count() <= threshold + 6 + 2  # six blocks of headroom

    def test_invalid_validity_rejected(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256))
        with pytest.raises(ValueError):
            age_device(stack, 1.5)

    def test_filler_does_not_corrupt_files(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256))
        db = stack.open_database("safe.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for i in range(100):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("COMMIT")
        age_device(stack, 0.5)
        for i in (0, 50, 99):
            assert db.execute("SELECT v FROM t WHERE id = ?", (i,)) == [(f"v{i}",)]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_number_formatting(self):
        text = format_table(["n"], [[1234567], [3.14159], [12.5], [0.0], [True]])
        assert "1,234,567" in text
        assert "3.142" in text
        assert "12.5" in text
        assert "True" in text  # a bool, not the int 1
