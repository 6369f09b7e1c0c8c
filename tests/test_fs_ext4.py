"""Unit and integration tests for the ext4 model."""

from array import array

import pytest

from repro.device import StorageDevice
from repro.errors import (
    FileExistsFsError,
    FileNotFoundFsError,
    FsError,
    PowerFailure,
    TransactionError,
)
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.fs.ext4 import DIRECT_PTRS, NO_BLOCK
from repro.ftl import FtlConfig, XFTL
from repro.sim import CrashPlan
from repro.stack import Mode, StackConfig, build_stack


def make_device(num_blocks=128, pages_per_block=32, crash_plan=None):
    geometry = FlashGeometry(page_size=8192, pages_per_block=pages_per_block, num_blocks=num_blocks)
    chip = FlashChip(geometry, crash_plan=crash_plan)
    return StorageDevice(XFTL(chip, FtlConfig(overprovision=0.15)))


def make_fs(mode=JournalMode.ORDERED, crash_plan=None, **kwargs):
    device = make_device(crash_plan=crash_plan)
    kwargs.setdefault("journal_pages", 64)
    return device, Ext4.mkfs(device, mode, **kwargs)


ALL_MODES = [JournalMode.ORDERED, JournalMode.FULL, JournalMode.XFTL, JournalMode.NONE]


class TestFileOperations:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_create_write_read(self, mode):
        _dev, fs = make_fs(mode)
        handle = fs.create("a.txt")
        handle.write_page(0, ("hello",))
        assert handle.read_page(0) == ("hello",)

    def test_create_duplicate_rejected(self):
        _dev, fs = make_fs()
        fs.create("a")
        with pytest.raises(FileExistsFsError):
            fs.create("a")

    def test_open_missing_rejected(self):
        _dev, fs = make_fs()
        with pytest.raises(FileNotFoundFsError):
            fs.open("missing")

    def test_unlink(self):
        _dev, fs = make_fs()
        fs.create("a")
        fs.unlink("a")
        assert not fs.exists("a")
        with pytest.raises(FileNotFoundFsError):
            fs.unlink("a")

    def test_listdir(self):
        _dev, fs = make_fs()
        fs.create("b")
        fs.create("a")
        assert fs.listdir() == ["a", "b"]

    def test_sparse_read_returns_none(self):
        _dev, fs = make_fs()
        handle = fs.create("a")
        handle.write_page(10, ("x",))
        assert handle.read_page(3) is None

    def test_size_tracks_highest_page(self):
        _dev, fs = make_fs()
        handle = fs.create("a")
        handle.write_page(4, ("x",))
        assert handle.n_pages == 5
        assert handle.size_bytes == 5 * 8192

    def test_indirect_blocks_beyond_direct_pointers(self):
        _dev, fs = make_fs()
        handle = fs.create("big")
        for index in range(40):  # > 12 direct pointers
            handle.write_page(index, ("page", index))
        handle.fsync()
        for index in range(40):
            assert handle.read_page(index) == ("page", index)

    def test_truncate_frees_blocks(self):
        _dev, fs = make_fs()
        handle = fs.create("a")
        for index in range(20):
            handle.write_page(index, ("x", index))
        handle.fsync()
        free_before = fs._free_map.count(1)
        handle.truncate(5)
        assert handle.n_pages == 5
        assert fs._free_map.count(1) > free_before
        assert handle.read_page(10) is None
        assert handle.read_page(4) == ("x", 4)

    def test_unlink_frees_all_blocks(self):
        _dev, fs = make_fs()
        handle = fs.create("a")
        for index in range(30):
            handle.write_page(index, ("x",))
        handle.fsync()
        free_before = fs._free_map.count(1)
        fs.unlink("a")
        assert fs._free_map.count(1) >= free_before + 30

    def test_unlink_before_sync_drops_a_dirty_indirect_block(self):
        """An unlinked file's indirect block has no image left to render:
        the next metadata sync must not try to write it."""
        _dev, fs = make_fs()
        handle = fs.create("a")
        for index in range(20):  # past the direct pointers: one indirect block
            handle.write_page(index, ("x", index))
        (ind_lpn,) = handle.inode.indirect
        fs.unlink("a")
        fs.sync_metadata()
        assert fs._free_map[ind_lpn - fs.data_start] == 1

    def test_inode_numbers_reused_after_unlink(self):
        """Create/delete churn (SQLite journals) must not exhaust inodes."""
        _dev, fs = make_fs(max_inodes=8)
        for round_number in range(50):
            handle = fs.create("journal")
            handle.write_page(0, ("j", round_number))
            fs.fsync(handle)
            fs.unlink("journal")
            fs.sync_metadata()


class TestIndirectBlocks:
    """An indirect block is an ``array('i')`` with ``NO_BLOCK`` for a hole;
    its ``"ind"`` image is a copy, and mount copies it back."""

    @staticmethod
    def _stack(mode=Mode.FS_ORDERED):
        # 512-byte pages: 64 pointers per indirect block.
        return build_stack(
            StackConfig(mode=mode, page_size=512, num_blocks=128, pages_per_block=64)
        )

    @staticmethod
    def _seen(fs, pages):
        handle = fs.open("big")
        lookups = [fs._lookup_block(handle.inode, index) for index in range(pages)]
        return handle.n_pages, lookups, [handle.read_page(index) for index in range(pages)]

    @pytest.mark.parametrize("mode", [Mode.FS_ORDERED, Mode.FS_FULL])
    def test_truncate_into_the_indirect_range_survives_remount(self, mode):
        stack = self._stack(mode)
        fs = stack.fs
        per = fs.ptrs_per_page
        pages = DIRECT_PTRS + per + per // 2  # half way into a second indirect block
        handle = fs.create("big")
        for index in range(pages):
            handle.write_page(index, ("page", index))
        handle.fsync()
        assert len(handle.inode.indirect) == 2
        keep = DIRECT_PTRS + per // 2  # back inside the first indirect block
        handle.truncate(keep)
        handle.fsync()
        before = self._seen(fs, pages)
        assert before[0] == keep
        assert None not in before[1][:keep] and before[1][keep:] == [None] * (pages - keep)
        assert before[2] == [("page", index) for index in range(keep)] + [None] * (pages - keep)
        first, second = handle.inode.indirect
        assert fs._indirect[first][per // 2 :].tolist() == [NO_BLOCK] * (per - per // 2)
        assert fs._indirect[second].tolist() == [NO_BLOCK] * per
        free = bytes(fs._free_map)
        stack.remount_after_crash()
        assert self._seen(stack.fs, pages) == before
        assert bytes(stack.fs._free_map) == free

    def test_ind_image_is_an_array_snapshot(self):
        stack = self._stack(Mode.FS_NONE)  # no journal: a sync writes the image home
        fs = stack.fs
        handle = fs.create("big")
        for index in range(DIRECT_PTRS + 2):
            handle.write_page(index, ("page", index))
        handle.fsync()
        (ind_lpn,) = handle.inode.indirect
        image = stack.device.read(ind_lpn)
        assert image[0] == "ind" and type(image[2]) is array and image[2].typecode == "i"
        held = image[2].tolist()
        assert held[:2] != [NO_BLOCK] * 2 and held[2:] == [NO_BLOCK] * (fs.ptrs_per_page - 2)
        handle.write_page(DIRECT_PTRS + 2, ("page", DIRECT_PTRS + 2))  # a pointer in that block
        assert fs._indirect[ind_lpn][2] != NO_BLOCK
        assert image[2].tolist() == held
        assert stack.device.read(ind_lpn)[2].tolist() == held
        handle.fsync()
        assert stack.device.read(ind_lpn)[2].tolist() == fs._indirect[ind_lpn].tolist() != held


class TestFsyncAccounting:
    def test_fsync_counts(self):
        _dev, fs = make_fs()
        handle = fs.create("a")
        handle.write_page(0, ("x",))
        fs.fsync(handle)
        assert fs.stats.fsync_calls == 1

    def test_ordered_mode_journals_metadata_only(self):
        _dev, fs = make_fs(JournalMode.ORDERED)
        handle = fs.create("a")
        handle.write_page(0, ("x",))
        data0 = fs.stats.data_page_writes
        journal0 = fs.stats.journal_page_writes
        fs.fsync(handle)
        assert fs.stats.data_page_writes == data0 + 1  # data in place, once
        assert fs.stats.journal_page_writes > journal0  # frame around metadata

    def test_full_mode_journals_data_too(self):
        _dev, fs = make_fs(JournalMode.FULL)
        handle = fs.create("a")
        handle.write_page(0, ("x",))
        data0 = fs.stats.data_page_writes
        fs.fsync(handle)
        # Data went into the journal, not home (it goes home at checkpoint).
        assert fs.stats.data_page_writes == data0

    def test_xftl_mode_uses_tagged_writes_and_commit(self):
        device, fs = make_fs(JournalMode.XFTL)
        handle = fs.create("a")
        txn = fs.txn_manager.begin()
        handle.write_page(0, ("x",), txn=txn)
        fs.fsync(handle, txn=txn)
        assert device.counters.tagged_writes > 0
        assert device.counters.commits == 1
        assert fs.stats.journal_page_writes == 0

    def test_xftl_mode_requires_transactional_device(self):
        geometry = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)
        from repro.ftl import PageMappingFTL

        plain = StorageDevice(PageMappingFTL(FlashChip(geometry)))
        with pytest.raises(FsError):
            Ext4(plain, JournalMode.XFTL, journal_pages=12)


class TestAbort:
    def test_abort_drops_cached_writes(self):
        _dev, fs = make_fs(JournalMode.XFTL)
        handle = fs.create("a")
        base = fs.txn_manager.begin()
        handle.write_page(0, ("committed",), txn=base)
        fs.fsync(handle, txn=base)
        txn = fs.txn_manager.begin()
        handle.write_page(0, ("doomed",), txn=txn)
        fs.ioctl_abort(txn)
        assert handle.read_page(0) == ("committed",)

    def test_abort_rolls_back_stolen_writes(self):
        """Dirty pages evicted to the device pre-commit must roll back."""
        device, fs = make_fs(JournalMode.XFTL, cache_capacity=4)
        handle = fs.create("a")
        base = fs.txn_manager.begin()
        for index in range(10):
            handle.write_page(index, ("base", index), txn=base)
        fs.fsync(handle, txn=base)
        txn = fs.txn_manager.begin()
        for index in range(10):  # overflows the 4-page cache: steals happen
            handle.write_page(index, ("doomed", index), txn=txn)
        assert device.counters.tagged_writes > 10  # some stolen pre-commit
        fs.ioctl_abort(txn)
        for index in range(10):
            assert handle.read_page(index) == ("base", index)

    def test_transaction_reads_own_stolen_writes(self):
        _dev, fs = make_fs(JournalMode.XFTL, cache_capacity=4)
        handle = fs.create("a")
        txn = fs.txn_manager.begin()
        for index in range(10):
            handle.write_page(index, ("mine", index), txn=txn)
        assert handle.read_page_tx(0, txn) == ("mine", 0)

    def test_other_readers_see_committed_during_steal(self):
        _dev, fs = make_fs(JournalMode.XFTL, cache_capacity=4)
        handle = fs.create("a")
        base = fs.txn_manager.begin()
        for index in range(10):
            handle.write_page(index, ("base", index), txn=base)
        fs.fsync(handle, txn=base)
        txn = fs.txn_manager.begin()
        for index in range(10):
            handle.write_page(index, ("pending", index), txn=txn)
        # Pages 0.. were stolen to the device; a plain read sees committed.
        assert handle.read_page(0) == ("base", 0)


class TestRawTidRejected:
    def test_raw_int_tid_raises_at_the_entry_point(self):
        """A raw integer tid is a typed error at every ``txn=`` front door,
        not an AttributeError somewhere below the page cache."""
        _dev, fs = make_fs(JournalMode.XFTL)
        handle = fs.create("a")
        calls = [
            lambda: handle.write_page(0, ("x",), txn=7),
            lambda: handle.read_page_tx(0, 7),
            lambda: fs.fsync(handle, txn=7),
            lambda: fs.fsync_group([handle], 7),
            lambda: fs.stage_tx(handle, 7),
            lambda: fs.commit_tx_group([7]),
            lambda: fs.ioctl_abort(7),
        ]
        for call in calls:
            with pytest.raises(TransactionError, match="raw integer tid"):
                call()
        assert fs.stats.fsync_calls == 0
        assert fs.txn_manager.live_count == 0


class TestGroupCommitStaging:
    """Snapshot-read staleness at the page-cache boundary (regression).

    ``stage_tx`` leaves the writer's pages *clean but txn-tagged* in the
    cache.  A foreign reader must not be handed such a page (clean used
    to mean shared): it gets the committed copy from the device instead —
    and once the writer's group commit lands, the same read must
    re-resolve to the newly committed data, not keep serving the old
    committed copy.
    """

    def _staged(self):
        _dev, fs = make_fs(JournalMode.XFTL)
        handle = fs.create("a")
        base = fs.txn_manager.begin()
        handle.write_page(0, ("committed",), txn=base)
        fs.fsync(handle, txn=base)
        txn = fs.txn_manager.begin()
        handle.write_page(0, ("pending",), txn=txn)
        fs.stage_tx(handle, txn)
        return fs, handle, txn

    def test_foreign_reader_isolated_then_refreshed_across_group_commit(self):
        fs, handle, txn = self._staged()
        # Staged window: the new copy is on the device under the writer's
        # tid, the cache holds it clean-but-tagged.  Foreign reads get the
        # committed copy (twice: the bypass must not poison the cache).
        assert handle.read_page(0) == ("committed",)
        assert handle.read_page(0) == ("committed",)
        # The writer still reads its own staged page.
        assert handle.read_page_tx(0, txn) == ("pending",)
        fs.commit_tx_group([txn])
        # The group commit landed: the foreign read re-resolves.
        assert handle.read_page(0) == ("pending",)

    def test_abort_after_stage_drops_staged_pages(self):
        fs, handle, txn = self._staged()
        fs.ioctl_abort(txn)
        assert handle.read_page(0) == ("committed",)


class TestMountAndRecovery:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_remount_preserves_synced_files(self, mode):
        device, fs = make_fs(mode)
        handle = fs.create("a")
        txn = fs.txn_manager.begin() if mode is JournalMode.XFTL else None
        for index in range(20):
            handle.write_page(index, ("v", index), txn=txn)
        fs.fsync(handle, txn=txn)
        device.power_off()
        device.power_on()
        fs2 = Ext4.mount(device, mode, journal_pages=64)
        handle2 = fs2.open("a")
        for index in range(20):
            assert handle2.read_page(index) == ("v", index)

    def test_mount_missing_fs_raises(self):
        device = make_device()
        with pytest.raises(FsError):
            Ext4.mount(device, JournalMode.ORDERED, journal_pages=64)

    def test_crash_before_fsync_loses_only_unsynced(self):
        device, fs = make_fs(JournalMode.ORDERED)
        handle = fs.create("a")
        handle.write_page(0, ("synced",))
        fs.fsync(handle)
        handle.write_page(0, ("unsynced",))  # still in page cache only
        device.power_off()
        device.power_on()
        fs2 = Ext4.mount(device, JournalMode.ORDERED, journal_pages=64)
        assert fs2.open("a").read_page(0) == ("synced",)

    def test_unlink_survives_metadata_sync_and_crash(self):
        device, fs = make_fs(JournalMode.ORDERED)
        fs.create("doomed")
        fs.sync_metadata()
        fs.unlink("doomed")
        fs.sync_metadata()
        device.power_off()
        device.power_on()
        fs2 = Ext4.mount(device, JournalMode.ORDERED, journal_pages=64)
        assert not fs2.exists("doomed")

    def test_crash_mid_journal_commit_keeps_old_metadata(self):
        plan = CrashPlan()
        device = make_device(crash_plan=plan)
        fs = Ext4.mkfs(device, JournalMode.ORDERED, journal_pages=64)
        fs.create("old")
        fs.sync_metadata()
        fs.create("new")
        # Crash during the journal frame body (before the commit page).
        plan.arm("flash.program.after", after=2)
        with pytest.raises(PowerFailure):
            fs.sync_metadata()
        device.power_off()
        device.power_on()
        fs2 = Ext4.mount(device, JournalMode.ORDERED, journal_pages=64)
        assert fs2.exists("old")
        # "new" may or may not exist depending on where the frame ended,
        # but the file system must be consistent (mount succeeded) either way.

    def test_xftl_mode_crash_drops_uncommitted_metadata(self):
        device, fs = make_fs(JournalMode.XFTL)
        handle = fs.create("a")
        txn = fs.txn_manager.begin()
        handle.write_page(0, ("v",), txn=txn)
        fs.fsync(handle, txn=txn)
        fs.create("b")  # metadata dirty but never committed
        device.power_off()
        device.power_on()
        fs2 = Ext4.mount(device, JournalMode.XFTL, journal_pages=64)
        assert fs2.exists("a")
        assert not fs2.exists("b")
