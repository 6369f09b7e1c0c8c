"""Unit tests for the pager's journal-mode machinery."""

import sqlite3
from collections import OrderedDict

import pytest

from repro.device import StorageDevice
from repro.errors import DatabaseError
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.fs.ext4 import FileHandle
from repro.ftl import FtlConfig, XFTL
from repro.sqlite.btree import LeafPage, page_from_image
from repro.sqlite.pager import DbHeader, Pager, SqliteJournalMode
from repro.stack import Mode, StackConfig, build_stack

FS_FOR_MODE = {
    SqliteJournalMode.ROLLBACK: JournalMode.ORDERED,
    SqliteJournalMode.WAL: JournalMode.ORDERED,
    SqliteJournalMode.OFF: JournalMode.XFTL,
}


def make_fs(sqlite_mode):
    geometry = FlashGeometry(page_size=2048, pages_per_block=32, num_blocks=128)
    device = StorageDevice(XFTL(FlashChip(geometry), FtlConfig(overprovision=0.15)))
    return device, Ext4.mkfs(device, FS_FOR_MODE[sqlite_mode], journal_pages=32)


def make_pager(mode, fs=None, **kwargs):
    if fs is None:
        _device, fs = make_fs(mode)
    return Pager(fs, "p.db", mode, page_decoder=page_from_image, **kwargs)


def leaf(*pairs):
    page = LeafPage()
    for key, payload in pairs:
        from repro.sqlite.records import key_sort_tuple

        page.keys.append(key)
        page.sort_keys.append(key_sort_tuple(key))
        page.cells.append((payload, None, len(payload)))
    return page


ALL_MODES = [SqliteJournalMode.ROLLBACK, SqliteJournalMode.WAL, SqliteJournalMode.OFF]


class TestDbHeader:
    def test_round_trip(self):
        header = DbHeader(page_count=9, freelist=[3, 5], schema_cookie=2)
        assert DbHeader.from_image(header.to_image()) == DbHeader(
            page_count=9, freelist=[3, 5], schema_cookie=2
        )


class TestTransactionLifecycle:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_begin_commit_cycle(self, mode):
        pager = make_pager(mode)
        pager.begin()
        assert pager.in_txn
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        assert not pager.in_txn
        assert pager.get(pno).keys == [(1,)]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_double_begin_rejected(self, mode):
        pager = make_pager(mode)
        pager.begin()
        with pytest.raises(DatabaseError):
            pager.begin()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_commit_without_begin_rejected(self, mode):
        with pytest.raises(DatabaseError):
            make_pager(mode).commit()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_modification_outside_txn_rejected(self, mode):
        pager = make_pager(mode)
        with pytest.raises(DatabaseError):
            pager.mark_dirty(1, leaf())

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_rollback_discards_new_pages(self, mode):
        pager = make_pager(mode)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.rollback()
        assert pager.page_count == 1  # back to just the header

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_rollback_restores_modified_page(self, mode):
        pager = make_pager(mode)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"old")))
        pager.commit()
        pager.begin()
        page = pager.get(pno)
        page.cells[0] = (b"new", None, 3)
        pager.mark_dirty(pno, page)
        pager.rollback()
        assert pager.get(pno).cells[0][0] == b"old"

    def test_freelist_reuse(self):
        pager = make_pager(SqliteJournalMode.OFF)
        pager.begin()
        first = pager.allocate()
        pager.put_new(first, leaf())
        pager.free(first)
        second = pager.allocate()
        assert second == first
        pager.put_new(second, leaf())
        pager.commit()


class TestRollbackJournalMode:
    def test_journal_file_created_and_deleted(self):
        device, fs = make_fs(SqliteJournalMode.ROLLBACK)
        pager = make_pager(SqliteJournalMode.ROLLBACK, fs)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        pager.begin()
        page = pager.get(pno)
        pager.mark_dirty(pno, page)
        assert fs.exists("p.db-journal")  # hot while the txn runs
        pager.commit()
        assert not fs.exists("p.db-journal")

    def test_read_only_txn_creates_no_journal(self):
        device, fs = make_fs(SqliteJournalMode.ROLLBACK)
        pager = make_pager(SqliteJournalMode.ROLLBACK, fs)
        pager.begin()
        pager.commit()
        assert not fs.exists("p.db-journal")

    def test_commit_uses_three_fsyncs(self):
        device, fs = make_fs(SqliteJournalMode.ROLLBACK)
        pager = make_pager(SqliteJournalMode.ROLLBACK, fs)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        fsyncs0 = fs.stats.fsync_calls
        pager.begin()
        page = pager.get(pno)
        pager.mark_dirty(pno, page)
        pager.commit()
        # journal data + journal header + database file (Figure 1).
        assert fs.stats.fsync_calls - fsyncs0 >= 3


class TestWalMode:
    def test_commit_appends_frames_one_fsync(self):
        device, fs = make_fs(SqliteJournalMode.WAL)
        pager = make_pager(SqliteJournalMode.WAL, fs)
        fsyncs0 = fs.stats.fsync_calls
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        assert fs.stats.fsync_calls - fsyncs0 == 1
        assert fs.exists("p.db-wal")

    def test_reads_resolve_through_wal(self):
        pager = make_pager(SqliteJournalMode.WAL)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v1")))
        pager.commit()
        pager.begin()
        page = pager.get(pno)
        page.cells[0] = (b"v2", None, 2)
        pager.mark_dirty(pno, page)
        pager.commit()
        pager._cache.clear()  # force re-read from storage
        assert pager.get(pno).cells[0][0] == b"v2"

    def test_checkpoint_copies_home_and_resets(self):
        device, fs = make_fs(SqliteJournalMode.WAL)
        pager = make_pager(SqliteJournalMode.WAL, fs, checkpoint_interval=5)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        for round_number in range(8):
            pager.begin()
            page = pager.get(pno)
            page.cells[0] = (b"r%d" % round_number, None, 2)
            pager.mark_dirty(pno, page)
            pager.commit()
        assert pager._wal_frames < 5  # the WAL was reset by a checkpoint
        pager._cache.clear()
        assert pager.get(pno).cells[0][0] == b"r7"


class TestOffMode:
    def test_commit_single_fsync_and_device_commit(self):
        device, fs = make_fs(SqliteJournalMode.OFF)
        pager = make_pager(SqliteJournalMode.OFF, fs)
        fsyncs0 = fs.stats.fsync_calls
        commits0 = device.counters.commits
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        assert fs.stats.fsync_calls - fsyncs0 == 1
        assert device.counters.commits - commits0 == 1

    def test_read_only_commit_costs_nothing(self):
        device, fs = make_fs(SqliteJournalMode.OFF)
        pager = make_pager(SqliteJournalMode.OFF, fs)
        pager.begin()
        pager.commit()  # seed header write happened at bootstrap only
        fsyncs0 = fs.stats.fsync_calls
        commits0 = device.counters.commits
        pager.begin()
        pager.commit()
        assert fs.stats.fsync_calls == fsyncs0
        assert device.counters.commits == commits0

    def test_rollback_issues_device_abort(self):
        device, fs = make_fs(SqliteJournalMode.OFF)
        pager = make_pager(SqliteJournalMode.OFF, fs)
        aborts0 = device.counters.aborts
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.rollback()
        assert device.counters.aborts - aborts0 == 1

    def test_no_journal_or_wal_files(self):
        device, fs = make_fs(SqliteJournalMode.OFF)
        pager = make_pager(SqliteJournalMode.OFF, fs)
        pager.begin()
        pno = pager.allocate()
        pager.put_new(pno, leaf(((1,), b"v")))
        pager.commit()
        assert fs.listdir() == ["p.db"]


class TestCommitOrder:
    """Commit writes the dirty pages in the cache's LRU order among them,
    which is neither the order they were first dirtied in nor set order;
    rollback drops exactly the dirty pages.

    The transaction re-touches a dirty page, lets the 5-page cache steal
    two, frees one and dirties page 0 (the header) where it sits, at the
    LRU end, without touching it.
    """

    @staticmethod
    def _transaction(pager):
        pager.begin()
        for _ in range(5):  # pages 1..5, committed and clean
            pno = pager.allocate()
            pager.put_new(pno, leaf(((pno,), b"a")))
        pager.commit()
        assert list(pager._cache) == [0, 2, 3, 4, 5]
        pager.begin()
        for pno in (4, 2, 5):
            pager.mark_dirty(pno, pager.get(pno))
        pager.get(4)  # re-touch: 4 is dirtied first but is now the newest
        pager.mark_dirty(3, pager.get(3))  # every cached page but 0 is dirty
        pager.mark_dirty(1, pager.get(1))  # steals 2
        new = pager.allocate()  # dirties page 0 in place
        pager.put_new(new, leaf(((new,), b"n")))  # steals 5
        pager.free(3)
        pager.get(2)  # the stolen page comes back clean
        assert list(pager._cache) == [0, 4, 1, 6, 2]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_commit_writes_dirty_pages_in_lru_order(self, mode, monkeypatch):
        pager = make_pager(mode, cache_pages=5)
        self._transaction(pager)
        written = []
        original = FileHandle.write_page

        def recording(handle, pno, image, *args, **kwargs):
            if handle.name == "p.db-wal":
                written.append(image[1])  # the frame's page number
            elif handle.name == "p.db":
                written.append(pno)
            return original(handle, pno, image, *args, **kwargs)

        monkeypatch.setattr(FileHandle, "write_page", recording)
        pager.commit()
        # First dirtied: 4, 1, 0, 6; set order: 0, 1, 4, 6.
        assert written == [0, 4, 1, 6]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_rollback_drops_exactly_the_dirty_pages(self, mode):
        pager = make_pager(mode, cache_pages=5)
        self._transaction(pager)
        pager.rollback()
        assert list(pager._cache) == [2]
        assert pager.header.page_count == 6 and pager.header.freelist == []


class _CountingCache(OrderedDict):
    """A pager cache that counts the entries a walk over ``items()`` visits."""

    visited = 0

    def items(self):
        return _CountingItems(self)


class _CountingItems:
    def __init__(self, cache: _CountingCache) -> None:
        self.cache = cache

    def __iter__(self):
        for item in OrderedDict.items(self.cache):
            self.cache.visited += 1
            yield item

    def __reversed__(self):
        for item in reversed(OrderedDict.items(self.cache)):
            self.cache.visited += 1
            yield item


class TestDirtyPagesWalk:
    """``_dirty_pages`` visits only the entries it needs, page 0 included:
    the header sits where it was first cached, often at the LRU end, and
    once every other dirty page is found it goes first unvisited."""

    @staticmethod
    def _committed(mode, pages=300):
        pager = make_pager(mode, cache_pages=1000)
        pager.begin()
        for _ in range(pages):
            pno = pager.allocate()
            pager.put_new(pno, leaf(((pno,), b"a")))
        pager.commit()
        pager._cache = _CountingCache(pager._cache)
        return pager

    @staticmethod
    def _lru_dirty(pager):
        return [pno for pno in OrderedDict.keys(pager._cache) if pno in pager._dirty]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_three_pages_and_the_header_visit_three_entries(self, mode):
        pager = self._committed(mode)
        assert next(iter(pager._cache)) == 0
        pager.begin()
        for pno in (200, 100, 250):
            pager.mark_dirty(pno, pager.get(pno))
        pager.mark_dirty_header()
        pager._cache.visited = 0
        found = pager._dirty_pages()
        assert [pno for pno, _page in found] == self._lru_dirty(pager) == [0, 200, 100, 250]
        assert found[0][1] is pager.header
        assert pager._cache.visited == 3
        pager.commit()

    def test_a_header_met_on_the_way_keeps_its_place(self):
        pager = self._committed(SqliteJournalMode.OFF)
        pager.begin()
        pager.mark_dirty_header()
        pager.rollback()  # drops page 0: it is cached again at the MRU end
        pager.begin()
        pager.mark_dirty(10, pager.get(10))
        pager.mark_dirty_header()
        pager.mark_dirty(20, pager.get(20))
        pager._cache.visited = 0
        found = [pno for pno, _page in pager._dirty_pages()]
        assert found == self._lru_dirty(pager) == [10, 0, 20]
        assert pager._cache.visited == 3

    def test_the_header_alone_visits_nothing(self):
        pager = self._committed(SqliteJournalMode.OFF)
        pager.begin()
        pager.mark_dirty_header()
        pager._cache.visited = 0
        assert pager._dirty_pages() == [(0, pager.header)]
        assert pager._cache.visited == 0


class TestStealSpill:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_spill_and_rollback(self, mode):
        """Dirty pages beyond the tiny pool spill; rollback must undo them."""
        pager = make_pager(mode, cache_pages=3)
        pager.begin()
        pnos = []
        for i in range(8):
            pno = pager.allocate()
            pager.put_new(pno, leaf(((i,), b"base%d" % i)))
            pnos.append(pno)
        pager.commit()
        pager.begin()
        for i, pno in enumerate(pnos):
            page = pager.get(pno)
            page.cells[0] = (b"doomed%d" % i, None, 7)
            pager.mark_dirty(pno, page)
        pager.rollback()
        for i, pno in enumerate(pnos):
            assert pager.get(pno).cells[0][0] == b"base%d" % i

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_spill_and_commit(self, mode):
        pager = make_pager(mode, cache_pages=3)
        pager.begin()
        pnos = []
        for i in range(8):
            pno = pager.allocate()
            pager.put_new(pno, leaf(((i,), b"v%d" % i)))
            pnos.append(pno)
        pager.commit()
        for i, pno in enumerate(pnos):
            assert pager.get(pno).cells[0][0] == b"v%d" % i


class TestRollbackSpillUnderHotJournal:
    """A rollback-journal spill makes the journal hot before the page leaves.

    The spilled page sits in the file system's cache, and ext4 may steal it
    home at any time before COMMIT.  A power cut then finds uncommitted data
    in the database file; only a journal whose header names the originals
    lets recovery put them back (SQLite syncs the journal header before any
    cache spill).
    """

    def test_a_stolen_spill_rolls_back_after_power_loss(self):
        geometry = FlashGeometry(page_size=2048, pages_per_block=32, num_blocks=128)
        device = StorageDevice(XFTL(FlashChip(geometry), FtlConfig(overprovision=0.15)))
        fs = Ext4.mkfs(device, JournalMode.ORDERED, journal_pages=32, cache_capacity=2)
        pager = make_pager(SqliteJournalMode.ROLLBACK, fs, cache_pages=1)
        pager.begin()
        pnos = []
        for i in range(6):
            pno = pager.allocate()
            pager.put_new(pno, leaf(((i,), b"base%d" % i)))
            pnos.append(pno)
        pager.commit()
        pager.begin()
        for i, pno in enumerate(pnos):
            page = pager.get(pno)
            page.cells[0] = (b"doomed%d" % i, None, 7)
            pager.mark_dirty(pno, page)
        # The fs cache stole spilled pages home: uncommitted data is on flash.
        on_flash = [
            page_from_image(device.ftl.read(fs._lookup_block(pager.file.inode, pno)))
            for pno in pnos
        ]
        assert any(page.cells[0][0].startswith(b"doomed") for page in on_flash)
        device.power_off()
        device.power_on()
        fs = Ext4.mount(device, JournalMode.ORDERED, journal_pages=32, cache_capacity=2)
        recovered = make_pager(SqliteJournalMode.ROLLBACK, fs, cache_pages=1)
        assert [recovered.get(pno).cells[0][0] for pno in pnos] == [
            b"base%d" % i for i in range(6)
        ]
        assert not fs.exists("p.db-journal")


class TestSpilledPagesReadBack:
    """A transaction that spills a page and reads it again sees its own write.

    Four pager pages over 512-byte database pages: updating the odd ids
    spills every leaf, and updating the even ids then re-reads each one.
    A WAL pager that looked only at committed frames lost the odd updates.
    """

    SCRIPT = [("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", ()), ("BEGIN", ())]
    SCRIPT += [("INSERT INTO t VALUES (?, ?)", (i, "o" * 60)) for i in range(1, 41)]
    SCRIPT += [("COMMIT", ()), ("BEGIN", ())]
    SCRIPT += [
        ("UPDATE t SET v = ? WHERE id = ?", ("n" * 60, i))
        for parity in (1, 0)
        for i in range(1, 41)
        if i % 2 == parity
    ]
    SCRIPT += [("COMMIT", ())]
    QUERY = "SELECT id, v FROM t ORDER BY id"

    @pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
    def test_matches_sqlite3(self, mode):
        stack = build_stack(
            StackConfig(mode=mode, num_blocks=256, pages_per_block=32, page_size=512, metrics=True)
        )
        ours = stack.open_database("spill.db", cache_pages=4)
        reference = sqlite3.connect(":memory:", isolation_level=None)
        for sql, args in self.SCRIPT:
            ours.execute(sql, args)
            reference.execute(sql, args)
        assert stack.obs.registry.counter_value("sqlite.spilled_pages") > 0
        expected = reference.execute(self.QUERY).fetchall()
        assert [tuple(row) for row in ours.execute(self.QUERY)] == expected
        ours.pager._cache.clear()  # and from storage, after the commit
        assert [tuple(row) for row in ours.execute(self.QUERY)] == expected
