"""Unit tests for the JBD2-style journal."""

import pytest

from repro.device import StorageDevice
from repro.errors import CorruptionError, FsError
from repro.flash import FlashChip, FlashGeometry
from repro.fs.journal import Jbd2Journal
from repro.ftl import PageMappingFTL


class FakeStore:
    """In-memory backing store standing in for the device."""

    def __init__(self):
        self.pages = {}
        self.home = {}
        self.journal_writes = 0
        self.torn = set()

    def write_page(self, lpn, image):
        self.pages[lpn] = image
        self.journal_writes += 1

    def read_page(self, lpn):
        if lpn in self.torn:
            raise CorruptionError(f"torn {lpn}")
        return self.pages.get(lpn)

    def write_home(self, lpn, image):
        self.home[lpn] = image


def make_journal(store=None, region_pages=32):
    store = store or FakeStore()
    journal = Jbd2Journal(
        region_start=100,
        region_pages=region_pages,
        write_page=store.write_page,
        read_page=store.read_page,
        write_ordered=store.write_page,
        write_home=store.write_home,
    )
    return journal, store


class TestCommit:
    def test_commit_writes_frame(self):
        journal, store = make_journal()
        journal.commit([(5, "img5"), (6, "img6")])
        # desc + 2 blocks + commit = 4 journal pages
        assert store.journal_writes == 4
        assert journal.counts.transactions_committed == 1

    def test_commit_uses_two_barriers(self):
        """§6.3.4 end to end: on a real drain device the ordered commit
        page costs a flush on either side of it — two per journal commit."""
        geometry = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)
        device = StorageDevice(PageMappingFTL(FlashChip(geometry)))
        journal = Jbd2Journal(
            region_start=0,
            region_pages=32,
            write_page=device.write,
            read_page=device.read,
            write_ordered=device.write_barrier,
            write_home=device.write,
        )
        journal.commit([(40, "a")])
        assert device.counters.flushes == 2
        assert device.counters.writes == 3  # descriptor, block image, commit page
        assert device.counters.barrier_writes == 0

    def test_pending_image_visible_until_checkpoint(self):
        journal, store = make_journal()
        journal.commit([(5, "new5")])
        assert journal.pending_image(5) == "new5"
        assert store.home == {}
        journal.checkpoint()
        assert journal.pending_image(5) is None
        assert store.home == {5: "new5"}

    def test_latest_image_wins_at_checkpoint(self):
        journal, store = make_journal()
        journal.commit([(5, "v1")])
        journal.commit([(5, "v2")])
        journal.checkpoint()
        assert store.home[5] == "v2"

    def test_oversized_transaction_rejected(self):
        journal, _ = make_journal(region_pages=8)
        with pytest.raises(FsError):
            journal.commit([(lpn, "x") for lpn in range(20)])

    def test_log_wrap_triggers_checkpoint(self):
        journal, store = make_journal(region_pages=12)  # 10 log pages
        journal.commit([(1, "a"), (2, "b")])  # 4 pages
        journal.commit([(3, "c"), (4, "d")])  # 4 pages -> 8 used
        journal.commit([(5, "e"), (6, "f")])  # needs 4 > 2 free: checkpoint
        assert journal.counts.checkpoints == 1
        assert store.home[1] == "a"

    def test_region_too_small_rejected(self):
        with pytest.raises(FsError):
            make_journal(region_pages=4)


class TestReplay:
    def test_replay_complete_transactions(self):
        journal, store = make_journal()
        journal.commit([(5, "a"), (6, "b")])
        retired, max_txid, writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert retired == 0
        assert max_txid == 1
        assert dict(writes) == {5: "a", 6: "b"}

    def test_replay_skips_retired(self):
        journal, store = make_journal()
        journal.commit([(5, "a")])
        journal.checkpoint()
        journal.commit([(6, "b")])
        retired, _max, writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert retired == 1
        assert dict(writes) == {6: "b"}

    def test_replay_ignores_frame_without_commit_page(self):
        journal, store = make_journal()
        journal.commit([(5, "a")])
        # Fabricate an incomplete frame: desc + block, no commit.
        store.write_page(100 + 2 + 4, ("jdesc", 99, (7,)))
        store.write_page(100 + 2 + 5, ("jblock", 99, 7, "x"))
        _retired, _max, writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert dict(writes) == {5: "a"}

    def test_replay_ignores_frame_with_missing_blocks(self):
        _journal, store = make_journal()
        store.write_page(102, ("jdesc", 1, (7, 8)))
        store.write_page(103, ("jblock", 1, 7, "x"))
        store.write_page(104, ("jcommit", 1))
        _retired, _max, writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert writes == []

    def test_replay_survives_torn_jsb(self):
        journal, store = make_journal()
        journal.commit([(5, "a")])
        journal.checkpoint()
        # Tear the most recent jsb slot; the other must still be honoured.
        slot = 100 + (journal._jsb_version % 2)
        store.torn.add(slot)
        retired, _max, _writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert retired in (0, 1)  # falls back to the surviving (older) slot

    def test_replay_torn_frame_page_stops_that_frame(self):
        journal, store = make_journal()
        journal.commit([(5, "a")])
        # Find and tear the jblock page of the frame.
        for lpn, image in store.pages.items():
            if isinstance(image, tuple) and image[0] == "jblock":
                store.torn.add(lpn)
        _retired, _max, writes = Jbd2Journal.replay(100, 32, store.read_page)
        assert writes == []

    def test_restore_position_resumes_txids(self):
        journal, store = make_journal()
        journal.commit([(5, "a")])
        retired, max_txid, _writes = Jbd2Journal.replay(100, 32, store.read_page)
        journal2, _ = make_journal(store)
        journal2.restore_position(retired, max_txid)
        journal2.commit([(6, "b")])
        _retired2, max2, _ = Jbd2Journal.replay(100, 32, store.read_page)
        assert max2 == max_txid + 1
