"""Unit and property tests for the B-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import StorageDevice
from repro.errors import DatabaseError
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.ftl import FtlConfig, XFTL
from repro.sqlite import btree
from repro.sqlite.btree import (
    CELL_OVERHEAD,
    INTERIOR_ENTRY_OVERHEAD,
    BTree,
    InteriorPage,
    LeafPage,
    page_from_image,
)
from repro.sqlite.pager import Pager, SqliteJournalMode
from repro.sqlite.records import encode_record, key_size_bytes, row_of
from repro.stack import Mode, StackConfig, build_stack


def make_pager(page_size=2048, num_blocks=192):
    geometry = FlashGeometry(page_size=page_size, pages_per_block=32, num_blocks=num_blocks)
    device = StorageDevice(XFTL(FlashChip(geometry), FtlConfig(overprovision=0.15)))
    fs = Ext4.mkfs(device, JournalMode.NONE, journal_pages=12, cache_capacity=8192)
    pager = Pager(fs, "t.db", SqliteJournalMode.OFF, page_decoder=page_from_image)
    return pager


def local_size(cell) -> int:
    """A leaf cell's local part measured from scratch: a row kept as it is by
    its encoded length, a record by its bytes (a spilled one by its prefix)."""
    local, overflow_pno, size = cell
    if type(local) is tuple:
        assert overflow_pno is None and size == len(encode_record(local))
        return size
    assert overflow_pno is not None or size == len(local)
    return len(local)


def recount(page) -> int:
    """A page's byte footprint summed from scratch: what ``used_bytes()``
    computed on every insert before pages kept a running count, and the
    reference that count is checked against."""
    if isinstance(page, LeafPage):
        return sum(
            key_size_bytes(key) + local_size(cell) + CELL_OVERHEAD
            for key, cell in zip(page.keys, page.cells)
        )
    return sum(key_size_bytes(key) + INTERIOR_ENTRY_OVERHEAD for key in page.keys)


def reachable_pages(tree):
    """Every leaf and interior page of ``tree`` as (pno, page)."""
    pending = [tree.root_pno]
    while pending:
        pno = pending.pop()
        page = tree.pager.get(pno)
        yield pno, page
        if isinstance(page, InteriorPage):
            pending.extend(page.children)


def assert_counts_match_recount(tree):
    for pno, page in reachable_pages(tree):
        assert page.used_bytes() == recount(page), f"page {pno}"


@pytest.fixture
def tree():
    pager = make_pager()
    pager.begin()
    tree = BTree.create(pager)
    yield tree
    if pager.in_txn:
        pager.commit()


class TestBasicOperations:
    def test_empty_tree(self, tree):
        assert tree.get((1,)) is None
        assert list(tree.scan()) == []
        assert tree.last_key() is None

    def test_insert_get(self, tree):
        tree.insert((1,), b"one")
        assert tree.get((1,)) == b"one"

    def test_duplicate_rejected_without_replace(self, tree):
        tree.insert((1,), b"one")
        with pytest.raises(DatabaseError):
            tree.insert((1,), b"again")

    def test_replace(self, tree):
        tree.insert((1,), b"one")
        tree.insert((1,), b"uno", replace=True)
        assert tree.get((1,)) == b"uno"
        assert sum(1 for _ in tree.scan()) == 1

    def test_delete(self, tree):
        tree.insert((1,), b"one")
        assert tree.delete((1,))
        assert tree.get((1,)) is None
        assert not tree.delete((1,))

    def test_composite_keys(self, tree):
        tree.insert(("a", 2), b"a2")
        tree.insert(("a", 1), b"a1")
        tree.insert(("b", 0), b"b0")
        keys = [key for key, _p in tree.scan()]
        assert keys == [("a", 1), ("a", 2), ("b", 0)]

    def test_last_key(self, tree):
        for value in (5, 1, 9, 3):
            tree.insert((value,), b"x")
        assert tree.last_key() == (9,)


class TestScans:
    def seed(self, tree, n=50):
        for i in range(n):
            tree.insert((i,), b"v%d" % i)

    def test_full_scan_sorted(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _p in tree.scan()]
        assert keys == list(range(50))

    def test_range_inclusive(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _ in tree.scan(lo=(10,), hi=(13,))]
        assert keys == [10, 11, 12, 13]

    def test_range_open_bounds(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _ in tree.scan(lo=(10,), hi=(13,), lo_open=True, hi_open=True)]
        assert keys == [11, 12]

    def test_scan_from_missing_key(self, tree):
        self.seed(tree)
        tree.delete((20,))
        keys = [key[0] for key, _ in tree.scan(lo=(20,), hi=(22,))]
        assert keys == [21, 22]

    def test_scan_beyond_end(self, tree):
        self.seed(tree, n=5)
        assert list(tree.scan(lo=(100,))) == []

    def test_scan_crosses_a_leaf_whose_largest_key_was_deleted(self):
        """A delete leaves the separator above the leaf in place, so a cursor
        can fall in the gap between the leaf's keys and its separator; the
        scan used to take that for the end of the tree."""
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        self.seed(tree, n=300)
        gone = pager.get(tree.root_pno).keys[0][0]  # largest key of the leftmost subtree
        assert tree.delete((gone,))
        remaining = [i for i in range(300) if i != gone]
        assert [key[0] for key, _ in tree.scan()] == remaining
        assert [key[0] for key, _ in tree.scan(lo=(gone,))] == remaining[gone:]
        assert [key[0] for key, _ in tree.scan(lo=(gone - 1,), lo_open=True, hi=(gone + 1,))] == [
            gone + 1
        ]
        pager.commit()


class TestSplitsAndStructure:
    def test_many_inserts_split_pages(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(300):
            tree.insert((i,), b"payload-%03d" % i)
        pager.commit()
        assert pager.page_count > 3  # root split multiple times
        for i in range(300):
            assert tree.get((i,)) == b"payload-%03d" % i

    def test_root_page_number_stable_across_splits(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        root = tree.root_pno
        for i in range(300):
            tree.insert((i,), b"payload-%03d" % i)
        assert tree.root_pno == root
        pager.commit()

    def test_reverse_and_random_insert_orders(self):
        from repro.sim.rng import make_rng

        for order in ("reverse", "random"):
            pager = make_pager(page_size=512)
            pager.begin()
            tree = BTree.create(pager)
            keys = list(range(200))
            if order == "reverse":
                keys.reverse()
            else:
                make_rng(7, "test.sqlite_btree", "insert-order").shuffle(keys)
            for key in keys:
                tree.insert((key,), b"v%d" % key)
            assert [k[0] for k, _ in tree.scan()] == list(range(200))
            pager.commit()

    def test_delete_down_to_empty(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(200):
            tree.insert((i,), b"v%d" % i)
        for i in range(200):
            assert tree.delete((i,))
        assert list(tree.scan()) == []
        tree.insert((1,), b"fresh")
        assert tree.get((1,)) == b"fresh"
        pager.commit()

    def test_drop_returns_pages_to_freelist(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(200):
            tree.insert((i,), b"v%d" % i)
        used = pager.page_count
        tree.drop()
        assert len(pager.header.freelist) > 0
        # Allocations reuse freed pages rather than growing the file.
        fresh = BTree.create(pager)
        fresh.insert((1,), b"x")
        assert pager.page_count == used
        pager.commit()


class TestReplaceNeverSplits:
    @pytest.mark.xfail(
        strict=True,
        reason="known model defect (ROADMAP 'Known model limits'): insert(replace=True) "
        "returns before the byte-budget check, so a replaced cell that grows never splits",
    )
    def test_growing_replace_keeps_leaf_within_budget(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(12):
            tree.insert((i,), bytes(10))
        for i in range(12):
            tree.insert((i,), bytes(100), replace=True)
        # Today: still one leaf, 1,440 bytes on a 448-byte budget, page_count == 2.
        sizes = {pno: recount(page) for pno, page in reachable_pages(tree)}
        pager.commit()
        assert all(size <= tree.capacity for size in sizes.values()), sizes


class TestOverflow:
    def test_large_payload_spills_to_overflow_pages(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        blob = bytes(range(256)) * 20  # 5120 bytes >> page
        tree.insert((1,), blob)
        assert tree.get((1,)) == blob
        pager.commit()

    def test_overflow_pages_freed_on_delete(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        blob = bytes(5000)
        tree.insert((1,), blob)
        allocated = pager.page_count - len(pager.header.freelist)
        tree.delete((1,))
        assert pager.page_count - len(pager.header.freelist) < allocated
        pager.commit()

    def test_overflow_replace(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        tree.insert((1,), bytes(3000))
        tree.insert((1,), b"small now", replace=True)
        assert tree.get((1,)) == b"small now"
        pager.commit()


# What the running byte count has to survive, on a 512-byte page (448-byte
# budget, max_local 112, overflow chunks of 416): payloads on both sides of
# the max_local line and long enough for a three-link overflow chain, in both
# cell forms (bytes, and rows whose record is 104 to 123 bytes, across the
# line; a row over it is stored as its record), keys with
# composite / text / NULL parts from a pool small enough that inserts often
# replace an existing key (the long text parts make separators big enough for
# interior pages to split too), and transaction boundaries (a rollback drops
# the dirty page objects, so their counts are re-derived from decoded images).
_KEYS = st.tuples(st.sampled_from([None, 7, "a", "k" * 100, "m" * 100]), st.integers(0, 11))
_PAYLOADS = st.one_of(
    st.builds(
        lambda size, byte: bytes([byte]) * size,
        st.sampled_from([0, 1, 30, 111, 112, 113, 300, 1000]),
        st.integers(0, 255),
    ),
    st.builds(
        lambda length, value: ("t" * length, value),
        st.sampled_from([0, 30, 100, 101, 106, 107, 108, 109, 300]),
        st.sampled_from([None, 7, 2.5, 1, -(1 << 70)]),
    ),
)


def stored(tree, reference) -> dict:
    """The tree's contents, a row read back as a row (a record decoded)."""
    return {
        key: row_of(payload) if type(reference.get(key)) is tuple else payload
        for key, payload in tree.scan()
    }
_OPS = st.sampled_from(["insert"] * 11 + ["delete"] * 6 + ["commit"] + ["rollback"] * 2)


class TestBtreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.tuples(_OPS, _KEYS, _PAYLOADS), min_size=40, max_size=150))
    def test_matches_reference_dict(self, ops):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        pager.commit()
        pager.begin()
        committed, reference = {}, {}
        for op, key, payload in ops:
            if op == "insert":
                tree.insert(key, payload, replace=True)
                reference[key] = payload
            elif op == "delete":
                assert tree.delete(key) == (key in reference)
                reference.pop(key, None)
            else:
                if op == "commit":
                    pager.commit()
                    committed = dict(reference)
                else:
                    pager.rollback()
                    reference = dict(committed)
                pager.begin()
                assert stored(tree, reference) == reference
                assert_counts_match_recount(tree)
        assert stored(tree, reference) == reference
        assert sum(1 for _ in tree.scan()) == len(reference)
        assert_counts_match_recount(tree)
        pager.commit()

    @settings(max_examples=20, deadline=None)
    @given(keys=st.sets(st.integers(min_value=0, max_value=10_000), max_size=120))
    def test_scan_always_sorted(self, keys):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for key in keys:
            tree.insert((key,), b"x")
        scanned = [k[0] for k, _ in tree.scan()]
        assert scanned == sorted(keys)
        pager.commit()


class TestByteAccountingWork:
    def test_insert_measures_the_new_key_not_the_page(self, monkeypatch):
        """Work guard: a row insert encodes its own keys to place them, not every
        key already on the page (~80 encodes per key before the running count)."""
        calls = 0

        def counting(key):
            nonlocal calls
            calls += 1
            return key_size_bytes(key)

        monkeypatch.setattr(btree, "key_size_bytes", counting)
        stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32))
        db = stack.open_database("test.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, n INTEGER)")
        db.execute("CREATE INDEX t_tag ON t (tag)")
        rows = 2000
        db.execute("BEGIN")
        for i in range(rows):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, "tag-%04d" % (i * 7919 % rows), i))
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM t") == [(rows,)]
        inserted_keys = 2 * rows  # one table key and one index key per row
        assert calls <= 3 * inserted_keys
