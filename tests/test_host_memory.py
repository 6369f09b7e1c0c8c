"""Host memory per simulated page.

Device size is bounded by what the simulator keeps per page, so two per-page
structures are held to a byte budget with ``tracemalloc``: ext4's free space
(a block bitmap, one byte per data page) and the FTL's translation images
(four bytes per mapping, like the L2P they are sliced from).
"""

import sys
import tracemalloc
from contextlib import contextmanager

import pytest

from repro import open_stack
from repro.device import StorageDevice
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.ftl import FtlConfig, PageMappingFTL

FS_BYTES_PER_DATA_PAGE = 2


@contextmanager
def traced():
    """Yield a dict that receives, on exit, the peak traced bytes and the
    bytes still held by allocations made in ``fs/ext4.py``."""
    result: dict = {}
    tracemalloc.start()
    try:
        yield result
        snapshot = tracemalloc.take_snapshot()
        result["peak"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ext4 = snapshot.filter_traces([tracemalloc.Filter(True, "*/fs/ext4.py")])
    result["ext4"] = sum(stat.size for stat in ext4.statistics("filename"))


def test_mkfs_allocates_at_most_two_bytes_per_data_page():
    geometry = FlashGeometry(page_size=8192, pages_per_block=128, num_blocks=2048)
    device = StorageDevice(PageMappingFTL(FlashChip(geometry), FtlConfig()))
    with traced() as used:
        fs = Ext4.mkfs(device, JournalMode.ORDERED)
    assert fs.data_pages > 200_000
    # Everything mkfs allocates, metadata writes through the FTL included.
    assert used["peak"] <= FS_BYTES_PER_DATA_PAGE * fs.data_pages


@pytest.fixture(scope="module")
def remounted():
    """A small RBJ stack with one table, power-cycled under ``tracemalloc``."""
    stack = open_stack("RBJ", num_blocks=512)
    db = stack.open_database("m.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for row in range(100):
        db.execute("INSERT INTO t VALUES (?, ?)", (row, f"value {row}"))
    with traced() as used:
        stack.remount_after_crash()
    return stack, used


def test_remount_keeps_fs_state_at_two_bytes_per_data_page(remounted):
    stack, used = remounted
    assert used["ext4"] <= FS_BYTES_PER_DATA_PAGE * stack.fs.data_pages
    assert stack.open_database("m.db").execute("SELECT COUNT(*) FROM t") == [(100,)]


def test_map_images_hold_four_bytes_per_entry(remounted):
    stack, _used = remounted
    assert stack.ftl._map_dir
    for ppn in stack.ftl._map_dir.values():
        ppns, _chains = stack.chip.peek(ppn)
        assert sys.getsizeof(ppns) - sys.getsizeof(ppns[:0]) == 4 * len(ppns)
