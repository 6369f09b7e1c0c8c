"""Host memory per simulated page.

Device size is bounded by what the simulator keeps per page, so per-page
structures are held to a byte budget with ``tracemalloc``: ext4's free space
(a block bitmap, one byte per data page), the FTL's translation images
(four bytes per mapping, like the L2P they are sliced from) and what a
programmed page leaves in the chip and the collector (its OOB record goes
into the chip's preallocated columns).
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
HELD_BYTES_PER_PROGRAMMED_PAGE = 4


@contextmanager
def traced(*files: str):
    """Yield a dict that receives, on exit, the peak traced bytes and, per
    name in ``files``, the bytes still held by allocations made there."""
    result: dict = {}
    tracemalloc.start()
    try:
        yield result
        snapshot = tracemalloc.take_snapshot()
        result["peak"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in files:
        held = snapshot.filter_traces([tracemalloc.Filter(True, f"*/{name}")])
        result[name] = sum(stat.size for stat in held.statistics("filename"))


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
    with traced("fs/ext4.py") as used:
        stack.remount_after_crash()
    return stack, used


def test_remount_keeps_fs_state_at_two_bytes_per_data_page(remounted):
    stack, used = remounted
    assert used["fs/ext4.py"] <= FS_BYTES_PER_DATA_PAGE * stack.fs.data_pages
    assert stack.open_database("m.db").execute("SELECT COUNT(*) FROM t") == [(100,)]


def test_map_images_hold_four_bytes_per_entry(remounted):
    stack, _used = remounted
    assert stack.ftl._map_dir
    for ppn in stack.ftl._map_dir.values():
        ppns, _chains = stack.chip.peek(ppn)
        assert sys.getsizeof(ppns) - sys.getsizeof(ppns[:0]) == 4 * len(ppns)


@pytest.mark.parametrize("path", ["write_run", "write"])
def test_programs_leave_at_most_four_bytes_a_page_in_chip_and_collector(path):
    chip = FlashChip(FlashGeometry(page_size=8192, pages_per_block=128, num_blocks=1024))
    ftl = PageMappingFTL(chip, FtlConfig())
    lpns = range(ftl.exported_pages)
    with traced("flash/chip.py", "ftl/gc.py") as used:
        if path == "write_run":
            ftl.write_run(lpns, b"page")
        else:
            for lpn in lpns:
                ftl.write(lpn, b"page")
    programmed = chip.stats.page_programs
    assert programmed >= 100_000
    held = used["flash/chip.py"] + used["ftl/gc.py"]
    assert held <= HELD_BYTES_PER_PROGRAMMED_PAGE * programmed
