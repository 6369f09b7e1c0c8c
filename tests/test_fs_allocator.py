"""The ext4 block allocator: next-fit over a block bitmap.

``Ext4`` keeps its free space as one ``bytearray`` over the data region
(1 = free).  The reference below is the allocator that bitmap replaced — a
set of free lpns scanned next-fit from a cursor — kept here so a seeded
stream of file operations can check that both hand out the same lpns in the
same order (every pinned table depends on that order).  Mount rebuilds the
bitmap from the inodes; after a clean power cycle it must equal the live one.
"""

import random

import pytest

from repro import open_stack
from repro.device import StorageDevice
from repro.errors import FsError
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.ftl import XFTL, FtlConfig

ALL_MODES = [JournalMode.ORDERED, JournalMode.FULL, JournalMode.XFTL, JournalMode.NONE]
JOURNAL_PAGES = 64


class SetNextFit:
    """Free space as a set of lpns, handed out next-fit from a cursor."""

    def __init__(self, start: int, total: int) -> None:
        self.start, self.total = start, total
        self.free = set(range(start, total))
        self.cursor = start

    def allocate(self) -> int:
        if not self.free:
            raise FsError("file system out of space")
        cursor = self.cursor
        for _ in range(self.total - self.start):
            if cursor >= self.total:
                cursor = self.start
            if cursor in self.free:
                self.free.remove(cursor)
                self.cursor = cursor + 1
                return cursor
            cursor += 1
        raise AssertionError("a non-empty free set had no lpn in range")

    def release(self, lpn: int) -> None:
        self.free.add(lpn)


def make_fs(mode):
    # Small enough that the stream below wraps the next-fit cursor.
    geometry = FlashGeometry(page_size=8192, pages_per_block=16, num_blocks=64)
    device = StorageDevice(XFTL(FlashChip(geometry), FtlConfig(overprovision=0.15)))
    return device, Ext4.mkfs(device, mode, journal_pages=JOURNAL_PAGES)


def shadow(fs):
    """Route ``fs``'s allocations through a :class:`SetNextFit` twin that
    must agree on every lpn; returns the twin and the lpns handed out."""
    reference = SetNextFit(fs.data_start, fs.device.exported_pages)
    allocate, release = fs._allocate_block, fs._release_block
    handed: list[int] = []

    def checked_allocate():
        try:
            lpn = allocate()
        except FsError:
            with pytest.raises(FsError):
                reference.allocate()
            raise
        assert lpn == reference.allocate()
        handed.append(lpn)
        return lpn

    def checked_release(lpn):
        release(lpn)
        reference.release(lpn)

    fs._allocate_block = checked_allocate
    fs._release_block = checked_release
    return reference, handed


def free_lpns(fs) -> set[int]:
    return {fs.data_start + index for index, free in enumerate(fs._free_map) if free}


def lpns_in_use(fs) -> set[int]:
    return {
        lpn
        for inode in fs._inodes.values()
        for lpn in (*fs._block_lpns(inode), *inode.indirect)
    }


def churn(fs, seed: int, steps: int = 4000) -> dict:
    """A seeded create / write / truncate / unlink / fsync stream; files
    stay small enough that the file system never fills.  Returns each
    live file's handle and the pages it should read back."""
    rng = random.Random(seed)
    files: dict = {}
    for step in range(steps):
        names = sorted(files)
        roll = rng.random()
        if len(names) < 2 or (roll < 0.1 and len(names) < 6):
            name = f"f{step}"
            files[name] = (fs.create(name), {})
        elif roll < 0.65:
            handle, pages = files[rng.choice(names)]
            # Mostly append; now and then jump past the direct pointers.
            top = 40 if rng.random() < 0.1 else min(handle.n_pages + 3, 40)
            index = rng.randrange(top)
            handle.write_page(index, ("page", step))
            pages[index] = ("page", step)
        elif roll < 0.8:
            handle, pages = files[rng.choice(names)]
            keep = rng.randrange(handle.n_pages + 1)
            handle.truncate(keep)
            for index in [index for index in pages if index >= keep]:
                del pages[index]
        elif roll < 0.9:
            name = rng.choice(names)
            fs.unlink(name)
            del files[name]
        else:
            files[rng.choice(names)][0].fsync()
    return files


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", [JournalMode.ORDERED, JournalMode.XFTL])
def test_bitmap_hands_out_the_set_allocators_lpns(mode, seed):
    _device, fs = make_fs(mode)
    reference, handed = shadow(fs)
    churn(fs, seed)
    assert any(later < earlier for earlier, later in zip(handed, handed[1:])), "cursor never wrapped"
    assert free_lpns(fs) == reference.free
    assert fs._alloc_cursor == reference.cursor


def test_allocation_wraps_and_runs_out_like_the_set_allocator():
    _device, fs = make_fs(JournalMode.NONE)
    reference, handed = shadow(fs)
    with pytest.raises(FsError, match="out of space"):
        while True:
            fs._allocate_block()
    assert handed == list(range(fs.data_start, fs.device.exported_pages))
    assert not any(fs._free_map)
    middle = handed[len(handed) // 2]
    fs._release_block(middle)
    fs._release_block(middle)  # idempotent, like adding to a set
    assert fs._free_map.count(1) == 1
    assert fs._allocate_block() == middle  # the cursor wrapped to find it
    assert free_lpns(fs) == reference.free == set()


@pytest.mark.parametrize("mode", ALL_MODES)
def test_remounted_free_map_equals_the_live_one(mode):
    device, fs = make_fs(mode)
    files = churn(fs, seed=5)
    for handle, _pages in files.values():
        handle.fsync()
    fs.sync_metadata()
    live = bytes(fs._free_map)
    assert lpns_in_use(fs) == set(range(fs.data_start, device.exported_pages)) - free_lpns(fs)
    device.power_off()
    device.power_on()
    mounted = Ext4.mount(device, mode, journal_pages=JOURNAL_PAGES)
    assert mounted._free_map == live
    assert mounted.listdir() == sorted(files)
    for name, (_handle, pages) in files.items():
        handle = mounted.open(name)
        assert {i: handle.read_page(i) for i in range(handle.n_pages)} == {
            i: pages.get(i) for i in range(handle.n_pages)
        }


def test_frontier_after_a_mount_covers_every_block_in_use():
    """Aging puts filler above ``allocation_frontier()``: after a remount
    that must still be above the files' blocks, while the next-fit cursor
    restarts at ``data_start`` as it always has."""
    stack = open_stack("RBJ", num_blocks=256)
    db = stack.open_database("rows.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for row in range(300):
        db.execute("INSERT INTO t VALUES (?, ?)", (row, f"value {row}"))
    live_frontier = stack.fs.allocation_frontier()
    highest = max(lpns_in_use(stack.fs))
    assert live_frontier > highest
    stack.remount_after_crash()
    fs = stack.fs
    assert max(lpns_in_use(fs)) == highest
    assert fs._alloc_cursor == fs.data_start
    assert fs.allocation_frontier() == highest + 1
