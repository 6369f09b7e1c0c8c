"""Host memory per simulated page.

Device size is bounded by what the simulator keeps per page, so per-page
structures are held to a byte budget with ``tracemalloc``: ext4's free space
(a block bitmap, one byte per data page), the FTL's translation images
(four bytes per mapping, like the L2P they are sliced from) and what a
programmed page leaves in the chip and the collector (its OOB record goes
into the chip's preallocated columns).  The FTL's reverse map is one byte
per physical page, an owner code: a data page's lpn is read from its OOB
key, so no ``int`` object per live page outlives the program that mapped it.
A barrier releases the payloads of
the map and meta pages the durable root stops naming, so what map images
hold does not grow with the number of barriers, and the payloads of the data
pages that died before it began, so what superseded data holds does not
grow with the number of overwrites.  Above the device, a B-tree leaf cell
holds its row, and the record codec keeps no row and no payload: UPDATEs and
reads of the same rows leave nothing behind in it.  And a dropped stack is
freed by refcounting: no reference cycle keeps one alive until the cyclic
collector runs, with metrics off or on, and a metrics hub, which keeps every
session's registry, keeps no machine alive.
"""

import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import open_stack
from repro.bench.aging import age_device
from repro.device import StorageDevice
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.fs.pagecache import PageCache
from repro.ftl import FtlConfig, PageMappingFTL
from repro.obs import MetricsRegistry, install_default_hub, uninstall_default_hub
from repro.stack import Mode, StackConfig, build_stack
from repro.verify.runner import sweep

FS_BYTES_PER_DATA_PAGE = 2
HELD_BYTES_PER_PROGRAMMED_PAGE = 4
REVERSE_MAP_BYTES_PER_PAGE = 1


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
        ppns, _chains, _built = stack.chip.peek(ppn)
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


def test_barriers_keep_one_map_image_per_named_segment():
    """Barrier after barrier rewriting the same segments: what stays
    allocated in ftl/pagemap.py is one image per segment the root names or
    a pending publish pins (and as much again for the tables that index
    them), not one image per barrier."""
    segments, barriers = 8, 200
    chip = FlashChip(FlashGeometry(page_size=8192, pages_per_block=64, num_blocks=256))
    ftl = PageMappingFTL(chip, FtlConfig())
    entries = ftl._map_entries_per_page
    ftl.write_run(range(segments * entries), b"page")
    ftl.barrier()
    with traced("ftl/pagemap.py") as used:
        for barrier in range(barriers):
            for segment in range(segments):
                ftl.write(segment * entries + barrier % entries, b"x")
            ftl.barrier()
    assert chip.stats.block_erases == 0  # no erase freed an image here
    image = ftl._segment_image(0)
    image_bytes = sys.getsizeof(image) + sys.getsizeof(image[0])
    named = len(ftl._root.map_dir) + len(ftl._pending_retired)
    assert named == segments
    assert used["ftl/pagemap.py"] <= 2 * named * image_bytes


def test_a_barrier_that_cleans_every_segment_leaves_a_small_dirty_set():
    """Each barrier sorts the dirty set, and iterating a set costs its
    table's size, which per-key removals never shrink."""
    chip = FlashChip(FlashGeometry(page_size=8192, pages_per_block=64, num_blocks=256))
    ftl = PageMappingFTL(chip, FtlConfig(map_entries_per_page=16))
    ftl.write_run(range(0, 512 * 16, 16), b"page")
    assert len(ftl._dirty_segments) == 512
    ftl.barrier()
    assert not ftl._dirty_segments
    assert sys.getsizeof(ftl._dirty_segments) == sys.getsizeof(set())


def test_barriers_release_the_payloads_of_dead_data_pages():
    """Unique payloads overwritten barrier after barrier, with no erase to
    free any: the payloads still held are the live pages' plus at most one
    barrier interval's deaths, and each barrier empties the death record."""
    live, per_interval, barriers = 256, 64, 100
    chip = FlashChip(FlashGeometry(page_size=8192, pages_per_block=64, num_blocks=512))
    ftl = PageMappingFTL(chip, FtlConfig())
    payload_bytes = sys.getsizeof(b"%08d" % 0 * 32)
    with traced("test_host_memory.py") as used:  # the payloads are allocated here
        for lpn in range(live):
            ftl.write(lpn, b"%08d" % lpn * 32)
        for barrier in range(barriers):
            ftl.barrier()
            assert not ftl._deaths
            for write in range(per_interval):
                number = live + barrier * per_interval + write
                ftl.write(number % live, b"%08d" % number * 32)
    assert chip.stats.block_erases == 0  # no erase freed a payload here
    # (plus a little for the loop's own locals)
    assert used["test_host_memory.py"] <= (live + per_interval) * payload_bytes + 1024


def test_aging_leaves_one_byte_per_page_in_the_reverse_map_and_no_int_per_page():
    """Aging maps about half the device to filler.  The owner table stays
    one byte per physical page, and what aging leaves allocated is a few
    hundred blocks (map images, the collector's pools), not one ``int`` per
    live page: a table that kept each page's lpn held ~14,000 here."""
    stack = build_stack(StackConfig(mode=Mode.RBJ, num_blocks=512, pages_per_block=64))
    tracemalloc.start()
    try:
        age_device(stack, 0.5)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ftl = stack.ftl
    total_pages = stack.chip.geometry.total_pages
    live_pages = sum(ftl._valid_count)
    assert live_pages > 10_000
    owners = ftl._owner
    # (a bytearray adds one trailing NUL to its items)
    assert sys.getsizeof(owners) - sys.getsizeof(bytearray()) <= (
        REVERSE_MAP_BYTES_PER_PAGE * total_pages + 1
    )
    held_blocks = sum(stat.count for stat in snapshot.statistics("filename"))
    assert held_blocks <= live_pages // 16


@pytest.mark.parametrize("text_bytes", [8, 2500], ids=["local", "overflow"])
def test_updates_of_the_same_rows_leave_nothing_in_the_codec(text_bytes):
    """Twenty rounds of UPDATEs over the same K rows: what allocations made
    in the record codec still hold afterwards is at most a few hundred bytes
    (a freed tuple may wait in CPython's free list).  A row memo held K rows
    and payloads here (20 x K without eviction).  An 8-byte text keeps each
    row in its leaf cell as a tuple; a 2,500-byte text spills each row into
    overflow pages, so each UPDATE decodes the row it matched and encodes the
    new one, and neither result stays in the codec."""
    rows, rounds = 50, 20
    stack = open_stack("X-FTL", num_blocks=128, pages_per_block=64)
    db = stack.open_database("rows.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, n INTEGER)")
    db.execute("BEGIN")
    for row in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (row, f"{row:08d}".ljust(text_bytes, "v"), 0))
    db.execute("COMMIT")
    with traced("sqlite/records.py") as used:
        for round_ in range(1, rounds + 1):
            db.execute("BEGIN")
            for row in range(rows):
                db.execute("UPDATE t SET n = ? WHERE id = ?", (round_, row))
            db.execute("COMMIT")
    assert used["sqlite/records.py"] <= 512
    assert db.execute("SELECT SUM(n) FROM t") == [(rows * rounds,)]


_BACKGROUND_CMT = FtlConfig(gc_mode="background", gc_policy="cost-benefit", cmt_pages=8)


@pytest.mark.parametrize(
    "mode,ftl,obs",
    [
        (Mode.RBJ, FtlConfig(), "off"),
        (Mode.WAL, FtlConfig(), "off"),
        (Mode.XFTL, FtlConfig(), "off"),
        (Mode.RBJ, _BACKGROUND_CMT, "off"),
        (Mode.XFTL, _BACKGROUND_CMT, "off"),
        (Mode.RBJ, _BACKGROUND_CMT, "metrics"),
        (Mode.XFTL, _BACKGROUND_CMT, "hub"),
        (Mode.XFTL, _BACKGROUND_CMT, "trace"),
    ],
    ids=[
        "rbj", "wal", "xftl", "rbj-cmt", "xftl-cmt", "rbj-cmt-metrics", "xftl-cmt-hub",
        "xftl-cmt-trace",
    ],
)
def test_a_dropped_stack_is_freed_by_refcounting(mode, ftl, obs):
    """No reference cycle runs through a stack: with the cyclic collector
    off, dropping the last reference to a stack that committed a
    transaction frees its chip at once.  A part that calls back into its
    owner (the fs cache and journal, the transaction manager, the collector,
    the CMT, a prepared statement) holds it weakly or is handed it per
    call.  With metrics on (a handle of its own, or a session of a hub),
    the registry that outlives the stack binds count records only, and
    still reads what they counted; with trace on, its spans outlive it too."""
    gc.collect()
    gc.disable()
    hub = install_default_hub() if obs == "hub" else None
    try:
        stack = open_stack(
            mode, metrics=obs == "metrics", trace=obs == "trace",
            num_blocks=256, channels=2, ftl=ftl,
        )
        if hub is not None:
            uninstall_default_hub()
        db = stack.open_database()
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
        db.execute("COMMIT")
        assert db.execute("SELECT b FROM t") == [("one",)]
        session = stack.obs if hub is None else hub.sessions[0]
        counted = session.registry.counters()
        chip = weakref.ref(stack.chip)
        del db, stack
        assert chip() is None
        assert session.registry.counters() == counted
        if obs != "off":
            assert counted["sqlite.txn_commits"] > 0 and counted["flash.page_programs"] > 0
        if obs == "trace":
            assert session.tracer.find("commit")
    finally:
        uninstall_default_hub()
        gc.enable()


_SQL_LAYERS = ("sqlite.rbj", "sqlite.wal", "sqlite.xftl", "sqlite.concurrent", "stack.tenant")


def _machines() -> Counter:
    """Live chips, devices and page caches, by class."""
    gc.collect()
    # ``type`` rather than ``isinstance``: a dead weak proxy raises on the latter.
    return Counter(
        kind.__name__
        for obj in gc.get_objects()
        for kind in (FlashChip, PageCache, StorageDevice)
        if issubclass(type(obj), kind)
    )


def test_a_hub_holds_no_machine():
    """A crash sweep under a hub leaves no chip, device or page cache alive:
    each session's registry keeps counts, not the layers that made them."""
    before = _machines()
    hub = install_default_hub()
    try:
        report = sweep(layers=_SQL_LAYERS, budget=10, seed=0)
    finally:
        uninstall_default_hub()
    assert len(hub.sessions) == report.scenarios_run > 0
    assert _machines() == before
    merged = MetricsRegistry(enabled=True).merge_from(s.registry for s in hub.sessions)
    assert merged.counter_value("flash.page_programs") > 0
