"""Barrier-enabled IO stack: epoch ordering, order-only durability, rival pins.

Covers the device's ordering commands (``flush``, ``barrier``,
BARRIER_WRITE) on a barrier-enabled device and what each degrades to on a
drain device, the epoch scheduler's order-preservation property under
randomized interleavings, the file-system fbarrier / fdatabarrier /
flush-dedupe paths, the StackConfig knob, and the recorded baseline of
what a barrier stack does (``tests/data/barrier_baseline.json``; the drain
stack's is ``channel_baseline.json``).
"""

from __future__ import annotations

import random

import pytest

from repro.device.ssd import StorageDevice
from repro.errors import DeviceError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.synthetic import SyntheticWorkload

from tests.pins import DATA, Pin
from tests.test_channel_equivalence import SCENARIOS, _FIO_STACK, _SQLITE_STACK, _capture

FTL_CONFIG = FtlConfig(
    overprovision=0.25, map_entries_per_page=32, barrier_meta_pages=1, xl2p_capacity=64
)


def make_device(
    barrier_mode=True, channels=2, queue_depth=4, num_blocks=24, xftl=False
):
    geo = FlashGeometry(
        page_size=512, pages_per_block=8, num_blocks=num_blocks, channels=channels
    )
    chip = FlashChip(geo)
    ftl = XFTL(chip, FTL_CONFIG) if xftl else PageMappingFTL(chip, FTL_CONFIG)
    return StorageDevice(ftl, queue_depth=queue_depth, barrier_mode=barrier_mode)


class TestBarrierDevice:
    def test_write_barrier_degrades_to_flush_write_flush_on_drain_device(self):
        device = make_device(barrier_mode=False)
        device.write(0, ("v", 0))
        before = device.counters.snapshot()
        device.write_barrier(1, ("commit", 1))
        spent = device.counters.delta(before).as_dict()
        # Order costs a drain on either side of the page (§6.3.4's two
        # barriers per ordered-journal commit) and nothing else.
        assert {name: n for name, n in spent.items() if n} == {"flushes": 2, "writes": 1}
        assert device.queue.in_flight == 0
        assert not device.dirty_since_flush
        assert device.read(1) == ("commit", 1)

    def test_barrier_falls_back_to_flush_on_drain_device(self):
        device = make_device(barrier_mode=False)
        device.write(0, ("v", 0))
        device.barrier()
        assert device.counters.flushes == 1
        assert device.counters.barriers == 0
        assert not device.dirty_since_flush

    def test_order_barrier_does_not_wait(self):
        device = make_device()
        for lpn in range(6):
            device.write(lpn, ("v", lpn))
        assert device.queue.in_flight > 0
        device.barrier()
        # Order-only: the host did not join the channel timelines, so the
        # commands it ordered are still in flight.
        assert device.queue.in_flight > 0
        assert device.clock.now_us < device.chip.busy_horizon_us()
        assert device.counters.barriers == 1
        assert device.queue.epochs_closed == 1

    def test_barrier_does_not_clear_dirty_state(self):
        # A later *real* fsync must not be deduped away because an
        # order-only barrier ran in between: barriers order, flushes clear.
        device = make_device()
        device.write(0, ("v", 0))
        device.barrier()
        assert device.dirty_since_flush
        device.flush()
        assert not device.dirty_since_flush

    def test_flush_in_barrier_mode_is_order_only(self):
        device = make_device()
        for lpn in range(6):
            device.write(lpn, ("v", lpn))
        before = device.clock.now_us
        device.flush()
        # The flush still publishes FTL state and clears the dirty flag,
        # but pays no drain stall (FTL-internal drains degrade to order
        # barriers on a barrier chip).
        assert not device.dirty_since_flush
        assert device.barrier_stalls == 0
        assert device.clock.now_us - before < device.chip.busy_horizon_us() - before

    def test_write_barrier_closes_epochs_around_the_page(self):
        device = make_device()
        device.write(0, ("v", 0))
        device.write_barrier(1, ("commit", 1))
        device.write(2, ("v", 2))
        # One epoch closed before the barrier write, one after: earlier
        # writes complete before the page, later writes after it.
        assert device.counters.barrier_writes == 1
        assert device.queue.current_epoch == 2
        assert device.queue.epochs_closed == 2
        device.flush()
        for lpn, want in ((0, ("v", 0)), (1, ("commit", 1)), (2, ("v", 2))):
            assert device.read(lpn) == want

    def test_rival_runs_swap_stalls_for_avoided_stalls(self):
        """The bench acceptance shape, pinned at unit level (channels=4)."""
        results = {}
        for barrier_mode in (False, True):
            device = make_device(
                barrier_mode=barrier_mode, channels=4, queue_depth=4, num_blocks=48
            )
            for round_no in range(8):
                for lpn in range(8):
                    device.write(lpn + 8 * (round_no % 3), ("v", round_no, lpn))
                device.flush()
            results[barrier_mode] = device
        drain, barrier = results[False], results[True]
        assert drain.barrier_stalls > 0
        assert drain.stalls_avoided == 0
        assert barrier.barrier_stalls == 0
        assert barrier.stalls_avoided > 0
        # Order-only durability points commit strictly faster.
        assert barrier.clock.now_us < drain.clock.now_us

    def test_power_loss_resets_ordering_state(self):
        device = make_device()
        for lpn in range(4):
            device.write(lpn, ("v", lpn))
        device.write_barrier(4, ("commit", 4))
        assert device.chip.dispatch_floor_us > 0.0
        assert device.queue.current_epoch > 0
        device.power_off()
        assert device.chip.dispatch_floor_us == 0.0
        assert device.queue.current_epoch == 0
        assert device.queue.epoch_bounds() == []
        device.power_on()
        device.write(0, ("fresh", 0))
        device.flush()
        assert device.read(0) == ("fresh", 0)


class TestEpochOrderProperty:
    """Satellite: randomized order preservation across channels.

    Interleave plain writes, barrier writes and order barriers over a
    multi-channel device and check, after every operation, the epoch
    completion envelopes: no command of epoch E may complete before a
    command of any earlier epoch (``min_end(E) >= max_end(E')`` for all
    ``E' < E``).  Since chip/FTL state mutates at dispatch, this timing
    invariant is exactly "no write becomes durable before a write an
    earlier epoch ordered ahead of it" at every possible crash instant.
    """

    SEEDS = 12
    OPS = 80

    @staticmethod
    def _check_envelopes(queue) -> None:
        bounds = queue.epoch_bounds()
        for (e1, _lo1, hi1), (e2, lo2, _hi2) in zip(bounds, bounds[1:]):
            assert lo2 >= hi1, (
                f"epoch {e2} has a completion at {lo2} before epoch {e1} "
                f"finished at {hi1}"
            )

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_random_interleavings_preserve_epoch_order(self, seed):
        rng = random.Random(seed)
        channels = rng.choice((2, 4))
        device = make_device(
            channels=channels,
            queue_depth=rng.choice((2, 4, 8)),
            num_blocks=48,
        )
        exported = device.exported_pages
        expected: dict[int, tuple] = {}
        for op in range(self.OPS):
            lpn = rng.randrange(exported)
            data = ("v", seed, op)
            roll = rng.random()
            if roll < 0.65:
                device.write(lpn, data)
                expected[lpn] = data
            elif roll < 0.80:
                device.write_barrier(lpn, data)
                expected[lpn] = data
            elif roll < 0.95:
                device.barrier()
            else:
                device.flush()
            self._check_envelopes(device.queue)
        device.flush()
        self._check_envelopes(device.queue)
        for lpn, data in expected.items():
            assert device.read(lpn) == data


class TestFlushDedupe:
    """Satellite: the directory-fsync path must not flush a clean device."""

    _STACK = _FIO_STACK

    def _fs_stack(self):
        return build_stack(StackConfig(mode=Mode.FS_ORDERED, **self._STACK))

    def test_clean_metadata_sync_skips_the_flush(self):
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"x" * 64)
        fs.fsync(handle)  # journals the create + makes the data durable
        flushes = stack.device.counters.flushes
        # Nothing dirty anywhere: the durability point is already
        # satisfied, so a directory-style metadata sync must be free.
        fs.sync_metadata()
        assert stack.device.counters.flushes == flushes

    def test_dirty_device_metadata_sync_still_flushes(self):
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"y" * 64)
        fs.fsync(handle)  # journals the create + allocation
        # Rewriting an allocated page dirties no metadata, so the later
        # metadata sync finds a dirty device and must pay a real flush.
        handle.write_page(0, b"z" * 64)
        for lpn, data in fs._drain_dirty_data(handle.inode.ino):
            fs._device_write_data(lpn, data)
        assert stack.device.dirty_since_flush
        flushes = stack.device.counters.flushes
        fs.sync_metadata()
        assert stack.device.counters.flushes == flushes + 1

    def test_clean_file_fsync_adds_no_flush(self):
        """The double-flush regression: fsync of an already-durable file.

        Before the dedupe, ``_journal_metadata`` with nothing to journal
        issued an unconditional ``device.flush()`` even when no write had
        landed since the last one — the redundant durability point the
        pager's journal-sync path paid on every commit.
        """
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"x" * 64)
        fs.fsync(handle)
        flushes = stack.device.counters.flushes
        fs.fsync(handle)  # nothing dirty anywhere: must be flush-free
        assert stack.device.counters.flushes == flushes

    @pytest.mark.parametrize("mode", (Mode.FS_ORDERED, Mode.FS_FULL))
    def test_clean_fsync_after_ordered_commits_is_one_real_flush(self, mode):
        """On a barrier device a journal commit is only *ordered* (its
        commit page is a BARRIER_WRITE), so the device stays dirty: an
        fsync that finds nothing to journal is still a durability point,
        in either journaling mode — once."""
        stack = build_stack(
            StackConfig(
                mode=mode, barrier_mode=True, channels=2, queue_depth=4, **self._STACK
            )
        )
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"x" * 64)
        fs.fsync(handle)
        assert stack.device.dirty_since_flush
        flushes = stack.device.counters.flushes
        fs.fsync(handle)
        assert stack.device.counters.flushes == flushes + 1
        fs.fsync(handle)
        assert stack.device.counters.flushes == flushes + 1


class TestFdatabarrier:
    """``Ext4.fdatabarrier``: this file's data down, one order point, no more."""

    def _dirty_two_files(self, barrier_mode: bool):
        stack = build_stack(
            StackConfig(
                mode=Mode.FS_ORDERED,
                barrier_mode=barrier_mode,
                channels=2,
                queue_depth=4,
                **TestFlushDedupe._STACK,
            )
        )
        fs = stack.fs
        mine, other = fs.create("mine.db"), fs.create("other.db")
        for handle in (mine, other):
            handle.write_page(0, b"old" * 8)
            fs.fsync(handle)
        mine.write_page(0, b"new" * 8)
        other.write_page(0, b"new" * 8)
        return stack, mine, other

    @pytest.mark.parametrize("barrier_mode", (True, False))
    def test_one_ordering_command_and_only_this_files_data(self, barrier_mode):
        stack, mine, other = self._dirty_two_files(barrier_mode)
        fs, device = stack.fs, stack.device
        other_lpn = fs._lookup_block(other.inode, 0)
        before = device.counters.snapshot()
        meta_writes = fs.stats.meta_page_writes
        journal_writes = fs.stats.journal_page_writes
        fs.fdatabarrier(mine)
        spent = {name: n for name, n in device.counters.delta(before).as_dict().items() if n}
        # One data page down, then order: an epoch barrier and no flush on a
        # barrier device, exactly one flush on a drain device.
        assert spent == {"writes": 1, "barriers" if barrier_mode else "flushes": 1}
        # No metadata, no journal frame, and the other file stays dirty in
        # the page cache — its old copy is still what the device holds.
        assert fs.stats.meta_page_writes == meta_writes
        assert fs.stats.journal_page_writes == journal_writes
        assert other_lpn in fs._dirty_data
        assert fs.cache.peek(other_lpn).dirty
        assert device.read(other_lpn) == b"old" * 8
        assert device.read(fs._lookup_block(mine.inode, 0)) == b"new" * 8


class TestStackKnob:
    def test_string_spellings_are_rejected_not_truthy(self):
        # barrier_mode is a bool; "drain" would otherwise read as True.
        for spelling in ("drain", "barrier", None, 1):
            with pytest.raises(DeviceError, match="barrier_mode must be a bool"):
                build_stack(StackConfig(barrier_mode=spelling, **TestFlushDedupe._STACK))

    def test_build_stack_wires_the_device_and_connection(self):
        stack = build_stack(
            StackConfig(
                mode=Mode.RBJ,
                barrier_mode=True,
                channels=2,
                queue_depth=4,
                **TestFlushDedupe._STACK,
            )
        )
        assert stack.device.barrier_mode
        assert stack.device.queue.epochs_enabled
        assert stack.chip.order_only_drains
        drain = build_stack(StackConfig(mode=Mode.RBJ, **TestFlushDedupe._STACK))
        assert not drain.device.barrier_mode
        assert not drain.chip.order_only_drains
        # The knob stops at the device: the same connection code runs on both.
        for built in (stack, drain):
            db = built.open_database("test.db")
            db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
            assert db.execute("SELECT COUNT(*) FROM t") == [(0,)]


class TestBarrierSqlite:
    """The pager's commit path on a barrier device: works, and stalls less."""

    _STACK = dict(_SQLITE_STACK, channels=4, queue_depth=4)

    def _run(self, mode: Mode, barrier_mode):
        stack = build_stack(
            StackConfig(mode=mode, barrier_mode=barrier_mode, **self._STACK)
        )
        db = stack.open_database("test.db")
        workload = SyntheticWorkload(db, rows=120)
        workload.load()
        workload.run(transactions=8, updates_per_txn=3)
        return stack, db

    @pytest.mark.parametrize("mode", (Mode.RBJ, Mode.WAL, Mode.XFTL))
    def test_commits_survive_and_stall_less(self, mode):
        drain_stack, drain_db = self._run(mode, False)
        barrier_stack, barrier_db = self._run(mode, True)
        # Same data committed either way.
        query = (
            "SELECT ps_id, ps_availqty, ps_supplycost FROM partsupply ORDER BY ps_id"
        )
        assert drain_db.execute(query) == barrier_db.execute(query)
        # The barrier run never paid a drain stall on the commit path.
        assert barrier_stack.device.barrier_stalls == 0
        assert barrier_stack.device.stalls_avoided > 0
        assert drain_stack.device.stalls_avoided == 0
        assert barrier_stack.clock.now_us <= drain_stack.clock.now_us


# ------------------------------------------------------- barrier-on baseline


def _capture_barrier(stack) -> dict:
    """The channel-baseline capture plus the order-path accounting."""
    captured = _capture(stack)
    captured["fs_stats"] = vars(stack.fs.stats).copy()
    captured["stalls_avoided"] = stack.device.stalls_avoided
    captured["stall_avoided_us"] = stack.device.stall_avoided_us
    return captured


# The channel baseline's legs, on a barrier device, serial and NCQ.
_BARRIER_LEGS = ("synthetic.rbj", "synthetic.wal", "synthetic.xftl", "fio.fs_full")
_BARRIER_SHAPES = {
    "serial": dict(channels=1, queue_depth=1),
    "ncq": dict(channels=2, queue_depth=4),
}


def _run_barrier_scenario(name: str) -> dict:
    leg, _, shape = name.rpartition(".")
    run, mode = SCENARIOS[leg]
    return run(mode, capture=_capture_barrier, barrier_mode=True, **_BARRIER_SHAPES[shape])


BARRIER_SCENARIOS = [f"{leg}.{shape}" for leg in _BARRIER_LEGS for shape in _BARRIER_SHAPES]

PIN = Pin("barrier", DATA / "barrier_baseline.json", BARRIER_SCENARIOS, _run_barrier_scenario)


@pytest.mark.parametrize("name", sorted(BARRIER_SCENARIOS))
def test_barrier_stack_matches_recorded_baseline(name: str) -> None:
    """What a barrier stack *does*, pinned: every counter, the exact
    simulated time and the final flash state of RBJ / WAL / X-FTL and one
    full-journal FIO leg with ``barrier_mode`` on, serial and NCQ.

    ``tests/data/barrier_baseline.json`` was recorded at the commit before
    the ordering mechanism moved into the device; re-record only with a
    deliberate, explained bump::

        PYTHONPATH=src:. python -m tests.pins --record barrier [SCENARIO ...]
    """
    PIN.check(name)
