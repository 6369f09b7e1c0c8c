"""Regression lock: ``channels=1, queue_depth=1`` must equal the seed serial model.

The multi-channel refactor rebuilt the clock/flash/FTL/device timing path
around per-channel resource timelines and an NCQ-style device queue.  Its
safety net is exact equivalence in the degenerate configuration: with one
channel and a queue depth of one, every FlashStats counter, every device
counter and the simulated elapsed time must be *bit-identical* to what the
seed's strictly serial model produced.

``tests/data/channel_baseline.json`` (the ``channel`` pin, ``tests/pins.py``)
was recorded by running this module's workloads against the seed code
(before the refactor); re-record only with a deliberate, explained baseline
bump::

    PYTHONPATH=src:. python -m tests.pins --record channel [SCENARIO ...]
"""

from __future__ import annotations

import hashlib

import pytest

from repro.flash.state import PAGE_ERASED, PAGE_PROGRAMMED
from repro.ftl.pagemap import DEAD
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.fio import FioBenchmark
from repro.workloads.synthetic import SyntheticWorkload

from tests.pins import DATA, Pin

_FIO_STACK = dict(
    num_blocks=96,
    pages_per_block=16,
    page_size=1024,
    journal_pages=32,
    fs_cache_pages=64,
    max_inodes=8,
)

_SQLITE_STACK = dict(
    num_blocks=160,
    pages_per_block=32,
    page_size=4096,
    journal_pages=64,
    fs_cache_pages=256,
    max_inodes=16,
)


def state_digest(ftl) -> str:
    """Consistency-check the flash state arrays, then fold them into the pin.

    The incrementally maintained per-block live counts must agree with a
    recount from the FTL's owner table, and the arrays themselves are hashed
    (liveness as one byte per page, derived from the owner table) so a
    divergence — a page wrongly live, a stale write point — fails the lock
    even when every counter happens to still match.
    """
    chip = ftl.chip
    view = chip.state
    geo = chip.geometry
    per = geo.pages_per_block
    states = view.page_states
    live = bytes(owner != DEAD for owner in ftl._owner)
    assert [sum(live[b * per : (b + 1) * per]) for b in range(geo.num_blocks)] == ftl._valid_count
    for block in range(geo.num_blocks):
        base = block * per
        point = view.write_points[block]
        # Sequential programming: non-erased strictly below the write point.
        assert all(states[base + i] != PAGE_ERASED for i in range(point))
        assert all(states[base + i] == PAGE_ERASED for i in range(point, per))
    for ppn in range(geo.total_pages):
        if live[ppn]:
            assert states[ppn] == PAGE_PROGRAMMED
    packed = bytes(states) + live
    packed += b"".join(c.to_bytes(4, "little") for c in view.erase_counts)
    packed += b"".join(w.to_bytes(4, "little") for w in view.write_points)
    return hashlib.sha256(packed).hexdigest()


def _capture(stack) -> dict:
    """Everything the baseline pins: counters, exact simulated time, and a
    digest of the final flash state arrays."""
    return {
        "flash_stats": stack.chip.stats.as_dict(),
        "device_counters": stack.device.counters.as_dict(),
        "elapsed_us": stack.clock.now_us,
        "state_digest": state_digest(stack.ftl),
    }


def _run_fio(mode: Mode, capture=_capture, **device_shape) -> dict:
    """``device_shape`` / ``capture``: the barrier baseline
    (``tests/test_barrier_stack.py``) runs the same legs on other devices."""
    stack = build_stack(StackConfig(mode=mode, **_FIO_STACK, **device_shape))
    fio = FioBenchmark(stack, file_pages=256)
    fio.run(runtime_s=3600.0, fsync_interval=5, threads=1, max_writes=400)
    return capture(stack)


def _run_synthetic(mode: Mode, capture=_capture, **device_shape) -> dict:
    stack = build_stack(StackConfig(mode=mode, **_SQLITE_STACK, **device_shape))
    db = stack.open_database("test.db")
    workload = SyntheticWorkload(db, rows=400)
    workload.load()
    workload.run(transactions=15, updates_per_txn=5)
    return capture(stack)


SCENARIOS = {
    "fio.fs_ordered": (_run_fio, Mode.FS_ORDERED),
    "fio.fs_full": (_run_fio, Mode.FS_FULL),
    "fio.xftl": (_run_fio, Mode.XFTL),
    "synthetic.rbj": (_run_synthetic, Mode.RBJ),
    "synthetic.wal": (_run_synthetic, Mode.WAL),
    "synthetic.xftl": (_run_synthetic, Mode.XFTL),
}


def _drain_row(name: str) -> dict:
    """A scenario's capture without the barrier-path counters: the seed
    model predates them and a drain device never issues them (the drain
    tests in ``tests/test_barrier_stack.py`` hold them at zero)."""
    run, mode = SCENARIOS[name]
    row = run(mode)
    for counter in ("barriers", "barrier_writes"):
        del row["device_counters"][counter]
    return row


PIN = Pin("channel", DATA / "channel_baseline.json", list(SCENARIOS), _drain_row)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serial_config_matches_seed_baseline(name: str) -> None:
    # Exact float equality on ``elapsed_us`` on purpose: the degenerate
    # single-channel path must perform the *same arithmetic* as the seed's
    # serial clock.
    PIN.check(name)
