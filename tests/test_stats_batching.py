"""Delta-equivalence lock for the batched hot-path stats counters.

GC copyback counters used to be incremented per page inside the relocation
loops; they are now accumulated in locals and applied once per op/slice.
Batching must be invisible in the ledger: the FTL-side deltas have to match
the chip's own per-op counters exactly, including when a power failure
interrupts a copyback slice half way (a read that completed before the
failure is still counted, exactly as the per-page increments would have).
"""

from __future__ import annotations

import pytest

from repro.errors import PowerFailure
from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.sim.crash import CrashPlan
from repro.sim.rng import make_rng

GEO = dict(page_size=512, pages_per_block=16, num_blocks=64, channels=4)
CONFIG = dict(
    gc_mode="background",
    gc_policy="cost-benefit",
    gc_background_watermark=3,
    gc_copyback_pages_per_step=4,
    gc_hot_write_threshold=4,
)


def _build(crash_plan: CrashPlan | None = None):
    chip = FlashArray(FlashGeometry(**GEO), crash_plan=crash_plan)
    return chip, PageMappingFTL(chip, FtlConfig(**CONFIG))


def _workload(ftl, writes: int, crash_plan: CrashPlan | None = None) -> bool:
    """Skewed overwrites; returns True if a PowerFailure cut the run short."""
    rng = make_rng(0xBA7C, "test.stats_batching", "stream")
    try:
        for lpn in range(_fill(ftl)):
            ftl.write(lpn, ("fill", lpn))
        _overwrite(ftl, rng, writes)
    except PowerFailure:
        return True
    return False


def _fill(ftl) -> int:
    return int(ftl.exported_pages * 0.9)


def _overwrite(ftl, rng, writes: int) -> None:
    fill = _fill(ftl)
    hot = max(1, fill // 5)
    for seq in range(writes):
        lpn = rng.randrange(hot) if rng.random() < 0.8 else rng.randrange(fill)
        ftl.write(lpn, ("steady", seq))
        if (seq + 1) % 64 == 0:
            ftl.barrier()


def _assert_ledger_balances(chip, ftl, unattributed: int = 0) -> None:
    """``unattributed``: programs the chip counted whose caller never returned
    to count them (a power failure after, or tearing, the in-flight page)."""
    stats = ftl.stats
    # Every read the chip performed was a GC copyback read (no host reads,
    # no CMT, no recovery scan in this workload) — so the batched FTL
    # counter must equal the chip's per-op counter exactly.
    assert stats.gc_copyback_reads == chip.stats.page_reads
    # Every program is attributable: host data, map/meta page (``_flush_pages``
    # counts its firmware-meta programs under ``map_page_writes``), or GC
    # copyback.  Nothing else programs the chip in this workload.
    assert chip.stats.page_programs - unattributed == (
        stats.host_page_writes + stats.map_page_writes + stats.gc_copyback_writes
    )
    # ...and the map counter really does fold the per-barrier meta pages in.
    assert stats.map_page_writes >= stats.barriers * ftl.config.barrier_meta_pages


def test_ledger_balances_without_crash():
    chip, ftl = _build()
    assert not _workload(ftl, writes=1500)
    assert ftl.stats.gc_copyback_writes > 0  # GC actually ran
    # An uninterrupted job loop always pairs read with program.
    assert ftl.stats.gc_copyback_reads == ftl.stats.gc_copyback_writes
    _assert_ledger_balances(chip, ftl)


@pytest.mark.parametrize("after", [2000, 2100, 2234, 2345, 2456])
def test_ledger_stays_exact_under_mid_copyback_power_failure(after: int):
    """Crash at an arbitrary program: batched counters stay per-op exact.

    ``flash.program.before`` fires deterministically at the ``after``-th
    program of the fixed workload stream — sometimes on a host or map
    write, sometimes between a copyback's read and its program.  In every
    case the ledger must balance: a copyback read that completed before
    the failure is counted even though its program never happened.
    """
    plan = CrashPlan()
    plan.arm("flash.program.before", after=after)
    chip, ftl = _build(crash_plan=plan)
    assert _workload(ftl, writes=3000, crash_plan=plan)
    _assert_ledger_balances(chip, ftl)


def test_crash_points_cover_the_unbalanced_finally_path():
    """At least one armed offset must land between a read and its program.

    Guards the interesting case of the parametrized test above: if no
    offset ever interrupted a copyback mid-pair, the try/finally exactness
    would be untested.  Balanced-only outcomes across all offsets mean the
    workload or offsets need retuning, so fail loudly.
    """
    unbalanced = 0
    for after in (2000, 2100, 2234, 2345, 2456):
        plan = CrashPlan()
        plan.arm("flash.program.before", after=after)
        chip, ftl = _build(crash_plan=plan)
        assert _workload(ftl, writes=3000, crash_plan=plan)
        if ftl.stats.gc_copyback_reads == ftl.stats.gc_copyback_writes + 1:
            unbalanced += 1
    assert unbalanced > 0


@pytest.mark.parametrize(
    "point,tear,unattributed",
    [
        ("flash.program.mid", True, 1),
        ("flash.program.after", False, 1),
        ("gc.copyback.page", False, 0),
    ],
)
def test_ledger_stays_exact_when_power_fails_after_whole_runs(point, tear, unattributed):
    """Unarmed, a slice of a job is one ``copyback_run``; armed, one page.

    The plan is armed only once collection is steady, so the ledger spans
    both: whole runs counted in one step each, then single pages, then a
    failure that tears a relocated page, follows its program, or precedes
    its read.  A read whose program never completed is still counted.
    """
    between_read_and_program = 0
    for after in (40, 95, 150, 205, 260):
        plan = CrashPlan()
        chip, ftl = _build(crash_plan=plan)
        run_lengths = []
        copyback_run = chip.copyback_run

        def counted(srcs, dst, oobs):
            run_lengths.append(len(srcs))
            copyback_run(srcs, dst, oobs)

        chip.copyback_run = counted
        assert not _workload(ftl, writes=1500)
        assert max(run_lengths) > 1 and sum(run_lengths) == ftl.stats.gc_copyback_writes
        plan.arm(point, after=after, tear_page=tear)
        del run_lengths[:]
        with pytest.raises(PowerFailure):
            _overwrite(ftl, make_rng(0xBA7C, "test.stats_batching", "armed"), 3000)
        assert set(run_lengths) <= {1}
        _assert_ledger_balances(chip, ftl, unattributed)
        if ftl.stats.gc_copyback_reads == ftl.stats.gc_copyback_writes + 1:
            between_read_and_program += 1
    assert between_read_and_program > 0 or point == "gc.copyback.page"
