"""A/B lock: a CMT big enough for the whole map must equal the in-RAM mapping.

The demand-paged mapping table (repro.ftl.cmt) is only allowed to change
behaviour when it actually has to evict.  With ``cmt_pages`` at or above
the number of translation pages covering the exported space, the FTL drops
the CMT wholesale (the documented degeneration), so every FlashStats
counter, every device counter and the simulated elapsed time must be
*bit-identical* to a ``cmt_pages=0`` run of the same workload.

Unlike tests/test_channel_equivalence.py there is no JSON baseline: both
sides are computed in the same run, so the lock can never go stale.  The
captured dict includes a digest of the BlockStateView arrays (borrowed
from the channel test), so the bitmap path itself is part of the lock:
both runs must leave byte-identical page-state/validity arrays behind.
"""

from __future__ import annotations

import pytest

from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.fio import FioBenchmark
from repro.workloads.synthetic import SyntheticWorkload

from tests.test_channel_equivalence import state_digest

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

# Far more translation pages than either stack's exported space needs, so
# the whole map "fits" and the degeneration rule applies.
_WHOLE_MAP = 1 << 20


def _capture(stack) -> dict:
    return {
        "flash_stats": stack.chip.stats.as_dict(),
        "device_counters": stack.device.counters.as_dict(),
        "elapsed_us": stack.clock.now_us,
        "state_digest": state_digest(stack.ftl),
    }


def _run_fio(mode: Mode, cmt_pages: int) -> dict:
    stack = build_stack(
        StackConfig(mode=Mode.coerce(mode), ftl=FtlConfig(cmt_pages=cmt_pages), **_FIO_STACK)
    )
    fio = FioBenchmark(stack, file_pages=256, seed=7)
    fio.run(runtime_s=3600.0, fsync_interval=5, threads=1, max_writes=400)
    return _capture(stack)


def _run_synthetic(mode: Mode, cmt_pages: int) -> dict:
    stack = build_stack(
        StackConfig(mode=Mode.coerce(mode), ftl=FtlConfig(cmt_pages=cmt_pages), **_SQLITE_STACK)
    )
    db = stack.open_database("test.db")
    workload = SyntheticWorkload(db, rows=400)
    workload.load()
    workload.run(transactions=15, updates_per_txn=5)
    return _capture(stack)


SCENARIOS = {
    "fio.fs_ordered": lambda cmt: _run_fio(Mode.FS_ORDERED, cmt),
    "fio.xftl": lambda cmt: _run_fio(Mode.XFTL, cmt),
    "synthetic.rbj": lambda cmt: _run_synthetic(Mode.RBJ, cmt),
    "synthetic.wal": lambda cmt: _run_synthetic(Mode.WAL, cmt),
    "synthetic.xftl": lambda cmt: _run_synthetic(Mode.XFTL, cmt),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_whole_map_cache_is_bit_identical(name: str) -> None:
    run = SCENARIOS[name]
    assert run(_WHOLE_MAP) == run(0), name


def test_exact_fit_cache_also_degenerates() -> None:
    """cmt_pages == total translation pages is the degeneration boundary."""
    geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
    base = dict(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1)
    probe = PageMappingFTL(FlashChip(geo), FtlConfig(**base))
    segments = -(-probe.exported_pages // 16)

    def run(cmt_pages: int) -> dict:
        ftl = PageMappingFTL(FlashChip(geo), FtlConfig(cmt_pages=cmt_pages, **base))
        rng = make_rng(0xAB, "test.cmt_equivalence", "exact-fit")
        for i in range(400):
            ftl.write(rng.randrange(ftl.exported_pages), b"v%d" % i)
            if (i + 1) % 50 == 0:
                ftl.barrier()
        ftl.barrier()
        return ftl.stats.as_dict(), state_digest(ftl)

    assert run(segments) == run(0)


def test_active_cache_preserves_data_semantics() -> None:
    """A cache under real eviction pressure changes I/O, never contents."""
    geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
    base = dict(overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1)

    def run(cmt_pages: int) -> tuple[dict, int]:
        ftl = PageMappingFTL(
            FlashChip(geo), FtlConfig(cmt_pages=cmt_pages, cmt_dirty_batch=2, **base)
        )
        rng = make_rng(0xAB, "test.cmt_equivalence", "semantics")
        latest: dict[int, bytes] = {}
        for i in range(500):
            lpn = rng.randrange(ftl.exported_pages)
            data = b"v%d" % i
            ftl.write(lpn, data)
            latest[lpn] = data
            if (i + 1) % 64 == 0:
                ftl.barrier()
        ftl.barrier()
        ftl.check_invariants()
        contents = {lpn: ftl.read(lpn) for lpn in latest}
        return contents, ftl.stats.cmt_evictions

    cached_contents, evictions = run(2)
    plain_contents, _ = run(0)
    assert evictions > 0  # the cache was genuinely under pressure
    assert cached_contents == plain_contents
