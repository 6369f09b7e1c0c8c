"""Aging in block runs against the page-at-a-time aging it replaced.

``age_device`` writes each filler block with one ``PageMappingFTL.write_run``
and builds its survivor list from its own ``rng.sample`` draws.  The
reference below is the aging it replaced: a ``write`` per filler page, then a
``mapped_ppn`` scan of the filler range for the survivors.  Twin stacks are
aged by each and must agree on every piece of state aging touches: the L2P,
the owner table and its details, the per-block valid counts, the sequence
counter, the dirty segments, every page's data and OOB, the page states and
write points, the counters, the clock, the channel timelines and the
collector's pools.  A ``write_run`` over mapped lpns on a multi-version
X-FTL must also equal the ``write`` loop, version chains included.
"""

from __future__ import annotations

import pytest

from repro.bench.aging import _FILLER_PAYLOAD, age_device
from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack


def reference_age_device(stack, validity, seed=7, headroom_blocks=6, fs_headroom_pages=512):
    ftl = stack.ftl
    pages_per_block = stack.chip.geometry.pages_per_block
    by_free = ftl.free_block_count() - ftl.config.gc_free_block_threshold - headroom_blocks
    frontier = stack.fs.allocation_frontier()
    by_space = (ftl.exported_pages - frontier - fs_headroom_pages) // pages_per_block
    aged_blocks = min(by_free, by_space)
    rng = make_rng(seed, "aging", validity)
    first_lpn = ftl.exported_pages - aged_blocks * pages_per_block
    surviving = 0
    doomed_per_block = int(pages_per_block * (1.0 - validity))
    for block_index in range(aged_blocks):
        chunk = list(
            range(
                first_lpn + block_index * pages_per_block,
                first_lpn + (block_index + 1) * pages_per_block,
            )
        )
        for lpn in chunk:
            ftl.write(lpn, _FILLER_PAYLOAD)
        for lpn in rng.sample(chunk, doomed_per_block):
            ftl.trim(lpn)
        surviving += pages_per_block - doomed_per_block
    survivors = [
        lpn
        for lpn in range(first_lpn, first_lpn + aged_blocks * pages_per_block)
        if ftl.mapped_ppn(lpn) is not None
    ]
    floor = ftl.config.gc_free_block_threshold + headroom_blocks
    guard = ftl.exported_pages * 4
    while ftl.free_block_count() > floor and survivors and guard > 0:
        ftl.write(rng.choice(survivors), _FILLER_PAYLOAD)
        guard -= 1
    ftl.barrier()
    return surviving


def state(ftl) -> dict:
    chip = ftl.chip
    gc = ftl.gc
    seen = {
        "l2p": list(ftl._l2p),
        "owner": list(ftl._owner),
        "detail": list(ftl._owner_detail.items()),
        "valid": list(ftl._valid_count),
        "seq": ftl._seq,
        "dirty": sorted(ftl._dirty_segments),
        "data": list(chip._data),
        "oobs": list(chip._oob),
        "page_states": bytes(chip.state.page_states),
        "write_points": list(chip.state.write_points),
        "erase_counts": list(chip.state.erase_counts),
        "stats": chip.stats.as_dict(),
        "now": chip.clock.now_us,
        "free": [list(free) for free in gc._free_by_channel],
        "alloc_order": [list(order) for order in gc._alloc_order],
        "active": (gc.active_blocks(), gc.hot_active_blocks(), list(gc._trans_active)),
        "timelines": [
            (t.busy_until_us, t.busy_us, t.reservations) for t in chip.scheduler.timelines()
        ],
    }
    versions = getattr(ftl, "_versions", None)
    if versions is not None:
        seen["chains"] = [(lpn, list(chain)) for lpn, chain in versions.chains()]
        seen["commit_counter"] = ftl._commit_counter
    return seen


def aged_stack(mode: Mode, channels: int):
    stack = build_stack(
        StackConfig(
            mode=mode,
            num_blocks=96,
            pages_per_block=32,
            channels=channels,
            queue_depth=channels,
            ftl=FtlConfig(gc_policy="fifo"),
        )
    )
    db = stack.open_database("aged.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    db.execute("BEGIN")
    for i in range(200):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"value-{i}" * 8))
    db.execute("COMMIT")
    return stack


CASES = [
    (mode, validity, 1) for mode in (Mode.RBJ, Mode.WAL, Mode.XFTL) for validity in (0.3, 0.5, 0.7)
]
CASES.append((Mode.XFTL, 0.5, 4))  # more than one channel: every page takes write()


@pytest.mark.parametrize(
    ("mode", "validity", "channels"),
    CASES,
    ids=[f"{mode.name}-{validity}-{channels}ch" for mode, validity, channels in CASES],
)
def test_aging_in_runs_matches_the_page_loop(mode, validity, channels):
    aged, reference = aged_stack(mode, channels), aged_stack(mode, channels)
    assert state(aged.ftl) == state(reference.ftl)
    surviving = age_device(aged, validity)
    assert surviving == reference_age_device(reference, validity)
    assert state(aged.ftl) == state(reference.ftl)
    aged.ftl.check_invariants()


def test_aging_takes_the_run_path(monkeypatch):
    """The equivalence above would also hold if no run were ever taken."""
    stack = aged_stack(Mode.XFTL, 1)
    runs = []
    program_run = stack.chip.program_run

    def counted(dst, data, oobs):
        runs.append(len(data))
        program_run(dst, data, oobs)

    monkeypatch.setattr(stack.chip, "program_run", counted)
    age_device(stack, 0.5)
    assert sum(runs) > stack.ftl.stats.host_page_writes // 2


#: name -> (FTL class, FtlConfig fields) for write_run against the write loop.
FTLS = {
    "pagemap": (PageMappingFTL, {}),
    "xftl": (XFTL, {}),
    "xftl-retain-2": (XFTL, {"retain_versions": 2}),
}


def _small_ftl(name: str):
    cls, fields = FTLS[name]
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=48, channels=1))
    return cls(chip, FtlConfig(overprovision=0.25, map_entries_per_page=16, **fields))


@pytest.mark.parametrize("name", FTLS)
def test_write_run_over_mapped_lpns_is_the_write_loop(name):
    """Runs that supersede, open blocks and collect; chains keep their order."""
    run, loop = _small_ftl(name), _small_ftl(name)
    rng = make_rng(3, "test.aging_equivalence", name)
    span = 96
    for target in (run, loop):
        for lpn in range(span):
            target.write(lpn, ("first", lpn))
    for round_number in range(40):
        first = rng.randrange(span)
        count = min(rng.randint(1, 20), span - first)
        trims = rng.sample(range(span), 3)
        run.write_run(first, count, ("run", round_number))
        for lpn in range(first, first + count):
            loop.write(lpn, ("run", round_number))
        for target in (run, loop):
            for lpn in trims:
                target.trim(lpn)
            if round_number % 7 == 6:
                target.barrier()
        assert state(run) == state(loop)
    assert run.stats.gc_invocations > 0
    if name == "xftl-retain-2":
        assert any(len(chain) > 0 for _lpn, chain in run._versions.chains())
    run.check_invariants()


def test_an_empty_free_pool_takes_the_write_loop():
    """With no free block every page of the open block is at the headroom
    floor, so every page reclaims first: no run may skip that."""
    run, loop = _small_ftl("pagemap"), _small_ftl("pagemap")
    for target in (run, loop):
        for lpn in range(100):
            target.write(lpn, ("first", lpn))
        for lpn in range(100):
            if lpn % 4:
                target.trim(lpn)  # two valid pages per written block
        target.gc._free_by_channel[0].clear()  # as if the pool ran dry
    reclaims = run.stats.gc_invocations
    run.write_run(1, 7, "run")
    for lpn in range(1, 8):
        loop.write(lpn, "run")
    assert run.stats.gc_invocations > reclaims
    assert state(run) == state(loop)
