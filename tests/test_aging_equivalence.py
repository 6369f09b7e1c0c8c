"""Aging in runs against the page-at-a-time aging it replaced.

``age_device`` writes each filler block with one ``PageMappingFTL.write_run``,
trims its doomed pages with one ``trim_run``, builds its survivor list from
its own ``rng.sample`` draws and drains the pool with one ``write_run`` of
scattered survivors per collector room.  The reference below is the aging it
replaced: a ``write`` and a ``trim`` per page, then a ``mapped_ppn`` scan of
the filler range for the survivors.  Twin stacks are
aged by each and must agree on every piece of state aging touches: the L2P,
the owner table and its details, the per-block valid counts, the sequence
counter, the dirty segments, every page's data and OOB, the page states and
write points, the counters, the clock, the channel timelines and the
collector's pools.  ``write_run`` (consecutive or scattered lpns) and
``trim_run`` must also equal their loops on every FTL below, version chains
and the demand-paged map's residency included.
"""

from __future__ import annotations

import pytest

from repro.bench.aging import _FILLER_PAYLOAD, age_device
from repro.errors import AgingError, FtlError
from repro.flash import FlashGeometry
from repro.flash.chip import FlashChip
from repro.ftl import XFTL, FtlConfig, PageMappingFTL
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack


def reference_age_device(stack, validity, seed=7, headroom_blocks=6, fs_headroom_pages=512):
    ftl = stack.ftl
    pages_per_block = stack.chip.geometry.pages_per_block
    floor = ftl.config.gc_free_block_threshold * stack.chip.geometry.channels + headroom_blocks
    by_free = ftl.free_block_count() - floor
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
        "active": (list(gc._active_blocks), list(gc._hot_active), list(gc._trans_active)),
        "timelines": [
            (t.busy_until_us, t.busy_us, t.reservations) for t in chip.scheduler.timelines()
        ],
    }
    if ftl._cmt is not None:
        seen["cmt"] = ftl._cmt.resident_segments()
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
    """The equivalence above would also hold if no run were ever taken: on
    the paper's stack the filler, its trims and the drain all take runs."""
    stack = build_stack(
        StackConfig(
            mode=Mode.RBJ, num_blocks=512, pages_per_block=128, ftl=FtlConfig(gc_policy="fifo")
        )
    )
    stack.open_database("aged.db").execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    ftl = stack.ftl
    calls = {"write": 0, "trim": 0, "trim_run": 0, "drain_runs": []}
    for name in ("write", "trim"):
        method = getattr(ftl, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(ftl, name, counted)
    trim_run, write_run = ftl.trim_run, ftl.write_run

    def counted_trim_run(lpns):
        calls["trim_run"] += 1
        trim_run(lpns)

    def counted_write_run(lpns, data):
        if not isinstance(lpns, range):
            calls["drain_runs"].append(len(lpns))
        write_run(lpns, data)

    monkeypatch.setattr(ftl, "trim_run", counted_trim_run)
    monkeypatch.setattr(ftl, "write_run", counted_write_run)
    runs = []
    program_run = stack.chip.program_run

    def counted_program_run(dst, data, oobs):
        runs.append(len(data))
        program_run(dst, data, oobs)

    monkeypatch.setattr(stack.chip, "program_run", counted_program_run)
    writes = ftl.stats.host_page_writes
    age_device(stack, 0.5)
    written = ftl.stats.host_page_writes - writes
    drained = sum(calls["drain_runs"])
    assert sum(runs) > written * 0.95
    assert calls["trim"] == 0 and calls["trim_run"] > 0
    assert drained > 1_000
    assert len(calls["drain_runs"]) < drained / 100  # a block's worth per run
    assert calls["write"] < written / 100  # the page that opens each block


#: name -> (FTL class, FtlConfig fields) for write_run against the write loop.
FTLS = {
    "pagemap": (PageMappingFTL, {}),
    "xftl": (XFTL, {}),
    "xftl-retain-2": (XFTL, {"retain_versions": 2}),
    "pagemap-cmt": (PageMappingFTL, {"cmt_pages": 3}),
}


def _small_ftl(name: str):
    cls, fields = FTLS[name]
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=48, channels=1))
    return cls(chip, FtlConfig(overprovision=0.25, map_entries_per_page=16, **fields))


@pytest.mark.parametrize("name", FTLS)
def test_write_run_over_mapped_lpns_is_the_write_loop(name):
    """Runs that supersede, open blocks and collect; chains keep their order.

    Odd rounds write scattered lpns with one lpn repeated: its second copy
    supersedes the first inside the run, as the loop's second write does.
    """
    run, loop = _small_ftl(name), _small_ftl(name)
    rng = make_rng(3, "test.aging_equivalence", name)
    span = 96
    for target in (run, loop):
        for lpn in range(span):
            target.write(lpn, ("first", lpn))
    for round_number in range(40):
        if round_number % 2:
            lpns = [rng.randrange(span) for _ in range(rng.randint(1, 12))]
            lpns.insert(rng.randrange(len(lpns) + 1), lpns[0])
        else:
            first = rng.randrange(span)
            lpns = range(first, first + min(rng.randint(1, 20), span - first))
        trims = rng.sample(range(span), 3)
        run.write_run(lpns, ("run", round_number))
        run.trim_run(trims)
        for lpn in lpns:
            loop.write(lpn, ("run", round_number))
        for lpn in trims:
            loop.trim(lpn)
        if round_number % 7 == 6:
            for target in (run, loop):
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
    run.write_run(range(1, 8), "run")
    for lpn in range(1, 8):
        loop.write(lpn, "run")
    assert run.stats.gc_invocations > reclaims
    assert state(run) == state(loop)


@pytest.mark.parametrize("name", FTLS)
def test_trim_run_is_the_trim_loop(name):
    """Repeated, unmapped and finally out-of-range lpns: the same state, and
    the same error at the same lpn."""
    run, loop = _small_ftl(name), _small_ftl(name)
    rng = make_rng(9, "test.aging_equivalence.trim", name)
    span = 96
    for target in (run, loop):
        for lpn in range(span):
            target.write(lpn, ("first", lpn))
        for lpn in range(0, span, 3):
            target.write(lpn, ("second", lpn))  # a version chain to release
        target.barrier()
    for round_number in range(12):
        lpns = rng.sample(range(span + 20), 10)  # some never written
        lpns.append(lpns[0])
        run.trim_run(lpns)
        for lpn in lpns:
            loop.trim(lpn)
        rewritten = rng.randrange(span)
        for target in (run, loop):
            target.write(rewritten, ("again", round_number))
        assert state(run) == state(loop)
    for target in (run, loop):
        for lpn in (4, 5, 6):
            target.write(lpn, ("last", lpn))
    lpns = [4, 5, 4, run.exported_pages, 6]
    with pytest.raises(FtlError) as from_run:
        run.trim_run(lpns)
    with pytest.raises(FtlError) as from_loop:
        for lpn in lpns:
            loop.trim(lpn)
    assert str(from_run.value) == str(from_loop.value)
    assert state(run) == state(loop)
    assert run.mapped_ppn(6) is not None and run.mapped_ppn(5) is None
    run.check_invariants()


@pytest.mark.parametrize("channels", [4, 8])
def test_multichannel_aging_reaches_its_floor(channels):
    """Each inline channel keeps its own GC threshold of free blocks, so a
    one-channel floor is out of reach at four channels and up: a drain
    aiming at it rewrites until its guard (4 x exported pages) runs out."""
    stack = build_stack(
        StackConfig(
            mode=Mode.RBJ,
            num_blocks=512,
            pages_per_block=128,
            channels=channels,
            queue_depth=channels,
            ftl=FtlConfig(gc_policy="fifo"),
        )
    )
    stack.open_database("aged.db").execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    ftl = stack.ftl
    floor = ftl.config.gc_free_block_threshold * channels + 6
    writes = ftl.stats.host_page_writes
    age_device(stack, 0.5)
    assert ftl.free_block_count() <= floor
    assert ftl.stats.host_page_writes - writes < ftl.exported_pages * 1.2


def test_a_pool_that_never_drains_raises(monkeypatch):
    """Running out of guard is an error, not a silent return."""
    stack = aged_stack(Mode.XFTL, 1)
    monkeypatch.setattr(stack.ftl, "free_block_count", lambda: 10**6)
    with pytest.raises(AgingError, match="drain writes"):
        age_device(stack, 0.5)
