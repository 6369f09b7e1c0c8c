"""Controlled device aging (§6.3.1).

The paper "controlled aging of the OpenSSD flash memory chips such that the
ratio of valid pages carried over by garbage collection was approximately
30%, 50% or 70%".  We reproduce that control directly: cold filler data is
written into most of the device's blocks, then a fraction ``1 - validity``
of each block's filler pages is invalidated (trimmed) in a deterministic
random pattern.  Greedy GC victims therefore carry over ≈ ``validity``
valid pages, and the cold pages keep getting re-copied — exactly the
write-amplification regime the figure varies.

Filler occupies the *top* of the exported logical space, far above the
file system's allocation frontier, and shares one payload object so aging a
device-scale chip costs no real memory.  Aging makes no per-page FTL call:

- each filler block is one :meth:`~repro.ftl.pagemap.PageMappingFTL.write_run`
  and its doomed pages one :meth:`~repro.ftl.pagemap.PageMappingFTL.trim_run`;
- the drain draws as many survivors as the collector can append with no
  decision (:meth:`~repro.ftl.gc.Collector.run_room`) plus one, and rewrites
  them with one ``write_run``.  Inside that room the free pool keeps its
  size, so the loop's test, taken before each page, holds for every page of
  the room and for the one after it: the draws keep their number and order.

Both run calls are defined as their per-page loops, and on the paper's
one-channel inline device each is a handful of bulk steps.  The survivors are
the pages the block's own ``rng.sample`` draw left alone, so every draw,
sequence number, placement, clock tick and counter is what aging page by
page gives (``tests/test_aging_equivalence.py``).
"""

from __future__ import annotations

from array import array

from repro.errors import AgingError
from repro.stack import BenchStack
from repro.sim.rng import make_rng

_FILLER_PAYLOAD = ("cold-filler",)
_FS_HEADROOM_PAGES = 512
_HEADROOM_BLOCKS = 6


def age_device(
    stack: BenchStack,
    validity: float,
    seed: int = 7,
) -> int:
    """Age the device to a target GC validity ratio.

    Filler is written one block's worth at a time and immediately thinned to
    the target validity, so garbage collection triggered *during* aging
    already finds ≈``validity``-valid victims.  ``_FS_HEADROOM_PAGES``
    logical pages above the file system's current allocation frontier are
    kept filler-free for the workload's own growth, and the drain stops
    ``_HEADROOM_BLOCKS`` free blocks above the GC threshold of every channel.

    Returns the number of filler pages left valid.  Statistics accumulated
    during aging are *not* reset here — benchmarks snapshot/diff around the
    measured phase.  Raises :class:`~repro.errors.AgingError` when the drain
    rewrites ``4 × exported_pages`` pages without reaching its floor.
    """
    if not 0.0 <= validity <= 1.0:
        raise ValueError(f"validity must be in [0, 1], got {validity}")
    ftl = stack.ftl
    pages_per_block = stack.chip.geometry.pages_per_block
    # Each inline channel keeps its own GC threshold of free blocks, so the
    # pool cannot drain below their sum.
    floor = ftl.config.gc_free_block_threshold * stack.chip.geometry.channels + _HEADROOM_BLOCKS

    by_free = ftl.free_block_count() - floor
    frontier = stack.fs.allocation_frontier()
    by_space = (ftl.exported_pages - frontier - _FS_HEADROOM_PAGES) // pages_per_block
    aged_blocks = min(by_free, by_space)
    if aged_blocks <= 0:
        raise ValueError("device too small to age with the requested headroom")

    rng = make_rng(seed, "aging", validity)
    top = ftl.exported_pages
    first_lpn = top - aged_blocks * pages_per_block
    doomed_per_block = int(pages_per_block * (1.0 - validity))
    survivors = array("i")  # unboxed: ~115,000 lpns on the 2,048-block perf legs
    for block_index in range(aged_blocks):
        start = first_lpn + block_index * pages_per_block
        chunk = range(start, start + pages_per_block)
        ftl.write_run(chunk, _FILLER_PAYLOAD)
        doomed = rng.sample(chunk, doomed_per_block)
        ftl.trim_run(doomed)
        survivors.extend(sorted(set(chunk).difference(doomed)))

    # Drain the physical overprovision pool: rewrite surviving filler in
    # place until the free pool sits just above the GC threshold, so the
    # measured workload runs in steady-state garbage collection from its
    # first write (utilization and validity are unchanged by rewrites).
    guard = ftl.exported_pages * 4
    choice = rng.choice
    while ftl.free_block_count() > floor and survivors:
        if guard <= 0:
            raise AgingError(
                f"free pool still at {ftl.free_block_count()} blocks after "
                f"{ftl.exported_pages * 4} drain writes (floor {floor})"
            )
        count = min(ftl.gc.run_room() + 1, guard)
        ftl.write_run([choice(survivors) for _ in range(count)], _FILLER_PAYLOAD)
        guard -= count
    ftl.barrier()
    return len(survivors)
