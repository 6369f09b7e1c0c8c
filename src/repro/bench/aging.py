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
device-scale chip costs no real memory.  Each filler block is written with
one :meth:`~repro.ftl.pagemap.PageMappingFTL.write_run` — defined as the
per-page ``write`` loop, and on the paper's one-channel inline device a
handful of bulk programs — and the survivors are the pages its own
``rng.sample`` draws left alone, so every draw, sequence number, placement,
clock tick and counter is what writing the filler page by page gives
(``tests/test_aging_equivalence.py``).
"""

from __future__ import annotations

from repro.stack import BenchStack
from repro.sim.rng import make_rng

_FILLER_PAYLOAD = ("cold-filler",)


def age_device(
    stack: BenchStack,
    validity: float,
    seed: int = 7,
    headroom_blocks: int = 6,
    fs_headroom_pages: int = 512,
) -> int:
    """Age the device to a target GC validity ratio.

    Filler is written one block's worth at a time and immediately thinned to
    the target validity, so garbage collection triggered *during* aging
    already finds ≈``validity``-valid victims.  ``fs_headroom_pages``
    logical pages above the file system's current allocation frontier are
    kept filler-free for the workload's own growth.

    Returns the number of filler pages left valid.  Statistics accumulated
    during aging are *not* reset here — benchmarks snapshot/diff around the
    measured phase.
    """
    if not 0.0 <= validity <= 1.0:
        raise ValueError(f"validity must be in [0, 1], got {validity}")
    ftl = stack.ftl
    pages_per_block = stack.chip.geometry.pages_per_block

    by_free = ftl.free_block_count() - ftl.config.gc_free_block_threshold - headroom_blocks
    frontier = stack.fs.allocation_frontier()
    by_space = (ftl.exported_pages - frontier - fs_headroom_pages) // pages_per_block
    aged_blocks = min(by_free, by_space)
    if aged_blocks <= 0:
        raise ValueError("device too small to age with the requested headroom")

    rng = make_rng(seed, "aging", validity)
    top = ftl.exported_pages
    first_lpn = top - aged_blocks * pages_per_block
    doomed_per_block = int(pages_per_block * (1.0 - validity))
    survivors: list[int] = []
    for block_index in range(aged_blocks):
        start = first_lpn + block_index * pages_per_block
        chunk = range(start, start + pages_per_block)
        ftl.write_run(start, pages_per_block, _FILLER_PAYLOAD)
        doomed = rng.sample(chunk, doomed_per_block)
        for lpn in doomed:
            ftl.trim(lpn)
        trimmed = set(doomed)
        survivors += [lpn for lpn in chunk if lpn not in trimmed]

    # Drain the physical overprovision pool: rewrite surviving filler in
    # place until the free pool sits just above the GC threshold, so the
    # measured workload runs in steady-state garbage collection from its
    # first write (utilization and validity are unchanged by rewrites).
    floor = ftl.config.gc_free_block_threshold + headroom_blocks
    guard = ftl.exported_pages * 4
    while ftl.free_block_count() > floor and survivors and guard > 0:
        ftl.write(rng.choice(survivors), _FILLER_PAYLOAD)
        guard -= 1
    ftl.barrier()
    return len(survivors)
