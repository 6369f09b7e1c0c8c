"""Access-pattern suite: sequential / random / stride / hot-cold mixes.

The wiscsee ``patternsuite`` idea, sized for this simulator: each pattern
is a tiny generator of page-granular write addresses, and
:class:`PatternWorkload` drives one pattern against a file with a
configurable fsync cadence.  Patterns are what tease FTL behaviours
apart — sequential traffic erases clean victims, random traffic fragments
blocks, striding defeats naive readahead/heat heuristics, and hot-cold
skew is what the GC's stream separation exists for — so the suite is the
natural probe workload for multi-tenant interference experiments (each
tenant runs a different pattern against the shared device).

Deterministic like everything else here: addresses are drawn from a
:func:`repro.sim.rng.make_rng` lane (per tenant when run through the
tenant API), and :meth:`PatternWorkload.task` exposes the run as a
scheduler task so patterns interleave reproducibly.
"""

from __future__ import annotations

from repro.sim.rng import make_rng

__all__ = [
    "HotColdPattern",
    "PATTERNS",
    "PatternWorkload",
    "RandomPattern",
    "SequentialPattern",
    "StridePattern",
    "make_pattern",
]

# Shared payload object (a long run must not cost real memory).
_PAYLOAD = ("pattern-write",)


class SequentialPattern:
    """Wrap-around sequential writes — the FTL's best case."""

    name = "sequential"

    def addresses(self, file_pages: int, writes: int, rng) -> list[int]:
        return [index % file_pages for index in range(writes)]


class RandomPattern:
    """Uniform random writes — maximum fragmentation pressure."""

    name = "random"

    def addresses(self, file_pages: int, writes: int, rng) -> list[int]:
        return [rng.randrange(file_pages) for _ in range(writes)]


class StridePattern:
    """Fixed-stride writes (wrapping), wiscsee's ``striding`` pattern.

    A stride co-prime with the file size covers every page while never
    writing two adjacent pages back to back — adversarial for heat
    tracking keyed on spatial locality.
    """

    name = "stride"

    def __init__(self, stride: int = 7) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride

    def addresses(self, file_pages: int, writes: int, rng) -> list[int]:
        return [(index * self.stride) % file_pages for index in range(writes)]


class HotColdPattern:
    """Skewed traffic: a small hot region takes most of the writes.

    ``hot_fraction`` of the file receives ``hot_probability`` of the
    writes — the canonical hot/cold mix the GC's stream separation (and
    its cross-tenant collision accounting) is built for.
    """

    name = "hotcold"

    def __init__(self, hot_fraction: float = 0.2, hot_probability: float = 0.8) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_probability < 1.0:
            raise ValueError("hot_probability must be in (0, 1)")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability

    def addresses(self, file_pages: int, writes: int, rng) -> list[int]:
        hot_pages = max(1, int(file_pages * self.hot_fraction))
        cold_pages = file_pages - hot_pages
        out = []
        for _ in range(writes):
            if cold_pages == 0 or rng.random() < self.hot_probability:
                out.append(rng.randrange(hot_pages))
            else:
                out.append(hot_pages + rng.randrange(cold_pages))
        return out


PATTERNS = {
    "sequential": SequentialPattern,
    "random": RandomPattern,
    "stride": StridePattern,
    "hotcold": HotColdPattern,
}


def make_pattern(name: str, **kwargs):
    """Build a pattern by name (``PATTERNS`` keys), with pattern kwargs."""
    try:
        cls = PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; expected one of {sorted(PATTERNS)}"
        ) from None
    return cls(**kwargs)


class PatternWorkload:
    """Drive one access pattern against a file, fio-style.

    Runs on a bare stack or inside a tenant namespace::

        PatternWorkload("hotcold", writes=512).run(stack)
        PatternWorkload("stride", stride=5).run(stack, tenant=alice)

    On X-FTL stacks writes are tagged with a transaction per fsync
    interval (the same shape as the FIO benchmark); elsewhere fsyncs are
    plain barriers.
    """

    def __init__(
        self,
        pattern: str = "sequential",
        file_pages: int = 64,
        writes: int = 256,
        fsync_interval: int = 8,
        seed: int = 7,
        **pattern_kwargs,
    ) -> None:
        self.pattern = make_pattern(pattern, **pattern_kwargs)
        self.file_pages = file_pages
        self.writes = writes
        self.fsync_interval = fsync_interval
        self.seed = seed

    def _rng(self, tenant):
        if tenant is not None:
            return tenant.make_rng("pattern", self.pattern.name)
        return make_rng(self.seed, "pattern", self.pattern.name)

    def addresses(self, tenant=None) -> list[int]:
        """The full deterministic address trace this workload will write."""
        return self.pattern.addresses(
            self.file_pages, self.writes, self._rng(tenant)
        )

    def run(self, stack, tenant=None, filename: str = "pattern.dat") -> dict:
        """Run to completion; returns summary stats (sim seconds, fsyncs)."""
        for _ in self.task(stack, tenant=tenant, filename=filename):
            pass
        return self.last_stats

    def task(self, stack, tenant=None, filename: str = "pattern.dat"):
        """The run as a scheduler task (yields after every write/fsync)."""
        fs = stack.fs
        namespace = tenant.fs if tenant is not None else fs
        if namespace.exists(filename):
            handle = namespace.open(filename)
        else:
            handle = namespace.create(filename)
            handle.fallocate(self.file_pages)
        txn = fs.txn_manager.begin() if fs.transactional else None
        started_s = stack.clock.now_s
        fsyncs = 0
        written = 0
        for page in self.addresses(tenant):
            handle.write_page(page, _PAYLOAD, txn=txn)
            written += 1
            if written % self.fsync_interval == 0:
                fs.fsync(handle, txn=txn)
                fsyncs += 1
                if txn is not None:
                    txn = fs.txn_manager.begin()
            yield None
        if written % self.fsync_interval:
            fs.fsync(handle, txn=txn)
            fsyncs += 1
        elif txn is not None:
            fs.txn_manager.release(txn)
        self.last_stats = {
            "pattern": self.pattern.name,
            "writes": written,
            "fsyncs": fsyncs,
            "elapsed_s": stack.clock.now_s - started_s,
        }
