"""``FlashArray``: the old name of :class:`~repro.flash.chip.FlashChip`.

:class:`FlashChip` is the flash array (per-channel timelines; one channel
is the serial chip).  This subclass is kept, with no body, only for its two
remaining importers, ``benchmarks/perf/trace.py`` and
``benchmarks/perf/workloads.py``.  It is a subclass rather than an alias so
that the tracer, which wraps the entry points found in ``vars()`` of each
class it lists, finds them on ``FlashChip`` alone and wraps each once.
"""

from __future__ import annotations

from repro.flash.chip import FlashChip


class FlashArray(FlashChip):
    """:class:`FlashChip` under its old name (see the module docstring)."""
