"""Device command counters.

The paper extends the SATA command set (§4.2): read/write gain a transaction
id, and ``commit``/``abort`` are added by extending the parameter set of the
trim command (§5.2).  :class:`DeviceCounters` tallies each command kind a
device processes, which the benchmark harness reports alongside FTL-side
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass
class DeviceCounters:
    """Commands processed since device creation (or a snapshot)."""

    reads: int = 0
    writes: int = 0
    trims: int = 0
    flushes: int = 0
    tagged_reads: int = 0
    tagged_writes: int = 0
    commits: int = 0
    aborts: int = 0
    barrier_writes: int = 0
    barriers: int = 0

    def snapshot(self) -> "DeviceCounters":
        return DeviceCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "DeviceCounters") -> "DeviceCounters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return DeviceCounters(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class StallCounts:
    """The ordering points that waited on in-flight commands (drain mode)
    and those that did not need to (barrier mode), with the simulated time
    each kind waited or saved."""

    OBS_NAMES: ClassVar[dict[str, str]] = {
        "dev.queue.stalls_avoided": "stalls_avoided",
        "dev.queue.barrier_stalls": "barrier_stalls",
    }

    stalls_avoided: int = 0
    stall_avoided_us: float = 0.0
    barrier_stalls: int = 0
    barrier_stall_us: float = 0.0
