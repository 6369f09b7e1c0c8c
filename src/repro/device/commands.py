"""Device command vocabulary and counters.

The paper extends the SATA command set (§4.2): read/write gain a transaction
id, and ``commit``/``abort`` are added by extending the parameter set of the
trim command (§5.2).  :class:`CommandKind` enumerates the full vocabulary;
:class:`DeviceCounters` tallies commands processed by a device, which the
benchmark harness reports alongside FTL-side statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields


class CommandKind(enum.Enum):
    """Every command the simulated device understands."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    FLUSH = "flush"  # write barrier / FUA
    READ_TX = "read(t,p)"  # extended: tagged read
    WRITE_TX = "write(t,p)"  # extended: tagged write
    COMMIT = "commit(t)"  # extended: via trim parameter set
    ABORT = "abort(t)"  # extended: via trim parameter set
    BARRIER_WRITE = "barrier-write"  # barrier-enabled stack: ordered, no drain
    BARRIER = "barrier"  # barrier-enabled stack: order-only durability point


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
