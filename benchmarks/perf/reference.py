"""The reference loop: a yardstick for how fast this machine is *right now*.

Host time here is process CPU time, which already leaves out time the
hypervisor gave to neighbours.  It does not leave out the machine itself
running slower: on the shared 2-core VM this was written on, the CPU time of
identical work drifts by up to 1.6x for minutes at a time (a busy sibling
hyperthread, by the look of it) and jumps 2-3x for tenths of a second.  No
median taken inside a run survives a slow ten minutes.

So every host measurement is interleaved with short chunks of a fixed,
pure-Python loop that does what the simulator does (dict lookups over a few
MB, attribute updates, small tuples, list appends) and touches nothing of
the system under test.  ``speed = NOMINAL_CHUNK_S / measured chunk time`` is
how much faster than nominal the machine ran just then, and a host time is
reported multiplied by the speed measured around it: host seconds *at nominal
speed*.  Parent and change commits are measured against the same loop, so
their ratio is what it would be on a quiet machine.  Over twelve windows per
workload this cut the spread (max - min) of ``host_ops_per_s`` from 32-37 %
to about 12 %.
"""

from __future__ import annotations

import time

#: The host clock of the whole benchmark: process CPU time, blind to stolen time.
host_clock = time.process_time

#: Host seconds one chunk takes at nominal speed: the median on the machine
#: the baseline in README.md was taken on.  Changing it rescales every host
#: metric, so it is part of the benchmark's definition.
NOMINAL_CHUNK_S = 0.0084

_CHUNK_STEPS = 12_000
_TABLE_SIZE = 1 << 16


class _Cell:
    __slots__ = ("n", "data")

    def __init__(self) -> None:
        self.n = 0
        self.data = None

    def put(self, data) -> int:
        self.n += 1
        self.data = data
        return self.n


class ReferenceLoop:
    """Fixed work, timed on the host clock, beside the measurement it scales."""

    def __init__(self) -> None:
        self._table = {key: _Cell() for key in range(_TABLE_SIZE)}
        self._x = 12345

    def chunk(self) -> float:
        """Run one chunk; the host seconds it took."""
        table, x, recent = self._table, self._x, []
        start = host_clock()
        for step in range(_CHUNK_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell = table[x & (_TABLE_SIZE - 1)]
            recent.append(cell.put((step, x)))
            if len(recent) > 256:
                recent.clear()
        self._x = x
        return host_clock() - start
