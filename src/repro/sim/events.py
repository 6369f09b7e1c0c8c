"""Per-resource busy timelines.

The seed simulation was strictly serial — every operation advanced the one
global :class:`~repro.sim.clock.SimClock` — which cannot model a device
whose speed comes from channel/way parallelism.  A
:class:`ResourceTimeline` is one serially-used resource (a flash channel, a
host thread).  Work is *reserved* on the timeline: a reservation starts at
``max(now, busy_until)`` and pushes ``busy_until`` forward, so work on one
resource serializes while work on different resources overlaps.  Each
owner keeps its own list of timelines: the flash chip one per channel
(whose latest ``busy_until`` is the horizon its ``drain`` waits for), the
FIO job one per host thread.

The degenerate case is exact: one timeline, with the host joining every
reservation end immediately (``clock.wait_until(end)``), performs the same
float arithmetic as the seed's ``clock.advance(duration)`` — which is what
the ``channels=1, queue_depth=1`` equivalence regression pins down.

There are no completion *events*: the clock is a plain number, and the
device command queue retires in-flight commands by polling their known
completion times.
"""

from __future__ import annotations

from repro.sim.clock import SimClock

__all__ = ["ResourceTimeline"]


class ResourceTimeline:
    """Busy-until timeline for one serially-used resource.

    Attributes:
        name: Resource label (``"flash.ch3"``, ``"fio.thread7"``).
        busy_until_us: Absolute time the resource becomes idle.
        busy_us: Total reserved (busy) time accumulated, for utilization
            reports: ``busy_us / elapsed_us`` is the resource's duty cycle.
    """

    __slots__ = ("name", "clock", "busy_until_us", "busy_us", "reservations")

    def __init__(self, clock: SimClock, name: str) -> None:
        self.clock = clock
        self.name = name
        self.busy_until_us = 0.0
        self.busy_us = 0.0
        self.reservations = 0

    def reserve(self, duration_us: float) -> tuple[float, float]:
        """Reserve ``duration_us`` of work; returns ``(start, end)``.

        The work starts when the resource is free, never before the
        current simulated time.
        """
        if duration_us < 0:
            raise ValueError(f"cannot reserve negative time: {duration_us}")
        start = self.clock.now_us
        if self.busy_until_us > start:
            start = self.busy_until_us
        end = start + duration_us
        self.busy_until_us = end
        self.busy_us += duration_us
        self.reservations += 1
        return start, end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceTimeline({self.name}, busy_until={self.busy_until_us:.1f})"

