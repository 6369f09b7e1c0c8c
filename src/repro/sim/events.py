"""A small discrete-event scheduler: per-resource busy timelines.

The seed simulation was strictly serial — every operation advanced the one
global :class:`~repro.sim.clock.SimClock` — which cannot model a device
whose speed comes from channel/way parallelism.  This module adds the
minimal machinery for overlap:

- :class:`ResourceTimeline` — one serially-used resource (a flash channel,
  a host thread).  Work is *reserved* on the timeline: a reservation starts
  at ``max(now, busy_until)`` and pushes ``busy_until`` forward, so work on
  one resource serializes while work on different resources overlaps.
- :class:`EventScheduler` — a named collection of timelines sharing one
  clock, with a cross-resource ``barrier()`` (wait for every timeline) used
  to model flush/commit ordering points.

The degenerate case is exact: one timeline, with the host joining every
reservation end immediately (``clock.wait_until(end)``), performs the same
float arithmetic as the seed's ``clock.advance(duration)`` — which is what
the ``channels=1, queue_depth=1`` equivalence regression pins down.

There are no completion *events*: the clock is a plain number, and the
device command queue retires in-flight commands by polling their known
completion times.  The public surface of this module is exactly
``__all__`` below.
"""

from __future__ import annotations

from repro.sim.clock import SimClock

__all__ = ["ResourceTimeline", "EventScheduler"]


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

    def reserve(self, duration_us: float, after_us: float | None = None) -> tuple[float, float]:
        """Reserve ``duration_us`` of work; returns ``(start, end)``.

        The work starts when both the resource is free and any explicit
        dependency (``after_us``, e.g. the end of a read feeding this
        program) has completed — never before the current simulated time.
        """
        if duration_us < 0:
            raise ValueError(f"cannot reserve negative time: {duration_us}")
        start = self.clock.now_us
        if self.busy_until_us > start:
            start = self.busy_until_us
        if after_us is not None and after_us > start:
            start = after_us
        end = start + duration_us
        self.busy_until_us = end
        self.busy_us += duration_us
        self.reservations += 1
        return start, end

    @property
    def idle(self) -> bool:
        return self.busy_until_us <= self.clock.now_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceTimeline({self.name}, busy_until={self.busy_until_us:.1f})"


class EventScheduler:
    """Named resource timelines over one shared clock.

    Keeps the per-resource bookkeeping in one place so a component (the
    flash array, the FIO thread model) can ask for timelines by name and
    issue cross-resource barriers.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._timelines: dict[str, ResourceTimeline] = {}

    def timeline(self, name: str) -> ResourceTimeline:
        """Get-or-create the timeline called ``name``."""
        timeline = self._timelines.get(name)
        if timeline is None:
            timeline = self._timelines[name] = ResourceTimeline(self.clock, name)
        return timeline

    def timelines(self) -> tuple[ResourceTimeline, ...]:
        return tuple(self._timelines.values())

    def horizon_us(self) -> float:
        """Latest ``busy_until`` across all resources (``now`` if all idle)."""
        horizon = self.clock.now_us
        for timeline in self._timelines.values():
            if timeline.busy_until_us > horizon:
                horizon = timeline.busy_until_us
        return horizon

    def barrier(self) -> float:
        """Cross-resource ordering point: wait until every resource drains.

        Returns the new clock time.  With a single resource that the host
        joins after every reservation this is a no-op — the degenerate
        serial case.
        """
        return self.clock.wait_until(self.horizon_us())

    def utilization(self, elapsed_us: float | None = None) -> dict[str, float]:
        """Busy fraction per resource over ``elapsed_us`` (default: now)."""
        window = elapsed_us if elapsed_us is not None else self.clock.now_us
        if window <= 0:
            return {name: 0.0 for name in self._timelines}
        return {
            name: min(timeline.busy_us / window, 1.0)
            for name, timeline in self._timelines.items()
        }
