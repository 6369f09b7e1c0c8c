"""A virtual clock for latency-faithful simulation.

All elapsed-time results in this reproduction come from a :class:`SimClock`
rather than wall time: every flash operation, bus transfer and host-side
overhead charges its latency to the clock, so experiment elapsed times are
deterministic and independent of the speed of the machine running the
simulation.

Times are kept in *microseconds* as floats (flash latencies are naturally
expressed in microseconds; experiments report seconds or milliseconds).

The clock is a number and nothing else: it fires no callbacks.  Overlap
is modelled by :mod:`repro.sim.events`' resource timelines, and the device
command queue retires its in-flight commands by comparing their known
completion times against ``now_us``.
"""

from __future__ import annotations


class SimClock:
    """Monotonically advancing virtual clock.

    The clock only ever moves forward.  Components call :meth:`advance` with
    the latency of the operation they just performed, or :meth:`wait_until`
    to join a completion time computed on a resource timeline.  ``busy_us``
    breakdowns can be tracked by callers; the clock itself only knows total
    time.
    """

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_us / 1_000.0

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_us / 1_000_000.0

    def advance(self, delta_us: float) -> float:
        """Advance the clock by ``delta_us`` microseconds and return the new time.

        Negative deltas are rejected: simulated time never rewinds.
        """
        if delta_us < 0:
            raise ValueError(f"cannot advance clock by negative time: {delta_us}")
        self._now_us += delta_us
        return self._now_us

    def wait_until(self, when_us: float) -> float:
        """Join an absolute completion time: advance if it is in the future.

        This is the explicit overlap API: modelling concurrent work, the
        host blocks until the latest completion — which may already be in
        the past, in which case the wait costs nothing.  Used by
        :class:`~repro.sim.events.ResourceTimeline` reservations and the
        device queue's barrier drain.
        """
        if when_us > self._now_us:
            self._now_us = when_us
        return self._now_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_us={self._now_us:.3f})"
