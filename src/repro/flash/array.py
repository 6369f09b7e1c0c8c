"""Multi-channel flash array: per-channel dies with overlapping timelines.

The OpenSSD controller in the paper (and the Samsung S830 of §6.3.4) gets
its speed from channel/way parallelism.  :class:`FlashArray` models that
faithfully instead of faking it with lowered per-op latencies: it keeps the
:class:`~repro.flash.chip.FlashChip` content/ordering semantics for the
whole physical page space, but charges each operation's time to the owning
channel's :class:`~repro.sim.events.ResourceTimeline` instead of straight
to the global clock.  Operations on different channels overlap; operations
within one channel serialize, exactly like a real channel bus.

Two charging modes:

- **Synchronous** (the default): after reserving, the host joins the
  operation's completion (``clock.wait_until(end)``).  With one channel
  this performs the same float arithmetic as the serial chip — the
  ``channels=1`` equivalence the refactor is pinned to.
- **Deferred** (inside a ``with array.overlap():`` region): reservations
  accumulate on the channel timelines without blocking the clock.  The FTL
  brackets its fan-out sections (map flushes, X-L2P commit flushes) this
  way, and the device's NCQ queue brackets every queued command; the
  matching ordering point is :meth:`drain`, the cross-channel barrier.

State (page content, write points) still mutates in program order at issue
time — the simulation separates *data effects* (immediate, so FTL logic
stays simple and crash injection stays precise) from *time effects* (the
per-channel timelines).  Within one channel the two agree exactly; across
channels only DRAM-sourced writes are ever issued concurrently, so no
modelled data dependency is violated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FlashError
from repro.flash.chip import FlashChip, OverlapRegion
from repro.flash.geometry import FlashGeometry
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.crash import CrashPlan
from repro.sim.events import EventScheduler, ResourceTimeline
from repro.sim.latency import OPENSSD_PROFILE, LatencyProfile


@dataclass(frozen=True)
class FlashDie:
    """One die of the array: a channel-local slice of the block space."""

    channel: int
    index: int  # die index within its channel
    blocks: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"ch{self.channel}.die{self.index}"


class FlashArray(FlashChip):
    """A bank of per-channel NAND dies behind one physical page space.

    Drop-in replacement for :class:`FlashChip` (the FTL is oblivious):
    geometry with ``channels == 1`` makes this exactly the serial chip,
    which the channel-equivalence regression test locks down.
    """

    supports_overlap = True

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        clock: SimClock | None = None,
        profile: LatencyProfile = OPENSSD_PROFILE,
        crash_plan: CrashPlan | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        super().__init__(geometry, clock=clock, profile=profile, crash_plan=crash_plan, obs=obs)
        geo = self.geometry
        self._num_channels = geo.channels
        self.scheduler = EventScheduler(self.clock)
        self._channel_timelines: list[ResourceTimeline] = [
            self.scheduler.timeline(f"flash.ch{channel}") for channel in range(geo.channels)
        ]
        self.dies: tuple[FlashDie, ...] = tuple(
            FlashDie(
                channel=channel,
                index=die,
                blocks=tuple(
                    block
                    for block in geo.channel_blocks(channel)
                    if geo.die_of_block(block) == die
                ),
            )
            for channel in range(geo.channels)
            for die in range(geo.dies_per_channel)
        )
        self._regions: list[OverlapRegion] = []
        # Order-barrier floor: no reservation may start before this time.
        # Stays 0.0 (inert, bit-identical arithmetic) until a barrier-enabled
        # device issues order barriers.
        self.dispatch_floor_us = 0.0
        # Per-channel busy-time histograms: one observation per operation,
        # so ``total`` is the channel's accumulated busy time and ``count``
        # its operation count.
        self._obs_channel_busy = [
            obs.histogram(f"flash.ch{channel}.busy_us") for channel in range(geo.channels)
        ]

    # ----------------------------------------------------------- parallelism

    @property
    def num_channels(self) -> int:
        return self.geometry.channels

    def channel_timeline(self, channel: int) -> ResourceTimeline:
        return self._channel_timelines[channel]

    def _charge_flash(self, duration_us: float, block: int) -> None:
        """Reserve the op on its channel; block the clock only when serial.

        Inlines ``ResourceTimeline.reserve`` (same float arithmetic — the
        channels=1 pinning depends on it) to keep the per-page cost down.
        """
        channel = block % self._num_channels
        timeline = self._channel_timelines[channel]
        clock = self.clock
        now = clock._now_us
        busy = timeline.busy_until_us
        start = busy if busy > now else now
        floor = self.dispatch_floor_us
        if floor > start:  # order barrier pending: start after it
            start = floor
        end = start + duration_us
        timeline.busy_until_us = end
        timeline.busy_us += duration_us
        timeline.reservations += 1
        self._obs_channel_busy[channel].observe(duration_us)
        regions = self._regions
        if regions:
            for region in regions:
                if end > region.end_us:
                    region.end_us = end
        else:
            # clock.wait_until(end), inlined.
            if end > now:
                clock._now_us = end

    def _charge_run(self, block: int, durations: tuple[float, ...]) -> None:
        """:meth:`_charge_flash` for each operation of a plain run.

        A plain run stays on one channel and nothing runs between its
        operations, so the timeline and the clock are carried in locals.
        """
        channel = block % self._num_channels
        clock = self.clock
        regions = self._regions
        timeline = self._channel_timelines[channel]
        now = clock._now_us
        floor = self.dispatch_floor_us
        busy = timeline.busy_until_us
        busy_us = timeline.busy_us
        observe = self._obs_channel_busy[channel].observe if self.obs.enabled else None
        for duration_us in durations:
            start = busy if busy > now else now
            if floor > start:
                start = floor
            busy = start + duration_us
            busy_us += duration_us
            if observe is not None:
                observe(duration_us)
            if busy > now:
                # A synchronous host joins each completion.  (Inside a
                # region the clock stands still, but there ``now`` only
                # feeds the next start, which ``busy`` already dominates.)
                now = busy
        timeline.busy_until_us = busy
        timeline.busy_us = busy_us
        timeline.reservations += len(durations)
        if regions:
            for region in regions:
                if busy > region.end_us:
                    region.end_us = busy
        else:
            clock._now_us = now

    def overlap(self) -> OverlapRegion:
        """Open a region whose flash operations overlap across channels."""
        return OverlapRegion(self)

    def drain(self) -> None:
        """Cross-channel barrier: the clock joins every channel's horizon.

        This is the device-level meaning of flush/commit ordering: nothing
        after the barrier may be considered started until everything before
        it has finished on every channel.  A barrier-enabled device sets
        ``order_only_drains`` so the same call sites keep the ordering
        guarantee without the host stall (the barrier-enabled IO stack's
        whole point).
        """
        if self.order_only_drains:
            self.order_barrier()
            return
        self.clock.wait_until(self.scheduler.horizon_us())

    def order_barrier(self) -> None:
        """Order-only cross-channel barrier: raise the dispatch floor.

        Every reservation made after this call starts at or after the
        current horizon — nothing issued later can complete before anything
        issued earlier, on any channel — but the clock does not join the
        horizon, so the host keeps running.
        """
        horizon = self.scheduler.horizon_us()
        if horizon > self.dispatch_floor_us:
            self.dispatch_floor_us = horizon

    def busy_horizon_us(self) -> float:
        """Latest completion time currently reserved on any channel."""
        return self.scheduler.horizon_us()

    def channel_busy_us(self) -> list[float]:
        """Accumulated busy time per channel (utilization numerator)."""
        return [timeline.busy_us for timeline in self._channel_timelines]

    def channel_backlog_us(self, channel: int = 0) -> float:
        """Reserved-but-unelapsed work on ``channel`` (0.0 = idle window)."""
        return self._channel_timelines[channel].backlog_us()

    def channel_utilization(self, elapsed_us: float | None = None) -> list[float]:
        """Busy fraction per channel over ``elapsed_us`` (default: now)."""
        window = elapsed_us if elapsed_us is not None else self.clock.now_us
        if window <= 0:
            return [0.0] * self.geometry.channels
        return [min(t.busy_us / window, 1.0) for t in self._channel_timelines]

    def die_of(self, block: int) -> FlashDie:
        geo = self.geometry
        index = geo.channel_of_block(block) * geo.dies_per_channel + geo.die_of_block(block)
        return self.dies[index]

    def require_channels(self, channels: int) -> None:
        """Guard for callers that need at least ``channels`` channels."""
        if self.geometry.channels < channels:
            raise FlashError(
                f"array has {self.geometry.channels} channel(s); {channels} required"
            )
