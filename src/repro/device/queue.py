"""NCQ-style device command queue.

SATA NCQ (and every modern NVMe device) lets the host keep several commands
outstanding; the controller spreads them over its flash channels and
completes them out of band.  :class:`CommandQueue` models the host-visible
half of that: a bounded set of *in-flight* commands, each known by its
completion time on the device's channel timelines.

The simulation keeps its state-mutates-immediately style: a queued command
has already updated chip/FTL state when it is dispatched — only its *time*
is still in flight.  That matches the durability contract the crash oracle
already enforces: an acknowledged-but-unflushed write may or may not
survive power loss, and only ``flush``/``commit`` order anything.

Mechanics:

- :meth:`admit` applies backpressure: when the queue is full the host
  blocks (``clock.wait_until``) until the earliest in-flight command
  completes.
- :meth:`push` records a dispatched command's completion time.
- :meth:`drain` is the barrier used by flush/commit/abort: the clock joins
  the latest in-flight completion and the queue empties.
- :meth:`reset` forgets all in-flight commands on power loss (their chip
  state effects stand or fall with the crash oracle's rules, exactly like
  acknowledged-but-unflushed writes always have).

A command's completion time is known exactly when it is dispatched, so
the queue needs no completion events: it keeps one min-heap of the
commands not yet retired and *polls* it — every point that reads or
changes the in-flight count first retires the entries the clock has
passed.  At each of those points the depth gauge reads what an event per
completion would have left in it.

Three crash points make power loss with a non-empty queue reachable from
the verification sweep: ``dev.queue.dispatch`` (a new command about to
enter a non-empty queue), ``dev.queue.barrier`` (a drain barrier arriving
while commands are still in flight) and ``dev.queue.epoch`` (an order-only
barrier closing an epoch over in-flight commands — the barrier-enabled
stack's analogue of the drain barrier).

Barrier-enabled devices construct the queue with ``epochs=True``: every
dispatched command is tagged with the current *epoch*, and an order
barrier closes the epoch instead of draining.  The chip's dispatch floor
guarantees no command of a later epoch ever completes before a command of
an earlier one; the queue records the per-epoch completion envelopes so
tests and the crash sweep can check exactly that.
"""

from __future__ import annotations

import heapq

from repro.obs import Observability
from repro.sim.clock import SimClock
from repro.sim.crash import register_crash_point

CP_QUEUE_DISPATCH = register_crash_point(
    "dev.queue.dispatch",
    "device.queue",
    "dispatching a command while earlier commands are still in flight",
)
CP_QUEUE_BARRIER = register_crash_point(
    "dev.queue.barrier",
    "device.queue",
    "flush/commit barrier issued with commands still in flight",
)
CP_QUEUE_EPOCH = register_crash_point(
    "dev.queue.epoch",
    "device.queue",
    "order-only barrier (epoch close) issued with commands still in flight",
)


class CommandQueue:
    """Bounded in-flight command tracker for one device.

    With a :class:`~repro.tenancy.TenantRegistry` attached and
    :meth:`set_shares` called, the queue additionally enforces
    **per-tenant in-flight caps**: a tenant whose share of the depth is
    exhausted blocks at admit until one of the outstanding commands
    completes, even while the queue as a whole has free slots — the NCQ
    half of the fairness story (a hot tenant cannot monopolize the
    device's outstanding-command budget).  Without shares the per-tenant
    bookkeeping is dictionary-only (no clock effects), so tagged and
    untagged runs stay bit-identical.
    """

    def __init__(
        self,
        clock: SimClock,
        depth: int,
        obs: Observability,
        tenants=None,
        epochs: bool = False,
    ) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.clock = clock
        self.depth = depth
        self.tenants = tenants  # TenantRegistry or None
        # Min-heap of (end_us, command id, tenant id or None): exactly the
        # commands not yet retired.  Ids are unique, so two commands sharing
        # a completion time never compare their tenants.
        self._in_flight: list[tuple[float, int, int | None]] = []
        self._next_id = 0
        self._shares: dict[int, int] | None = None
        self._live_by_tenant: dict[int, int] = {}
        self.share_stalls = 0  # plain counter; obs may be disabled
        # Epoch bookkeeping (barrier-enabled devices only): every dispatched
        # command is tagged with the current epoch, and an order barrier
        # closes the epoch instead of draining.  Dispatch never reorders
        # across epochs — the chip's dispatch floor enforces the timing,
        # this records it for introspection and the crash sweep.
        self.epochs_enabled = epochs
        self._epoch = 0
        self._epoch_bounds: dict[int, tuple[float, float]] = {}  # epoch -> (min, max) end
        self.epochs_closed = 0  # plain counter; obs may be disabled
        self._obs_depth = obs.gauge("dev.queue.depth")
        self._obs_dispatch_depth = obs.histogram("dev.queue.dispatch_depth")
        self._obs_admit_stalls = obs.counter("dev.queue.admit_stalls")
        self._obs_share_stalls = obs.counter("dev.queue.share_stalls")
        self._obs_epochs = obs.counter("dev.queue.epochs")

    def set_shares(self, shares: dict[int, int] | None) -> None:
        """Install (or clear) per-tenant in-flight caps.

        ``shares`` maps tenant id -> maximum outstanding commands, as
        produced by :meth:`~repro.tenancy.TenantRegistry.queue_shares`.
        Tenants absent from the map (including the shared lane, id 0)
        are capped only by the queue depth.
        """
        self._shares = dict(shares) if shares else None

    # -------------------------------------------------------------- queries

    @property
    def in_flight(self) -> int:
        """Commands dispatched but not yet completed (at current sim time)."""
        self._retire_due()
        return len(self._in_flight)

    @property
    def current_epoch(self) -> int:
        """The epoch new dispatches are tagged with (0 until a barrier)."""
        return self._epoch

    def epoch_bounds(self) -> list[tuple[int, float, float]]:
        """Per-epoch completion-time envelope since the last reset.

        Returns ``(epoch, min_end_us, max_end_us)`` rows in epoch order —
        the order-preservation invariant the property test asserts is
        ``min_end(E) >= max_end(E')`` for every ``E' < E``.
        """
        return [
            (epoch, lo, hi) for epoch, (lo, hi) in sorted(self._epoch_bounds.items())
        ]

    # ------------------------------------------------------------ lifecycle

    def admit(self) -> int:
        """Backpressure: block until a queue slot (and tenant share) is free.

        Returns the number of commands still in flight once admitted.
        """
        self._retire_due()
        heap = self._in_flight
        if len(heap) >= self.depth:
            self._obs_admit_stalls.inc()
            while len(heap) >= self.depth:
                self.clock.wait_until(heap[0][0])
                self._retire_due()
        shares = self._shares
        if shares is not None:
            tenant_id = self.tenants.current
            cap = shares.get(tenant_id)
            live = self._live_by_tenant
            if cap is not None and live.get(tenant_id, 0) >= cap:
                # One stall per capped admit, however many completions it
                # takes to free a slot (the loop must not re-count).
                self.share_stalls += 1
                self._obs_share_stalls.inc()
                while live.get(tenant_id, 0) >= cap:
                    # Wait on the stalled tenant's *own* earliest in-flight
                    # completion: a foreign command finishing can never
                    # lower this tenant's live count, so waiting on the
                    # global head would drain other tenants' work for
                    # nothing.  No own command in flight means the count
                    # cannot drop by waiting — bail out rather than wedge
                    # (a cap of 0).
                    own_earliest = min(
                        (end_us for end_us, _, owner in heap if owner == tenant_id),
                        default=None,
                    )
                    if own_earliest is None:
                        break
                    self.clock.wait_until(own_earliest)
                    self._retire_due()
        in_flight = len(heap)
        self._obs_dispatch_depth.observe(float(in_flight))
        return in_flight

    def push(self, end_us: float) -> None:
        """Record a dispatched command completing at ``end_us``.

        Commands whose work already finished (``end_us`` not in the future)
        never enter the queue — they completed synchronously.
        """
        if self.epochs_enabled:
            # Record the envelope for every dispatched command (even ones
            # that completed synchronously): the order-preservation property
            # test checks the full per-epoch completion-time bounds.
            bounds = self._epoch_bounds.get(self._epoch)
            if bounds is None:
                self._epoch_bounds[self._epoch] = (end_us, end_us)
            else:
                lo, hi = bounds
                self._epoch_bounds[self._epoch] = (min(lo, end_us), max(hi, end_us))
        # Retire first: the gauge's high-water mark counts live commands only.
        self._retire_due()
        if end_us <= self.clock.now_us:
            return
        tenant_id = None
        tenants = self.tenants
        if tenants is not None and tenants.enabled:
            tenant_id = tenants.current
            self._live_by_tenant[tenant_id] = self._live_by_tenant.get(tenant_id, 0) + 1
        self._next_id += 1
        heapq.heappush(self._in_flight, (end_us, self._next_id, tenant_id))
        self._obs_depth.set(float(len(self._in_flight)))

    def close_epoch(self) -> None:
        """Seal the current epoch: later dispatches are ordered after it.

        The timing half of the guarantee lives in the chip's dispatch
        floor (raised by ``chip.order_barrier()``); this is the queue-side
        bookkeeping.  Closing an empty epoch is a no-op — there is nothing
        to order against, and barriers must stay idempotent.
        """
        if not self.epochs_enabled:
            return
        if self._epoch not in self._epoch_bounds:
            return
        self._epoch += 1
        self.epochs_closed += 1
        self._obs_epochs.inc()

    def drain(self) -> None:
        """Barrier: the host waits for every in-flight command to complete."""
        if self._in_flight:
            self.clock.wait_until(max(self._in_flight)[0])
            self._retire_due()

    def reset(self) -> None:
        """Power loss: forget all in-flight commands without waiting.

        The in-flight heap and the per-tenant live counts go in one step (a
        stale count would wedge share-capped dispatch forever), and so do
        the epoch tags.  Nothing is left behind to fire later: a forgotten
        command is simply no longer in the heap the queue polls.
        """
        self._in_flight.clear()
        self._live_by_tenant.clear()
        self._epoch = 0
        self._epoch_bounds.clear()
        self._obs_depth.set(0.0)

    # ------------------------------------------------------------ internals

    def _retire_due(self) -> None:
        """Retire every command the clock has passed; keep the gauge current."""
        heap = self._in_flight
        now = self.clock._now_us  # per-command hot path: skip the property
        if not heap or heap[0][0] > now:
            return
        live = self._live_by_tenant
        while heap and heap[0][0] <= now:
            tenant_id = heapq.heappop(heap)[2]
            if tenant_id is not None:
                live[tenant_id] -= 1
        self._obs_depth.set(float(len(heap)))
