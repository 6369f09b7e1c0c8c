"""The storage device: command front-end, bus costs, queueing, power state.

``StorageDevice`` wraps an FTL and models the host-visible interface:

- per-command fixed overhead and per-page bus transfer time (the NAND array
  time itself is charged inside the chip);
- an optional NCQ-style command queue (``queue_depth > 1``): reads and
  writes dispatch asynchronously — their flash time lands on the chip's
  per-channel timelines while the host continues — and ``flush`` /
  ``commit`` / ``abort`` drain the queue as barriers.  Depth 1 is the
  seed's fully synchronous device, bit for bit;
- the extended command set when the FTL is an :class:`~repro.ftl.XFTL`
  (tagged reads/writes, commit/abort — carried over trim in the prototype);
- three ordering commands, each stating an *intent* the layers above never
  have to translate: ``flush`` (durable), ``barrier`` (order only) and
  ``write_barrier`` (one ordered write).  What order costs is decided
  here and nowhere else.  On a drain device (``barrier_mode=False``, the
  default) the only ordering primitive is a flush, so ``barrier`` is one
  flush and ``write_barrier`` is flush - write - flush.  On a
  **barrier-enabled** device ("Barrier Enabled IO Stack for Flash
  Storage") ordering points are order-only *epoch closes* on the queue
  plus a dispatch-floor barrier on the chip: nothing drains, and
  flush/commit/abort keep their durability meaning but stop stalling the
  host on in-flight commands;
- power-off / power-on with FTL recovery, used by crash experiments.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable

from repro.errors import DeviceError
from repro.device.commands import DeviceCounters, StallCounts
from repro.device.queue import (
    CP_QUEUE_BARRIER,
    CP_QUEUE_DISPATCH,
    CP_QUEUE_EPOCH,
    CommandQueue,
)
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL

_POWERED_OFF = "device is powered off"


class StorageDevice:
    """A SATA-attached SSD built from a flash chip and an FTL."""

    def __init__(
        self, ftl: PageMappingFTL, queue_depth: int = 1, barrier_mode: bool = False
    ) -> None:
        self.ftl = ftl
        self.chip = ftl.chip
        self.clock = ftl.chip.clock
        self.profile = profile = ftl.chip.profile
        # Fixed command time, charged by one clock.advance per command: a
        # command alone, and a command that moves one page over the bus.
        self._command_us = profile.command_overhead_us
        self._page_command_us = profile.command_overhead_us + profile.bus_transfer_us
        self.counters = DeviceCounters()
        self.obs = ftl.chip.obs
        if queue_depth < 1:
            raise DeviceError(f"queue depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        if not isinstance(barrier_mode, bool):
            # A string such as "drain" is truthy; refuse it rather than guess.
            raise DeviceError(f"barrier_mode must be a bool, got {barrier_mode!r}")
        # Barrier-enabled IO stack: ordering points are order-only (epoch
        # closes + dispatch-floor barriers) instead of drain-and-wait, and
        # FTL-internal drains degrade to order barriers via the chip flag.
        self.barrier_mode = barrier_mode
        if self.barrier_mode:
            self.chip.order_only_drains = True
        # Per-tenant command counts ride the chip's registry (inert without tenants).
        self.tenants = ftl.chip.tenants
        # Depth 1 keeps the seed's synchronous command paths untouched (no
        # queue object at all), which the channel-equivalence test pins.
        self.queue = (
            CommandQueue(
                self.clock,
                queue_depth,
                self.obs,
                epochs=self.barrier_mode,
            )
            if queue_depth > 1
            else None
        )
        # Barrier accounting: stalls the order-only path avoided vs. what a
        # drain would have waited, and the symmetric drain-mode measurement
        # for the rival comparison (`barrier` bench experiment).
        self.stalls = StallCounts()
        # Whether anything was written/trimmed since the last full flush —
        # lets the file system skip a durability point that would order
        # nothing (the double-barrier bug in the directory-fsync path).
        self._mutated_since_flush = False
        obs = self.obs
        obs.registry.bind(self.counters, {f"dev.{f.name}": f.name for f in fields(DeviceCounters)})
        obs.registry.bind(self.stalls, StallCounts.OBS_NAMES)
        obs.instrument(self, self.clock)
        self._on = True
        # When an armed crash point fires the whole machine loses power:
        # mark the device off so recovery is a plain power_on() and any
        # further command raises DeviceError instead of touching dead state.
        self.chip.crash_plan.subscribe(self._lose_power)

    def _lose_power(self) -> None:
        """Device DRAM dies: the in-flight queue and the ordering state."""
        self._on = False
        if self.queue is not None:
            self.queue.reset()
        # The dispatch floor is DRAM too (per-channel busy horizons persist,
        # so per-channel serialization still holds through recovery).
        self.chip.dispatch_floor_us = 0.0

    # --------------------------------------------------------------- state

    @property
    def page_size(self) -> int:
        return self.chip.geometry.page_size

    @property
    def exported_pages(self) -> int:
        return self.ftl.exported_pages

    @property
    def supports_transactions(self) -> bool:
        """Whether the extended (tagged) command set is available."""
        return isinstance(self.ftl, XFTL)

    @property
    def is_on(self) -> bool:
        return self._on

    @property
    def dirty_since_flush(self) -> bool:
        """Whether any write/trim has been acknowledged since the last flush.

        False means the last durability point still covers everything the
        host ever wrote — a flush issued now would be pure overhead.
        """
        return self._mutated_since_flush

    # Read by benchmarks/perf/measure.py, which predates ``stalls``.
    @property
    def barrier_stalls(self) -> int:
        return self.stalls.barrier_stalls

    @property
    def barrier_stall_us(self) -> float:
        return self.stalls.barrier_stall_us

    def power_off(self) -> None:
        """Cut power: all device DRAM state is lost (in-flight queue included)."""
        if self._on:
            self.ftl.power_fail()
            self._lose_power()

    def power_on(self) -> None:
        """Restore power and run FTL mount-time recovery."""
        if not self._on:
            self.ftl.remount()
            self._on = True

    def _dispatch(self, op: Callable[..., Any], *args: Any) -> Any:
        """Issue one queued command, ``op(*args)``: admit, run with deferred flash time.

        The FTL/chip state mutates now (program order); the flash durations
        accumulate on the channel timelines inside the overlap region, and
        the command stays in flight until its latest reservation completes.
        A crash point fires before dispatch whenever earlier commands are
        still outstanding — the window where power loss catches a non-empty
        queue.
        """
        queue = self.queue
        if queue.admit():
            self.chip.crash_plan.hit(CP_QUEUE_DISPATCH)
        with self.chip.overlap() as region:
            result = op(*args)
        queue.push(region.end_us)
        return result

    def _drain_barrier(self) -> None:
        """Complete all in-flight commands before a flush/commit/abort."""
        queue = self.queue
        if queue is not None and queue.in_flight:
            self.chip.crash_plan.hit(CP_QUEUE_BARRIER)
            before_us = self.clock.now_us
            queue.drain()
            stalled = self.clock.now_us - before_us
            if stalled > 0.0:
                self._count_drain_stall(stalled)

    def _count_drain_stall(self, stalled: float) -> None:
        """Count one drain that stalled the host for ``stalled`` us: the
        transfer-and-flush overhead the barrier-enabled rival eliminates,
        measured here so drain vs. barrier runs report symmetric numbers."""
        self.stalls.barrier_stalls += 1
        self.stalls.barrier_stall_us += stalled

    def _order_barrier(self) -> None:
        """Order-only ordering point: close the epoch, raise the floor.

        The barrier-enabled replacement for :meth:`_drain_barrier`: nothing
        waits — the queue seals the current epoch and the chip's dispatch
        floor rises to the horizon, so no later command can complete before
        anything already issued.  The stall a drain would have cost right
        now is recorded as avoided.
        """
        queue = self.queue
        if queue is not None:
            if queue.in_flight:
                self.chip.crash_plan.hit(CP_QUEUE_EPOCH)
                avoided = self.chip.busy_horizon_us() - self.clock.now_us
                if avoided > 0.0:
                    self._count_avoided_stall(avoided)
            queue.close_epoch()
        self.chip.order_barrier()

    def _count_avoided_stall(self, avoided: float) -> None:
        """Count one ordering point that did not wait ``avoided`` us."""
        self.stalls.stalls_avoided += 1
        self.stalls.stall_avoided_us += avoided

    def _barrier_point(self) -> None:
        """The pre-durability ordering point flush/commit/abort go through."""
        if self.barrier_mode:
            self._order_barrier()
        else:
            self._drain_barrier()

    # ---------------------------------------------------- standard commands

    def read(self, lpn: int) -> Any:
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        self.counters.reads += 1
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            return self.ftl.read(lpn)
        return self._dispatch(self.ftl.read, lpn)

    def write(self, lpn: int, data: Any) -> None:
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        self._write(lpn, data)

    def _write(self, lpn: int, data: Any) -> None:
        self.counters.writes += 1
        self._mutated_since_flush = True
        if self.tenants.enabled:
            self.tenants.note_write()
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            self.ftl.write(lpn, data)
        else:
            self._dispatch(self.ftl.write, lpn, data)

    def trim(self, lpn: int) -> None:
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        self.counters.trims += 1
        self._mutated_since_flush = True
        self.clock.advance(self._command_us)
        self.ftl.trim(lpn)

    def flush(self) -> None:
        """Write barrier: all acknowledged writes + mapping state durable."""
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        self._flush()

    def _flush(self) -> None:
        self.counters.flushes += 1
        if self.tenants.enabled:
            self.tenants.note_flush()
        self.clock.advance(self._command_us)
        self._barrier_point()
        self.ftl.barrier()
        self._mutated_since_flush = False

    def barrier(self) -> None:
        """Order-only durability point (the barrier-enabled ``fdatabarrier``).

        Everything issued before is ordered before everything issued after
        — on every channel — but the host does not wait and the FTL does
        not publish a new root.  Durability of the ordered writes follows
        from the device's crash recovery (OOB replay), exactly like
        acknowledged-but-unflushed writes always have.  On a drain device
        the only ordering primitive is a full flush, so order costs one.
        """
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        if not self.barrier_mode:
            self._flush()
            return
        self._epoch_barrier()

    def _epoch_barrier(self) -> None:
        self.counters.barriers += 1
        if self.tenants.enabled:
            self.tenants.note_flush()
        self.clock.advance(self._command_us)
        self._order_barrier()

    def write_barrier(self, lpn: int, data: Any) -> None:
        """BARRIER_WRITE: one ordered write — every earlier write completes
        before this page and every later write after it.

        Barrier-enabled: the queue closes the current epoch, the write
        dispatches into an epoch of its own, and that epoch is closed too,
        with no host stall — a journal commit page *is* its own barrier.
        Drain device: the same order costs flush - write - flush, the two
        barriers per ordered-journal commit of §6.3.4.
        """
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        if not self.barrier_mode:
            self._flush()
            self._write(lpn, data)
            self._flush()
            return
        self._ordered_write(lpn, data)

    def _ordered_write(self, lpn: int, data: Any) -> None:
        self.counters.barrier_writes += 1
        self._mutated_since_flush = True
        if self.tenants.enabled:
            self.tenants.note_write()
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            self.ftl.write(lpn, data)
            self.chip.order_barrier()
        else:
            self._order_barrier()
            self._dispatch(self.ftl.write, lpn, data)
            self._order_barrier()

    # ---------------------------------------------------- extended commands

    def _tx_ftl(self) -> XFTL:
        """The FTL of an extended command: the device must be on and its FTL an XFTL."""
        if not self._on:
            raise DeviceError(_POWERED_OFF)
        ftl = self.ftl
        if not isinstance(ftl, XFTL):
            raise DeviceError("device FTL does not support the extended command set")
        return ftl

    def read_tx(self, tid: int, lpn: int) -> Any:
        ftl = self._tx_ftl()
        self.counters.tagged_reads += 1
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            return ftl.read_tx(tid, lpn)
        return self._dispatch(ftl.read_tx, tid, lpn)

    def read_as_of(self, lpn: int, snapshot_seq: int) -> Any:
        """AS-OF read: the copy of ``lpn`` a snapshot pinned at
        ``snapshot_seq`` observes (multi-version X-L2P, retain_versions > 1).
        Falls back to the current committed copy when no retained version
        qualifies — including the whole retain_versions == 1 regime."""
        ftl = self._tx_ftl()
        self.counters.tagged_reads += 1
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            return ftl.read_as_of(lpn, snapshot_seq)
        return self._dispatch(ftl.read_as_of, lpn, snapshot_seq)

    def snapshot_seq(self) -> int:
        """Current commit sequence number — the pin for a new snapshot."""
        return self._tx_ftl().snapshot_seq()

    def set_snapshot_floor(self, floor: int | None) -> None:
        """Publish the oldest active snapshot so the FTL can reclaim
        versions no snapshot can still resolve through."""
        self._tx_ftl().set_snapshot_floor(floor)

    def write_tx(self, tid: int, lpn: int, data: Any) -> None:
        self._write_tx(self._tx_ftl(), tid, lpn, data)

    def _write_tx(self, ftl: XFTL, tid: int, lpn: int, data: Any) -> None:
        self.counters.tagged_writes += 1
        self._mutated_since_flush = True
        if self.tenants.enabled:
            self.tenants.note_write()
        self.clock.advance(self._page_command_us)
        if self.queue is None:
            ftl.write_tx(tid, lpn, data)
        else:
            self._dispatch(ftl.write_tx, tid, lpn, data)

    def commit(self, tid: int) -> None:
        """commit(t), carried over the trim command's parameter set (§5.2)."""
        self._commit_members([tid])

    def commit_group(self, tids: list[int]) -> None:
        """Vectored commit: one drain barrier serves a whole commit group.

        Each member still costs a commit command on the wire (the host
        issues one trim-carried ``commit(t)`` per transaction), but the
        queue barrier and the FTL's X-L2P flush are scoped to the group
        as a whole rather than to each transaction.
        """
        self._commit_members(list(dict.fromkeys(tids)))

    def _commit_members(self, tids: list[int]) -> None:
        """The commit body; a single commit is the one-member group."""
        ftl = self._tx_ftl()
        if not tids:
            return
        self.counters.commits += len(tids)
        self._commit_tids(ftl, tids)

    def _commit_tids(self, ftl: XFTL, tids: list[int]) -> None:
        for _ in tids:
            self.clock.advance(self._command_us)
        self._barrier_point()
        ftl.commit_group(tids)

    def abort(self, tid: int) -> None:
        """abort(t), carried over the trim command's parameter set (§5.2)."""
        ftl = self._tx_ftl()
        self.counters.aborts += 1
        self.clock.advance(self._command_us)
        self._barrier_point()
        ftl.abort(tid)
