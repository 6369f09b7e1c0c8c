"""Raw NAND flash chip model.

Enforces the physical rules that make copy-on-write FTLs necessary:

- a page can only be programmed when erased (no overwrite in place);
- pages within a block must be programmed in sequential order (a requirement
  of MLC NAND and the reason FTLs append into "active" blocks);
- erasure happens at block granularity and wears the block.

Every page carries a small out-of-band (OOB) area, used by FTLs to store the
logical page number and other recovery metadata, mirroring how real FTLs
rebuild mapping state after power loss.

Latency for each operation is charged to the shared simulation clock, and a
:class:`~repro.sim.crash.CrashPlan` can cut power before/after a program or
erase — optionally leaving the in-flight page *torn* (detectable garbage),
which models the non-atomic sector write SQLite worries about (§2.1).

Page/block state lives in the chip's :class:`~repro.flash.state.BlockStateView`
(``chip.state``) — flat arrays of page lifecycle, write points and erase
counts that the FTL and its collector read directly.

The chip also carries the device's :class:`~repro.tenancy.TenantRegistry`
(``chip.tenants``), inert until a tenant registers — the same
ride-on-the-chip placement as the clock, crash plan and obs handle.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CorruptionError, FlashError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.state import (
    PAGE_ERASED,
    PAGE_PROGRAMMED,
    PAGE_STATE_NAMES,
    PAGE_TORN,
    BlockStateView,
)
from repro.flash.stats import FlashStats
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.crash import NO_CRASH, CrashPlan, register_crash_point
from repro.sim.latency import OPENSSD_PROFILE, LatencyProfile
from repro.tenancy import TenantRegistry

_PROGRAMMED_PAGE = bytes((PAGE_PROGRAMMED,))

CP_PROGRAM_BEFORE = register_crash_point(
    "flash.program.before", "flash.chip", "before a NAND page program starts"
)
CP_PROGRAM_MID = register_crash_point(
    "flash.program.mid",
    "flash.chip",
    "mid NAND page program; with tear_page the page is left torn",
    tearable=True,
)
CP_PROGRAM_AFTER = register_crash_point(
    "flash.program.after", "flash.chip", "after a NAND page program completed"
)
CP_ERASE_BEFORE = register_crash_point(
    "flash.erase.before", "flash.chip", "before a block erase"
)


class OverlapRegion:
    """Handle for one ``chip.overlap()`` region.

    While the region is active, flash operations on a
    :class:`~repro.flash.array.FlashArray` reserve channel time without
    blocking the clock; :attr:`end_us` tracks the latest completion of any
    reservation made inside the region (the command's finish time).  On the
    serial base chip the region is inert and ``end_us`` just mirrors the
    clock.  Regions nest: an inner region's reservations also extend every
    enclosing region's horizon.
    """

    __slots__ = ("_array", "end_us")

    def __init__(self, array) -> None:
        self._array = array
        self.end_us = 0.0

    def __enter__(self) -> "OverlapRegion":
        array = self._array
        if array is not None:
            self.end_us = array.clock._now_us
            array._regions.append(self)
        else:
            self.end_us = 0.0
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        array = self._array
        if array is not None:
            # Regions unwind LIFO, but a PowerFailure may skip inner exits:
            # pop down to this region.
            regions = array._regions
            while regions:
                if regions.pop() is self:
                    break


class FlashChip:
    """One simulated NAND chip.

    Content is stored per physical page as ``bytes`` (or any immutable
    object; FTL metadata pages store tuples).  The chip knows nothing about
    logical addresses, liveness or mapping — that is the FTL's job, and its
    state (the L2P and the ppn-indexed owner table).
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        clock: SimClock | None = None,
        profile: LatencyProfile = OPENSSD_PROFILE,
        crash_plan: CrashPlan | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.clock = clock or SimClock()
        self.profile = profile
        self.crash_plan = crash_plan if crash_plan is not None else NO_CRASH
        # The chip and every FTL above it count into this one record.
        self.stats = FlashStats()
        # The obs handle rides on the chip (like clock and crash plan) and
        # every higher layer picks it up from the layer below.
        self.obs = obs
        obs.registry.bind(self.stats, FlashStats.OBS_NAMES)
        # So does the tenant registry; inert until a tenant registers.
        self.tenants = TenantRegistry(obs)
        self._obs_torn = obs.counter("flash.torn_programs")
        self._tracer = obs.tracer

        self.state = BlockStateView(self.geometry)
        total = self.geometry.total_pages
        self._data: list[Any] = [None] * total
        self._oob: list[Any] = [None] * total
        # Hot-path constants (avoid geometry attribute chains per op).
        self._total_pages = total
        self._pages_per_block = self.geometry.pages_per_block
        # Reusable erase images (slice-assigned per erase, copied by the
        # slice assignment itself, so sharing them is safe).
        self._none_block: list[Any] = [None] * self._pages_per_block

    # ----------------------------------------------------------- parallelism
    #
    # The base chip is strictly serial: every operation advances the global
    # clock by its full latency, and the overlap/drain hooks are no-ops.
    # :class:`~repro.flash.array.FlashArray` overrides these to reserve time
    # on per-channel resource timelines instead.

    #: Whether deferred (overlapping) charging is meaningful on this chip.
    supports_overlap = False

    #: When True, :meth:`drain` degrades to :meth:`order_barrier` — the
    #: barrier-enabled device sets this so FTL-internal drains keep their
    #: ordering meaning without stalling the host clock.
    order_only_drains = False

    #: Earliest start time for new reservations (an order barrier raises it
    #: to the current horizon).  Class attribute so power-loss resets can
    #: assign it unconditionally; :class:`FlashArray` shadows it per device.
    dispatch_floor_us = 0.0

    @property
    def num_channels(self) -> int:
        """Channels this chip can overlap across (1: strictly serial)."""
        return 1

    def _charge_flash(self, duration_us: float, block: int) -> None:
        """Charge one flash-array operation's time.  Serial: advance the clock."""
        self.clock.advance(duration_us)

    def _charge_run(self, src_block: int, dst_block: int, count: int) -> None:
        """Charge a plain copyback run: per page, a read then a program.

        Must leave every clock and timeline exactly where ``count`` pairs
        of :meth:`_charge_flash` calls would (:meth:`_charge_run_by_op`).
        """
        clock = self.clock
        read_us = self.profile.page_read_us
        program_us = self.profile.page_program_us
        now = clock._now_us
        for _ in range(count):
            now += read_us
            now += program_us
        clock._now_us = now

    def _charge_run_by_op(self, src_block: int, dst_block: int, count: int) -> None:
        """What :meth:`_charge_run` must equal: the charges one at a time."""
        read_us = self.profile.page_read_us
        program_us = self.profile.page_program_us
        for _ in range(count):
            self._charge_flash(read_us, src_block)
            self._charge_flash(program_us, dst_block)

    def overlap(self) -> "OverlapRegion":
        """Context manager for a region whose flash ops may overlap.

        On the serial base chip this is inert — operations inside still
        advance the clock one after another — so FTL code can bracket its
        fan-out sections unconditionally.
        """
        return OverlapRegion(None)

    def drain(self) -> None:
        """Cross-channel barrier: wait until all channels are idle (no-op here)."""

    def order_barrier(self) -> None:
        """Order-only barrier: later operations may not start (or complete)
        before anything already issued.  The serial chip executes strictly
        in issue order, so ordering is free — no clock effect.
        """

    def channel_backlog_us(self, channel: int = 0) -> float:
        """Reserved-but-unelapsed work on ``channel``: none on the serial chip,
        which charges every operation to the clock immediately."""
        return 0.0

    # ------------------------------------------------------------------ ops

    def program(self, ppn: int, data: Any, oob: Any = None) -> None:
        """Program one page.

        Raises :class:`FlashError` if the page is not erased or violates the
        in-block sequential-program rule.  Charges program latency.  If the
        crash plan fires *during* the program with ``tear_page`` set, the
        page is left in ``TORN`` state.
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        st = self.state
        state = st.page_states[ppn]
        if state != PAGE_ERASED:
            raise FlashError(
                f"program of non-erased page ppn={ppn} ({PAGE_STATE_NAMES[state]})"
            )
        per = self._pages_per_block
        block = ppn // per
        index = ppn - block * per
        write_points = st.write_points
        if index != write_points[block]:
            raise FlashError(
                f"out-of-order program in block {block}: page index {index}, "
                f"expected {write_points[block]}"
            )

        crash_plan = self.crash_plan
        if crash_plan._points:
            crash_plan.hit(CP_PROGRAM_BEFORE)
            fired = crash_plan.countdown(CP_PROGRAM_MID)
            if fired is not None and fired.tear_page:
                # Power fails mid-program: the page is neither erased nor valid.
                st.page_states[ppn] = PAGE_TORN
                self._data[ppn] = None
                self._oob[ppn] = None
                write_points[block] = index + 1
                self.stats.page_programs += 1
                self._obs_torn.inc()
                raise PowerFailure(f"power lost mid-program of ppn={ppn} (page torn)")
            if fired is not None:
                raise PowerFailure(f"power lost before program of ppn={ppn}")

        self._data[ppn] = data
        self._oob[ppn] = oob
        st.page_states[ppn] = PAGE_PROGRAMMED
        write_points[block] = index + 1
        self.stats.page_programs += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("program", "flash"):
                self._charge_flash(self.profile.page_program_us, block)
        else:
            self._charge_flash(self.profile.page_program_us, block)
        if crash_plan._points:
            crash_plan.hit(CP_PROGRAM_AFTER)

    def read(self, ppn: int) -> Any:
        """Read one page's data area.  Torn pages raise CorruptionError."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        state = self.state.page_states[ppn]
        if state != PAGE_PROGRAMMED:
            if state == PAGE_TORN:
                raise CorruptionError(f"read of torn page ppn={ppn}")
            raise FlashError(f"read of erased page ppn={ppn}")
        self.stats.page_reads += 1
        self._charge_flash(self.profile.page_read_us, ppn // self._pages_per_block)
        return self._data[ppn]

    def copyback_run(self, srcs: list[int], dst: int, oobs: list[Any]) -> None:
        """Copy a run of pages: ``program(dst + i, read(srcs[i]), oobs[i])`` for each ``i``.

        That loop is the definition, and what runs whenever the run is not
        *plain* (:meth:`_is_plain_run`).  A plain run can raise nothing and
        fire nothing between its pages, so its data effects are
        slice-assigned, its counters batched, and its time charged by
        :meth:`_charge_run` with the same arithmetic in the same order.
        """
        count = len(srcs)
        if len(oobs) != count or not self._is_plain_run(srcs, dst, count):
            for index, src in enumerate(srcs):
                self.program(dst + index, self.read(src), oobs[index])
            return
        end = dst + count
        per = self._pages_per_block
        block = dst // per
        st = self.state
        data = self._data
        data[dst:end] = [data[src] for src in srcs]
        self._oob[dst:end] = oobs
        st.page_states[dst:end] = _PROGRAMMED_PAGE * count
        st.write_points[block] += count
        stats = self.stats
        stats.page_reads += count
        stats.page_programs += count
        self._charge_run(srcs[0] // per, block, count)

    def _is_plain_run(self, srcs: list[int], dst: int, count: int) -> bool:
        """Whether no page of the run can fail, tear, or be traced.

        No crash point armed, tracer off, every source a programmed page of
        one block, and the destination the next ``count`` erased pages at
        one block's write point.
        """
        if self.crash_plan._points or self._tracer.enabled or not count:
            return False
        if not 0 <= dst <= self._total_pages - count:
            return False
        per = self._pages_per_block
        st = self.state
        page_states = st.page_states
        block = dst // per
        index = dst - block * per
        if (
            index + count > per
            or st.write_points[block] != index
            or page_states[dst : dst + count] != bytes(count)
        ):
            return False
        first = srcs[0] // per * per
        if not 0 <= first < self._total_pages:
            return False
        last = first + per
        for src in srcs:
            if not first <= src < last or page_states[src] != PAGE_PROGRAMMED:
                return False
        return True

    def read_oob(self, ppn: int) -> Any:
        """Read one page's out-of-band area (no extra latency: piggybacked)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        if self.state.page_states[ppn] != PAGE_PROGRAMMED:
            return None
        return self._oob[ppn]

    def erase(self, block: int) -> None:
        """Erase one block, resetting all its pages and its write point."""
        self.geometry.check_block(block)
        crash_plan = self.crash_plan
        if crash_plan._points:
            crash_plan.hit(CP_ERASE_BEFORE)
        per = self._pages_per_block
        start = block * per
        end = start + per
        self._data[start:end] = self._none_block
        self._oob[start:end] = self._none_block
        self.state.erase_block(block)
        self.stats.block_erases += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("erase", "flash"):
                self._charge_flash(self.profile.block_erase_us, block)
        else:
            self._charge_flash(self.profile.block_erase_us, block)

    # ---------------------------------------------------------- inspection

    def peek(self, ppn: int) -> Any:
        """Read without latency or statistics — for tests and recovery scans.

        Recovery-time full-device scans use :meth:`read`/:meth:`read_oob`;
        ``peek`` exists so assertions in tests do not perturb counters.
        """
        self.geometry.check_ppn(ppn)
        return self._data[ppn]
