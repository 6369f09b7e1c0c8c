"""Raw NAND flash chip model.

Enforces the physical rules that make copy-on-write FTLs necessary:

- a page can only be programmed when erased (no overwrite in place);
- pages within a block must be programmed in sequential order (a requirement
  of MLC NAND and the reason FTLs append into "active" blocks);
- erasure happens at block granularity and wears the block.

Every page carries a small out-of-band (OOB) area, used by FTLs to store the
logical page number and other recovery metadata, mirroring how real FTLs
rebuild mapping state after power loss.  The chip keeps that area as four
packed columns allocated once, about 25 bytes a page: a kind byte (0: no
record), an int64 key, an int64 sequence number and a tag (mostly ``None``).
:meth:`FlashChip.program` takes the four fields, the run primitives take
them as columns ``(kinds, keys, seqs, tags)``, and
:meth:`FlashChip.read_oob` returns one page's ``(kind, key, seq, tag)``;
:attr:`FlashChip.oob_keys` is a read-only view of the key column, where the
FTL reads the lpn of each data page (its reverse map keeps no copy).  A
field that does not fit its column raises :class:`FlashError` before the
page changes.

The chip is the whole flash array behind one physical page space, the way
the OpenSSD controller in the paper (and the Samsung S830 of §6.3.4) gets
its speed from channel parallelism: blocks stripe round-robin over
``geometry.channels`` channels, and each operation's time is reserved on
its channel's :class:`~repro.sim.events.ResourceTimeline`.  Operations on
different channels overlap; operations within one channel serialize, like
a real channel bus.  Outside an overlap region the host joins every
completion, so with one channel the chip is the serial chip — the float
arithmetic ``tests/test_channel_equivalence.py`` pins.  Inside a
``with chip.overlap():`` region reservations accumulate without blocking
the clock (the FTL brackets its fan-out sections this way, the device's
NCQ queue every queued command), and :meth:`FlashChip.drain` is the
cross-channel barrier.  Page content and write points still change in
program order at issue time: data effects are immediate (so FTL logic stays
simple and crash injection precise) and only time effects overlap; across
channels only DRAM-sourced writes are ever issued concurrently, so no
modelled data dependency is violated.

A :class:`~repro.sim.crash.CrashPlan` can cut power before/after a program
or erase — optionally leaving the in-flight page *torn* (detectable
garbage), which models the non-atomic sector write SQLite worries about
(§2.1).

Page/block state lives in the chip's :class:`~repro.flash.state.BlockStateView`
(``chip.state``) — flat arrays of page lifecycle, write points and erase
counts that the FTL and its collector read directly.

The chip also carries the device's :class:`~repro.tenancy.TenantRegistry`
(``chip.tenants``), inert until a tenant registers — the same
ride-on-the-chip placement as the clock, crash plan and obs handle.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial, reduce
from operator import add
from typing import Any, Sequence

from repro.errors import CorruptionError, FlashError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.state import (
    PAGE_ERASED,
    PAGE_PROGRAMMED,
    PAGE_STATE_NAMES,
    PAGE_TORN,
    BlockStateView,
)
from repro.flash.stats import ChipCounts, FlashStats
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.crash import NO_CRASH, CrashPlan, register_crash_point
from repro.sim.events import EventScheduler, ResourceTimeline
from repro.sim.latency import OPENSSD_PROFILE, LatencyProfile
from repro.tenancy import TenantRegistry

_PROGRAMMED_PAGE = bytes((PAGE_PROGRAMMED,))

# ``_fold(values, start)`` is the left fold ``((start + v0) + v1) + ...``.
# Before Python 3.12 ``sum`` of floats is exactly that, each addition in a C
# double; from 3.12 it compensates the rounding, so there it is ``reduce``.
_fold = sum if sys.version_info < (3, 12) else partial(reduce, add)


class _Discarded:
    """The payload slot of a page whose payload was released (:meth:`FlashChip.discard`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<discarded>"


_DISCARDED = _Discarded()

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

    While the region is active, flash operations reserve channel time
    without blocking the clock; :attr:`end_us` tracks the latest completion
    of any reservation made inside the region (the command's finish time).
    Regions nest: an inner region's reservations also extend every
    enclosing region's horizon.
    """

    __slots__ = ("_chip", "end_us")

    def __init__(self, chip: "FlashChip") -> None:
        self._chip = chip
        self.end_us = 0.0

    def __enter__(self) -> "OverlapRegion":
        chip = self._chip
        self.end_us = chip.clock._now_us
        chip._regions.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Regions unwind LIFO, but a PowerFailure may skip inner exits:
        # pop down to this region.
        regions = self._chip._regions
        while regions:
            if regions.pop() is self:
                break


class FlashChip:
    """One simulated NAND flash array: per-channel timelines over one page space.

    Content is stored per physical page as ``bytes`` (or any immutable
    object; FTL metadata pages store tuples) from its program until its
    block is erased or the FTL discards it (:meth:`discard`,
    :meth:`discard_unerased`).  The chip
    knows nothing about logical addresses, liveness or mapping — that is
    the FTL's job, and its state (the L2P and the ppn-indexed owner table).
    """

    #: When True, :meth:`drain` degrades to :meth:`order_barrier` — the
    #: barrier-enabled device sets this so FTL-internal drains keep their
    #: ordering meaning without stalling the host clock.
    order_only_drains = False

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
        self.counts = ChipCounts()
        obs.registry.bind(self.counts, ChipCounts.OBS_NAMES)
        self._tracer = obs.tracer

        self.state = BlockStateView(self.geometry)
        total = self.geometry.total_pages
        self._data: list[Any] = [None] * total
        # The OOB area, one column per field (kind 0: no record).
        self._oob_kind = bytearray(total)
        self._oob_key = array("q", [0]) * total
        self._oob_seq = array("q", [0]) * total
        self._oob_tag: list[Any] = [None] * total
        # The key column, read-only: ``oob_keys[ppn]`` is the key the page
        # was last programmed with (meaningful while ``read_oob`` names a
        # record), a run's keys one index each -- no tuple built per page.
        self.oob_keys = memoryview(self._oob_key).toreadonly()
        # Hot-path constants (avoid geometry attribute chains per op).
        self._total_pages = total
        self._pages_per_block = self.geometry.pages_per_block
        self._num_channels = channels = self.geometry.channels
        # Reusable erase images (slice-assigned per erase, copied by the
        # slice assignment itself, so sharing them is safe).
        self._none_block: list[Any] = [None] * self._pages_per_block
        self._zero_block = bytes(self._pages_per_block)

        self.scheduler = EventScheduler(self.clock)
        self._channel_timelines: list[ResourceTimeline] = [
            self.scheduler.timeline(f"flash.ch{channel}") for channel in range(channels)
        ]
        self._regions: list[OverlapRegion] = []
        # Order-barrier floor: no reservation may start before this time.
        # Stays 0.0 (inert, bit-identical arithmetic) until a barrier-enabled
        # device issues order barriers.
        self.dispatch_floor_us = 0.0
        obs.instrument(self, self.clock)

    # ----------------------------------------------------------- parallelism

    @property
    def num_channels(self) -> int:
        """Channels this chip can overlap across (1: strictly serial)."""
        return self._num_channels

    def channel_timeline(self, channel: int) -> ResourceTimeline:
        return self._channel_timelines[channel]

    def _charge_flash(self, duration_us: float, channel: int) -> None:
        """Reserve the op on ``channel``; block the clock unless in a region.

        Inlines ``ResourceTimeline.reserve`` (same float arithmetic — the
        channels=1 pinning depends on it) to keep the per-page cost down.
        """
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
        regions = self._regions
        if regions:
            for region in regions:
                if end > region.end_us:
                    region.end_us = end
        else:
            # clock.wait_until(end), inlined.
            if end > now:
                clock._now_us = end

    def _charge_run(self, channel: int, durations: tuple[float, ...]) -> None:
        """:meth:`_charge_flash` for each operation of a plain, non-empty run.

        A plain run stays on one channel and nothing runs between its
        operations.  Its first operation starts at ``max(busy, now, floor)``;
        it ends no earlier, so a synchronous host has joined it and the
        channel is busy until then, and every later operation starts at the
        previous one's end (inside a region the clock stands still, but the
        end still dominates it).  The run's end is therefore one left fold of
        ``durations`` from that start, and the channel's busy time one from
        its old value: the per-operation float additions in the same order,
        with no per-operation Python step.
        """
        clock = self.clock
        timeline = self._channel_timelines[channel]
        now = clock._now_us
        end = _fold(durations, max(timeline.busy_until_us, now, self.dispatch_floor_us))
        timeline.busy_until_us = end
        timeline.busy_us = _fold(durations, timeline.busy_us)
        timeline.reservations += len(durations)
        regions = self._regions
        if regions:
            for region in regions:
                if end > region.end_us:
                    region.end_us = end
        elif end > now:
            clock._now_us = end

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

    # ------------------------------------------------------------------ ops

    def program(
        self, ppn: int, data: Any, kind: int = 0, key: int = 0, seq: int = 0, tag: Any = None
    ) -> None:
        """Program one page, its OOB area holding ``(kind, key, seq, tag)``.

        Raises :class:`FlashError` if the page is not erased, violates the
        in-block sequential-program rule, or an OOB field does not fit its
        column (a kind outside 0–255, a key or sequence number that is not
        an int64); the page is unchanged then.  Charges program latency.  If
        the crash plan fires *during* the program with ``tear_page`` set,
        the page is left in ``TORN`` state.
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
                write_points[block] = index + 1
                self.stats.page_programs += 1
                self.counts.torn_programs += 1
                raise PowerFailure(f"power lost mid-program of ppn={ppn} (page torn)")
            if fired is not None:
                raise PowerFailure(f"power lost before program of ppn={ppn}")

        try:
            self._oob_kind[ppn] = kind
            self._oob_key[ppn] = key
            self._oob_seq[ppn] = seq
        except (TypeError, ValueError, OverflowError) as exc:
            self._oob_kind[ppn] = 0
            raise FlashError(f"bad OOB for ppn={ppn}: {exc}") from None
        self._oob_tag[ppn] = tag
        self._data[ppn] = data
        st.page_states[ppn] = PAGE_PROGRAMMED
        write_points[block] = index + 1
        self.stats.page_programs += 1
        self._charge_program(block % self._num_channels)
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
        data = self._data[ppn]
        if data is _DISCARDED:
            raise FlashError(f"read of discarded page ppn={ppn}")
        self.stats.page_reads += 1
        self._charge_flash(
            self.profile.page_read_us, ppn // self._pages_per_block % self._num_channels
        )
        return data

    def _charge_program(self, channel: int) -> None:
        self._charge_flash(self.profile.page_program_us, channel)

    def _charge_erase(self, channel: int) -> None:
        self._charge_flash(self.profile.block_erase_us, channel)

    def program_run(self, dst: int, data: list[Any], oobs: Sequence[Sequence[Any]]) -> None:
        """Program a run of pages: ``program(dst + i, data[i], kinds[i],
        keys[i], seqs[i], tags[i])`` for each ``i``, where ``oobs`` is the
        run's OOB area as columns ``(kinds, keys, seqs, tags)``.

        That loop is the definition, and what runs whenever the destination
        is not *plain* (:meth:`_is_plain_destination`) or a column is not
        slice-assignable (:func:`_oob_columns`); a plain run is
        slice-assigned and charged by :meth:`_charge_run`, as in
        :meth:`copyback_run`.
        """
        count = len(data)
        columns = _oob_columns(oobs, count) if self._is_plain_destination(dst, count) else None
        if columns is None:
            kinds, keys, seqs, tags = oobs
            for index, page in enumerate(data):
                self.program(dst + index, page, kinds[index], keys[index], seqs[index], tags[index])
            return
        self._program_plain(dst, data, columns, (self.profile.page_program_us,) * count)

    def copyback_run(self, srcs: list[int], dst: int, oobs: Sequence[Sequence[Any]]) -> None:
        """Copy a run of pages: ``program(dst + i, read(srcs[i]), kinds[i],
        keys[i], seqs[i], tags[i])`` for each ``i``, where ``oobs`` is the
        run's OOB area as columns ``(kinds, keys, seqs, tags)``.

        That loop is the definition, and what runs whenever the run is not
        *plain* (:meth:`_is_plain_run`) or a column is not slice-assignable
        (:func:`_oob_columns`).  A plain run can raise nothing and fire
        nothing between its pages, so its data effects are slice-assigned,
        its counters batched, and its time charged by :meth:`_charge_run`
        with the same arithmetic in the same order.
        """
        count = len(srcs)
        columns = _oob_columns(oobs, count) if self._is_plain_run(srcs, dst, count) else None
        if columns is None:
            kinds, keys, seqs, tags = oobs
            for index, src in enumerate(srcs):
                self.program(
                    dst + index, self.read(src), kinds[index], keys[index], seqs[index], tags[index]
                )
            return
        data = self._data
        profile = self.profile
        self.stats.page_reads += count
        self._program_plain(
            dst,
            [data[src] for src in srcs],
            columns,
            (profile.page_read_us, profile.page_program_us) * count,
        )

    def _program_plain(
        self, dst: int, data: list[Any], columns: tuple, durations: tuple[float, ...]
    ) -> None:
        """A plain run's data effects in bulk, then its operations' time."""
        count = len(data)
        end = dst + count
        block = dst // self._pages_per_block
        st = self.state
        kinds, keys, seqs, tags = columns
        self._oob_kind[dst:end] = kinds
        self._oob_key[dst:end] = keys
        self._oob_seq[dst:end] = seqs
        self._oob_tag[dst:end] = tags
        self._data[dst:end] = data
        st.page_states[dst:end] = _PROGRAMMED_PAGE * count
        st.write_points[block] += count
        self.stats.page_programs += count
        self._charge_run(block % self._num_channels, durations)

    def _is_plain_destination(self, dst: int, count: int) -> bool:
        """Whether ``count`` programs from ``dst`` can neither fail, tear, nor be traced.

        No crash point armed, tracer off, and the destination the next
        ``count`` erased pages at one block's write point.
        """
        if self.crash_plan._points or self._tracer.enabled or not count:
            return False
        if not 0 <= dst <= self._total_pages - count:
            return False
        per = self._pages_per_block
        st = self.state
        block = dst // per
        index = dst - block * per
        return (
            index + count <= per
            and st.write_points[block] == index
            and st.page_states[dst : dst + count] == bytes(count)
        )

    def _is_plain_run(self, srcs: list[int], dst: int, count: int) -> bool:
        """Whether no page of a copyback run can fail, tear, or be traced.

        A plain destination (:meth:`_is_plain_destination`), and every
        source a programmed, undiscarded page of one block on the
        destination's channel.  One Python loop checks the sources: on
        CPython 3.11 it costs less than whole-run forms (``bytes(map(...))``
        or ``itemgetter`` gathers), and :meth:`copyback_run` gathers the
        payloads after it.
        """
        if not self._is_plain_destination(dst, count):
            return False
        per = self._pages_per_block
        first = srcs[0] // per * per
        if not 0 <= first < self._total_pages:
            return False
        if (first // per - dst // per) % self.num_channels:
            return False
        page_states = self.state.page_states
        data = self._data
        last = first + per
        for src in srcs:
            if (
                not first <= src < last
                or page_states[src] != PAGE_PROGRAMMED
                or data[src] is _DISCARDED
            ):
                return False
        return True

    def read_oob(self, ppn: int) -> tuple[int, int, int, Any] | None:
        """Read one page's out-of-band area as ``(kind, key, seq, tag)`` (no
        extra latency: piggybacked); ``None`` for a page that is not
        programmed or holds no OOB record (kind 0)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        if self.state.page_states[ppn] != PAGE_PROGRAMMED:
            return None
        kind = self._oob_kind[ppn]
        if not kind:
            return None
        return kind, self._oob_key[ppn], self._oob_seq[ppn], self._oob_tag[ppn]

    def discard(self, ppn: int) -> None:
        """Release a programmed page's payload: host memory only.

        Not a flash operation: page state, OOB area, write point, counters,
        clock and channel timelines stay as they are.  The FTL calls it
        once nothing durable can name the page any more — a metadata page
        at the publish that stops the root naming it, a dead data page at
        the barrier after its death (:meth:`discard_unerased`) — and from
        then until the block's erase, :meth:`read` and :meth:`peek` of the
        page raise :class:`FlashError` rather than hand back a payload
        nobody should see.
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        if self.state.page_states[ppn] != PAGE_PROGRAMMED:
            state = PAGE_STATE_NAMES[self.state.page_states[ppn]]
            raise FlashError(f"discard of a page that is not programmed ppn={ppn} ({state})")
        self._data[ppn] = _DISCARDED

    def discard_unerased(self, pages: Sequence[int]) -> None:
        """``discard(ppn)`` for each ``(ppn, erase count)`` pair of the flat
        ``pages`` whose block's erase count still equals the one given.

        That loop is the definition: an equal count proves the block was
        not erased since the pair was recorded, so the page still holds the
        program it held then.  It runs inline, one pass and no call per
        page, and raises as :meth:`discard` does at the first page of an
        unerased block that is not programmed (the pages before it are
        discarded).
        """
        data = self._data
        page_states = self.state.page_states
        counts = self.state.erase_counts
        per = self._pages_per_block
        pairs = iter(pages)
        for ppn, count in zip(pairs, pairs):
            if counts[ppn // per] == count:
                if page_states[ppn] != PAGE_PROGRAMMED:
                    self.discard(ppn)  # raises
                data[ppn] = _DISCARDED

    def discarded_pages(self) -> list[int]:
        """Every page whose payload is discarded, in ppn order."""
        return [ppn for ppn, data in enumerate(self._data) if data is _DISCARDED]

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
        self._oob_kind[start:end] = self._zero_block
        self._oob_tag[start:end] = self._none_block
        self.state.erase_block(block)
        self.stats.block_erases += 1
        self._charge_erase(block % self._num_channels)

    # ---------------------------------------------------------- inspection

    def peek(self, ppn: int) -> Any:
        """Read without latency or statistics — for tests and recovery scans.

        Recovery-time full-device scans use :meth:`read`/:meth:`read_oob`;
        ``peek`` exists so assertions in tests do not perturb counters.
        A discarded page raises :class:`FlashError`, as in :meth:`read`.
        """
        self.geometry.check_ppn(ppn)
        data = self._data[ppn]
        if data is _DISCARDED:
            raise FlashError(f"peek of discarded page ppn={ppn}")
        return data


def _oob_columns(oobs: Sequence[Sequence[Any]], count: int) -> tuple | None:
    """A run's OOB columns ``(kinds, keys, seqs, tags)`` in the chip's
    column types, or ``None`` when a column is not ``count`` long or a field
    does not fit its column: that run goes page by page, where
    :meth:`FlashChip.program` raises at the first page that does not fit."""
    kinds, keys, seqs, tags = oobs
    if not len(kinds) == len(keys) == len(seqs) == len(tags) == count:
        return None
    try:
        # From a list: the array constructor's fast path (a range or any
        # other iterable is appended item by item, twice as slow).
        return bytes(kinds), array("q", list(keys)), array("q", list(seqs)), tags
    except (TypeError, ValueError, OverflowError):
        return None
