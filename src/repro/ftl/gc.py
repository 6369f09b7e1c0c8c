"""Space management: one collector, two schedules.

:class:`Collector` owns everything about *where* pages go and how space
comes back — the per-channel free pools and allocation-age order, the cold /
hot / translation active blocks, victim selection, the copyback job,
erase-and-return-to-pool, and the power-fail reset / remount rebuild of that
state.  :class:`~repro.ftl.pagemap.PageMappingFTL` always constructs one and
keeps mapping, page ownership, map persistence and recovery; it talks to the
collector through five calls (:meth:`Collector.host_program` and its run
form :meth:`~Collector.host_program_run`, whose length
:meth:`~Collector.run_room` bounds, :meth:`~Collector.reset`,
:meth:`~Collector.rebuild`, :meth:`~Collector.check_invariants`).  The
schedule picks the body of the first once, when the collector is built:
``Collector(ftl)`` is an :class:`InlineCollector` under the inline
schedule, whose ``host_program`` reads none of the background state, and a
plain :class:`Collector` under the background one.  The
collector reads the FTL's reverse map — the ppn-indexed owner table says
which pages of a victim are live and what kind of page each is, its
per-block population ranks the victims — and writes neither.

GC is channel-local: victim and copyback target share a channel, so a
relocation's read -> program dependency sits on one channel timeline, and
with one channel everything degenerates to the stock firmware's single free
pool and single active block.  A victim is only collected when the channel's
headroom (erased pages in its free pool plus its cold active block) covers
the victim's valid pages — erasing is how GC *gains* space, so it must never
erase itself into a corner.

``FtlConfig.gc_mode`` picks *when* the one mechanism runs (Dayan & Bonnet
describe inline and background collection as two schedules over one victim
selection / copyback mechanism):

``"inline"`` — the stock OpenSSD firmware and every paper table
    The host program that finds the channel at the headroom floor (one
    block's worth of erased pages), or that needs a block while the free
    pool is at ``gc_free_block_threshold``, reclaims synchronously —
    victims run to completion — until the pool holds
    ``gc_free_block_threshold + 1`` blocks and the floor is restored.  The
    reclaim's copybacks open a cold block of their own when they need one,
    and the cold page that asked for a block appends to it: a stream opens
    a block only when its own is full or missing, so no block is left
    partly written but the open ones and what a remount or a released
    translation block strands (:meth:`~Collector.check_invariants`), and
    write amplification meets Desnoyers's FIFO model
    (``tests/test_ftl_gc.py``).  No heat map, no hot stream, no
    pacing, no wear leveling; freed blocks are reused LIFO.  A host page
    takes one frame here:
    :meth:`InlineCollector.host_program` tests the floor, appends to the
    cold (or translation) block and programs, with no tick, heat or stream
    count.

``"background"``
    *Watermark state machine*, per channel ``idle -> background -> urgent``:
    paced collection engages when the free pool drops to
    ``gc_background_watermark`` blocks; the urgent state triggers at the
    same headroom floor and collects synchronously until it is restored,
    observing the stall into ``ftl.gc.pause_us``.
    *Paced jobs*: each step relocates at most ``gc_copyback_pages_per_step``
    pages inside a ``chip.overlap()`` region and only when the channel has
    no reserved backlog, so foreground writes preempt a collection in
    flight.
    *Hot/cold streams*: data writes whose LPN has accumulated
    ``gc_hot_write_threshold`` writes — plus all map/meta/X-L2P table pages —
    go to a second, *hot* active block; copybacks and everything else append
    to the cold one.
    *Wear leveling*: every ``gc_wear_check_interval`` steps the erase-count
    spread is sampled; beyond ``gc_wear_spread_threshold`` the least-worn
    written block is migrated into the cold stream and erased (only with two
    blocks of headroom beyond the victim's valid pages: below two blocks no
    victim is scored at all), and the free pool is kept sorted so the
    least-worn free block is handed out first.
    *One decision per host page*: background's ``host_program`` appends to
    its stream's open block itself (``_stream_block`` only opens one or
    falls back to the cold block); the step takes the headroom it
    computed, writes the state only when it changes, reads the channel's
    backlog off its busy-until, enters a paced slice only with a job open
    or a block affordable, and re-settles only after work — a step that
    did none changed nothing.

Under either schedule, with a demand-paged map (``cmt_pages``) translation
pages get their own active block per channel (Dayan & Bonnet's translation
blocks), opportunistically: it degrades to the cold block under pressure.

Safety: the job cursor relocates every page, whatever its owner, through the
owning FTL's ``_gc_oobs`` / ``_apply_relocations`` hooks, so the X-L2P live-union
invariant (pages referenced by L2P *or any* X-L2P entry are never
reclaimed) holds at every preemption point — uncommitted transactional
copies keep their tid and their X-L2P entry is repointed.  With
``retain_versions > 1`` the live union also covers version-chain entries
(``OWNER_VERSION`` pages): copyback repoints the chain entry in place and
the relocated page keeps its original OOB sequence number under a tid that
is never committed, so replay never applies it.  The ``gc.*`` crash points
below are swept by the ``ftl.gc`` (background) and ``ftl.gc.inline`` verify
layers; the version-chain edges by ``ftl.mvcc``.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from itertools import compress
from typing import Any, ClassVar, Sequence

from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.pagemap import DEAD, OOB_DATA, OOB_MAP
from repro.sim.crash import register_crash_point

CP_GC_VICTIM = register_crash_point(
    "gc.victim.selected", "ftl.gc", "GC victim chosen, no copyback started"
)
CP_GC_COPYBACK = register_crash_point(
    "gc.copyback.page", "ftl.gc", "between page copybacks of a GC job"
)
CP_GC_ERASE = register_crash_point(
    "gc.erase.before", "ftl.gc", "GC job copybacks complete, victim erase pending"
)
CP_GC_WEAR = register_crash_point(
    "gc.wear.migrate", "ftl.gc", "between page migrations of a wear-leveling job"
)

#: Victim policies each schedule supports.  Cost-benefit ages blocks in
#: allocation ticks, which only the background schedule advances.
GC_POLICIES = {
    "inline": ("greedy", "fifo"),
    "background": ("greedy", "fifo", "cost-benefit"),
}


class GcState(enum.Enum):
    """Per-channel watermark state (always ``IDLE`` under the inline schedule)."""

    IDLE = "idle"
    BACKGROUND = "background"
    URGENT = "urgent"


# The step's per-page reads: a member lookup through the enum class costs
# about 100 ns on CPython 3.11, a module global a tenth of that.
_IDLE, _BACKGROUND, _URGENT = GcState.IDLE, GcState.BACKGROUND, GcState.URGENT


@dataclass(slots=True)
class GcCounts:
    """Counts of the collector's own schedule decisions."""

    OBS_NAMES: ClassVar[dict[str, str]] = {
        "ftl.gc.fifo_fallbacks": "fifo_fallbacks",
        "ftl.gc.transitions_to_idle": "transitions_to_idle",
        "ftl.gc.transitions_to_background": "transitions_to_background",
        "ftl.gc.transitions_to_urgent": "transitions_to_urgent",
        "ftl.gc.background_collections": "background_collections",
        "ftl.gc.hot_stream_writes": "hot_stream_writes",
        "ftl.gc.cold_stream_writes": "cold_stream_writes",
        "ftl.gc.trans_stream_writes": "trans_stream_writes",
    }

    fifo_fallbacks: int = 0
    transitions_to_idle: int = 0
    transitions_to_background: int = 0
    transitions_to_urgent: int = 0
    background_collections: int = 0
    hot_stream_writes: int = 0
    cold_stream_writes: int = 0
    trans_stream_writes: int = 0


@dataclass
class GcJob:
    """One victim block being reclaimed.

    ``cursor`` walks the victim's programmed pages; between steps the block
    is half-relocated but fully consistent — every still-owned page is
    reachable through its owning structure, every moved page already is.
    """

    victim: int
    cursor: int  # next ppn to examine
    end: int  # one past the victim's last programmed ppn
    moved: int = 0
    wear: bool = False  # wear-leveling migration (vs. space reclamation)


class Collector:
    """The space manager of one :class:`PageMappingFTL` (see module docstring).

    Owns no mapping state: the owner table, its per-block counts and the
    L2P stay in the FTL; the collector reads the first two and changes all
    three only through the FTL's relocation hooks.

    ``Collector(ftl)`` builds the class of the schedule ``gc_mode`` names:
    this one for ``"background"``, :class:`InlineCollector` for
    ``"inline"``, which differs only in its :meth:`host_program` body.
    """

    def __new__(cls, ftl):
        if cls is Collector and ftl.config.gc_mode == "inline":
            cls = InlineCollector
        return super().__new__(cls)

    def __init__(self, ftl) -> None:
        config = ftl.config
        policies = GC_POLICIES.get(config.gc_mode)
        if policies is None:
            raise FtlError(
                f"unknown gc_mode {config.gc_mode!r}; expected one of {tuple(GC_POLICIES)}"
            )
        if config.gc_policy not in policies:
            raise FtlError(
                f"gc_policy {config.gc_policy!r} is not available with "
                f"gc_mode={config.gc_mode!r}; expected one of {policies}"
            )
        # Weak: the FTL owns the collector, and a strong back-reference would
        # turn every FTL into cyclic garbage — crash-plan subscriber lists
        # and peak memory both rely on refcounting freeing a dropped stack.
        self.ftl = weakref.proxy(ftl)
        self.schedule = config.gc_mode
        self._inline = config.gc_mode == "inline"
        self._policy = config.gc_policy
        chip = self._chip = ftl.chip
        self._stats = ftl.stats
        geo = self._geo = chip.geometry
        self._channels = geo.channels
        self._per = geo.pages_per_block
        self._channel_blocks = [geo.channel_blocks(c) for c in range(self._channels)]
        # Block state lives on the chip's BlockStateView and live-page
        # counts beside the FTL's owner table; all are mutated in place, so
        # aliasing them is safe across power cycles.
        self._write_points = chip.state.write_points
        self._valid_counts = ftl._valid_count
        self._erase_counts = chip.state.erase_counts
        # Translation pages get a stream of their own only under a
        # demand-paged map.
        self._trans_stream = ftl._cmt is not None
        # A stream that needs a block reclaims first when the free pool is
        # below this: the inline schedule keeps threshold + 1 blocks in
        # hand, the background one (whose watermark machine runs ahead of
        # need) only insists on the block it is about to take.
        self._alloc_target = config.gc_free_block_threshold + 1 if self._inline else 1
        # Config scalars cached for the per-program scheduling path (the
        # config object never mutates after construction).
        self._hot_threshold = config.gc_hot_write_threshold
        self._background_watermark = config.gc_background_watermark
        self._pages_per_step = config.gc_copyback_pages_per_step
        self._wear_spread_threshold = config.gc_wear_spread_threshold
        self._wear_check_interval = config.gc_wear_check_interval
        self._clock = chip.clock  # the background gate reads busy-until itself
        self._timelines = [chip.channel_timeline(c) for c in range(self._channels)]
        self._tick = 0  # host programs seen (background): cost-benefit's clock
        # Victim valid-ratio running aggregate (bounded state: per-victim
        # samples live in the ftl.gc.victim_valid_pages histogram).
        self._valid_ratio_sum = 0.0
        self.victims_collected = 0
        self.rebuild()  # a fresh chip: every block free
        self.counts = GcCounts()
        chip.obs.registry.bind(self.counts, GcCounts.OBS_NAMES)
        chip.obs.instrument(self, chip.clock)

    # ------------------------------------------------------------- power

    def reset(self) -> None:
        """Drop all volatile space state (power loss): nothing is allocatable."""
        channels = self._channels
        # Striped per channel: each has its own free pool, active blocks and
        # allocation-age order, so appends on different channels never contend.
        self._free_by_channel: list[list[int]] = [[] for _ in range(channels)]
        self._alloc_order: list[list[int]] = [[] for _ in range(channels)]
        self._active_blocks: list[int | None] = [None] * channels  # cold stream
        self._hot_active: list[int | None] = [None] * channels
        self._trans_active: list[int | None] = [None] * channels
        self._trans_blocks: set[int] = set()
        self._write_channel = 0  # round-robin cursor for host appends
        self._states: list[GcState] = [GcState.IDLE] * channels
        self._jobs: list[GcJob | None] = [None] * channels
        self._heat: dict[int, int] = {}  # lpn -> cumulative write count
        self._alloc_tick: dict[int, int] = {}  # block -> tick it left the pool
        # Per channel: a global counter would lock wear checks onto one
        # channel's parity (host programs round-robin the channels, so any
        # interval sharing a factor with the channel count samples the same
        # channel forever).
        self._steps_since_wear_check = [0] * channels
        # Partly written blocks no stream appends to any more, until their
        # erase: the partials a remount does not resume, and translation
        # blocks released while the cold slot was taken.
        self._stranded: set[int] = set()

    def rebuild(self) -> None:
        """Re-derive the space state from block write points (remount).

        Allocation age and stream identity are volatile: age is approximated
        by block number, old hot/translation blocks become ordinary aged
        blocks, and each channel resumes appending into its fullest
        partially-written block.
        """
        self.reset()
        write_points = self._write_points
        for channel, blocks in enumerate(self._channel_blocks):
            self._free_by_channel[channel] = [b for b in blocks if write_points[b] == 0]
            self._alloc_order[channel] = [b for b in blocks if write_points[b] > 0]
            partials = [b for b in blocks if 0 < write_points[b] < self._per]
            if partials:
                resumed = max(partials, key=write_points.__getitem__)
                self._active_blocks[channel] = resumed
                self._stranded.update(b for b in partials if b != resumed)

    # ------------------------------------------------------------ programs

    def host_program(self, data: Any, kind: int, key: int, tag: Any) -> int:
        """Append one host-originated page on the next round-robin channel.

        Runs this schedule's reclamation first (the background body: one
        :meth:`_step` per page, heat, streams, counts; the inline one is
        :meth:`InlineCollector.host_program`).  Both keep at least one
        block's worth of erased pages per channel at all times: any victim
        has at most ``pages_per_block - 1`` valid pages, so with a full
        block of headroom *before* each host program GC can always relocate
        a victim and make progress (waiting for an empty pool would let the
        host eat the copyback headroom page by page and wedge an
        in-capacity workload).

        The page's OOB is ``(kind, key, seq, tag)``; ``seq`` is drawn here,
        once reclamation is over and the block is picked, so a host page
        outranks every copyback its own program caused.
        """
        channel = self._write_channel
        self._write_channel = (channel + 1) % self._channels
        per = self._per
        trans = self._trans_stream and kind == OOB_MAP
        hot = False
        write_points = self._write_points
        cold = self._active_blocks
        active = cold[channel]  # headroom_pages(channel), inline
        headroom = len(self._free_by_channel[channel]) * per
        headroom += 0 if active is None else per - write_points[active]
        self._tick += 1
        threshold = self._hot_threshold
        if threshold > 0 and not trans:
            if kind != OOB_DATA:
                # Map/meta/X-L2P table pages are rewritten on every
                # flush: the hottest data on the device by construction.
                hot = True
            else:
                heat = self._heat
                count = heat.get(key, 0) + 1
                heat[key] = count
                hot = count >= threshold
        self._step(channel, headroom)
        if trans:
            store = self._trans_active
        else:
            store = self._hot_active if hot else cold
        block = store[channel]
        if block is None or write_points[block] >= per:
            block = self._stream_block(channel, store)
        ppn = block * per + write_points[block]
        ftl = self.ftl
        ftl._seq += 1
        self._chip.program(ppn, data, kind, key, ftl._seq, tag)
        if trans:
            self.counts.trans_stream_writes += 1
        else:
            if hot:
                self.counts.hot_stream_writes += 1
            else:
                self.counts.cold_stream_writes += 1
        if write_points[block] >= per:
            self._release_filled(channel, block)
        return ppn

    def _release_filled(self, channel: int, block: int) -> None:
        """A host program filled ``block``: no stream appends to it any more."""
        # A hot or translation write may have degraded onto the cold
        # block, so clear whichever stream(s) hold the filled block.
        for filled in (self._active_blocks, self._hot_active, self._trans_active):
            if filled[channel] == block:
                filled[channel] = None

    def run_room(self) -> int:
        """How many host pages :meth:`host_program_run` appends next with no
        decision (0: the next page must go through :meth:`host_program`).

        Only the inline schedule on one channel appends consecutive host
        pages to one block, and there a page decides something only when it
        must open a block or finds the channel at the headroom floor — which,
        inside an open block, is exactly when the free pool is empty.  Under
        a demand-paged map a host write may first evict a translation page,
        and an armed crash point must see every program: no room then.
        Inside the room no block is opened or reclaimed, so the free pool
        keeps its size.
        """
        block = self._active_blocks[0]
        if (
            not self._inline
            or self._channels != 1
            or self._trans_stream
            or block is None
            or not self._free_by_channel[0]
            or self._chip.crash_plan._points
        ):
            return 0
        return self._per - self._write_points[block]

    def host_program_run(self, data: Any, keys: Sequence[int]) -> range:
        """``host_program(data, OOB_DATA, key, None)`` for the leading
        ``keys`` that fit the :meth:`run_room`; returns the programmed ppns.

        The run stops before the first page that needs a decision, and the
        caller programs it with :meth:`host_program`; an empty range means
        exactly that.
        """
        count = min(len(keys), self.run_room())
        if count <= 0:
            return range(0)
        block = self._active_blocks[0]
        per = self._per
        write_points = self._write_points
        ftl = self.ftl
        seq = ftl._seq
        ftl._seq = seq + count
        dst = block * per + write_points[block]
        oobs = (
            bytes((OOB_DATA,)) * count,
            keys[:count],
            range(seq + 1, seq + count + 1),
            (None,) * count,
        )
        self._chip.program_run(dst, [data] * count, oobs)
        if write_points[block] >= per:
            self._release_filled(0, block)
        return range(dst, dst + count)

    def headroom_pages(self, channel: int) -> int:
        """Erased pages GC may program into on ``channel`` (free pool + cold block)."""
        per = self._per
        pages = len(self._free_by_channel[channel]) * per
        active = self._active_blocks[channel]
        if active is not None:
            pages += per - self._write_points[active]
        return pages

    def _stream_block(self, channel: int, store: list[int | None]) -> int:
        """A new block for stream ``store`` (its own is full or missing), or the cold one.

        A stream below the pool target reclaims first.  When the reclaim's
        copybacks opened a cold block, a cold stream returns that block: it
        is kept, never replaced by a fresh one while partly written (the
        stock firmware opens a block only when the active one is full).

        A second stream takes a free block out of GC headroom (copybacks
        only ever target the cold stream), so the hot and translation
        streams are strictly opportunistic: without two blocks of slack
        beyond the floor they degrade to the cold block rather than eroding
        the margin that keeps collection live.
        """
        per = self._per
        write_points = self._write_points
        cold = self._active_blocks
        free = self._free_by_channel[channel]
        if store is not cold:
            # Background's second streams never reclaim for themselves: the
            # slack check sends them to the cold stream first.
            if self._inline and len(free) < self._alloc_target:
                self._reclaim(channel, self._alloc_target)
            active = cold[channel]  # headroom_pages(channel), inline
            headroom = len(free) * per + (0 if active is None else per - write_points[active])
            if headroom <= 2 * per:
                if active is not None and write_points[active] < per:
                    return active
                store = cold
        if store is cold:
            if len(free) < self._alloc_target:
                self._reclaim(channel, self._alloc_target)
                # The reclaim's copybacks may have opened a cold block of
                # their own: keep appending to it.
                active = cold[channel]
                if active is not None and write_points[active] < per:
                    return active
            if not free:
                raise OutOfSpaceError(f"no free blocks on channel {channel} after GC")
        block = self._open_block(channel, store)
        self._alloc_tick[block] = self._tick
        if store is self._trans_active:
            self._trans_blocks.add(block)
        return block

    def _open_block(self, channel: int, store: list[int | None]) -> int:
        """Take the channel's next free block as ``store``'s active block."""
        block = self._free_by_channel[channel].pop()
        store[channel] = block
        self._alloc_order[channel].append(block)
        return block

    def _release_trans_block(self, channel: int) -> bool:
        """Fold the translation stream back into the shared pool.

        Called when GC is starved: the trans active block is excluded from
        victim selection and its erased tail does not count as copyback
        headroom, so under pressure holding onto it can wedge an otherwise
        sustainable workload.  Releasing it makes the block an ordinary
        victim candidate — and, when the cold slot is open, the new cold
        block, which returns its erased pages to the headroom pool.
        """
        block = self._trans_active[channel]
        if block is None:
            return False
        self._trans_active[channel] = None
        if self._write_points[block] < self._per:
            if self._active_blocks[channel] is None:
                self._active_blocks[channel] = block
            else:
                self._stranded.add(block)
        return True

    # --------------------------------------------------- watermark machine

    def _set_state(self, channel: int, state: GcState) -> None:
        self._states[channel] = state
        if state is _URGENT:
            self.counts.transitions_to_urgent += 1
        elif state is _BACKGROUND:
            self.counts.transitions_to_background += 1
        else:
            self.counts.transitions_to_idle += 1

    def _step(self, channel: int, headroom: int) -> None:
        """One decision per host page, taken before every background host program.

        ``headroom`` is the channel's, computed once by the caller.  The
        state is written only when it changes, and re-settled only after
        work (a reclaim, a paced slice, a wear job): a step that did none
        left headroom, free pool and job as they were, so its branch already
        set the state a settle would compute.
        """
        floor = self._per
        watermark = self._background_watermark
        jobs = self._jobs
        free = self._free_by_channel[channel]
        if headroom <= floor:
            state = _URGENT
        elif jobs[channel] is not None or len(free) <= watermark:
            state = _BACKGROUND
        else:
            state = _IDLE
        if self._states[channel] is not state:
            self._set_state(channel, state)
        worked = state is _URGENT
        if worked:
            self._reclaim(channel, 0)
        elif state is _BACKGROUND:
            # A job opens only if its whole copyback fits in the headroom
            # minus the urgent floor: interleaved host writes shrink headroom
            # a page per program, and the urgent path (at the floor) must be
            # able to finish the job.  With no block that cheap every pick
            # would be declined, so none is scored — except FIFO's, which
            # counts its fallbacks.
            affordable = headroom - floor
            # The channel has no backlog: busy-until does not lead now.
            backlog = self._timelines[channel].busy_until_us - self._clock._now_us
            if backlog <= 0.0 and (
                jobs[channel] is not None
                or self._policy == "fifo"
                or self._has_block_within(channel, affordable)
            ):
                worked = self._background_step(channel, affordable)
        if self._wear_spread_threshold > 0:
            checks = self._steps_since_wear_check
            checks[channel] += 1
            if checks[channel] >= self._wear_check_interval:
                checks[channel] = 0
                worked = self._maybe_wear_level(channel) or worked
        # Settle the post-work state so observers see where the channel is.
        if worked and self.headroom_pages(channel) > floor:
            idle = jobs[channel] is None and len(free) > watermark
            state = _IDLE if idle else _BACKGROUND
            if self._states[channel] is not state:
                self._set_state(channel, state)

    def _background_step(self, channel: int, affordable: int) -> bool:
        """Run one paced slice of collection during an idle window (False:
        no job was open and the policy's victim costs over ``affordable``)."""
        job = self._jobs[channel]
        if job is None:
            victim = self.pick_victim(channel)
            if victim is None or self._valid_counts[victim] > affordable:
                return False
            job = self._open_job(channel, victim)
        with self._chip.overlap():
            done = self._run_job(channel, job, max_pages=self._pages_per_step)
        if done:
            self.counts.background_collections += 1
        return True

    def _reclaim(self, channel: int, target_blocks: int) -> float | None:
        """Synchronous collection: the inline pass and background's urgent path.

        Collects — finishing the channel's open job first — while the free
        pool is below ``target_blocks`` or the page-granular headroom floor
        is breached (tight geometries may never stabilise the pool above
        one block, yet stay sustainable by cycling the cold block's spare
        pages; ``target_blocks=0`` is the floor-only pass).  Bails out when
        nothing is reclaimable but some headroom remains, and raises
        :class:`OutOfSpaceError` only when truly wedged.  Under the
        background schedule the stall is the foreground GC pause: returns
        its simulated us when a collection ran, else ``None``.
        """
        geo = self._geo
        free = self._free_by_channel[channel]
        floor = self._per
        start_us = self._chip.clock.now_us
        collected = False
        guard = geo.total_pages + geo.num_blocks
        while len(free) < target_blocks or self.headroom_pages(channel) <= floor:
            guard -= 1
            if guard < 0:
                raise OutOfSpaceError("garbage collection cannot make progress")
            job = self._jobs[channel]
            if job is None:
                victim = self.pick_victim(channel)
                if victim is None or self._valid_counts[victim] > self.headroom_pages(channel):
                    if self._release_trans_block(channel):
                        continue  # the freed stream block may be reclaimable
                    if free or self.headroom_pages(channel) > 0:
                        break  # nothing reclaimable; live with what we have
                    raise OutOfSpaceError("no GC victim and no free blocks")
                job = self._open_job(channel, victim)
            self._collect(channel, job)
            if not self._inline:
                collected = True
                self._stats.gc_urgent_collections += 1
        return self._chip.clock.now_us - start_us if collected else None

    def _collect(self, channel: int, job: GcJob) -> None:
        """Run ``job`` to completion (a synchronous collection)."""
        self._run_job(channel, job)

    # ------------------------------------------------------------- jobs

    def _open_job(self, channel: int, victim: int, wear: bool = False) -> GcJob:
        per = self._per
        start = victim * per
        job = GcJob(victim=victim, cursor=start, end=start + self._write_points[victim], wear=wear)
        self._jobs[channel] = job
        self._count_victim(victim)
        self._chip.crash_plan.hit(CP_GC_VICTIM)
        return job

    def _count_victim(self, victim: int) -> int:
        """Count one victim in the GC stats; returns its valid pages."""
        self._stats.gc_invocations += 1
        if victim in self._trans_blocks:
            self._stats.gc_translation_collections += 1
        valid = self._valid_counts[victim]
        self._valid_ratio_sum += valid / self._per
        self.victims_collected += 1
        return valid

    def _run_job(self, channel: int, job: GcJob, max_pages: int | None = None) -> bool:
        """Advance ``job``; returns True when the victim has been erased.

        The unit of work is a *run*: the victim's live pages from the
        cursor, as many as ``max_pages`` allows and the channel's cold block
        has room for, moved by one ``chip.copyback_run`` and followed by one
        ``ftl._apply_relocations``.  With a crash point armed a run is one
        page long, so every ``gc.*`` and ``flash.*`` point fires between
        the same two pages it always did.  Runs draw directly on the free
        pool, never reclaiming: the caller checked the victim against the
        headroom before opening the job.

        With ``max_pages`` the job yields after that many copybacks — the
        preemption point where foreground writes interleave.  Without it
        the job runs to completion (every inline collection, and
        background's urgent path).
        """
        ftl = self.ftl
        chip = self._chip
        crash_plan = chip.crash_plan
        crash_point = CP_GC_WEAR if job.wear else CP_GC_COPYBACK
        owners = ftl._owner
        oob_keys = chip.oob_keys
        per = self._per
        write_points = self._write_points
        cold = self._active_blocks
        # Nothing but this call's own relocations changes who owns the
        # victim's pages, so what is live now is what there is to move
        # (a dead page's code, DEAD, is the one zero byte), each page with
        # the code and the OOB key (a data page's lpn) it has now, read once.
        codes = owners[job.cursor : job.end]
        live = list(compress(range(job.cursor, job.end), codes))
        live_owners = list(compress(codes, codes))
        preempted = max_pages is not None and len(live) > max_pages
        if preempted:
            del live[max_pages:]
        live_keys = [oob_keys[ppn] for ppn in live]
        stats = self._stats
        # Copyback counters batch across the slice; the try/finally keeps
        # them exact when a crash point fires mid-copyback (a read that
        # happened before the failure is still counted: every flash read
        # between here and the erase is a copyback's).
        reads_before = stats.page_reads
        moved = 0
        try:
            while moved < len(live):
                length = len(live) - moved
                if crash_plan._points:
                    crash_plan.hit(crash_point)
                    length = 1
                active = cold[channel]
                if active is None or write_points[active] >= per:
                    if not self._free_by_channel[channel]:
                        raise OutOfSpaceError("GC ran out of headroom blocks")
                    active = self._open_block(channel, cold)
                used = write_points[active]
                end = moved + min(length, per - used)
                srcs = live[moved:end]
                run_owners = live_owners[moved:end]
                keys = live_keys[moved:end]  # the copyback writes them again
                dst = active * per + used
                chip.copyback_run(srcs, dst, ftl._gc_oobs(run_owners, keys, srcs))
                if write_points[active] >= per:
                    cold[channel] = None
                ftl._apply_relocations(run_owners, keys, srcs, dst)
                moved += len(srcs)
                job.cursor = srcs[-1] + 1
        finally:
            job.moved += moved
            stats.gc_copyback_reads += stats.page_reads - reads_before
            stats.gc_copyback_writes += moved
        if preempted:
            return False
        self._finish_job(channel, job)
        return True

    def _finish_job(self, channel: int, job: GcJob) -> None:
        """Erase ``job``'s victim, every live page moved, into the free pool."""
        chip = self._chip
        if chip.crash_plan._points:
            chip.crash_plan.hit(CP_GC_ERASE)
        chip.erase(job.victim)
        self._trans_blocks.discard(job.victim)
        self._stranded.discard(job.victim)
        free = self._free_by_channel[channel]
        free.append(job.victim)
        if not self._inline:
            # Wear-aware allocation: keep the pool sorted most-worn-first,
            # so ``pop()`` (how every stream and copybacks draw blocks)
            # hands out the least-worn free block.  Without this, LIFO
            # reuse parks cold blocks in the pool forever and leveling
            # cannot narrow the erase-count spread.
            counts = self._erase_counts
            free.sort(key=lambda block: -counts[block])
        try:
            self._alloc_order[channel].remove(job.victim)
        except ValueError:
            pass
        self._alloc_tick.pop(job.victim, None)
        self._jobs[channel] = None

    # --------------------------------------------------- victim selection

    def _excluded(self, channel: int) -> set[int | None]:
        job = self._jobs[channel]
        return {
            self._active_blocks[channel],
            self._hot_active[channel],
            self._trans_active[channel],
            job.victim if job is not None else None,
        }

    def _has_block_within(self, channel: int, pages: int) -> bool:
        """Whether a written block outside the open streams holds at most
        ``pages`` valid pages (a superset of every policy's candidates); run
        with no job open, so the picker alone builds the exclusion set."""
        if pages < 0:
            return False
        write_points = self._write_points
        valid_counts = self._valid_counts
        streams = (
            self._active_blocks[channel], self._hot_active[channel], self._trans_active[channel]
        )
        for block in self._channel_blocks[channel]:
            if valid_counts[block] <= pages and write_points[block] and block not in streams:
                return True
        return False

    def pick_victim(self, channel: int) -> int | None:
        """The block ``gc_policy`` would reclaim next on ``channel``, if any.

        A candidate is a written block outside the open streams and the
        open job whose collection gains at least one page: fully-valid
        blocks and partially-written blocks with nothing invalid never
        qualify.
        """
        if self._policy == "cost-benefit":
            return self._pick_cost_benefit(channel)
        if self._policy == "fifo":
            victim = self._pick_fifo(channel)
            if victim is not None:
                return victim
            # Explicit fallback (see FtlConfig.gc_policy): FIFO found no
            # reclaimable block in allocation-age order, so the greedy pick
            # keeps GC live.  Counted so aged-state results produced under
            # fallback are never silently mislabeled as pure FIFO.
            self.counts.fifo_fallbacks += 1
        return self._pick_greedy(channel)

    def _pick_greedy(self, channel: int) -> int | None:
        """Fewest valid pages wins."""
        per = self._per
        write_points = self._write_points
        valid_counts = self._valid_counts
        excluded = self._excluded(channel)
        best, best_valid = None, None
        for block in self._channel_blocks[channel]:
            if block in excluded:
                continue
            used = write_points[block]
            if used == 0:
                continue  # free or erased
            valid = valid_counts[block]
            if (valid >= used and used < per) or valid >= per:
                continue  # nothing reclaimable
            if best_valid is None or valid < best_valid:
                best, best_valid = block, valid
        return best

    def _pick_fifo(self, channel: int) -> int | None:
        """Oldest reclaimable block in the channel's allocation order."""
        per = self._per
        write_points = self._write_points
        valid_counts = self._valid_counts
        excluded = self._excluded(channel)
        for block in self._alloc_order[channel]:
            if block in excluded:
                continue
            used = write_points[block]
            valid = valid_counts[block]
            if used and valid < per and (valid < used or used == per):
                return block
        return None

    def _pick_cost_benefit(self, channel: int) -> int | None:
        """Rosenblum-style benefit/cost: ``age * (1 - u) / 2u``.

        ``u`` is the victim's valid fraction (copyback cost ``2u``: read +
        write per valid page, relative to the space gained ``1 - u``); age
        is measured in allocation ticks since the block left the free pool,
        so long-invalidated blocks beat freshly-written ones even at equal
        utilization.
        """
        per = self._per
        write_points = self._write_points
        valid_counts = self._valid_counts
        alloc_tick_get = self._alloc_tick.get
        tick = self._tick
        excluded = self._excluded(channel)
        best, best_score = None, None
        for block in self._channel_blocks[channel]:
            if block in excluded:
                continue
            used = write_points[block]
            if used == 0:
                continue
            valid = valid_counts[block]
            if (valid >= used and used < per) or valid >= per:
                continue
            age = tick - alloc_tick_get(block, 0)
            if valid == 0:
                score = float("inf")
            else:
                u = valid / used
                score = age * (1.0 - u) / (2.0 * u)
            if best_score is None or score > best_score:
                best, best_score = block, score
        return best

    # ------------------------------------------------------ wear leveling

    def _maybe_wear_level(self, channel: int) -> bool:
        """Sample the erase-count spread; True when it ran a wear job."""
        spread = self._erase_spread()
        if spread < self._wear_spread_threshold:
            return False
        if self._jobs[channel] is not None:
            return False  # one job at a time per channel
        # Wear victims may be fully valid: require a whole extra block of
        # slack beyond the urgent floor before taking one on.  Below that no
        # victim fits, so none is scored.
        affordable = self.headroom_pages(channel) - 2 * self._per
        if affordable < 0:
            return False
        victim = self._pick_wear_victim(channel, min(self._erase_counts))
        if victim is None or self._valid_counts[victim] > affordable:
            return False
        job = self._open_job(channel, victim, wear=True)
        self._stats.gc_wear_migrations += 1
        with self._chip.overlap():
            self._run_job(channel, job, max_pages=self._pages_per_step)
        return True

    def _erase_spread(self) -> int:
        """Most erases of any block minus fewest."""
        counts = self._erase_counts
        return max(counts) - min(counts)

    def _pick_wear_victim(self, channel: int, global_min: int) -> int | None:
        """Least-worn written block on ``channel`` — where cold data sits.

        Only blocks at the very low end of the global erase distribution
        qualify: migrating an averagely-worn block would churn pages
        without narrowing the spread.
        """
        excluded = self._excluded(channel)
        counts = self._erase_counts
        write_points = self._write_points
        best, best_count = None, None
        for block in self._channel_blocks[channel]:
            if block in excluded:
                continue
            if write_points[block] == 0:
                continue  # erased blocks already cycle through the pool
            if counts[block] > global_min + 1:
                continue
            if best_count is None or counts[block] < best_count:
                best, best_count = block, counts[block]
        return best

    # --------------------------------------------------------- inspection

    def free_block_counts(self) -> list[int]:
        return [len(free) for free in self._free_by_channel]

    def mean_valid_ratio(self) -> float:
        """Average fraction of valid pages carried over per victim."""
        if not self.victims_collected:
            return 0.0
        return self._valid_ratio_sum / self.victims_collected

    def check_invariants(self) -> None:
        """Space-state consistency checks, called from the FTL's own.

        Under the inline schedule a powered FTL also has no partly written
        block but its open stream blocks, the open job's victim and the
        stranded ones (a partial a remount did not resume, a translation
        block released while the cold slot was taken): a stream opens a
        block only when its own is full or missing, and a reclaim's cold
        block is the one the next cold page appends to.
        """
        geo = self._geo
        owners = self.ftl._owner
        per = geo.pages_per_block
        write_points = self._write_points
        partials_checked = self._inline and self.ftl._powered
        for channel in range(geo.channels):
            free = self._free_by_channel[channel]
            for block in free:
                if geo.channel_of_block(block) != channel:
                    raise FtlError(f"free block {block} on wrong channel list {channel}")
                if self._write_points[block] != 0:
                    raise FtlError(f"free block {block} is not erased")
            job = self._jobs[channel]
            streams = {
                "active": self._active_blocks[channel],
                "hot active": self._hot_active[channel],
                "trans": self._trans_active[channel],
            }
            for name, block in streams.items():
                if block is None:
                    continue
                if geo.channel_of_block(block) != channel:
                    raise FtlError(f"{name} block {block} not on channel {channel}")
                if block in free:
                    raise FtlError(f"{name} block {block} still in the free pool")
                if name != "active" and block == streams["active"]:
                    raise FtlError(f"{name} block {block} doubles as the active block")
                if job is not None and block == job.victim:
                    raise FtlError(f"GC job victim {job.victim} is an active block")
            if job is not None:
                if geo.channel_of_block(job.victim) != channel:
                    raise FtlError(f"GC job victim {job.victim} not on channel {channel}")
                if job.victim in free:
                    raise FtlError(f"GC job victim {job.victim} already in the free pool")
                # Pages behind the cursor must have been relocated already.
                for ppn in range(job.victim * geo.pages_per_block, job.cursor):
                    if owners[ppn] != DEAD:
                        raise FtlError(
                            f"GC job on block {job.victim} left owned page {ppn} "
                            f"behind its cursor"
                        )
            if partials_checked:
                open_blocks = {*streams.values(), job.victim if job is not None else None}
                for block in self._channel_blocks[channel]:
                    used = write_points[block]
                    if 0 < used < per and block not in open_blocks and block not in self._stranded:
                        raise FtlError(f"block {block} left partly written ({used}/{per})")


class InlineCollector(Collector):
    """The inline schedule's collector: :class:`Collector` with a host
    program body of its own (the stock firmware's per-page path)."""

    def host_program(self, data: Any, kind: int, key: int, tag: Any) -> int:
        """:meth:`Collector.host_program` under the inline schedule: reclaim
        synchronously at the headroom floor, then append to the cold block
        (or, under a demand-paged map, a translation page to its own)."""
        channel = self._write_channel
        self._write_channel = (channel + 1) % self._channels
        per = self._per
        write_points = self._write_points
        cold = self._active_blocks
        free = len(self._free_by_channel[channel])
        if free < 2:  # else headroom_pages(channel) > per
            active = cold[channel]
            if free * per + (0 if active is None else per - write_points[active]) <= per:
                self._reclaim(channel, 0)
        store = self._trans_active if self._trans_stream and kind == OOB_MAP else cold
        block = store[channel]
        if block is None or write_points[block] >= per:
            block = self._stream_block(channel, store)
        ppn = block * per + write_points[block]
        ftl = self.ftl
        seq = ftl._seq + 1
        ftl._seq = seq
        self._chip.program(ppn, data, kind, key, seq, tag)
        if write_points[block] >= per:
            self._release_filled(channel, block)
        return ppn
