"""Stack drivers: one crash-verification harness per stack layer.

Each driver builds a fresh machine, runs a deterministic seeded setup
phase, arms the requested crash point, then replays a deterministic
workload while recording every acknowledged operation in an oracle.  If
the armed point fires, the machine powers itself down (the crash plan
notifies every layer); the driver then remounts and diffs what recovery
exposes against the oracle.  If the point never fires the scenario is
reported ``fired=False`` so the enumerator stops growing the occurrence
count for that point.

Layers (bottom to top):

- ``ftl.pagemap``  — plain writes + barriers on the stock FTL;
- ``ftl.xftl``     — write_tx/commit/abort transactions on X-FTL;
- ``ftl.xftl.group`` — commit_group batches on X-FTL: crashes during the
  group's single X-L2P flush and publish step;
- ``ftl.gc``      — transactions (plain, grouped, aborted) on X-FTL with
  background garbage collection: crashes at every ``gc.*`` preemption
  point of the paced copyback/wear-leveling jobs;
- ``ftl.gc.inline`` — the same driver under the inline FIFO schedule (the
  paper tables' collector): crashes after victim selection, between the
  copybacks and before the erase of a run-to-completion collection;
- ``ftl.cmt``     — transactions on X-FTL with a demand-paged mapping
  whose cache is far smaller than the map: crashes during CMT evictions,
  dirty writebacks, and the commit-time translation-page pinning;
- ``device.queue`` — plain writes through a queued (NCQ) device over a
  two-channel flash array: crashes land with commands in flight;
- ``device.queue.xftl`` — the transactional command set through the same
  queued device, exercising commit barriers against a non-empty queue;
- ``dev.queue.epoch`` — the same queued device in **barrier mode**:
  ordering points are order-only epoch closes (no drain), barrier writes
  interleave with plain ones, and crashes land on ``dev.queue.epoch``
  with commands in flight; the driver additionally samples the per-epoch
  completion envelopes for the no-reorder-across-epochs invariant;
- ``fs.barrier`` — ordered-journal ext4 driven by ``fbarrier`` over a
  queued barrier-mode device (journal commit pages ride BARRIER_WRITE):
  only explicit flushes raise the durable floor, everything else is
  order-only, and recovery must still expose floor-or-later values;
- ``fs.ext4``      — file page writes + fsync on ordered-journal ext4
  over the stock FTL;
- ``sqlite.xftl``  — SQL transactions on the full paper stack (SQLite
  OFF mode on ext4-XFTL on X-FTL);
- ``sqlite.rbj``   — the same SQL workload on the unmodified stack
  (rollback journal on ordered ext4 on the stock FTL), which is the
  only layer where ``sqlite.commit.mid`` is reachable;
- ``sqlite.concurrent`` — two sessions, each with its own OFF-mode
  database, interleaved through the SessionScheduler with deferred
  commits coalescing into group commits on one X-FTL device;
- ``ftl.mvcc``    — multi-version X-L2P retention: four writer lanes
  group-committing over background GC while a pinned AS-OF reader holds
  its snapshot; crashes land between version publish and release, which
  must never orphan or double-free a retained version page.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.stack import Mode, StackConfig, build_stack
from repro.device.ssd import StorageDevice
from repro.errors import PowerFailure, ReproError
from repro.flash.array import FlashArray
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.sim.crash import CrashPlan
from repro.sim.rng import make_rng
from repro.verify.oracle import PlainWriteOracle, TransactionOracle


@dataclass
class ScenarioResult:
    """Outcome of one armed run: did it fire, and was recovery legal?"""

    layer: str
    point: str
    after: int
    tear: bool
    fired: bool
    ops_run: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------- ftl

_FTL_GEOMETRY = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
_FTL_CONFIG = FtlConfig(
    overprovision=0.25, map_entries_per_page=32, barrier_meta_pages=1, xl2p_capacity=64
)


def _run_pagemap(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    plan = CrashPlan()
    ftl = PageMappingFTL(FlashChip(_FTL_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    rng = make_rng(seed, "verify.pagemap")
    oracle = PlainWriteOracle()
    hot = min(ftl.exported_pages, 24)

    # Deterministic setup: a committed baseline, before the point is armed.
    for lpn in range(hot):
        ftl.write(lpn, ("base", lpn))
        oracle.note_write(lpn, ("base", lpn))
    ftl.barrier()
    oracle.note_durable()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    try:
        for op in range(1, ops_limit + 1):
            lpn = rng.randrange(hot)
            value = ("v", op)
            oracle.note_write(lpn, value)  # attempted: may survive the crash
            ftl.write(lpn, value)
            if op % 7 == 0:
                ftl.barrier()
                oracle.note_durable()
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()  # crash-free control run: power-cycle anyway

    ftl.remount()
    ftl.check_invariants()
    violations = oracle.check(ftl.read)
    # Never-written pages must still read as unwritten.
    for lpn in range(hot, min(hot + 4, ftl.exported_pages)):
        if ftl.read(lpn) is not None:
            violations.append(f"lpn {lpn}: never written but reads {ftl.read(lpn)!r}")
    return fired, op, violations


def _run_xftl(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    plan = CrashPlan()
    ftl = XFTL(FlashChip(_FTL_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    rng = make_rng(seed, "verify.xftl")
    hot = min(ftl.exported_pages, 24)

    oracle = TransactionOracle()
    for lpn in range(hot):
        ftl.write(lpn, ("base", lpn))
        oracle.note_baseline(lpn, ("base", lpn))
    ftl.barrier()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            tid += 1
            n_writes = rng.randrange(1, 4)
            for _ in range(n_writes):
                op += 1
                lpn = rng.randrange(hot)
                value = ("t", tid, op)
                oracle.note_tx_write(tid, lpn, value)
                ftl.write_tx(tid, lpn, value)
            if rng.random() < 0.2:
                ftl.abort(tid)
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                ftl.commit(tid)
                oracle.note_committed(tid)
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()

    ftl.remount()
    ftl.check_invariants()
    return fired, op, oracle.check(ftl.read)


def _run_xftl_group(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """Group commit on X-FTL: batches of transactions, one commit sweep.

    Reaches the ``xftl.group.flush`` / ``xftl.group.publish`` points that
    single-transaction commits never hit, and checks the all-or-nothing
    contract *per batch*: a crash during the group flush must leave every
    member undone; after the publish, every member durable.
    """
    plan = CrashPlan()
    ftl = XFTL(FlashChip(_FTL_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    rng = make_rng(seed, "verify.xftl.group")
    hot = min(ftl.exported_pages, 24)

    oracle = TransactionOracle()
    for lpn in range(hot):
        ftl.write(lpn, ("base", lpn))
        oracle.note_baseline(lpn, ("base", lpn))
    ftl.barrier()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            group: list[int] = []
            for _ in range(rng.randrange(2, 4)):  # 2-3 transactions per batch
                tid += 1
                for _ in range(rng.randrange(1, 4)):
                    op += 1
                    lpn = rng.randrange(hot)
                    value = ("t", tid, op)
                    oracle.note_tx_write(tid, lpn, value)
                    ftl.write_tx(tid, lpn, value)
                if rng.random() < 0.2:
                    ftl.abort(tid)
                    oracle.note_aborted(tid)
                else:
                    group.append(tid)
            for member in group:
                oracle.note_commit_started(member)
            ftl.commit_group(group)
            for member in group:
                oracle.note_committed(member)
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()

    ftl.remount()
    ftl.check_invariants()
    return fired, op, oracle.check(ftl.read)


# --------------------------------------------------------------- cmt

# Same tiny device as the plain FTL layers, but with a demand-paged map:
# 16 entries per translation page gives several times more segments than
# the two cache slots, so every phase of the workload evicts and fetches.
_CMT_CONFIG = FtlConfig(
    overprovision=0.25,
    map_entries_per_page=16,
    barrier_meta_pages=1,
    xl2p_capacity=64,
    cmt_pages=2,
    cmt_dirty_batch=1,
)


def _run_cmt(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """Transactions on X-FTL with a demand-paged mapping (small CMT).

    The working set spans six translation segments against two cache
    slots, so misses fetch translation pages from flash, evictions write
    dirty ones back, and each commit pins the transaction's translation
    pages inside the publish drain — the ``ftl.cmt.*`` points land
    crashes in every one of those windows, and recovery must still hold
    the all-or-nothing contract (data and translation pages publish
    atomically per commit).
    """
    plan = CrashPlan()
    ftl = XFTL(FlashChip(_FTL_GEOMETRY, crash_plan=plan), _CMT_CONFIG)
    rng = make_rng(seed, "verify.ftl.cmt")
    hot = min(ftl.exported_pages, 96)

    oracle = TransactionOracle()
    for lpn in range(hot):
        ftl.write(lpn, ("base", lpn))
        oracle.note_baseline(lpn, ("base", lpn))
    ftl.barrier()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            tid += 1
            for _ in range(rng.randrange(1, 4)):
                op += 1
                lpn = rng.randrange(hot)
                value = ("t", tid, op)
                oracle.note_tx_write(tid, lpn, value)
                ftl.write_tx(tid, lpn, value)
            if rng.random() < 0.2:
                ftl.abort(tid)
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                ftl.commit(tid)
                oracle.note_committed(tid)
            # Reads churn the cache between transactions, so dirty
            # writebacks also happen outside any commit window; the
            # occasional barrier then runs the flush against a cold cache.
            for _ in range(rng.randrange(0, 3)):
                ftl.read(rng.randrange(hot))
            if rng.random() < 0.15:
                ftl.barrier()
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()

    ftl.remount()
    ftl.check_invariants()
    return fired, op, oracle.check(ftl.read)


# -------------------------------------------------------------- background gc

# Two channels, tight space, aggressive GC knobs: the setup churn parks the
# free pools at the background watermark so paced copyback jobs, urgent
# floor collections and wear migrations all interleave with the armed
# workload inside the ops budget.
_GC_GEOMETRY = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24, channels=2)
_GC_CONFIG = FtlConfig(
    overprovision=0.25,
    map_entries_per_page=32,
    barrier_meta_pages=1,
    xl2p_capacity=64,
    gc_mode="background",
    gc_policy="cost-benefit",
    gc_background_watermark=3,
    gc_copyback_pages_per_step=2,
    gc_hot_write_threshold=2,
    gc_wear_spread_threshold=2,
    gc_wear_check_interval=4,
)
# The same collector on the schedule every paper table runs.  Holding five
# of a channel's twelve blocks free makes FIFO compact partially-valid
# victims inside the ops budget, so the armed window crosses real copybacks
# (at the default threshold every inline victim here is fully invalid).
_GC_INLINE_CONFIG = replace(
    _GC_CONFIG, gc_mode="inline", gc_policy="fifo", gc_free_block_threshold=5
)


def _run_gc(
    config: FtlConfig, point, after, tear, seed, ops_limit
) -> tuple[bool, int, list[str]]:
    """Transactions (plain, grouped, aborted) against live garbage collection.

    Every ``gc.*`` crash point sits inside a copyback or wear-leveling job
    (a preemption point under the background schedule, mid-collection under
    the inline one); the oracle holds recovery to the same all-or-nothing
    contract as the plain X-FTL layer, which is exactly the X-L2P
    live-union invariant: a crash mid-job must never surface an uncommitted
    write or lose a committed one, no matter how many pages the job had
    already relocated.
    """
    plan = CrashPlan()
    ftl = XFTL(FlashArray(_GC_GEOMETRY, crash_plan=plan), config)
    rng = make_rng(seed, "verify.ftl.gc")
    # Hot lpns are overwritten by the armed workload; the static tail is
    # written once and then only ever moved by GC copybacks and wear
    # migrations — the pages whose survival the gc.* points endanger.
    hot = min(ftl.exported_pages // 2, 24)
    static = min(ftl.exported_pages, 2 * hot)

    oracle = TransactionOracle()
    committed = {}
    for lpn in range(static):
        value = ("base", lpn)
        ftl.write(lpn, value)
        committed[lpn] = value
    ftl.barrier()
    # Churn the space down to the GC watermarks before arming: repeated
    # overwrites drain the free pools and age the erase counts, so the
    # armed window runs against a collector that is actually working —
    # on victims that interleave churned (invalid) and static (valid)
    # pages.
    for round_ in range(6):
        for lpn in range(hot):
            value = ("churn", round_, lpn)
            ftl.write(lpn, value)
            committed[lpn] = value
    ftl.barrier()
    for lpn, value in committed.items():
        oracle.note_baseline(lpn, value)

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            if rng.random() < 0.5:
                # A batch committed as a group: gc.* points firing inside a
                # member's writes land mid-copyback with the rest of the
                # group still pending.
                group: list[int] = []
                for _ in range(rng.randrange(2, 4)):
                    tid += 1
                    for _ in range(rng.randrange(1, 3)):
                        op += 1
                        lpn = rng.randrange(hot)
                        value = ("t", tid, op)
                        oracle.note_tx_write(tid, lpn, value)
                        ftl.write_tx(tid, lpn, value)
                    if rng.random() < 0.2:
                        ftl.abort(tid)
                        oracle.note_aborted(tid)
                    else:
                        group.append(tid)
                for member in group:
                    oracle.note_commit_started(member)
                ftl.commit_group(group)
                for member in group:
                    oracle.note_committed(member)
            else:
                tid += 1
                for _ in range(rng.randrange(1, 4)):
                    op += 1
                    lpn = rng.randrange(hot)
                    value = ("t", tid, op)
                    oracle.note_tx_write(tid, lpn, value)
                    ftl.write_tx(tid, lpn, value)
                if rng.random() < 0.25:
                    ftl.abort(tid)
                    oracle.note_aborted(tid)
                else:
                    oracle.note_commit_started(tid)
                    ftl.commit(tid)
                    oracle.note_committed(tid)
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()

    ftl.remount()
    ftl.check_invariants()
    return fired, op, oracle.check(ftl.read)


# ----------------------------------------------------------------- mvcc

# Background GC over the same tight two-channel device, plus multi-version
# retention: superseded committed copies stay live under version chains, a
# pinned snapshot holds its floor across the armed window, and the
# ``ftl.mvcc`` points land power loss between a version's publish (chain
# push pending) and its release (deferred invalidation pending).
_MVCC_CONFIG = FtlConfig(
    overprovision=0.25,
    map_entries_per_page=32,
    barrier_meta_pages=1,
    xl2p_capacity=64,
    gc_mode="background",
    gc_policy="cost-benefit",
    gc_background_watermark=3,
    gc_copyback_pages_per_step=2,
    gc_hot_write_threshold=2,
    gc_wear_spread_threshold=2,
    gc_wear_check_interval=4,
    retain_versions=3,
)


def _run_mvcc(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """A pinned AS-OF reader against grouped writers and background GC.

    Four writer lanes group-commit per round while a snapshot pinned
    before the armed window keeps reading its frozen view — which must
    not move no matter how many commits land on top of it or how far GC
    relocates its retained version pages.  Crashes at the ``ftl.mvcc``
    points (and every lower layer's) must never orphan a version page
    (owned but absent from every chain) or double-free one (released yet
    still chained): ``check_invariants`` cross-checks owner records
    against chain membership one-for-one after remount, and the
    transaction oracle holds the current state to the usual
    all-or-nothing contract.  A crash may shrink retention depth (the
    floor is host DRAM state), but never snapshot integrity.
    """
    plan = CrashPlan()
    ftl = XFTL(FlashArray(_GC_GEOMETRY, crash_plan=plan), _MVCC_CONFIG)
    rng = make_rng(seed, "verify.ftl.mvcc")
    hot = min(ftl.exported_pages // 2, 24)

    oracle = TransactionOracle()
    committed: dict = {}
    tid = 0
    for lpn in range(hot):
        value = ("base", lpn)
        ftl.write(lpn, value)
        committed[lpn] = value
    ftl.barrier()
    # Warm-up group commits grow version chains before the point arms, so
    # GC already has retained versions to relocate in the armed window.
    for round_ in range(2):
        group: list[int] = []
        for _ in range(4):
            tid += 1
            lpn = rng.randrange(hot)
            value = ("warm", round_, tid)
            ftl.write_tx(tid, lpn, value)
            committed[lpn] = value
            group.append(tid)
        ftl.commit_group(group)
    ftl.barrier()
    for lpn, value in committed.items():
        oracle.note_baseline(lpn, value)

    # The AS-OF reader: pin the pre-window epoch and freeze its view.
    snap = ftl.snapshot_seq()
    frozen = dict(committed)
    ftl.set_snapshot_floor(snap)

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    stale: list[str] = []
    try:
        while op < ops_limit:
            group = []
            for _ in range(4):  # >= 4 concurrent writer lanes per group
                tid += 1
                for _ in range(rng.randrange(1, 3)):
                    op += 1
                    lpn = rng.randrange(hot)
                    value = ("t", tid, op)
                    oracle.note_tx_write(tid, lpn, value)
                    ftl.write_tx(tid, lpn, value)
                if rng.random() < 0.15:
                    ftl.abort(tid)
                    oracle.note_aborted(tid)
                else:
                    group.append(tid)
            for member in group:
                oracle.note_commit_started(member)
            ftl.commit_group(group)
            for member in group:
                oracle.note_committed(member)
            for _ in range(2):
                lpn = rng.randrange(hot)
                seen = ftl.read_as_of(lpn, snap)
                if seen != frozen.get(lpn):
                    stale.append(
                        f"snapshot {snap} moved: lpn {lpn} read {seen!r}, "
                        f"pinned {frozen.get(lpn)!r}"
                    )
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        ftl.power_fail()

    ftl.remount()
    ftl.check_invariants()
    return fired, op, stale + oracle.check(ftl.read)


# ------------------------------------------------------------ device queue

# Two channels so queued commands genuinely overlap; small enough that GC
# and the queue crash points interleave within the ops budget.
_QUEUE_GEOMETRY = FlashGeometry(
    page_size=512, pages_per_block=8, num_blocks=24, channels=2
)
_QUEUE_DEPTH = 4


def _run_device_queue(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """Plain writes through an NCQ device: crash with commands in flight."""
    plan = CrashPlan()
    ftl = PageMappingFTL(FlashArray(_QUEUE_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    device = StorageDevice(ftl, queue_depth=_QUEUE_DEPTH)
    rng = make_rng(seed, "verify.device.queue")
    oracle = PlainWriteOracle()
    hot = min(ftl.exported_pages, 24)

    for lpn in range(hot):
        device.write(lpn, ("base", lpn))
        oracle.note_write(lpn, ("base", lpn))
    device.flush()
    oracle.note_durable()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    try:
        for op in range(1, ops_limit + 1):
            lpn = rng.randrange(hot)
            value = ("v", op)
            oracle.note_write(lpn, value)  # attempted: may survive the crash
            device.write(lpn, value)
            if op % 7 == 0:
                device.flush()
                oracle.note_durable()
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        device.power_off()

    device.power_on()
    ftl.check_invariants()
    violations = oracle.check(ftl.read)
    for lpn in range(hot, min(hot + 4, ftl.exported_pages)):
        if ftl.read(lpn) is not None:
            violations.append(f"lpn {lpn}: never written but reads {ftl.read(lpn)!r}")
    return fired, op, violations


def _run_device_queue_epoch(
    point, after, tear, seed, ops_limit
) -> tuple[bool, int, list[str]]:
    """Barrier-enabled NCQ device: order-only barriers with commands in flight.

    Plain writes, barrier writes and order-only barriers interleave so the
    ``dev.queue.epoch`` point fires against a live queue; only the explicit
    flushes raise the oracle's durable floor (everything in between is
    acknowledged-but-unflushed, exactly like the drain-mode contract).  The
    per-epoch completion envelopes are sampled along the way: a command of
    epoch N completing before the end of epoch N-1 would be the reordering
    the dispatch floor exists to prevent.
    """
    plan = CrashPlan()
    ftl = PageMappingFTL(FlashArray(_QUEUE_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    device = StorageDevice(ftl, queue_depth=_QUEUE_DEPTH, barrier_mode=True)
    rng = make_rng(seed, "verify.device.queue.epoch")
    oracle = PlainWriteOracle()
    hot = min(ftl.exported_pages, 24)
    violations: list[str] = []

    def check_epoch_order() -> None:
        bounds = device.queue.epoch_bounds()
        for (e1, _lo1, hi1), (e2, lo2, _hi2) in zip(bounds, bounds[1:]):
            if lo2 < hi1:
                violations.append(
                    f"epoch order violated: epoch {e2} completes at {lo2} "
                    f"before epoch {e1} ends at {hi1}"
                )

    for lpn in range(hot):
        device.write(lpn, ("base", lpn))
        oracle.note_write(lpn, ("base", lpn))
    device.flush()
    oracle.note_durable()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    try:
        for op in range(1, ops_limit + 1):
            lpn = rng.randrange(hot)
            value = ("v", op)
            oracle.note_write(lpn, value)  # attempted: may survive the crash
            if op % 5 == 0:
                device.write_barrier(lpn, value)  # ordered, no drain
            else:
                device.write(lpn, value)
            if op % 3 == 0:
                device.barrier()  # order-only: the floor does NOT move
            if op % 11 == 0:
                check_epoch_order()
                device.flush()  # the layer's only real durability points
                oracle.note_durable()
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        check_epoch_order()
        device.power_off()

    device.power_on()
    ftl.check_invariants()
    violations.extend(oracle.check(ftl.read))
    for lpn in range(hot, min(hot + 4, ftl.exported_pages)):
        if ftl.read(lpn) is not None:
            violations.append(f"lpn {lpn}: never written but reads {ftl.read(lpn)!r}")
    return fired, op, violations


def _run_xftl_queue(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """Transactions through an NCQ device: commit barriers vs. a live queue."""
    plan = CrashPlan()
    ftl = XFTL(FlashArray(_QUEUE_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    device = StorageDevice(ftl, queue_depth=_QUEUE_DEPTH)
    rng = make_rng(seed, "verify.device.queue.xftl")
    hot = min(ftl.exported_pages, 24)

    oracle = TransactionOracle()
    for lpn in range(hot):
        device.write(lpn, ("base", lpn))
        oracle.note_baseline(lpn, ("base", lpn))
    device.flush()

    plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            tid += 1
            for _ in range(rng.randrange(1, 4)):
                op += 1
                lpn = rng.randrange(hot)
                value = ("t", tid, op)
                oracle.note_tx_write(tid, lpn, value)
                device.write_tx(tid, lpn, value)
            if rng.random() < 0.2:
                device.abort(tid)
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                device.commit(tid)
                oracle.note_committed(tid)
    except PowerFailure:
        fired = True
    else:
        plan.disarm_all()
        device.power_off()

    device.power_on()
    ftl.check_invariants()
    return fired, op, oracle.check(ftl.read)


# ---------------------------------------------------------------------- fs

_FS_STACK = dict(
    num_blocks=96,
    pages_per_block=16,
    page_size=1024,
    journal_pages=32,
    fs_cache_pages=64,
    max_inodes=8,
    ftl=FtlConfig(overprovision=0.2, map_entries_per_page=64, barrier_meta_pages=1),
)


def _run_ext4(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    stack = build_stack(StackConfig(mode=Mode.FS_ORDERED, **_FS_STACK))
    rng = make_rng(seed, "verify.ext4")
    oracle = PlainWriteOracle()
    n_pages = 12

    handle = stack.fs.create("data.bin")
    for index in range(n_pages):
        handle.write_page(index, ("base", index))
        oracle.note_write(index, ("base", index))
    stack.fs.fsync(handle)
    oracle.note_durable()

    stack.crash_plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    try:
        for op in range(1, ops_limit + 1):
            index = rng.randrange(n_pages)
            value = ("v", op)
            oracle.note_write(index, value)  # attempted: may survive the crash
            handle.write_page(index, value)
            if op % 5 == 0:
                stack.fs.fsync(handle)
                oracle.note_durable()
    except PowerFailure:
        fired = True
    else:
        stack.crash_plan.disarm_all()
        stack.device.power_off()

    stack.remount_after_crash()
    stack.ftl.check_invariants()
    violations: list[str] = []
    if not stack.fs.exists("data.bin"):
        violations.append("data.bin vanished: fsynced file lost by recovery")
        return fired, op, violations
    recovered = stack.fs.open("data.bin")

    def read(index):
        page = recovered.read_page(index)
        # Strip the baseline/overwrite payload as written.
        return page

    violations.extend(oracle.check(read))
    return fired, op, violations


# Same file-system stack, but barrier-enabled over a queued two-channel
# device: ordering points become order-only epoch closes and the journal's
# commit pages ride BARRIER_WRITE.
_FS_BARRIER_STACK = dict(
    _FS_STACK,
    channels=2,
    queue_depth=_QUEUE_DEPTH,
    barrier_mode=True,
)


def _run_ext4_barrier(point, after, tear, seed, ops_limit) -> tuple[bool, int, list[str]]:
    """fbarrier-driven ext4 on a barrier-mode device: order-only fsyncs.

    Data and journal frames are only *ordered* (epoch closes, barrier
    writes) — nothing waits — so the durable floor moves only at the
    explicit device flushes.  A crash anywhere (``dev.queue.epoch``,
    ``fs.fsync.mid``, every flash point) must remount to floor-or-later
    values: the commit page being order-guaranteed after its frame body is
    exactly what keeps the journal replayable without the two drains.
    """
    stack = build_stack(StackConfig(mode=Mode.FS_ORDERED, **_FS_BARRIER_STACK))
    rng = make_rng(seed, "verify.ext4.barrier")
    oracle = PlainWriteOracle()
    n_pages = 12

    handle = stack.fs.create("data.bin")
    for index in range(n_pages):
        handle.write_page(index, ("base", index))
        oracle.note_write(index, ("base", index))
    stack.fs.fsync(handle)
    stack.device.flush()  # the fsync above is order-only; force a floor
    oracle.note_durable()

    stack.crash_plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    try:
        for op in range(1, ops_limit + 1):
            index = rng.randrange(n_pages)
            value = ("v", op)
            oracle.note_write(index, value)  # attempted: may survive the crash
            handle.write_page(index, value)
            if op % 4 == 0:
                stack.fs.fbarrier(handle)  # order-only: floor unchanged
            if op % 9 == 0:
                stack.fs.fsync(handle)
                stack.device.flush()
                oracle.note_durable()
    except PowerFailure:
        fired = True
    else:
        stack.crash_plan.disarm_all()
        stack.device.power_off()

    stack.remount_after_crash()
    stack.ftl.check_invariants()
    violations: list[str] = []
    if not stack.fs.exists("data.bin"):
        violations.append("data.bin vanished: flushed file lost by recovery")
        return fired, op, violations
    recovered = stack.fs.open("data.bin")
    violations.extend(oracle.check(recovered.read_page))
    return fired, op, violations


# ------------------------------------------------------------------ sqlite

_SQLITE_STACK = dict(
    num_blocks=160,
    pages_per_block=32,
    page_size=4096,
    journal_pages=64,
    fs_cache_pages=256,
    max_inodes=16,
    ftl=FtlConfig(overprovision=0.2, map_entries_per_page=256, barrier_meta_pages=1),
)
_N_ROWS = 10


def _run_sqlite(mode: Mode, point, after, tear, seed, ops_limit):
    stack = build_stack(StackConfig(mode=mode, **_SQLITE_STACK))
    rng = make_rng(seed, f"verify.sqlite.{mode.value}")

    db = stack.open_database("verify.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("BEGIN")
    for row in range(1, _N_ROWS + 1):
        db.execute("INSERT INTO t VALUES (?, 0)", (row,))
    db.execute("COMMIT")
    oracle = TransactionOracle({row: 0 for row in range(1, _N_ROWS + 1)})

    stack.crash_plan.arm(point, after=after, tear_page=tear)
    fired = False
    op = 0
    tid = 0
    try:
        while op < ops_limit:
            tid += 1
            db.execute("BEGIN")
            for _ in range(rng.randrange(1, 4)):
                op += 1
                row = rng.randrange(1, _N_ROWS + 1)
                value = tid * 1000 + op
                oracle.note_tx_write(tid, row, value)
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value, row))
            if rng.random() < 0.2:
                db.execute("ROLLBACK")
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                db.execute("COMMIT")
                oracle.note_committed(tid)
    except PowerFailure:
        fired = True
    else:
        stack.crash_plan.disarm_all()
        stack.device.power_off()

    stack.remount_after_crash()
    stack.ftl.check_invariants()
    violations: list[str] = []
    db2 = stack.open_database("verify.db")
    rows = dict(db2.execute("SELECT id, v FROM t"))
    if set(rows) != set(range(1, _N_ROWS + 1)):
        violations.append(f"row set changed: recovered ids {sorted(rows)!r}")
    violations.extend(oracle.check(lambda row: rows.get(row)))
    return fired, op, violations


def _run_sqlite_concurrent(point, after, tear, seed, ops_limit):
    """Two sessions interleave SQL transactions over one X-FTL device.

    Each session owns its own database (SQLite locks per file); their
    COMMITs defer and coalesce through the SessionScheduler's group
    commit, so crashes land between staged transactions, during the
    group's X-L2P flush, and at the publish point — with the oracle
    holding both databases to the all-or-nothing contract at once.
    """
    from repro.stack import SessionScheduler

    stack = build_stack(StackConfig(mode=Mode.XFTL, **_SQLITE_STACK))
    n_dbs = 2
    scheduler = SessionScheduler(stack)
    dbs = []
    baseline: dict = {}
    for index in range(n_dbs):
        session = stack.open_session(name=f"verify{index}")
        db = session.open_database(f"verify_{index}.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("BEGIN")
        for row in range(1, _N_ROWS + 1):
            db.execute("INSERT INTO t VALUES (?, 0)", (row,))
        db.execute("COMMIT")
        for row in range(1, _N_ROWS + 1):
            baseline[(index, row)] = 0
        dbs.append(db)
    oracle = TransactionOracle(baseline)
    for db in dbs:
        scheduler.prepare(db)

    stack.crash_plan.arm(point, after=after, tear_page=tear)
    fired = False
    ops = [0]  # shared across tasks: the limit bounds total work
    next_tid = [0]

    def terminal(index: int, db):
        rng = make_rng(seed, "verify.sqlite.concurrent", index)
        while ops[0] < ops_limit:
            next_tid[0] += 1
            tid = next_tid[0]
            db.execute("BEGIN")
            for _ in range(rng.randrange(1, 4)):
                ops[0] += 1
                row = rng.randrange(1, _N_ROWS + 1)
                value = tid * 1000 + ops[0]
                oracle.note_tx_write(tid, (index, row), value)
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value, row))
            if rng.random() < 0.2:
                db.execute("ROLLBACK")
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                db.execute("COMMIT")  # stages (deferred); parks until the group
                yield scheduler.commit_token(db)
                oracle.note_committed(tid)
            yield None

    try:
        scheduler.run(terminal(index, db) for index, db in enumerate(dbs))
    except PowerFailure:
        fired = True
    else:
        stack.crash_plan.disarm_all()
        stack.device.power_off()

    stack.remount_after_crash()
    stack.ftl.check_invariants()
    violations: list[str] = []
    recovered: dict = {}
    for index in range(n_dbs):
        db2 = stack.open_database(f"verify_{index}.db")
        rows = dict(db2.execute("SELECT id, v FROM t"))
        if set(rows) != set(range(1, _N_ROWS + 1)):
            violations.append(f"db {index}: row set changed: ids {sorted(rows)!r}")
        for row, value in rows.items():
            recovered[(index, row)] = value
    violations.extend(oracle.check(lambda key: recovered.get(key)))
    return fired, ops[0], violations


def _run_tenant_stack(point, after, tear, seed, ops_limit):
    """Two tenants share one X-FTL device through the tenant scheduler.

    The multi-tenant edge the single-stack sweep cannot reach: a crash
    landing mid-commit of tenant A's transaction must leave tenant B's
    namespace transactionally intact (and vice versa — the oracle holds
    both to the all-or-nothing contract at once).  Runs under the deficit
    fairness policy so the DRR scheduling path itself is exercised under
    power failure; tenant A gets two sessions (weight 2) so crashes also
    land inside cross-tenant group commits.
    """
    from repro.stack import TenantScheduler

    stack = build_stack(StackConfig(mode=Mode.XFTL, **_SQLITE_STACK))
    scheduler = TenantScheduler(stack, fairness="deficit")
    alpha = stack.open_tenant("alpha", weight=2)
    beta = stack.open_tenant("beta", weight=1)

    baseline: dict = {}
    dbs: list = []  # (lane index, tenant, db)
    lanes = ((alpha, 2), (beta, 1))
    lane_index = 0
    for tenant, n_sessions in lanes:
        for _ in range(n_sessions):
            session = tenant.open_session()
            db = tenant.open_database(f"verify_{lane_index}.db", session=session)
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            db.execute("BEGIN")
            for row in range(1, _N_ROWS + 1):
                db.execute("INSERT INTO t VALUES (?, 0)", (row,))
            db.execute("COMMIT")
            for row in range(1, _N_ROWS + 1):
                baseline[(lane_index, row)] = 0
            dbs.append((lane_index, tenant, db))
            lane_index += 1
    oracle = TransactionOracle(baseline)
    for _, _, db in dbs:
        scheduler.prepare(db)

    stack.crash_plan.arm(point, after=after, tear_page=tear)
    fired = False
    ops = [0]
    next_tid = [0]

    def terminal(index: int, db):
        rng = make_rng(seed, "verify.stack.tenant", index)
        while ops[0] < ops_limit:
            next_tid[0] += 1
            tid = next_tid[0]
            db.execute("BEGIN")
            for _ in range(rng.randrange(1, 4)):
                ops[0] += 1
                row = rng.randrange(1, _N_ROWS + 1)
                value = tid * 1000 + ops[0]
                oracle.note_tx_write(tid, (index, row), value)
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value, row))
            if rng.random() < 0.2:
                db.execute("ROLLBACK")
                oracle.note_aborted(tid)
            else:
                oracle.note_commit_started(tid)
                db.execute("COMMIT")  # stages (deferred); parks until the group
                yield scheduler.commit_token(db)
                oracle.note_committed(tid)
            yield None

    for tenant, _ in lanes:
        scheduler.add(
            tenant,
            [terminal(index, db) for index, owner, db in dbs if owner is tenant],
        )
    try:
        scheduler.run()
    except PowerFailure:
        fired = True
    else:
        stack.crash_plan.disarm_all()
        stack.device.power_off()

    stack.remount_after_crash()
    stack.ftl.check_invariants()
    violations: list[str] = []
    recovered: dict = {}
    for index, tenant, _ in dbs:
        db2 = stack.open_database(tenant.path(f"verify_{index}.db"))
        rows = dict(db2.execute("SELECT id, v FROM t"))
        if set(rows) != set(range(1, _N_ROWS + 1)):
            violations.append(
                f"tenant {tenant.name} db {index}: row set changed: "
                f"ids {sorted(rows)!r}"
            )
        for row, value in rows.items():
            recovered[(index, row)] = value
    violations.extend(oracle.check(lambda key: recovered.get(key)))
    return fired, ops[0], violations


# ------------------------------------------------------------------ layers


@dataclass(frozen=True)
class Layer:
    """A verifiable stack configuration and the crash points it can reach."""

    name: str
    components: tuple[str, ...]
    run: Callable  # (point, after, tear, seed, ops_limit) -> (fired, ops, violations)


LAYERS: dict[str, Layer] = {
    layer.name: layer
    for layer in (
        Layer("ftl.pagemap", ("flash", "ftl.pagemap"), _run_pagemap),
        Layer("ftl.xftl", ("flash", "ftl.pagemap", "ftl.xftl"), _run_xftl),
        Layer(
            "ftl.xftl.group",
            ("flash", "ftl.pagemap", "ftl.xftl"),
            _run_xftl_group,
        ),
        Layer(
            "ftl.gc",
            ("flash", "ftl.pagemap", "ftl.xftl", "ftl.gc"),
            lambda *a: _run_gc(_GC_CONFIG, *a),
        ),
        Layer(
            "ftl.gc.inline",
            ("flash", "ftl.pagemap", "ftl.xftl", "ftl.gc"),
            lambda *a: _run_gc(_GC_INLINE_CONFIG, *a),
        ),
        Layer("ftl.cmt", ("ftl.cmt",), _run_cmt),
        Layer(
            "device.queue",
            ("flash", "ftl.pagemap", "device.queue"),
            _run_device_queue,
        ),
        Layer(
            "device.queue.xftl",
            ("flash", "ftl.pagemap", "ftl.xftl", "device.queue"),
            _run_xftl_queue,
        ),
        Layer(
            "dev.queue.epoch",
            ("flash", "ftl.pagemap", "device.queue"),
            _run_device_queue_epoch,
        ),
        Layer("fs.ext4", ("flash", "ftl.pagemap", "fs.ext4"), _run_ext4),
        Layer(
            "fs.barrier",
            ("flash", "ftl.pagemap", "device.queue", "fs.ext4"),
            _run_ext4_barrier,
        ),
        Layer(
            "sqlite.xftl",
            ("flash", "ftl.pagemap", "ftl.xftl", "fs.ext4"),
            lambda *a: _run_sqlite(Mode.XFTL, *a),
        ),
        Layer(
            "sqlite.rbj",
            ("flash", "ftl.pagemap", "fs.ext4", "sqlite.pager"),
            lambda *a: _run_sqlite(Mode.RBJ, *a),
        ),
        Layer(
            "sqlite.concurrent",
            ("flash", "ftl.pagemap", "ftl.xftl", "fs.ext4"),
            _run_sqlite_concurrent,
        ),
        Layer(
            "stack.tenant",
            ("flash", "ftl.pagemap", "ftl.xftl", "fs.ext4"),
            _run_tenant_stack,
        ),
        Layer(
            "ftl.mvcc",
            ("flash", "ftl.pagemap", "ftl.xftl", "ftl.gc", "ftl.mvcc"),
            _run_mvcc,
        ),
    )
}


def run_scenario(
    layer: str,
    point: str,
    after: int = 1,
    tear: bool = False,
    seed: int = 0,
    ops_limit: int = 40,
) -> ScenarioResult:
    """Run one armed scenario end to end and judge its recovery."""
    driver = LAYERS[layer]
    try:
        fired, ops_run, violations = driver.run(point, after, tear, seed, ops_limit)
    except PowerFailure:
        raise  # never legal outside the workload window
    except ReproError as exc:
        # A crash-induced error escaping the recovery path is itself a bug.
        fired, ops_run = True, 0
        violations = [f"recovery raised {type(exc).__name__}: {exc}"]
    return ScenarioResult(
        layer=layer,
        point=point,
        after=after,
        tear=tear,
        fired=fired,
        ops_run=ops_run,
        violations=violations,
    )
