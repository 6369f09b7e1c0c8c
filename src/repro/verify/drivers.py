"""Crash scenarios: one frame, and a table of the layers it runs on.

Every layer of the stack promises the same thing — after power loss a
transaction's page set is there entirely or not at all, and whatever was
acknowledged durable stays — so every layer is verified by the same
experiment, written once in :func:`run_scenario`:

    build machine → seed a durable baseline and the oracle → arm the crash
    point → drive the workload → (power fails, or the run completes and
    power is cut anyway) → power on / remount → the FTL's invariant check →
    ``oracle.check(read)`` plus the row's extra checks

A :class:`Layer` row of :data:`LAYERS` names the pieces: a machine builder,
a seeding step, one of three workload bodies (plain writes with durability
points, transactions on a block target, SQL transactions) and the read-back
the oracle judges.  Runs are deterministic in ``(seed, ops_limit)``; a run
in which the armed point never fires is reported ``fired=False`` so the
enumerator stops growing that point's occurrence count.
``python -m repro.verify --list-points`` prints each row's description and
the crash points it reaches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Hashable, NamedTuple

from repro.stack import Mode, SessionScheduler, StackConfig, TenantScheduler, build_stack
from repro.device.ssd import StorageDevice
from repro.errors import PowerFailure, ReproError
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


# ---------------------------------------------------------------- geometries

_FTL_GEOMETRY = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
# Two channels so queued commands and GC jobs genuinely overlap; small enough
# that GC and the queue crash points interleave within the ops budget.
_ARRAY_GEOMETRY = replace(_FTL_GEOMETRY, channels=2)
_QUEUE_DEPTH = 4

_FTL_CONFIG = FtlConfig(
    overprovision=0.25, map_entries_per_page=32, barrier_meta_pages=1, xl2p_capacity=64
)
# A demand-paged map on the same tiny device: 16 entries per translation page
# gives several times more segments than the two cache slots, so every phase
# of the workload evicts and fetches.
_CMT_CONFIG = replace(
    _FTL_CONFIG, map_entries_per_page=16, cmt_pages=2, cmt_dirty_batch=1
)
# Tight space, aggressive GC knobs: the seeding churn parks the free pools at
# the background watermark so paced copyback jobs, urgent floor collections
# and wear migrations all interleave with the armed workload.
_GC_CONFIG = replace(
    _FTL_CONFIG,
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
# Background GC plus multi-version retention: superseded committed copies
# stay live under version chains for GC to relocate.
_MVCC_CONFIG = replace(_GC_CONFIG, retain_versions=3)

_FS_STACK = dict(
    num_blocks=96,
    pages_per_block=16,
    page_size=1024,
    journal_pages=32,
    fs_cache_pages=64,
    max_inodes=8,
    ftl=FtlConfig(overprovision=0.2, map_entries_per_page=64, barrier_meta_pages=1),
)
# Barrier-enabled over a queued two-channel device: ordering points become
# order-only epoch closes and the journal's commit pages ride BARRIER_WRITE.
_FS_BARRIER_STACK = dict(
    _FS_STACK, channels=2, queue_depth=_QUEUE_DEPTH, barrier_mode=True
)
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


# ------------------------------------------------------------------ machines


@dataclass
class Machine:
    """A built stack, as far as the frame and the workload bodies know it.

    The rows differ in which object receives the calls and in a handful of
    plain callables; those are bound here once, by the builders below.
    """

    plan: CrashPlan
    ftl: PageMappingFTL  # invariants are checked (and block rows read back) here
    target: Any  # what transactions drive: an FTL, a StorageDevice or a stack
    write: Callable[[Hashable, Any], None]  # one plain write
    sync: Callable[[], None]  # durability point: raises the oracle's floor
    power_off: Callable[[], None]
    power_on: Callable[[], None]
    order: Callable[[], None] | None = None  # order-only point: floor unchanged
    write_ordered: Callable[[Hashable, Any], None] | None = None
    probe: Callable[[], list[str]] | None = None  # extra check while running


def _bare(ftl_cls, geometry=_FTL_GEOMETRY, config=_FTL_CONFIG) -> Machine:
    """An FTL driven directly: ``barrier`` is the durability point."""
    plan = CrashPlan()
    ftl = ftl_cls(FlashChip(geometry, crash_plan=plan), config)
    return Machine(plan, ftl, ftl, ftl.write, ftl.barrier, ftl.power_fail, ftl.remount)


def _queued(ftl_cls, barrier_mode: bool = False) -> Machine:
    """The same FTL behind an NCQ device over a two-channel chip."""
    plan = CrashPlan()
    ftl = ftl_cls(FlashChip(_ARRAY_GEOMETRY, crash_plan=plan), _FTL_CONFIG)
    device = StorageDevice(ftl, queue_depth=_QUEUE_DEPTH, barrier_mode=barrier_mode)

    def epoch_order() -> list[str]:
        # A command of epoch N completing before the end of epoch N-1 is the
        # reordering the dispatch floor exists to prevent.
        bounds = device.queue.epoch_bounds()
        return [
            f"epoch order violated: epoch {e2} completes at {lo2} "
            f"before epoch {e1} ends at {hi1}"
            for (e1, _lo1, hi1), (e2, lo2, _hi2) in zip(bounds, bounds[1:])
            if lo2 < hi1
        ]

    return Machine(
        plan,
        ftl,
        device,
        device.write,
        device.flush,
        device.power_off,
        device.power_on,
        order=device.barrier,
        write_ordered=device.write_barrier,
        probe=epoch_order if barrier_mode else None,
    )


def _stack_machine(stack, write=None, sync=None, order=None) -> Machine:
    return Machine(
        stack.crash_plan,
        stack.ftl,
        stack,
        write,
        sync,
        stack.device.power_off,
        stack.remount_after_crash,
        order=order,
    )


def _file_stack(barrier: bool = False) -> Machine:
    """Ordered-journal ext4 with one open file; keys are its page indexes."""
    stack = build_stack(
        StackConfig(mode=Mode.FS_ORDERED, **(_FS_BARRIER_STACK if barrier else _FS_STACK))
    )
    handle = stack.fs.create("data.bin")

    def sync() -> None:
        stack.fs.fsync(handle)
        if barrier:
            stack.device.flush()  # that fsync was order-only; force a floor

    return _stack_machine(
        stack, handle.write_page, sync, order=lambda: stack.fs.fbarrier(handle)
    )


def _sqlite_stack(mode: Mode) -> Machine:
    return _stack_machine(build_stack(StackConfig(mode=mode, **_SQLITE_STACK)))


# ----------------------------------------------------------------- scenario


@dataclass
class Run:
    """One scenario's moving parts, handed to each of the row's pieces."""

    row: Layer
    seed: int
    ops_limit: int
    rng: random.Random
    machine: Machine | None = None
    baseline: dict | None = None  # durable contents when the point is armed
    oracle: PlainWriteOracle | TransactionOracle | None = None
    ops: int = 0
    tid: int = 0
    violations: list[str] = field(default_factory=list)
    snapshot: int | None = None  # ftl.mvcc: the commit sequence the AS-OF reader pinned
    sql: SqlLanes | None = None  # SQL rows: the open connections and their scheduler


def _durable_floor(baseline: dict) -> PlainWriteOracle:
    oracle = PlainWriteOracle()
    for key, value in baseline.items():
        oracle.note_write(key, value)
    oracle.note_durable()
    return oracle


# ------------------------------------------------------------------ seeding


def _seed_pages(run: Run, extent: int | None = None, churn: int = 0) -> dict:
    """Write keys ``0..extent`` once, sync, then ``churn`` rounds over the hot set.

    The churn (GC rows) drains the free pools and ages the erase counts, so
    the armed window runs against a collector that is actually working — on
    victims that interleave churned (invalid) pages with the static tail
    beyond the hot set, which only GC copybacks and wear migrations move.
    """
    m, hot = run.machine, run.row.hot
    committed = {key: ("base", key) for key in range(extent or hot)}
    for key, value in committed.items():
        m.write(key, value)
    m.sync()
    if churn:
        for round_ in range(churn):
            for key in range(hot):
                committed[key] = ("churn", round_, key)
                m.write(key, committed[key])
        m.sync()
    return committed


def _seed_versions(run: Run) -> dict:
    """Grow version chains with warm-up group commits, then pin a snapshot."""
    committed = _seed_pages(run)
    ftl = run.machine.target
    for round_ in range(2):
        group = []
        for _ in range(4):
            run.tid += 1
            lpn = run.rng.randrange(run.row.hot)
            committed[lpn] = ("warm", round_, run.tid)
            ftl.write_tx(run.tid, lpn, committed[lpn])
            group.append(run.tid)
        ftl.commit_group(group)
    ftl.barrier()
    # The AS-OF reader: pin the pre-window epoch; its view is the baseline.
    run.snapshot = ftl.snapshot_seq()
    ftl.set_snapshot_floor(run.snapshot)
    return committed


class Lane(NamedTuple):
    index: int | None  # None: the row's only connection, keyed by row id alone
    label: str
    path: str  # where recovery reopens the database
    db: Any

    def key(self, row: int) -> Hashable:
        return row if self.index is None else (self.index, row)


class SqlLanes(NamedTuple):
    lanes: list[Lane]
    drive: Callable[[list], None]  # runs the lanes' session generators
    commit_token: Callable[[Any], Any]


def _new_table(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("BEGIN")
    for row in range(1, _N_ROWS + 1):
        db.execute("INSERT INTO t VALUES (?, 0)", (row,))
    db.execute("COMMIT")
    return db


def _drain(sessions: list) -> None:
    for session in sessions:
        for _ in session:
            pass


def _one_connection(stack, **options) -> SqlLanes:
    db = _new_table(stack.open_database("verify.db", **options))
    return SqlLanes([Lane(None, "", "verify.db", db)], _drain, lambda db: None)


def _wal_connection(stack) -> SqlLanes:
    """A one-page pager cache and a checkpoint every eighth frame, over a
    settled machine: the table checkpointed home, the ext4 journal too."""
    lanes = _one_connection(stack, cache_pages=1, checkpoint_interval=8)
    lanes.lanes[0].db.pager.checkpoint()
    stack.fs.journal.checkpoint()
    return lanes


def _two_sessions(stack) -> SqlLanes:
    """Each session owns its own database (SQLite locks per file)."""
    scheduler = SessionScheduler(stack)
    lanes = []
    for index in range(2):
        session = stack.open_session(name=f"verify{index}")
        path = f"verify_{index}.db"
        db = _new_table(session.open_database(path))
        lanes.append(Lane(index, f"db {index}: ", path, db))
    for lane in lanes:
        scheduler.prepare(lane.db)
    return SqlLanes(lanes, scheduler.run, scheduler.commit_token)


def _two_tenants(stack) -> SqlLanes:
    """Deficit fairness, so the DRR path itself runs under power failure.

    Tenant alpha gets two sessions so crashes also land inside cross-tenant
    group commits.
    """
    scheduler = TenantScheduler(stack, fairness="deficit")
    tenants = (stack.open_tenant("alpha", weight=2), stack.open_tenant("beta", weight=1))
    lanes, owners = [], []
    for tenant, n_sessions in zip(tenants, (2, 1)):
        for _ in range(n_sessions):
            index = len(lanes)
            name = f"verify_{index}.db"
            db = _new_table(tenant.open_database(name, session=tenant.open_session()))
            label = f"tenant {tenant.name} db {index}: "
            lanes.append(Lane(index, label, tenant.path(name), db))
            owners.append(tenant)
    for lane in lanes:
        scheduler.prepare(lane.db)

    def drive(sessions: list) -> None:
        for tenant in tenants:
            scheduler.add(
                tenant, [s for s, owner in zip(sessions, owners) if owner is tenant]
            )
        scheduler.run()

    return SqlLanes(lanes, drive, scheduler.commit_token)


def _seed_tables(run: Run, open_lanes: Callable[[Any], SqlLanes]) -> dict:
    run.sql = open_lanes(run.machine.target)
    return {
        lane.key(row): 0 for lane in run.sql.lanes for row in range(1, _N_ROWS + 1)
    }


# ---------------------------------------------------------------- workloads


def _plain_writes(
    run: Run, durable_every: int, order_every: int = 0, ordered_write_every: int = 0
) -> None:
    """Overwrite random hot keys with a durability point every n-th op.

    Everything between two durability points is acknowledged but unflushed.
    The order-only calls of the barrier rows (every ``order_every``-th op an
    order point, every ``ordered_write_every``-th write an ordered one) wait
    for nothing and do not move the oracle's floor.
    """
    m, oracle = run.machine, run.oracle
    for op in range(1, run.ops_limit + 1):
        run.ops = op
        key = run.rng.randrange(run.row.hot)
        value = ("v", op)
        oracle.note_write(key, value)  # attempted: may survive the crash
        if ordered_write_every and op % ordered_write_every == 0:
            m.write_ordered(key, value)
        else:
            m.write(key, value)
        if order_every and op % order_every == 0:
            m.order()
        if op % durable_every == 0:
            if m.probe:
                run.violations += m.probe()
            m.sync()
            oracle.note_durable()
    if m.probe:
        run.violations += m.probe()


@dataclass(frozen=True)
class Commit:
    """Shape of one commit: who rides it and what each transaction does.

    Ranges are inclusive; a one-value range draws nothing from the RNG.
    """

    group: tuple[int, int] | None  # transactions per commit_group; None: commit(t)
    writes: tuple[int, int] = (1, 3)
    abort_p: float = 0.2


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    return lo if lo == hi else rng.randrange(lo, hi + 1)


def _block_txns(
    run: Run, shapes: tuple[Commit, ...], between: Callable[[Run], None] | None = None
) -> None:
    """write_tx / abort / commit / commit_group against ``machine.target``.

    ``XFTL`` and ``StorageDevice`` share that command set, so the FTL-level
    and device-level rows run this one body.  With two ``shapes`` each
    commit is a coin flip between them.  All-or-nothing is judged per
    commit: a crash during a group's single X-L2P flush must leave every
    member undone; after the publish, every member durable.
    """
    target, rng, oracle = run.machine.target, run.rng, run.oracle
    while run.ops < run.ops_limit:
        shape = shapes[0] if len(shapes) == 1 or rng.random() < 0.5 else shapes[1]
        members: list[int] = []
        for _ in range(_draw(rng, *(shape.group or (1, 1)))):
            run.tid += 1
            tid = run.tid
            for _ in range(_draw(rng, *shape.writes)):
                run.ops += 1
                lpn = rng.randrange(run.row.hot)
                value = ("t", tid, run.ops)
                oracle.note_tx_write(tid, lpn, value)
                target.write_tx(tid, lpn, value)
            if rng.random() < shape.abort_p:
                target.abort(tid)
                oracle.note_aborted(tid)
            else:
                members.append(tid)
        for tid in members:
            oracle.note_commit_started(tid)
        if shape.group:
            target.commit_group(members)
        elif members:
            target.commit(members[0])
        for tid in members:
            oracle.note_committed(tid)
        if between:
            between(run)


_SINGLE = (Commit(group=None),)


def _cache_churn(run: Run) -> None:
    """Reads churn the CMT between transactions, so dirty writebacks also
    happen outside any commit window; the occasional barrier then runs the
    map flush against a cold cache."""
    for _ in range(run.rng.randrange(0, 3)):
        run.machine.target.read(run.rng.randrange(run.row.hot))
    if run.rng.random() < 0.15:
        run.machine.sync()


def _asof_reads(run: Run) -> None:
    """The pinned reader's view must not move, however many commits land on
    top of it or however far GC relocates its retained version pages."""
    for _ in range(2):
        lpn = run.rng.randrange(run.row.hot)
        seen = run.machine.target.read_as_of(lpn, run.snapshot)
        if seen != run.baseline.get(lpn):
            run.violations.append(
                f"snapshot {run.snapshot} moved: lpn {lpn} read {seen!r}, "
                f"pinned {run.baseline.get(lpn)!r}"
            )


def _sql_session(run: Run, lane: Lane):
    """BEGIN / 1-3 UPDATEs / ROLLBACK-or-COMMIT, as a scheduler task.

    Lanes share the op budget and the tid counter.  Under a scheduler COMMIT
    only stages (deferred) and the task parks on its commit token until the
    group commits; a lone connection commits inline and its token is None.
    """
    labels = () if lane.index is None else (lane.index,)
    rng, oracle, db = make_rng(run.seed, run.row.stream, *labels), run.oracle, lane.db
    while run.ops < run.ops_limit:
        run.tid += 1
        tid = run.tid
        db.execute("BEGIN")
        for _ in range(rng.randrange(1, 4)):
            run.ops += 1
            row = rng.randrange(1, _N_ROWS + 1)
            value = tid * 1000 + run.ops
            oracle.note_tx_write(tid, lane.key(row), value)
            db.execute("UPDATE t SET v = ? WHERE id = ?", (value, row))
        if rng.random() < 0.2:
            db.execute("ROLLBACK")
            oracle.note_aborted(tid)
        else:
            oracle.note_commit_started(tid)
            db.execute("COMMIT")
            yield run.sql.commit_token(db)
            oracle.note_committed(tid)
        yield None


def _sql_txns(run: Run) -> None:
    run.sql.drive([_sql_session(run, lane) for lane in run.sql.lanes])


# ---------------------------------------------------------------- read-back


def _read_pages(run: Run):
    return run.machine.ftl.read


def _read_file(run: Run):
    fs = run.machine.target.fs
    if not fs.exists("data.bin"):
        run.violations.append("data.bin vanished: durable file lost by recovery")
        return None
    return fs.open("data.bin").read_page


def _read_tables(run: Run):
    recovered: dict = {}
    for lane in run.sql.lanes:
        db = run.machine.target.open_database(lane.path)
        rows = dict(db.execute("SELECT id, v FROM t"))
        if set(rows) != set(range(1, _N_ROWS + 1)):
            run.violations.append(
                f"{lane.label}row set changed: recovered ids {sorted(rows)!r}"
            )
        for row, value in rows.items():
            recovered[lane.key(row)] = value
    return recovered.get


# ------------------------------------------------------------------- layers


@dataclass(frozen=True)
class Layer:
    """A verifiable stack configuration: machine × workload × oracle."""

    name: str
    components: tuple[str, ...]  # prefixes of the crash points it can reach
    doc: str
    stream: str  # make_rng label of the workload's draws
    build: Callable[[], Machine]
    workload: Callable[[Run], None]
    seed: Callable[[Run], dict] = _seed_pages  # -> the durable baseline
    oracle: Callable[[dict], Any] = TransactionOracle
    reader: Callable[[Run], Callable | None] = _read_pages
    hot: int = 24  # keys the workload overwrites
    unwritten: range = range(0)  # keys nothing writes: must still read None


def _sql_row(name, components, doc, stream, mode, open_lanes=_one_connection) -> Layer:
    """SQL transactions on the lanes ``open_lanes`` opens on a ``mode`` stack."""
    seed = partial(_seed_tables, open_lanes=open_lanes)
    build = partial(_sqlite_stack, mode)
    return Layer(name, components, doc, stream, build, _sql_txns, seed, reader=_read_tables)


_XFTL_STACK = ("flash", "ftl.pagemap", "ftl.xftl")
# The GC rows: a static tail beyond the hot set, six churn rounds, then a
# coin flip per commit between a group of 2-3 and a single transaction.
_GC_SEED = partial(_seed_pages, extent=48, churn=6)
_GC_MIX = (Commit(group=(2, 3), writes=(1, 2)), Commit(group=None, abort_p=0.25))

LAYERS: dict[str, Layer] = {
    layer.name: layer
    for layer in (
        Layer(
            "ftl.pagemap",
            ("flash", "ftl.pagemap"),
            "plain writes + barriers on the stock FTL",
            stream="verify.pagemap",
            build=partial(_bare, PageMappingFTL),
            workload=partial(_plain_writes, durable_every=7),
            oracle=_durable_floor,
            unwritten=range(24, 28),
        ),
        Layer(
            "ftl.xftl",
            _XFTL_STACK,
            "write_tx / commit / abort transactions on X-FTL",
            stream="verify.xftl",
            build=partial(_bare, XFTL),
            workload=partial(_block_txns, shapes=_SINGLE),
        ),
        Layer(
            "ftl.xftl.group",
            _XFTL_STACK,
            "commit_group batches of 2-3 transactions on X-FTL: crashes during"
            " the group's single X-L2P flush and publish step, which"
            " single-transaction commits never reach",
            stream="verify.xftl.group",
            build=partial(_bare, XFTL),
            workload=partial(_block_txns, shapes=(Commit(group=(2, 3)),)),
        ),
        Layer(
            "ftl.gc",
            _XFTL_STACK + ("ftl.gc",),
            "transactions (plain, grouped, aborted) on X-FTL with background"
            " garbage collection: crashes at every gc.* preemption point of the"
            " paced copyback / wear-leveling jobs must never surface an"
            " uncommitted write or lose a committed one (the X-L2P live-union"
            " invariant), however many pages the job had already relocated",
            stream="verify.ftl.gc",
            build=partial(_bare, XFTL, _ARRAY_GEOMETRY, _GC_CONFIG),
            workload=partial(_block_txns, shapes=_GC_MIX),
            seed=_GC_SEED,
        ),
        Layer(
            "ftl.gc.inline",
            _XFTL_STACK + ("ftl.gc",),
            "the ftl.gc row under the inline FIFO schedule (the paper tables'"
            " collector): crashes after victim selection, between the copybacks"
            " and before the erase of a run-to-completion collection",
            stream="verify.ftl.gc",
            build=partial(_bare, XFTL, _ARRAY_GEOMETRY, _GC_INLINE_CONFIG),
            workload=partial(_block_txns, shapes=_GC_MIX),
            seed=_GC_SEED,
        ),
        Layer(
            "ftl.cmt",
            _XFTL_STACK + ("ftl.cmt",),
            "transactions on X-FTL with a demand-paged mapping whose working"
            " set spans six translation segments against two cache slots:"
            " crashes during CMT fetches, evictions and dirty writebacks,"
            " including those the commit fold causes (the fold makes segments"
            " resident like any L2P update, after the commit is published;"
            " only committed-tid replay makes it durable)",
            stream="verify.ftl.cmt",
            build=partial(_bare, XFTL, config=_CMT_CONFIG),
            workload=partial(_block_txns, shapes=_SINGLE, between=_cache_churn),
            hot=96,
        ),
        Layer(
            "device.queue",
            ("flash", "ftl.pagemap", "device.queue"),
            "plain writes through a queued (NCQ) device over a two-channel"
            " flash array: crashes land with commands in flight",
            stream="verify.device.queue",
            build=partial(_queued, PageMappingFTL),
            workload=partial(_plain_writes, durable_every=7),
            oracle=_durable_floor,
            unwritten=range(24, 28),
        ),
        Layer(
            "device.queue.xftl",
            _XFTL_STACK + ("device.queue",),
            "the transactional command set through the same queued device:"
            " commit barriers against a non-empty queue",
            stream="verify.device.queue.xftl",
            build=partial(_queued, XFTL),
            workload=partial(_block_txns, shapes=_SINGLE),
        ),
        Layer(
            "dev.queue.epoch",
            ("flash", "ftl.pagemap", "device.queue"),
            "the queued device in barrier mode: plain writes, barrier writes"
            " and order-only epoch closes (no drain) interleave so"
            " dev.queue.epoch fires against a live queue; only the explicit"
            " flushes raise the durable floor, and the per-epoch completion"
            " envelopes are sampled for the no-reorder-across-epochs invariant",
            stream="verify.device.queue.epoch",
            build=partial(_queued, PageMappingFTL, barrier_mode=True),
            workload=partial(
                _plain_writes, durable_every=11, order_every=3, ordered_write_every=5
            ),
            oracle=_durable_floor,
            unwritten=range(24, 28),
        ),
        Layer(
            "fs.ext4",
            ("flash", "ftl.pagemap", "fs.ext4"),
            "file page writes + fsync on ordered-journal ext4 over the stock FTL",
            stream="verify.ext4",
            build=_file_stack,
            workload=partial(_plain_writes, durable_every=5),
            oracle=_durable_floor,
            reader=_read_file,
            hot=12,
        ),
        Layer(
            "fs.barrier",
            ("flash", "ftl.pagemap", "device.queue", "fs.ext4"),
            "the same ext4 driven by fbarrier over a queued barrier-mode device:"
            " data and journal frames are only ordered (the commit page being"
            " order-guaranteed after its frame body is what keeps the journal"
            " replayable without the two drains), the floor moves only at"
            " explicit device flushes, and recovery must expose floor-or-later",
            stream="verify.ext4.barrier",
            build=partial(_file_stack, barrier=True),
            workload=partial(_plain_writes, durable_every=9, order_every=4),
            oracle=_durable_floor,
            reader=_read_file,
            hot=12,
        ),
        _sql_row(
            "sqlite.xftl",
            _XFTL_STACK + ("fs.ext4",),
            "SQL transactions on the full paper stack (SQLite OFF mode on"
            " ext4-XFTL on X-FTL)",
            "verify.sqlite.X-FTL",
            Mode.XFTL,
        ),
        _sql_row(
            "sqlite.rbj",
            ("flash", "ftl.pagemap", "fs.ext4", "sqlite.pager"),
            "the same SQL workload on the unmodified stack (rollback journal on"
            " ordered ext4 on the stock FTL), the only row where"
            " sqlite.commit.mid is reachable",
            "verify.sqlite.RBJ",
            Mode.RBJ,
        ),
        _sql_row(
            "sqlite.wal",
            ("flash", "ftl.pagemap", "fs.ext4"),
            "the same SQL workload in WAL mode on ordered ext4 on the stock FTL,"
            " through a one-page pager cache: every UPDATE spills its leaf as an"
            " uncommitted frame and the next one reads it back, and every"
            " eighth frame committed triggers a checkpoint, so crashes land"
            " with uncommitted frames in the log and mid-checkpoint",
            "verify.sqlite.WAL",
            Mode.WAL,
            _wal_connection,
        ),
        _sql_row(
            "sqlite.concurrent",
            _XFTL_STACK + ("fs.ext4",),
            "two sessions, each with its own OFF-mode database, interleaved"
            " through the SessionScheduler: deferred COMMITs coalesce into group"
            " commits on one X-FTL device, so crashes land between staged"
            " transactions, during the group's X-L2P flush and at the publish"
            " point, with both databases held to all-or-nothing at once",
            "verify.sqlite.concurrent",
            Mode.XFTL,
            _two_sessions,
        ),
        _sql_row(
            "stack.tenant",
            _XFTL_STACK + ("fs.ext4",),
            "two tenants (three sessions) share one X-FTL device through the"
            " TenantScheduler: a crash landing mid-commit of tenant A's"
            " transaction must leave tenant B's namespace transactionally"
            " intact, and vice versa",
            "verify.stack.tenant",
            Mode.XFTL,
            _two_tenants,
        ),
        Layer(
            "ftl.mvcc",
            _XFTL_STACK + ("ftl.gc", "ftl.mvcc"),
            "multi-version X-L2P retention: four writer lanes group-commit over"
            " background GC while a pinned AS-OF reader holds its snapshot;"
            " crashes between a version's publish and its release must never"
            " orphan a version page or double-free one (check_invariants"
            " matches owner records against chain membership) — a crash may"
            " shrink retention depth, never snapshot integrity",
            stream="verify.ftl.mvcc",
            build=partial(_bare, XFTL, _ARRAY_GEOMETRY, _MVCC_CONFIG),
            workload=partial(
                _block_txns,
                shapes=(Commit(group=(4, 4), writes=(1, 2), abort_p=0.15),),
                between=_asof_reads,
            ),
            seed=_seed_versions,
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
    """Run one armed scenario end to end and judge its recovery.

    A ``PowerFailure`` is legal only inside the workload window; anywhere
    else it propagates.  Any other stack error is a finding, labelled with
    the phase that raised it.
    """
    row = LAYERS[layer]
    run = Run(row, seed, ops_limit, make_rng(seed, row.stream))
    fired = False
    phase = "setup"
    try:
        machine = run.machine = row.build()
        run.baseline = row.seed(run)
        run.oracle = row.oracle(run.baseline)
        machine.plan.arm(point, after=after, tear_page=tear)
        phase = "workload"
        try:
            row.workload(run)
        except PowerFailure:
            fired = True
        else:
            machine.plan.disarm_all()
            machine.power_off()  # crash-free control run: power-cycle anyway
        phase = "recovery"
        machine.power_on()
        machine.ftl.check_invariants()
        read = row.reader(run)
        if read is not None:
            run.violations += run.oracle.check(read)
            run.violations += [
                f"lpn {key}: never written but reads {read(key)!r}"
                for key in row.unwritten
                if read(key) is not None
            ]
    except ReproError as exc:
        run.violations.append(f"{phase} raised {type(exc).__name__}: {exc}")
    return ScenarioResult(layer, point, after, tear, fired, run.ops, run.violations)
