"""The four workload drivers: set-up, one op, and output verification.

Every driver is closed-loop with one client: ``op()`` issues the next op
only when the previous one has returned.  A driver sees the program only
through the public names listed in README "Import surface"; its inputs come
from ``make_rng(seed, ...)`` streams and nothing else.

Each driver keeps a *shadow model* of what the program has acknowledged.
``verify()`` checks the program against it, power-cycles the device, reopens
from flash alone and checks again, so every acknowledged commit is proven
durable.  ``verify()`` is never inside a timed region.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.aging import age_device
from repro.device import StorageDevice
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL
from repro.obs import NULL_OBS, Observability
from repro.sim import OPENSSD_PROFILE
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads import MIXES, SyntheticWorkload, TpccConfig, TpccDriver, TpccLoader

AGED_VALIDITY = 0.5
PAGES_PER_BLOCK = 128


class SqlWorkload:
    """Shared plumbing of the three workloads that run through SQLite."""

    mode: Mode

    def __init__(self, seed: int, sizes: dict[str, int], metrics: bool = False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.metrics = metrics

    def setup(self) -> None:
        """Build the paper's SQLite stack, load the database, age the device."""
        # The configuration of repro.bench.experiments._sqlite_stack (1 channel,
        # queue depth 1, inline FIFO GC, drain mode, every switch at its
        # default); only num_blocks is sized per workload (README "Sizes").
        self.stack = build_stack(
            StackConfig(
                mode=self.mode,
                num_blocks=self.sizes["num_blocks"],
                pages_per_block=PAGES_PER_BLOCK,
                ftl=FtlConfig(gc_policy="fifo"),
                metrics=self.metrics,
            )
        )
        self.db = self.stack.open_database("test.db")
        self.load()
        age_device(self.stack, AGED_VALIDITY, seed=self.seed)
        stack = self.stack
        self.clock, self.chip, self.ftl = stack.clock, stack.chip, stack.ftl
        self.device, self.fs, self.obs = stack.device, stack.fs, stack.obs

    def abort_op(self) -> None:
        if self.db.in_transaction:
            self.db.execute("ROLLBACK")

    def verify(self) -> list[str]:
        problems = self.check("before power cycle")
        self.stack.remount_after_crash()
        self.db = self.stack.open_database("test.db")
        return problems + self.check("after power cycle")


class UpdateWorkload(SqlWorkload):
    """Paper 6.3.1: ``BEGIN; 5 x UPDATE partsupply ... WHERE ps_partkey=?; COMMIT``."""

    UPDATES_PER_TXN = 5
    UPDATE = "UPDATE partsupply SET ps_supplycost = ? WHERE ps_partkey = ?"

    def __init__(self, mode: Mode, seed: int, sizes: dict[str, int], metrics: bool = False):
        super().__init__(seed, sizes, metrics)
        self.mode = mode
        self.rows = sizes["rows"]

    def load(self) -> None:
        SyntheticWorkload(self.db, rows=self.rows, seed=self.seed).load()
        # The same stream in RBJ and X-FTL mode: the pair differs in mode only.
        self.rng = make_rng(self.seed, "perf", "update")
        self.shadow: dict[int, float] = {}  # ps_partkey -> last committed cost

    def op(self) -> None:
        db, rng, rows = self.db, self.rng, self.rows
        written = []
        db.execute("BEGIN")
        for _ in range(self.UPDATES_PER_TXN):
            partkey = rng.randint(1, rows)
            cost = round(rng.uniform(1.0, 1_000.0), 2)
            db.execute(self.UPDATE, (cost, partkey))
            written.append((partkey, cost))
        db.execute("COMMIT")
        self.shadow.update(written)

    def check(self, when: str) -> list[str]:
        table = dict(self.db.execute("SELECT ps_partkey, ps_supplycost FROM partsupply"))
        problems = [
            f"{when}: ps_partkey {key} has cost {table.get(key)!r}, committed {cost!r}"
            for key, cost in self.shadow.items()
            if table.get(key) != cost
        ]
        if len(table) != self.rows:
            problems.append(f"{when}: {len(table)} rows, loaded {self.rows}")
        return problems


class TpccWorkload(SqlWorkload):
    """TPC-C write-intensive mix (Table 3) on one connection, WAL mode."""

    mode = Mode.WAL
    MIX = "write-intensive"

    def load(self) -> None:
        self.config = TpccConfig(seed=self.seed)
        TpccLoader(self.db, self.config).load()
        self.driver = TpccDriver(self.db, self.config, seed=self.seed)
        self.names = list(MIXES[self.MIX])
        self.weights = [MIXES[self.MIX][name] for name in self.names]
        self.done: Counter[str] = Counter()  # committed txns by type

    def op(self) -> None:
        # TpccDriver.run's loop body, one txn at a time so each can be timed.
        name = self.driver.rng.choices(self.names, weights=self.weights)[0]
        getattr(self.driver.transactions, name)()
        self.done[name] += 1

    def check(self, when: str) -> list[str]:
        db, cfg = self.db, self.config
        problems = []
        # TPC-C consistency condition 1: w_ytd = sum(d_ytd) per warehouse.
        w_ytd = dict(db.execute("SELECT w_id, w_ytd FROM warehouse"))
        d_ytd: Counter[int] = Counter()
        next_o_id = {}
        for w, d, ytd, next_o in db.execute(
            "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district"
        ):
            d_ytd[w] += ytd
            next_o_id[(w, d)] = next_o
        for w, ytd in w_ytd.items():
            if abs(ytd - d_ytd[w]) > 1e-6 * ytd:
                problems.append(f"{when}: warehouse {w} w_ytd {ytd} != sum(d_ytd) {d_ytd[w]}")
        # Condition 2: d_next_o_id - 1 = max(o_id) per district.
        max_o_id: dict[tuple[int, int], int] = {}
        orders = db.execute("SELECT o_w_id, o_d_id, o_id FROM orders")
        for w, d, o in orders:
            max_o_id[(w, d)] = max(o, max_o_id.get((w, d), 0))
        for key, next_o in next_o_id.items():
            if next_o - 1 != max_o_id.get(key):
                problems.append(
                    f"{when}: district {key} d_next_o_id {next_o}, max(o_id) {max_o_id.get(key)}"
                )
        # Shadow model: every acknowledged txn left exactly its rows behind.
        districts = cfg.warehouses * cfg.districts_per_warehouse
        want_orders = districts * cfg.initial_orders_per_district + self.done["new_order"]
        if len(orders) != want_orders:
            problems.append(f"{when}: {len(orders)} orders, acknowledged {want_orders}")
        history = db.execute("SELECT COUNT(*) FROM history")[0][0]
        if history != self.done["payment"]:
            problems.append(f"{when}: {history} history rows, {self.done['payment']} payments")
        return problems


class FtlGcWorkload:
    """No SQLite, no ext4: skewed overwrites on a nearly full parallel device."""

    PAGE_SIZE = 512
    PAGES_PER_BLOCK = 64
    CHANNELS = 8
    QUEUE_DEPTH = 8
    FILL_FRACTION = 0.85
    HOT_SHARE, HOT_SPAN = 0.8, 5  # 80% of writes go to the first fifth
    WRITES_PER_OP = 8

    fs = None

    def __init__(self, seed: int, sizes: dict[str, int], metrics: bool = False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.metrics = metrics

    def setup(self) -> None:
        """Build the device, fill it, overwrite until write amplification levels."""
        geometry = FlashGeometry(
            page_size=self.PAGE_SIZE,
            pages_per_block=self.PAGES_PER_BLOCK,
            num_blocks=self.sizes["num_blocks"],
            channels=self.CHANNELS,
        )
        self.obs = Observability(enabled=True, label="ftl_gc") if self.metrics else NULL_OBS
        self.chip = FlashArray(geometry, profile=OPENSSD_PROFILE, obs=self.obs)
        self.clock = self.chip.clock
        # The FtlConfig of `python -m repro.bench throughput`.
        self.ftl = PageMappingFTL(
            self.chip,
            FtlConfig(
                gc_mode="background",
                gc_policy="cost-benefit",
                gc_background_watermark=4,
                gc_copyback_pages_per_step=4,
                gc_hot_write_threshold=4,
                gc_wear_spread_threshold=16,
                gc_wear_check_interval=32,
            ),
        )
        self.device = StorageDevice(self.ftl, queue_depth=self.QUEUE_DEPTH)
        self.fill = int(self.ftl.exported_pages * self.FILL_FRACTION)
        self.hot = max(1, self.fill // self.HOT_SPAN)
        self.rng = make_rng(self.seed, "perf", "ftl_gc")
        self.seq = 0
        self.shadow = [("fill", lpn) for lpn in range(self.fill)]  # lpn -> last acknowledged payload
        for lpn, payload in enumerate(self.shadow):
            self.device.write(lpn, payload)
        self.device.flush()
        for _ in range(self.sizes["precondition_ops"]):
            self.op()

    def op(self) -> None:
        device, rng, hot, fill, shadow = self.device, self.rng, self.hot, self.fill, self.shadow
        for _ in range(self.WRITES_PER_OP):
            lpn = rng.randrange(hot) if rng.random() < self.HOT_SHARE else rng.randrange(fill)
            payload = ("w", self.seq)
            self.seq += 1
            device.write(lpn, payload)
            shadow[lpn] = payload
        device.flush()

    def abort_op(self) -> None:
        """Nothing to roll back: the shadow already holds every acknowledged write."""

    def check(self, when: str) -> list[str]:
        read = self.device.read
        return [
            f"{when}: lpn {lpn} reads {got!r}, acknowledged {payload!r}"
            for lpn, payload in enumerate(self.shadow)
            if (got := read(lpn)) != payload
        ]

    def verify(self) -> list[str]:
        problems = self.check("before power cycle")
        self.device.power_off()
        self.device.power_on()
        return problems + self.check("after power cycle")


def make_workload(name: str, seed: int, sizes: dict[str, int], metrics: bool = False):
    """A fresh, not yet set-up driver for workload ``name``."""
    if name == "update_rbj":
        return UpdateWorkload(Mode.RBJ, seed, sizes, metrics)
    if name == "update_xftl":
        return UpdateWorkload(Mode.XFTL, seed, sizes, metrics)
    if name == "tpcc_wal":
        return TpccWorkload(seed, sizes, metrics)
    if name == "ftl_gc":
        return FtlGcWorkload(seed, sizes, metrics)
    raise ValueError(f"unknown workload {name!r}")
