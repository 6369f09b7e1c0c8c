"""Android smartphone workloads (§6.2, §6.3.2, Table 2).

The paper replays SQL traces captured from four applications: RL Benchmark,
Gmail, Facebook and the stock web browser.  The raw traces are not public,
so this module generates *statistical twins*: synthetic traces whose shape
matches Table 2 — number of database files, tables, query mix (select /
join / insert / update / delete), DDL count, and average updated pages per
transaction — plus the qualitative behaviours called out in §6.3.2
(Facebook stores thumbnail blobs; the browser rewrites its history and
cookie tables; Gmail is insert-heavy).

A trace is a list of :class:`TraceOp`; :class:`TraceReplayer` executes it
against one connection per database file, exactly as the paper's replayer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stack import BenchStack
from repro.sim.rng import make_rng
from repro.sqlite.database import Connection


@dataclass(frozen=True)
class TraceProfile:
    """Shape of one application's trace (one row of Table 2)."""

    name: str
    files: int
    tables: int
    selects: int
    joins: int
    inserts: int
    updates: int
    deletes: int
    ddl: int
    avg_pages_per_txn: float
    blob_bytes: int = 0  # payload size for blob inserts (Facebook thumbnails)


RL_BENCHMARK = TraceProfile(
    name="RL Benchmark",
    files=1,
    tables=3,
    selects=5_200,
    joins=0,
    inserts=51_002,
    updates=26_000,
    deletes=2,
    ddl=30,
    avg_pages_per_txn=3.31,
)

GMAIL = TraceProfile(
    name="Gmail",
    files=2,
    tables=31,
    selects=3_540,
    joins=1_381,
    inserts=7_288,
    updates=889,
    deletes=2_357,
    ddl=78,
    avg_pages_per_txn=4.93,
)

FACEBOOK = TraceProfile(
    name="Facebook",
    files=11,
    tables=72,
    selects=1_687,
    joins=28,
    inserts=2_403,
    updates=430,
    deletes=117,
    ddl=259,
    avg_pages_per_txn=2.29,
    blob_bytes=6_000,  # small thumbnail images stored as blobs
)

WEB_BROWSER = TraceProfile(
    name="WebBrowser",
    files=6,
    tables=26,
    selects=1_954,
    joins=1_351,
    inserts=1_261,
    updates=1_813,
    deletes=1_373,
    ddl=177,
    avg_pages_per_txn=2.95,
)

ALL_PROFILES = (RL_BENCHMARK, GMAIL, FACEBOOK, WEB_BROWSER)


@dataclass
class TraceOp:
    """One trace event: a statement against one database file."""

    file: str
    sql: str
    params: tuple = ()
    begins_txn: bool = False
    ends_txn: bool = False


@dataclass
class TraceStats:
    """Shape counters of a generated trace (to verify against Table 2)."""

    files: int = 0
    tables: int = 0
    selects: int = 0
    joins: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    ddl: int = 0
    transactions: int = 0

    @property
    def queries(self) -> int:
        return self.selects + self.joins + self.inserts + self.updates + self.deletes


class AndroidTraceGenerator:
    """Generates a statement trace matching a :class:`TraceProfile`.

    ``scale`` shrinks every count proportionally for quick runs; 1.0
    reproduces the published trace sizes.
    """

    def __init__(self, profile: TraceProfile, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        self.scale = scale

    def _scaled(self, count: int) -> int:
        return max(1, round(count * self.scale)) if count else 0

    def generate(self) -> tuple[list[TraceOp], TraceStats]:
        """Build the trace: DDL first, then interleaved transactions."""
        profile = self.profile
        rng = make_rng(7, "android", profile.name)
        stats = TraceStats(files=profile.files, tables=profile.tables)

        files = [self._file_name(i) for i in range(profile.files)]
        tables_per_file = self._distribute(profile.tables, profile.files)
        ops: list[TraceOp] = []
        table_names: list[tuple[str, str]] = []  # (file, table)

        for file_name, n_tables in zip(files, tables_per_file):
            for t in range(n_tables):
                table = f"t{t}"
                blob_column = ", payload BLOB" if profile.blob_bytes else ""
                ops.append(
                    TraceOp(
                        file=file_name,
                        sql=(
                            f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, "
                            f"k INTEGER, body TEXT{blob_column})"
                        ),
                    )
                )
                ops.append(
                    TraceOp(file=file_name, sql=f"CREATE INDEX idx_{table}_k ON {table} (k)")
                )
                table_names.append((file_name, table))
                stats.ddl += 2

        # Remaining DDL budget is spent on create/drop churn of scratch tables.
        ddl_budget = self._scaled(profile.ddl)
        scratch = 0
        while stats.ddl + 2 <= ddl_budget:
            file_name = rng.choice(files)
            name = f"scratch{scratch}"
            scratch += 1
            ops.append(
                TraceOp(file=file_name, sql=f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, v TEXT)")
            )
            ops.append(TraceOp(file=file_name, sql=f"DROP TABLE {name}"))
            stats.ddl += 2

        # Build the DML statement pool, then group into transactions sized
        # to approximate the published average updated pages per txn.
        pool: list[str] = (
            ["insert"] * self._scaled(profile.inserts)
            + ["update"] * self._scaled(profile.updates)
            + ["delete"] * self._scaled(profile.deletes)
            + ["select"] * self._scaled(profile.selects)
            + ["join"] * self._scaled(profile.joins)
        )
        rng.shuffle(pool)

        next_id: dict[tuple[str, str], int] = {key: 1 for key in table_names}
        live_ids: dict[tuple[str, str], list[int]] = {key: [] for key in table_names}
        writes_per_txn = max(1, round(self.profile.avg_pages_per_txn))
        writes_in_txn = 0
        txn_open = False

        def op_for(kind: str) -> TraceOp:
            key = rng.choice(table_names)
            file_name, table = key
            if kind == "insert":
                stats.inserts += 1
                rowid = next_id[key]
                next_id[key] += 1
                live_ids[key].append(rowid)
                if profile.blob_bytes:
                    blob = bytes(profile.blob_bytes)
                    return TraceOp(
                        file=file_name,
                        sql=f"INSERT INTO {table} (id, k, body, payload) VALUES (?, ?, ?, ?)",
                        params=(rowid, rng.randint(0, 999), f"body-{rowid}", blob),
                    )
                return TraceOp(
                    file=file_name,
                    sql=f"INSERT INTO {table} (id, k, body) VALUES (?, ?, ?)",
                    params=(rowid, rng.randint(0, 999), f"body-{rowid}"),
                )
            if kind == "update":
                stats.updates += 1
                target = rng.choice(live_ids[key]) if live_ids[key] else 0
                return TraceOp(
                    file=file_name,
                    sql=f"UPDATE {table} SET body = ? WHERE id = ?",
                    params=(f"updated-{target}", target),
                )
            if kind == "delete":
                stats.deletes += 1
                target = live_ids[key].pop() if live_ids[key] else 0
                return TraceOp(
                    file=file_name, sql=f"DELETE FROM {table} WHERE id = ?", params=(target,)
                )
            if kind == "join":
                stats.joins += 1
                other_key = rng.choice(table_names)
                if other_key[0] != file_name:
                    other_key = key  # joins stay within one database file
                other = other_key[1]
                return TraceOp(
                    file=file_name,
                    sql=(
                        f"SELECT a.body, b.body FROM {table} a "
                        f"JOIN {other} b ON a.k = b.k WHERE a.id = ?"
                    ),
                    params=(rng.choice(live_ids[key]) if live_ids[key] else 0,),
                )
            stats.selects += 1
            return TraceOp(
                file=file_name, sql=f"SELECT body FROM {table} WHERE id = ?",
                params=(rng.choice(live_ids[key]) if live_ids[key] else 0,),
            )

        grouped: list[TraceOp] = []
        for kind in pool:
            op = op_for(kind)
            is_write = kind in ("insert", "update", "delete")
            if is_write and not txn_open:
                op.begins_txn = True
                txn_open = True
                stats.transactions += 1
            grouped.append(op)
            if is_write:
                writes_in_txn += 1
                if writes_in_txn >= writes_per_txn:
                    op.ends_txn = True
                    txn_open = False
                    writes_in_txn = 0
        if txn_open:
            grouped[-1].ends_txn = True
        ops.extend(grouped)
        return ops, stats

    def _file_name(self, index: int) -> str:
        base = self.profile.name.lower().replace(" ", "")
        return f"{base}{index}.db"

    @staticmethod
    def _distribute(total: int, buckets: int) -> list[int]:
        base, extra = divmod(total, buckets)
        return [base + (1 if i < extra else 0) for i in range(buckets)]


class TraceReplayer:
    """Executes a trace against one connection per database file.

    ``stack`` is a :class:`~repro.stack.BenchStack` or a
    :class:`~repro.stack.Tenant`: both expose ``open_database``, and the
    tenant form lands every file under the tenant's path prefix with the
    tenant's attribution.  :meth:`replay` reads the stack's clock, so it
    takes a :class:`~repro.stack.BenchStack`.  Each connection caches
    2,048 pages.
    """

    def __init__(self, stack: BenchStack) -> None:
        self.stack = stack
        self.connections: dict[str, Connection] = {}

    def _connection(self, file_name: str) -> Connection:
        connection = self.connections.get(file_name)
        if connection is None:
            connection = self.stack.open_database(file_name, cache_pages=2048)
            self.connections[file_name] = connection
        return connection

    def replay(self, ops: list[TraceOp]) -> float:
        """Replay the trace (:meth:`replay_task` run to its end); returns
        simulated elapsed seconds."""
        clock = self.stack.clock
        start = clock.now_s
        for _ in self.replay_task(ops):
            pass
        return clock.now_s - start

    def replay_task(self, ops: list[TraceOp]):
        """The replay as a scheduler task (yields after every statement).

        ``begins_txn``/``ends_txn`` delimit a transaction *group*; within a
        group, each database file that gets touched is wrapped in its own
        transaction (SQLite commits multi-file groups per file unless a
        master journal is used, §4.3 — we reproduce the common per-file
        case).  Commits run inline (no group-commit parking) so several
        replayers — one per tenant — interleave deterministically under any
        scheduler without coordinating their transaction groups.
        """
        in_group = False
        open_txns: set[str] = set()
        for op in ops:
            if op.begins_txn:
                in_group = True
            connection = self._connection(op.file)
            if in_group and op.file not in open_txns:
                connection.execute("BEGIN")
                open_txns.add(op.file)
            connection.execute(op.sql, op.params)
            if op.ends_txn:
                for file_name in sorted(open_txns):
                    self.connections[file_name].execute("COMMIT")
                open_txns.clear()
                in_group = False
            yield None
        for file_name in sorted(open_txns):
            self.connections[file_name].execute("COMMIT")
