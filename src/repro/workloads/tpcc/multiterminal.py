"""Multi-terminal TPC-C: N sessions share one device (§6.3, group commit).

The paper's single-connection driver measures journal-mode cost with one
client.  This driver models the more interesting deployment — several
terminals, each its own :class:`~repro.stack.Session` with its own
database file, all multiplexed over one simulated device.  Terminal
tasks interleave through the :class:`~repro.stack.SessionScheduler`
round-robin; on X-FTL their COMMITs stage and coalesce into group
commits (one X-L2P flush per batch), while RBJ/WAL terminals commit
inline at the same program points, keeping cross-mode runs comparable.

Each terminal gets its *own* database (``tpcc_t0.db``, ``tpcc_t1.db``,
…) because SQLite locks at file granularity — the paper's §6.2 setup —
so concurrency here is between databases contending for the device,
not between writers of one file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import make_rng
from repro.stack import BenchStack, Session, SessionScheduler
from repro.workloads.tpcc.driver import MIXES
from repro.workloads.tpcc.loader import TpccConfig, TpccLoader
from repro.workloads.tpcc.transactions import TpccTransactions


@dataclass
class MultiTerminalResult:
    """Throughput and group-commit effectiveness of one run."""

    mix: str
    terminals: int
    transactions: int
    elapsed_s: float
    groups_committed: int
    transactions_grouped: int
    per_terminal_commits: list[int] = field(default_factory=list)

    @property
    def tpm(self) -> float:
        """Transactions per simulated minute across all terminals."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.transactions * 60.0 / self.elapsed_s

    @property
    def mean_group_size(self) -> float:
        """Average number of transactions per group commit (1.0 = no grouping)."""
        if self.groups_committed == 0:
            return 0.0
        return self.transactions_grouped / self.groups_committed


class MultiTerminalTpccDriver:
    """Run a Table 3 mix on N interleaved terminals over one stack."""

    def __init__(
        self,
        stack: BenchStack,
        terminals: int,
        config: TpccConfig | None = None,
        seed: int = 7,
        group_commit: bool = True,
    ) -> None:
        if terminals < 1:
            raise ValueError(f"need at least one terminal, got {terminals}")
        self.stack = stack
        self.config = config or TpccConfig()
        self.seed = seed
        self.scheduler = SessionScheduler(stack, group_commit=group_commit)
        self.sessions: list[Session] = []
        self._dbs = []
        self._txns: list[TpccTransactions] = []
        for index in range(terminals):
            session = stack.open_session(name=f"terminal{index}")
            db = session.open_database(f"tpcc_t{index}.db")
            self.sessions.append(session)
            self._dbs.append(db)

    def load(self) -> None:
        """Load every terminal's database (not part of the measured run)."""
        for db in self._dbs:
            TpccLoader(db, self.config).load()

    def run(self, mix: str, transactions_per_terminal: int) -> MultiTerminalResult:
        """Interleave ``transactions_per_terminal`` of ``mix`` on every terminal."""
        weights = MIXES.get(mix)
        if weights is None:
            raise ValueError(f"unknown mix {mix!r}; choose from {sorted(MIXES)}")
        names = list(weights)
        probabilities = [weights[name] for name in names]

        # Deferral is armed only now: the loader's COMMITs above must run
        # inline (nothing would ever finish a commit staged during load).
        for db in self._dbs:
            self.scheduler.prepare(db)
        self._txns = [
            TpccTransactions(db, self.config, make_rng(self.seed, "tpcc-terminal", index))
            for index, db in enumerate(self._dbs)
        ]

        scheduler = self.scheduler
        groups0 = scheduler.groups_committed
        grouped0 = scheduler.transactions_grouped
        commits0 = [session.counts.commits for session in self.sessions]

        def terminal(index: int):
            rng = make_rng(self.seed, "tpcc-mix", index)
            txns = self._txns[index]
            db = self._dbs[index]
            for _ in range(transactions_per_terminal):
                name = rng.choices(names, weights=probabilities)[0]
                getattr(txns, name)()
                # Commit intent: parks until the group commits (X-FTL),
                # or is a plain switch point (already committed inline).
                yield scheduler.commit_token(db)

        clock = self.stack.clock
        start = clock.now_s
        scheduler.run(terminal(index) for index in range(len(self._dbs)))
        for db in self._dbs:
            db.defer_commits = False
        return MultiTerminalResult(
            mix=mix,
            terminals=len(self._dbs),
            transactions=transactions_per_terminal * len(self._dbs),
            elapsed_s=clock.now_s - start,
            groups_committed=scheduler.groups_committed - groups0,
            transactions_grouped=scheduler.transactions_grouped - grouped0,
            per_terminal_commits=[
                session.counts.commits - before
                for session, before in zip(self.sessions, commits0)
            ],
        )
