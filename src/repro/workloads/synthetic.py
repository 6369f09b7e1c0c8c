"""The paper's synthetic workload (§6.2, §6.3.1).

A ``partsupply`` table as produced by TPC-H dbgen: 60,000 tuples of about
220 bytes each.  Every transaction reads a fixed number of tuples by random
``ps_partkey``, updates their ``ps_supplycost``, and commits.  The number of
updated pages per transaction is the x-axis of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import make_rng
from repro.sqlite.database import Connection

CREATE_PARTSUPPLY = (
    "CREATE TABLE partsupply ("
    "ps_id INTEGER PRIMARY KEY, "
    "ps_partkey INTEGER, "
    "ps_suppkey INTEGER, "
    "ps_availqty INTEGER, "
    "ps_supplycost REAL, "
    "ps_comment TEXT)"
)

# Comment padding brings each tuple to roughly 220 bytes, matching dbgen.
_COMMENT_BYTES = 150

# Rows per load transaction.  On X-FTL every page a transaction writes
# takes an X-L2P entry until commit; 12,000 rows (the largest load at
# REPRO_SCALE=1) take about 700 of the table's 1,000, so a paper-size
# 60,000-row load commits in five transactions instead of overflowing.
_LOAD_TXN_ROWS = 12_000


@dataclass
class SyntheticResult:
    """Outcome of one synthetic run."""

    transactions: int
    updates_per_txn: int
    elapsed_s: float


class SyntheticWorkload:
    """Loader and driver for the partsupply update workload."""

    def __init__(self, db: Connection, rows: int = 60_000, seed: int = 7) -> None:
        if rows < 1:
            raise ValueError(f"rows must be at least 1, got {rows}")
        self.db = db
        self.rows = rows
        self.seed = seed

    def load(self) -> None:
        """Create and populate the table, one transaction per ``_LOAD_TXN_ROWS`` rows."""
        rng = make_rng(self.seed, "synthetic-load")
        self.db.execute(CREATE_PARTSUPPLY)
        self.db.execute("CREATE INDEX idx_ps_partkey ON partsupply (ps_partkey)")
        self.db.execute("BEGIN")
        insert = (
            "INSERT INTO partsupply (ps_id, ps_partkey, ps_suppkey, ps_availqty, "
            "ps_supplycost, ps_comment) VALUES (?, ?, ?, ?, ?, ?)"
        )
        for ps_id in range(1, self.rows + 1):
            comment = _comment_text(rng, ps_id)
            self.db.execute(
                insert,
                (
                    ps_id,
                    ps_id,  # partkey: unique so a key picks exactly one tuple
                    rng.randint(1, 10_000),
                    rng.randint(1, 9_999),
                    round(rng.uniform(1.0, 1_000.0), 2),
                    comment,
                ),
            )
            if ps_id % _LOAD_TXN_ROWS == 0 and ps_id < self.rows:
                self.db.execute("COMMIT")
                self.db.execute("BEGIN")
        self.db.execute("COMMIT")

    def run(self, transactions: int, updates_per_txn: int) -> SyntheticResult:
        """Run update transactions; returns the simulated elapsed time."""
        if transactions < 1 or updates_per_txn < 1:
            raise ValueError(
                f"transactions and updates_per_txn must be at least 1, "
                f"got {transactions} and {updates_per_txn}"
            )
        rng = make_rng(self.seed, "synthetic-run", updates_per_txn)
        clock = self.db.fs.device.clock
        start = clock.now_s
        update = "UPDATE partsupply SET ps_supplycost = ? WHERE ps_partkey = ?"
        for _txn in range(transactions):
            self.db.execute("BEGIN")
            for _update in range(updates_per_txn):
                partkey = rng.randint(1, self.rows)
                cost = round(rng.uniform(1.0, 1_000.0), 2)
                self.db.execute(update, (cost, partkey))
            self.db.execute("COMMIT")
        return SyntheticResult(
            transactions=transactions,
            updates_per_txn=updates_per_txn,
            elapsed_s=clock.now_s - start,
        )


_FILLER = (
    "the quick brown fox jumps over the lazy dog while careful packers "
    "sleep furiously beside deposits of quartz and onyx gravel heaps on "
    "the wharf near the depot waiting for the next train to arrive soon"
)


def _comment_text(rng, ps_id: int) -> str:
    start = rng.randint(0, 40)
    body = (_FILLER * 2)[start : start + _COMMENT_BYTES]
    return f"ps-{ps_id}-{body}"
