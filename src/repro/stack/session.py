"""Sessions and the session scheduler with group commit.

A :class:`Session` is one logical client of a shared stack — a TPC-C
terminal, one smartphone app in the paper's §6.3 scenario.  Each session
opens its own SQLite connections; all sessions share the one simulated
device, so their transactions contend for (and amortize) the same X-FTL
firmware.

:class:`SessionScheduler` runs session tasks (generators) as one lane of
the deficit-round-robin loop in :mod:`repro.sim.interleave` — strict
round-robin — and implements **group commit** on X-FTL stacks: when
several sessions reach their commit point together, their staged
transactions are committed by one ``Ext4.commit_tx_group`` call — a
single X-L2P CoW flush and a single drain barrier serve the whole batch,
instead of one flush per transaction.  A COMMIT stages (``Ext4.stage_tx``)
and ``Connection.finish_commit`` closes it: the staged commit of
:mod:`repro.sqlite.multifile`, with another device step.  On
non-transactional stacks (RBJ/WAL) commits simply run inline at the same
yield points, so cross-mode comparisons see identical statement streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import DatabaseError
from repro.sim.interleave import Park, interleave
from repro.sqlite.database import Connection
from repro.sqlite.pager import SqliteJournalMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack import BenchStack


class Session:
    """One logical client (terminal / app) of a shared stack.

    Owns its connections and a small per-session metrics namespace
    (``session.<name>.commits`` etc.) so concurrency experiments can
    attribute work to individual terminals.
    """

    def __init__(self, stack: "BenchStack", name: str, tenant=None) -> None:
        self.stack = stack
        self.name = name
        self.tenant = tenant  # owning repro.stack.tenant.Tenant, if any
        self.connections: list[Connection] = []
        self.commits = 0
        self.rollbacks = 0
        obs = stack.obs
        self._obs_commits = obs.counter(f"session.{name}.commits")
        self._obs_rollbacks = obs.counter(f"session.{name}.rollbacks")
        self._tenant_registry = stack.chip.tenants

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.name!r} connections={len(self.connections)}>"

    def open_database(self, name: str, **kwargs) -> Connection:
        """Open a database owned by this session on the shared stack."""
        conn = self.stack.open_database(name, session=self, **kwargs)
        self.connections.append(conn)
        return conn

    # Called at transaction boundaries: by Connection, and by the pager
    # when it finishes a staged commit.  ``latency_us`` is the commit's
    # end-to-end simulated latency (stage -> durable for staged commits,
    # the COMMIT call itself otherwise); it feeds the owning tenant's p99
    # accounting and costs nothing to measure.
    def note_commit(self, latency_us: float | None = None) -> None:
        self.commits += 1
        self._obs_commits.inc()
        if self.tenant is not None:
            self._tenant_registry.note_commit(self.tenant.id, latency_us)

    def note_rollback(self) -> None:
        self.rollbacks += 1
        self._obs_rollbacks.inc()


class SessionScheduler:
    """Interleave session tasks and coalesce their commits.

    Tasks are generators following a small protocol:

    - ``yield None`` — switch point (lets other sessions run);
    - ``yield scheduler.commit_token(conn)`` — commit intent: if the
      connection staged a deferred commit, the task parks until the
      scheduler commits the whole batch in one group commit.

    Call :meth:`prepare` on every connection before running so its
    ``COMMIT`` statements stage instead of committing inline (only
    effective in OFF mode on a transactional device; everywhere else the
    flag is inert and commits run eagerly at the same program points).
    """

    def __init__(self, stack: "BenchStack", group_commit: bool = True) -> None:
        self.stack = stack
        # Group commit needs a device that understands transactions
        # (X-FTL); on stock firmware commits are plain fsyncs already.
        self.group_commit = group_commit and stack.device.supports_transactions
        self.groups_committed = 0
        self.transactions_grouped = 0

    # ------------------------------------------------------- task protocol

    def prepare(self, connection: Connection) -> None:
        """Route this connection's COMMITs through the group-commit path."""
        connection.defer_commits = (
            self.group_commit
            and connection.journal_mode is SqliteJournalMode.OFF
        )

    def commit_token(self, connection: Connection) -> Park | None:
        """The value a task yields at its commit intent.

        Returns a park request when the connection staged a commit;
        ``None`` (a plain switch) when the commit already completed
        inline (non-deferred modes, read-only transactions).
        """
        if connection.pending_commit:
            return Park(connection)
        return None

    def run(self, tasks: Iterable) -> None:
        """Interleave ``tasks`` round-robin until all are exhausted."""
        interleave([(1, tasks)], self._commit_batch, self.stack.clock)

    # ------------------------------------------------------------ batching

    def _commit_batch(self, connections: list[Connection]) -> None:
        txns = []
        for conn in connections:
            if conn.staged_txn is None:  # pragma: no cover - protocol bug
                raise DatabaseError(
                    "parked connection has no staged commit; tasks must only "
                    "park on scheduler.commit_token(conn)"
                )
            txns.append(conn.staged_txn)
        self.stack.fs.commit_tx_group(txns)
        for conn in connections:
            conn.finish_commit()
        self.groups_committed += 1
        self.transactions_grouped += len(connections)
