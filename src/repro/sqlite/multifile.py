"""Multi-file transactions on X-FTL (§4.3).

SQLite's atomicity guarantee is per database file; a transaction spanning
two or more attached databases needs a *master journal* in rollback mode,
which the paper calls "awkward or incomplete".  With X-FTL the problem
disappears: every participating database writes its pages under the same
transaction id and a single device ``commit(t)`` makes the whole group
atomic — crash anywhere and either all databases show the transaction or
none do.

``MultiFileTransaction`` coordinates connections that live on the same
XFTL-mode file system::

    txn = MultiFileTransaction(db_a, db_b)
    txn.begin()
    db_a.execute("INSERT ...")
    db_b.execute("UPDATE ...")
    txn.commit()      # one commit(t) covers both databases

It drives the session scheduler's staged commit: every pager stages, one
``Ext4.fsync_group`` (or one ``ioctl_abort``) settles them all, and every
connection finishes, counted like any other commit.  A participant's own
COMMIT or ROLLBACK raises.
"""

from __future__ import annotations

from repro.errors import DatabaseError, PowerFailure
from repro.sqlite.database import Connection
from repro.sqlite.pager import SqliteJournalMode


class MultiFileTransaction:
    """One device transaction spanning several OFF-mode databases."""

    def __init__(self, *connections: Connection) -> None:
        if not connections:
            raise DatabaseError("a multi-file transaction needs at least one database")
        fs = connections[0].fs
        for connection in connections:
            if connection.journal_mode is not SqliteJournalMode.OFF:
                raise DatabaseError(
                    "multi-file transactions require OFF mode (X-FTL) on every database"
                )
            if connection.fs is not fs:
                raise DatabaseError("all databases must share one file system")
        self.connections = connections
        self.fs = fs
        self.txn = None  # the shared context while the transaction is open

    def begin(self) -> None:
        """Open the shared transaction on every participating database."""
        if self.txn is not None:
            raise DatabaseError("multi-file transaction already active")
        self.txn = self.fs.txn_manager.begin()
        started = []
        try:
            for connection in self.connections:
                connection.begin_with_txn(self.txn)
                started.append(connection)
        except PowerFailure:
            raise  # machine is down: no in-process rollback is possible
        except BaseException:
            self._abort(started)
            raise

    def commit(self) -> None:
        """Stage every database, one ``fsync_group`` (one ``commit(t)``),
        then finish each."""
        self._check_active()
        for connection in self.connections:
            connection.pager.stage_commit()
        self.fs.fsync_group([connection.pager.file for connection in self.connections], self.txn)
        for connection in self.connections:
            connection.finish_commit()
        self.txn = None

    def rollback(self) -> None:
        """Abort the shared transaction everywhere (one device abort)."""
        self._check_active()
        self._abort(self.connections)

    def _check_active(self) -> None:
        if self.txn is None:
            raise DatabaseError("no multi-file transaction active")

    def _abort(self, connections) -> None:
        self.fs.ioctl_abort(self.txn)
        for connection in connections:
            connection.finish_rollback()
        self.txn = None
