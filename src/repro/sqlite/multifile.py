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
        self.txn = None
        self._active = False

    @property
    def active(self) -> bool:
        """Whether the shared transaction is currently open."""
        return self._active

    def begin(self) -> None:
        """Open the shared transaction on every participating database."""
        if self._active:
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
            for connection in started:
                connection.rollback()
            raise
        self._active = True

    def commit(self) -> None:
        """Two-phase local flush, then one atomic device commit."""
        if not self._active:
            raise DatabaseError("no multi-file transaction active")
        assert self.txn is not None
        for connection in self.connections:
            connection.pager.stage_for_group_commit()
        handles = [connection.pager.file for connection in self.connections]
        self.fs.fsync_group(handles, self.txn)
        for connection in self.connections:
            connection.pager.finish_group_commit()
            connection.end_external_txn()
        self._active = False
        self.txn = None

    def rollback(self) -> None:
        """Abort the shared transaction everywhere (one device abort)."""
        if not self._active:
            raise DatabaseError("no multi-file transaction active")
        for connection in self.connections:
            connection.rollback()
        self._active = False
        self.txn = None
