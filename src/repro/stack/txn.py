"""First-class transaction identity: contexts and their manager.

The seed stack threaded bare ``int`` tids from the SQLite pager through
ext4 and the block device down to the X-FTL firmware.  That was enough
for one synchronous caller, but the paper's whole point (§4) is many
independent host transactions sharing one transactional FTL — the
smartphone-apps scenario, TPC-C terminals.  A
:class:`TransactionContext` gives each host transaction an explicit
identity (tid, lifecycle state machine, owning session) so the layers
can reason about *whose* pages they are holding, and a
:class:`TxnManager` mints and tracks the live set per file system.

The device wire format is unchanged: FTL and device still speak raw
integer tids (``context.tid``), exactly as X-FTL carries tids in SATA
trim/barrier command slack.  Contexts are host-side bookkeeping only,
which keeps single-session runs bit-identical to the seed.

Lifecycle::

    ACTIVE --> COMMITTING --> COMMITTED
       \\            \\
        +-> ABORTED  +-> ABORTED

Illegal transitions (committing an aborted transaction, reusing a
committed one) raise :class:`~repro.errors.TransactionError` at the host
layer, mirroring the checks the FTL performs on raw tids.

Note on tracing: contexts deliberately do *not* hold a long-lived obs
span.  The tracer's span stack is LIFO, and transaction lifetimes from
different sessions interleave, so a txn-long span would corrupt span
nesting.  Instead the manager records zero-duration ``txn.begin`` /
``txn.end`` trace events and a ``txn.lifetime_us`` histogram.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fs.ext4 import Ext4
    from repro.stack.session import Session


class TxnState(enum.Enum):
    """Host-side lifecycle of one transaction context."""

    ACTIVE = "active"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ALLOWED_TRANSITIONS: dict[TxnState, frozenset[TxnState]] = {
    TxnState.ACTIVE: frozenset({TxnState.COMMITTING, TxnState.ABORTED}),
    TxnState.COMMITTING: frozenset({TxnState.COMMITTED, TxnState.ABORTED}),
    TxnState.COMMITTED: frozenset(),
    TxnState.ABORTED: frozenset(),
}


class TransactionContext:
    """One host transaction: tid, state machine, owning session.

    Instances are minted by :meth:`TxnManager.begin`; the file system and
    ``Connection.begin_with_txn`` reject a raw int tid with a
    :class:`~repro.errors.TransactionError`.  The integer ``tid`` is what
    goes over the device wire; ``int(ctx)`` returns it for convenience.
    """

    __slots__ = ("tid", "session", "manager", "state", "start_us")

    def __init__(
        self,
        tid: int,
        session: "Session | None" = None,
        manager: "TxnManager | None" = None,
        start_us: float = 0.0,
    ) -> None:
        self.tid = tid
        self.session = session
        self.manager = manager
        self.state = TxnState.ACTIVE
        self.start_us = start_us

    def __int__(self) -> int:
        return self.tid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = f" session={self.session.name!r}" if self.session is not None else ""
        return f"<TransactionContext tid={self.tid} {self.state.value}{owner}>"

    # ------------------------------------------------------ state machine

    def _transition(self, new: TxnState) -> None:
        if new is self.state:  # idempotent re-entry (multifile staging)
            return
        if new not in _ALLOWED_TRANSITIONS[self.state]:
            raise TransactionError(
                f"transaction {self.tid}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new

    def begin_commit(self) -> None:
        """Enter COMMITTING: pages staged on the device, flush pending."""
        self._transition(TxnState.COMMITTING)

    def mark_committed(self) -> None:
        self._transition(TxnState.COMMITTED)

    def mark_aborted(self) -> None:
        self._transition(TxnState.ABORTED)


@dataclass
class TxnCounts:
    """What the transaction managers of one stack count (``obs.shared``)."""

    OBS_NAMES: ClassVar[dict[str, str]] = {
        "txn.begins": "begins",
        "txn.releases": "releases",
        "txn.snapshot_pins": "snapshot_pins",
    }

    begins: int = 0
    releases: int = 0
    snapshot_pins: int = 0


class TxnManager:
    """Mints and tracks :class:`TransactionContext`\\ s for one file system.

    There is exactly one manager per mounted :class:`~repro.fs.ext4.Ext4`
    (reachable via its lazy ``txn_manager`` property); tid allocation
    delegates to the file system's persistent counter so recovery's
    mount-gap logic applies to every context.
    """

    def __init__(self, fs: "Ext4") -> None:
        # Weak: the file system owns its manager, and a strong
        # back-reference would make every mount a reference cycle.
        self.fs = weakref.proxy(fs)
        self.obs = fs.obs
        self._live: dict[int, TransactionContext] = {}
        # Active snapshot pins (multi-version X-L2P): token -> pinned commit
        # sequence.  The *oldest* pinned sequence is the reclamation floor
        # pushed down to the device so the FTL never releases a retained
        # version some snapshot reader could still resolve through.
        self._snapshots: dict[int, int] = {}
        self._next_snapshot_token = 1
        self.counts: TxnCounts = self.obs.shared(TxnCounts)
        self.obs.instrument(self)

    # ---------------------------------------------------------- lifecycle

    def begin(self, session: "Session | None" = None) -> TransactionContext:
        """Mint a fresh context from the file system's tid sequence."""
        tid = self.fs._allocate_tid()
        ctx = TransactionContext(
            tid, session=session, manager=self, start_us=self._now_us()
        )
        self._live[tid] = ctx
        self.counts.begins += 1
        self.obs.tracer.event("txn.begin", "stack", tid=tid)
        return ctx

    def get(self, tid: int) -> TransactionContext | None:
        return self._live.get(tid)

    def release(self, ctx: TransactionContext) -> None:
        """Drop a context from the live set (idempotent).

        Called after the device has committed/aborted the tid, or when a
        read-only transaction ends without ever reaching the device (the
        context is simply abandoned, still ACTIVE).
        """
        if self._live.pop(ctx.tid, None) is not None:
            self._count_release(ctx.tid, self._now_us() - ctx.start_us)

    def _count_release(self, tid: int, lifetime_us: float) -> None:
        """Count the end of transaction ``tid``, live for ``lifetime_us``."""
        self.counts.releases += 1
        self.obs.tracer.event("txn.end", "stack", tid=tid)

    # ---------------------------------------------------------- snapshots

    def pin_snapshot(self, snapshot_seq: int | None = None) -> tuple[int, int]:
        """Pin a snapshot; returns ``(token, pinned_seq)``.

        Without an explicit ``snapshot_seq`` the device's current commit
        sequence is pinned (a ``BEGIN SNAPSHOT`` read view); with one, an
        historical AS-OF view is pinned.  The oldest pin across all tokens
        becomes the device's version-reclamation floor.
        """
        if snapshot_seq is None:
            snapshot_seq = self.fs.device.snapshot_seq()
        token = self._next_snapshot_token
        self._next_snapshot_token += 1
        self._snapshots[token] = snapshot_seq
        self.counts.snapshot_pins += 1
        self.obs.tracer.event("txn.snapshot.pin", "stack", tid=snapshot_seq)
        self._push_snapshot_floor()
        return token, snapshot_seq

    def release_snapshot(self, token: int) -> None:
        """Release a pin (idempotent); may advance the reclamation floor."""
        if self._snapshots.pop(token, None) is not None:
            self.obs.tracer.event("txn.snapshot.release", "stack")
            self._push_snapshot_floor()

    def oldest_snapshot(self) -> int | None:
        """The oldest pinned commit sequence, or None with no active pins."""
        return min(self._snapshots.values()) if self._snapshots else None

    def _push_snapshot_floor(self) -> None:
        self.fs.device.set_snapshot_floor(self.oldest_snapshot())

    # ------------------------------------------------------------ helpers

    @property
    def live_count(self) -> int:
        return len(self._live)

    def _now_us(self) -> float:
        return self.fs.device.clock.now_us
