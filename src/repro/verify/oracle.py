"""Write-history oracles: which post-crash states are legal.

The verification drivers record every acknowledged operation here while
the workload runs; after the crash and remount the oracle is asked what
each key may legally read as.  Two consistency contracts exist in the
stack:

:class:`PlainWriteOracle`
    Ordinary (non-transactional) writes with explicit durability points
    (FTL barrier, fsync).  Recovery must expose, per key, the value of
    the last durability point *or any later acknowledged write* — the
    log-structured layers replay completed appends opportunistically, so
    post-barrier writes may survive, but a value older than the durable
    floor (or one never written) is a bug.

:class:`TransactionOracle`
    X-FTL transactions (and SQLite transactions riding on them): strict
    all-or-nothing.  An acknowledged commit is durable exactly; an abort
    or still-active transaction leaves no trace; a commit that was in
    flight when power died may surface fully applied or fully discarded
    — but never mixed.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable


class _Unwritten:
    """Sentinel for "this key was never durably written" (reads as None)."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "UNWRITTEN"


UNWRITTEN = _Unwritten()


class PlainWriteOracle:
    """Durable-floor-or-later oracle for barriered plain writes."""

    def __init__(self) -> None:
        self._durable: dict[Hashable, Any] = {}
        self._pending: dict[Hashable, list[Any]] = {}

    def note_write(self, key: Hashable, value: Any) -> None:
        """An acknowledged write; volatile until the next durability point."""
        self._pending.setdefault(key, []).append(value)

    def note_durable(self) -> None:
        """A barrier/fsync returned: every acknowledged write is now floor."""
        for key, values in self._pending.items():
            if values:
                self._durable[key] = values[-1]
        self._pending.clear()

    def keys(self) -> set[Hashable]:
        return set(self._durable) | set(self._pending)

    def allowed(self, key: Hashable) -> set[Any]:
        """Legal post-recovery values: the floor plus any later write.

        ``None`` (via UNWRITTEN semantics) is legal only when no
        durability point ever covered the key.
        """
        floor = self._durable.get(key, UNWRITTEN)
        legal = {None if floor is UNWRITTEN else floor}
        legal.update(self._pending.get(key, ()))
        return legal

    def check(self, read: Callable[[Hashable], Any]) -> list[str]:
        """Diff recovered state against the oracle; returns violations."""
        violations = []
        for key in sorted(self.keys(), key=repr):
            observed = read(key)
            legal = self.allowed(key)
            if observed not in legal:
                floor = self._durable.get(key, UNWRITTEN)
                violations.append(
                    f"key {key!r}: recovered {observed!r}, legal {sorted(legal, key=repr)!r} "
                    f"(durable floor {floor!r})"
                )
        return violations


class TransactionOracle:
    """All-or-nothing oracle for transactional writes.

    Transactions move through ``active -> in-doubt -> committed`` (or
    ``aborted``).  ``in-doubt`` means the commit command was issued but
    power died before it was acknowledged: recovery may legally expose
    either outcome, chosen *atomically* for all of the transaction's
    keys.  The checker enumerates outcome assignments for the (few)
    in-doubt transactions and accepts the observation iff some
    assignment explains every key.
    """

    def __init__(self, baseline: dict[Hashable, Any] | None = None) -> None:
        self._baseline: dict[Hashable, Any] = dict(baseline or {})
        self._active: dict[int, dict[Hashable, Any]] = {}
        self._in_doubt: list[tuple[int, dict[Hashable, Any]]] = []
        self._committed: list[tuple[int, dict[Hashable, Any]]] = []
        self._aborted: set[int] = set()

    def note_tx_write(self, tid: int, key: Hashable, value: Any) -> None:
        self._active.setdefault(tid, {})[key] = value

    def note_commit_started(self, tid: int) -> None:
        """The commit command left the host; outcome now rides on the device."""
        writes = self._active.pop(tid, {})
        self._in_doubt.append((tid, writes))

    def note_committed(self, tid: int) -> None:
        """The commit was acknowledged: durably applied, no takebacks."""
        for index, (in_doubt_tid, writes) in enumerate(self._in_doubt):
            if in_doubt_tid == tid:
                del self._in_doubt[index]
                self._committed.append((tid, writes))
                return
        # Commit without an explicit note_commit_started is fine too.
        self._committed.append((tid, self._active.pop(tid, {})))

    def note_aborted(self, tid: int) -> None:
        self._active.pop(tid, None)
        self._aborted.add(tid)

    def keys(self) -> set[Hashable]:
        keys = set(self._baseline)
        for _, writes in itertools.chain(self._committed, self._in_doubt):
            keys.update(writes)
        for writes in self._active.values():
            keys.update(writes)
        return keys

    def _expected(self, applied_in_doubt: tuple[bool, ...]) -> dict[Hashable, Any]:
        state = dict(self._baseline)
        for _, writes in self._committed:
            state.update(writes)
        for (_, writes), applied in zip(self._in_doubt, applied_in_doubt):
            if applied:
                state.update(writes)
        return state

    def check(self, read: Callable[[Hashable], Any]) -> list[str]:
        """Diff recovered state; empty iff some in-doubt outcome explains it."""
        observed = {key: read(key) for key in self.keys()}
        assignments = list(
            itertools.product((False, True), repeat=len(self._in_doubt))
        )
        best: tuple[int, list[str]] | None = None
        for assignment in assignments:
            expected = self._expected(assignment)
            mismatches = [
                f"key {key!r}: recovered {observed[key]!r}, expected {expected.get(key)!r}"
                f" (in-doubt outcome {assignment})"
                for key in sorted(observed, key=repr)
                if observed[key] != expected.get(key)
            ]
            if not mismatches:
                return []
            if best is None or len(mismatches) < best[0]:
                best = (len(mismatches), mismatches)
        assert best is not None
        return best[1]
