"""A/B lock: a one-tenant stack must equal the historical single-stack path.

The tenant plumbing (registry on the chip, tagged scheduler steps, NCQ
share bookkeeping) is all host-side accounting — it
must never charge simulated time, draw randomness, or change a single
flash operation.  With one tenant both fairness policies degenerate to
the plain round-robin interleaver, so a run through the tenant API has to
be *bit-identical* to the same workload run through bare sessions:
identical FlashStats, device counters, elapsed simulated time and
BlockStateView digests.

Both sides are computed in the same run — no baseline file to go stale.
"""

from __future__ import annotations

import pytest

from repro.sim.rng import make_rng
from repro.stack import (
    Mode,
    SessionScheduler,
    StackConfig,
    TenantScheduler,
    build_stack,
)

from tests.test_channel_equivalence import _SQLITE_STACK, _capture

_N_ROWS = 8
_N_SESSIONS = 2
_CACHE_PAGES = 512


def _terminal(db, scheduler, index: int):
    """The workload task: interleaved update transactions, group commits."""
    rng = make_rng(7, "test.tenant_equivalence", index)
    for tid in range(1, 9):
        db.execute("BEGIN")
        for _ in range(rng.randrange(1, 4)):
            row = rng.randrange(1, _N_ROWS + 1)
            db.execute(
                "UPDATE t SET v = ? WHERE id = ?", (tid * 1000 + row, row)
            )
        db.execute("COMMIT")
        yield scheduler.commit_token(db)
        yield None


def _seed(db) -> None:
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("BEGIN")
    for row in range(1, _N_ROWS + 1):
        db.execute("INSERT INTO t VALUES (?, 0)", (row,))
    db.execute("COMMIT")


def _run(mode: Mode, variant: str, queue_depth: int = 1, channels: int = 1) -> dict:
    """One workload, three plumbing variants that must not differ.

    ``baseline`` uses bare sessions + SessionScheduler; ``round-robin``
    and ``deficit`` run the identical tasks through one Tenant and the
    TenantScheduler under each fairness policy.  File names and session
    names are identical across variants (the baseline writes into the
    same ``t0/`` prefix) so even directory metadata matches.
    """
    stack = build_stack(
        StackConfig(mode=mode, queue_depth=queue_depth, channels=channels, **_SQLITE_STACK)
    )
    if variant == "baseline":
        scheduler = SessionScheduler(stack)
        tasks = []
        for index in range(_N_SESSIONS):
            session = stack.open_session(name=f"t0.s{index}")
            db = session.open_database(
                f"t0/app{index}.db", cache_pages=_CACHE_PAGES
            )
            _seed(db)
            scheduler.prepare(db)
            tasks.append(_terminal(db, scheduler, index))
        scheduler.run(tasks)
    else:
        scheduler = TenantScheduler(stack, fairness=variant)
        tenant = stack.open_tenant("t0")
        tasks = []
        for index in range(_N_SESSIONS):
            session = tenant.open_session()
            db = tenant.open_database(
                f"app{index}.db", cache_pages=_CACHE_PAGES, session=session
            )
            _seed(db)
            scheduler.prepare(db)
            tasks.append(_terminal(db, scheduler, index))
        scheduler.add(tenant, tasks)
        scheduler.run()
    return _capture(stack)


@pytest.mark.parametrize("mode", [Mode.XFTL, Mode.RBJ])
@pytest.mark.parametrize("policy", ["round-robin", "deficit"])
def test_single_tenant_is_bit_identical(mode: Mode, policy: str) -> None:
    assert _run(mode, policy) == _run(mode, "baseline"), (mode, policy)


@pytest.mark.parametrize("policy", ["round-robin", "deficit"])
def test_single_tenant_bit_identical_with_ncq(policy: str) -> None:
    """Queue-share bookkeeping must not perturb a queued device either."""
    kwargs = dict(queue_depth=4, channels=2)
    assert _run(Mode.XFTL, policy, **kwargs) == _run(Mode.XFTL, "baseline", **kwargs)


def test_tenant_run_attributes_work() -> None:
    """Sanity: the equivalence run did attribute work to the tenant."""
    stack = build_stack(StackConfig(mode=Mode.XFTL, **_SQLITE_STACK))
    scheduler = TenantScheduler(stack, fairness="deficit")
    tenant = stack.open_tenant("t0")
    session = tenant.open_session()
    db = tenant.open_database("app0.db", cache_pages=_CACHE_PAGES, session=session)
    _seed(db)
    scheduler.prepare(db)
    scheduler.add(tenant, [_terminal(db, scheduler, 0)])
    scheduler.run()
    metrics = tenant.metrics()
    assert metrics["commits"] > 0
    assert metrics["writes"] > 0
    assert metrics["commit_latency_max_us"] > 0.0
