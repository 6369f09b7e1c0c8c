"""Tenants: many isolated SQLite stacks sharing one simulated device.

The paper's headline workload is exactly this shape (§6.3): thousands of
smartphone users, each with a handful of small SQLite databases, all
hammering one flash device whose X-FTL firmware absorbs their commits.
A :class:`Tenant` carves one logical slice out of a shared
:class:`~repro.stack.BenchStack`:

- a **path prefix** on the shared ext4: every file the tenant opens is
  named ``<tenant>/...`` (:meth:`Tenant.path`);
- its own **sessions** (and through them transactions — the shared
  ``TxnManager`` tags every context with the owning session, so tenancy
  rides the existing session plumbing);
- a deterministic **per-tenant RNG lane** via
  :func:`repro.sim.rng.make_rng` (7, "tenant", name, ...);
- an id in the device's :class:`~repro.tenancy.TenantRegistry`, which
  counts the tenant's device writes, flushes and commits and records the
  simulated latency of each commit.

:class:`TenantScheduler` groups tenants' tasks into lanes of the one
deficit-round-robin loop (:mod:`repro.sim.interleave`) under a fairness
policy:

- ``"round-robin"`` — the baseline: every task of every tenant joins one
  lane, a global round-robin ring, so a tenant with many sessions gets
  proportionally many turns (the noisy-neighbour failure mode);
- ``"deficit"`` — one lane per tenant, weighted by the tenant's weight:
  each tenant banks ``QUANTUM_US x weight`` of simulated time per round
  and its tasks only run while the bank is positive, so a hot tenant's
  extra sessions share the hot tenant's quantum instead of multiplying
  it.

The policy only picks the lanes: below the scheduler every tenant's
commands share the device, its NCQ queue and its collector as one
client's would.

With a single tenant both policies run one lane, which is what a
:class:`~repro.stack.SessionScheduler` runs — same task order, same
group-commit batches — so tenants=1 is bit-identical to the
single-stack path (``tests/test_tenant_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.sim.interleave import interleave
from repro.sim.rng import make_rng
from repro.stack.session import Session, SessionScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sqlite.database import Connection
    from repro.stack import BenchStack

__all__ = ["Tenant", "TenantScheduler"]

FAIRNESS_POLICIES = ("round-robin", "deficit")


class Tenant:
    """One isolated client population of a shared stack."""

    def __init__(self, stack: "BenchStack", tenant_id: int, name: str, weight: int) -> None:
        self.stack = stack
        self.id = tenant_id  # registered by BenchStack.open_tenant
        self.name = name
        self.weight = weight  # fairness share under the deficit policy
        self.sessions: list[Session] = []
        self._default_session: Session | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tenant {self.name!r} id={self.id} sessions={len(self.sessions)}>"

    def path(self, name: str) -> str:
        """The shared-fs name of this tenant's file ``name``."""
        return f"{self.name}/{name}"

    def make_rng(self, *labels):
        """A deterministic RNG on this tenant's seed lane."""
        return make_rng(7, "tenant", self.name, *labels)

    def open_session(self, name: str | None = None) -> Session:
        """Open a session owned by this tenant (named ``<tenant>.sN``)."""
        if name is None:
            name = f"{self.name}.s{len(self.sessions)}"
        session = self.stack.open_session(name=name, tenant=self)
        self.sessions.append(session)
        return session

    def open_database(
        self, name: str = "test.db", session: Session | None = None, **kwargs
    ) -> "Connection":
        """Open a database under this tenant's path prefix.

        Without an explicit ``session`` the connection lands on the
        tenant's default session, so casual callers (trace replayers,
        pattern workloads) still get their work attributed.  ``kwargs``
        (``cache_pages``, ...) go to :meth:`BenchStack.open_database`.
        """
        if session is None:
            if self._default_session is None:
                self._default_session = self.open_session()
            session = self._default_session
        return session.open_database(self.path(name), **kwargs)

    def metrics(self) -> dict:
        """This tenant's counts from the device registry."""
        return self.stack.chip.tenants.account(self.id).as_dict()


class TenantScheduler(SessionScheduler):
    """Interleave tasks from several tenants under a fairness policy.

    Use like :class:`SessionScheduler`, but assign tasks to tenants::

        scheduler = TenantScheduler(stack, fairness="deficit")
        scheduler.add(hot, hot_tasks)
        scheduler.add(cold, cold_tasks)
        scheduler.run()

    Group commit works across tenants: parked commits from any mix of
    tenants batch into one ``Ext4.commit_tx_group`` call, exactly as the
    session scheduler batches them within one tenant.
    """

    def __init__(
        self,
        stack: "BenchStack",
        fairness: str = "round-robin",
        group_commit: bool = True,
    ) -> None:
        super().__init__(stack, group_commit=group_commit)
        if fairness not in FAIRNESS_POLICIES:
            raise ValueError(
                f"unknown fairness policy {fairness!r}; "
                f"expected one of {FAIRNESS_POLICIES}"
            )
        self.fairness = fairness
        self._registry = stack.chip.tenants
        self._tasks: dict[int, list] = {}  # tenant id -> tasks, first-assigned first

    def add(self, tenant: Tenant, tasks: Iterable) -> None:
        """Assign ``tasks`` (session generators) to ``tenant``."""
        self._tasks.setdefault(tenant.id, []).extend(tasks)

    def _tagged(self, tenant_id: int, task):
        """Wrap a task so each step runs with the tenant active.

        Pure host-side bookkeeping around ``next(task)`` — no clock time,
        no RNG — so tagging cannot perturb the simulation.
        """
        registry = self._registry
        while True:
            previous = registry.activate(tenant_id)
            try:
                item = next(task)
            except StopIteration:
                return
            finally:
                registry.current = previous
            yield item

    def run(self) -> None:
        """Run all assigned tenant tasks under the fairness policy."""
        lanes = [
            (
                self._registry.account(tenant_id).weight,
                [self._tagged(tenant_id, task) for task in tasks],
            )
            for tenant_id, tasks in self._tasks.items()
        ]
        if self.fairness != "deficit":
            lanes = [(1, [task for _weight, tasks in lanes for task in tasks])]
        interleave(lanes, self._commit_batch, self.stack.clock)
