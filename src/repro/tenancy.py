"""Per-device tenant registry: identity, attribution and fairness inputs.

One :class:`TenantRegistry` rides on the :class:`~repro.flash.chip.FlashChip`
(the same placement as the clock, crash plan and obs handle: every higher
layer picks it up from the layer below).  It answers three questions for
the multi-tenant stack:

* **Who is running right now?**  The scheduler sets ``registry.current``
  around every task step; layers that want to attribute work (device
  writes, NCQ slots, GC streams) read it instead of threading a tenant
  argument through every call signature.
* **Who owns this logical page?**  Ownership is recorded lazily at
  host-write time (``note_write``), so GC copybacks — which happen long
  after the owning tenant stopped running — can still be attributed to
  the tenant whose data is being relocated.
* **How should shared capacity be split?**  ``queue_shares`` turns the
  registered weights into per-tenant NCQ in-flight caps.

The registry is **inert until the first tenant registers**: every note
hook starts with an ``enabled`` check, takes no clock time and draws no
randomness, so a tenant-free stack (and a one-tenant stack, where every
policy degenerates to round-robin) stays bit-identical to the historical
single-stack path.  ``tests/test_tenant_equivalence.py`` pins that.

Tenant id ``0`` (:data:`UNATTRIBUTED`) is the shared/firmware lane: work
done outside any tenant step — mkfs, journal replay, group-commit batch
service — lands there.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.obs import NULL_OBS, Histogram, Observability

__all__ = ["TenantAccount", "TenantRegistry", "UNATTRIBUTED"]

UNATTRIBUTED = 0


class TenantAccount:
    """Attribution counters for one tenant (or the shared lane, id 0), and
    the simulated latency of each of its commits."""

    #: Fields exported to the obs registry as ``tenant.<name>.<field>``.
    OBS_FIELDS = ("writes", "flushes", "commits", "gc_copybacks", "gc_cross_collisions")

    __slots__ = (
        "id",
        "name",
        "weight",
        "writes",
        "flushes",
        "commits",
        "gc_copybacks",
        "gc_cross_collisions",
        "hot_stream_writes",
        "cold_stream_writes",
        "commit_latency",
    )

    def __init__(
        self, tenant_id: int, name: str, weight: int, obs: Observability
    ) -> None:
        self.id = tenant_id
        self.name = name
        self.weight = weight
        self.writes = 0
        self.flushes = 0
        self.commits = 0
        self.gc_copybacks = 0
        self.gc_cross_collisions = 0
        self.hot_stream_writes = 0
        self.cold_stream_writes = 0
        prefix = f"tenant.{name}"
        self.commit_latency = Histogram(f"{prefix}.commit_latency_us")
        obs.registry.bind(self, {f"{prefix}.{field}": field for field in self.OBS_FIELDS})
        obs.registry.bind_histogram(self.commit_latency)

    def as_dict(self) -> dict:
        latency = self.commit_latency
        return {
            "name": self.name,
            "weight": self.weight,
            "writes": self.writes,
            "flushes": self.flushes,
            "commits": self.commits,
            "gc_copybacks": self.gc_copybacks,
            "gc_cross_collisions": self.gc_cross_collisions,
            "hot_stream_writes": self.hot_stream_writes,
            "cold_stream_writes": self.cold_stream_writes,
            "commit_latency_mean_us": latency.mean,
            "commit_latency_max_us": latency.max or 0.0,
        }


class TenantRegistry:
    """Registry of tenants sharing one simulated device.

    Host-side bookkeeping only: no note hook charges simulated time or
    draws randomness, which is what keeps tenancy bit-identity-safe.
    """

    __slots__ = ("obs", "accounts", "current", "enabled", "cross_collisions", "_by_name", "_owner_of")

    def __init__(self, obs: Observability = NULL_OBS) -> None:
        self.obs = obs
        # Slot 0 is the shared/unattributed lane (mkfs, recovery, group
        # batch service); real tenants get ids 1..N.
        self.accounts: list[TenantAccount] = [
            TenantAccount(UNATTRIBUTED, "shared", 0, obs)
        ]
        self.current = UNATTRIBUTED
        self.enabled = False
        self.cross_collisions = 0
        self._by_name: dict[str, int] = {}
        # lpn-indexed tenant ids, set on host write.  A flat typed array
        # (4 bytes/slot, grown lazily to the highest written lpn) instead
        # of a dict: page ownership is dense once a workload warms up, and
        # the dict's ~100 bytes/entry dominated the registry's footprint
        # on large devices.  Unwritten slots read as UNATTRIBUTED (0).
        self._owner_of = array("i")

    # ------------------------------------------------------------ identity

    def register(self, name: str, weight: int = 1) -> int:
        """Register a tenant; returns its id.

        Re-registering a name with its weight is idempotent; with another
        weight it raises ``ValueError``, since the weight sets both the
        tenant's deficit-round-robin lane and its NCQ share.
        """
        existing = self._by_name.get(name)
        if existing is not None:
            registered = self.accounts[existing].weight
            if weight != registered:
                raise ValueError(
                    f"tenant {name!r} is registered with weight {registered}, "
                    f"not {weight}"
                )
            return existing
        if weight < 1:
            raise ValueError(f"tenant weight must be >= 1, got {weight}")
        tenant_id = len(self.accounts)
        self.accounts.append(TenantAccount(tenant_id, name, weight, self.obs))
        self._by_name[name] = tenant_id
        self.enabled = True
        return tenant_id

    def account(self, tenant_id: int) -> TenantAccount:
        return self.accounts[tenant_id]

    def activate(self, tenant_id: int) -> int:
        """Set the current tenant; returns the previous one (for restore)."""
        previous = self.current
        self.current = tenant_id
        return previous

    # --------------------------------------------------------- attribution

    def owner_of(self, lpn: int) -> int:
        owners = self._owner_of
        return owners[lpn] if lpn < len(owners) else UNATTRIBUTED

    def note_write(self, lpn: int) -> None:
        current = self.current
        owners = self._owner_of
        if lpn >= len(owners):
            owners.extend([UNATTRIBUTED] * (lpn + 1 - len(owners)))
        owners[lpn] = current
        self.accounts[current].writes += 1

    def note_flush(self) -> None:
        self.accounts[self.current].flushes += 1

    def note_commit(self, tenant_id: int, latency_us: float) -> None:
        account = self.accounts[tenant_id]
        account.commits += 1
        account.commit_latency.observe(latency_us)

    def note_copyback(self, lpn: int) -> None:
        """Attribute one GC copyback to the tenant owning ``lpn``."""
        self.accounts[self.owner_of(lpn)].gc_copybacks += 1

    def note_stream_write(self, hot: bool) -> None:
        account = self.accounts[self.current]
        if hot:
            account.hot_stream_writes += 1
        else:
            account.cold_stream_writes += 1

    def note_gc_victim(self, owner_ids: Iterable[int]) -> None:
        """Record a GC victim block whose valid pages belong to ``owner_ids``.

        A victim holding live data from two or more tenants is a
        *cross-tenant collision*: each involved tenant pays copyback for
        the other's heat.  Every involved tenant's collision counter is
        bumped so the bench can show which tenants pollute each other.
        """
        involved = {tid for tid in owner_ids if tid != UNATTRIBUTED}
        if len(involved) < 2:
            return
        self.cross_collisions += 1
        for tenant_id in involved:
            self.accounts[tenant_id].gc_cross_collisions += 1

    # ------------------------------------------------------------ fairness

    def queue_shares(self, depth: int) -> dict[int, int]:
        """Split an NCQ depth into per-tenant in-flight caps by weight.

        Each tenant gets ``depth x weight // total_weight`` slots, but at
        least one.  The floor's remainder is not handed out, so the caps
        can sum to less than ``depth`` (three equal tenants at depth 8
        get 2 + 2 + 2), and the minimum can push them above it (three
        equal tenants at depth 2 get 1 + 1 + 1).
        """
        tenants = self.accounts[1:]
        if not tenants or depth <= 0:
            return {}
        total = sum(account.weight for account in tenants)
        return {
            account.id: max(1, (depth * account.weight) // total)
            for account in tenants
        }

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        return {
            "tenants": {
                account.name: account.as_dict() for account in self.accounts[1:]
            },
            "shared": self.accounts[0].as_dict(),
            "cross_collisions": self.cross_collisions,
        }
