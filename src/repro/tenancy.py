"""Per-device tenant registry: identity and per-tenant counts.

One :class:`TenantRegistry` rides on the :class:`~repro.flash.chip.FlashChip`
(the same placement as the clock, crash plan and obs handle: every higher
layer picks it up from the layer below).  It holds each tenant's name and
weight (the weight of its deficit-round-robin lane) and answers one
question for the multi-tenant stack: **who is running right now?**  The
scheduler sets ``registry.current`` around every task step, and the device
books each write and flush command to that tenant instead of threading a
tenant argument through every call signature; the session books each
commit and its simulated latency.

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

from repro.obs import NULL_OBS, Histogram, Observability

__all__ = ["TenantAccount", "TenantRegistry", "UNATTRIBUTED"]

UNATTRIBUTED = 0


class TenantAccount:
    """Command counts for one tenant (or the shared lane, id 0), and the
    simulated latency of each of its commits."""

    #: Fields exported to the obs registry as ``tenant.<name>.<field>``.
    OBS_FIELDS = ("writes", "flushes", "commits")

    __slots__ = ("id", "name", "weight", "writes", "flushes", "commits", "commit_latency")

    def __init__(
        self, tenant_id: int, name: str, weight: int, obs: Observability
    ) -> None:
        self.id = tenant_id
        self.name = name
        self.weight = weight
        self.writes = 0
        self.flushes = 0
        self.commits = 0
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
            "commit_latency_mean_us": latency.mean,
            "commit_latency_max_us": latency.max or 0.0,
        }


class TenantRegistry:
    """Registry of tenants sharing one simulated device.

    Host-side bookkeeping only: no note hook charges simulated time or
    draws randomness, which is what keeps tenancy bit-identity-safe.
    """

    __slots__ = ("obs", "accounts", "current", "enabled", "_by_name")

    def __init__(self, obs: Observability = NULL_OBS) -> None:
        self.obs = obs
        # Slot 0 is the shared/unattributed lane (mkfs, recovery, group
        # batch service); real tenants get ids 1..N.
        self.accounts: list[TenantAccount] = [
            TenantAccount(UNATTRIBUTED, "shared", 0, obs)
        ]
        self.current = UNATTRIBUTED
        self.enabled = False
        self._by_name: dict[str, int] = {}

    # ------------------------------------------------------------ identity

    def register(self, name: str, weight: int = 1) -> int:
        """Register a tenant; returns its id.

        Re-registering a name with its weight is idempotent; with another
        weight it raises ``ValueError``: the tenant's deficit-round-robin
        lane has one weight, the one registered first.
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

    def note_write(self) -> None:
        self.accounts[self.current].writes += 1

    def note_flush(self) -> None:
        self.accounts[self.current].flushes += 1

    def note_commit(self, tenant_id: int, latency_us: float) -> None:
        account = self.accounts[tenant_id]
        account.commits += 1
        account.commit_latency.observe(latency_us)

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        return {
            "tenants": {
                account.name: account.as_dict() for account in self.accounts[1:]
            },
            "shared": self.accounts[0].as_dict(),
        }
