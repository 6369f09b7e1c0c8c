"""Top-level stack assembly: ``repro.open_stack`` and friends.

The paper compares three SQLite execution modes (§6.3):

- ``RBJ``: unmodified stack — SQLite rollback journal on ext4 (ordered
  metadata journaling) on the stock page-mapping FTL;
- ``WAL``: SQLite write-ahead log on the same stack;
- ``XFTL``: modified SQLite in OFF mode on ext4 with journaling off and
  tid-passthrough enabled, over the X-FTL firmware.

One :class:`StackConfig` describes every machine; :func:`build_ftl`,
:func:`build_device` and :func:`build_stack` build it up to the FTL, the
device or ext4, so experiments only differ in the config.  This module used to live in
``repro.bench.runner``; it moved here because non-bench consumers (verify
drivers, examples, user code) should not import from ``bench``, and because
the observability layer (:mod:`repro.obs`) hooks in at assembly time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count

from repro.device.ssd import StorageDevice
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.fs.ext4 import Ext4, JournalMode
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.obs import NULL_OBS, Observability, default_hub
from repro.sim.clock import SimClock
from repro.sim.crash import CrashPlan
from repro.sim.latency import OPENSSD_PROFILE, LatencyProfile
from repro.sqlite.database import Connection
from repro.sqlite.pager import SqliteJournalMode

__all__ = [
    "BenchStack",
    "Mode",
    "Session",
    "SessionScheduler",
    "StackConfig",
    "Tenant",
    "TenantScheduler",
    "TransactionContext",
    "TxnManager",
    "TxnState",
    "build_device",
    "build_ftl",
    "build_stack",
    "open_stack",
]


class Mode(enum.Enum):
    """End-to-end stack configurations compared by the paper.

    The enum is the single source of truth for how each layer is
    configured: :meth:`sqlite_journal_mode` and :meth:`fs_journal_mode`
    replace the module-private lookup dicts that used to live in
    ``repro.bench.runner``.
    """

    RBJ = "RBJ"
    WAL = "WAL"
    XFTL = "X-FTL"
    # Extra file-system-only modes for Figures 8/9 and ablations.
    FS_ORDERED = "ordered-journal"
    FS_FULL = "full-journal"
    FS_NONE = "no-journal"

    @property
    def is_database_mode(self) -> bool:
        """Whether this mode runs SQLite (vs. a file-system-only ablation)."""
        return self in (Mode.RBJ, Mode.WAL, Mode.XFTL)

    def sqlite_journal_mode(self) -> SqliteJournalMode:
        """The SQLite journal mode this stack mode runs the pager in.

        Raises :class:`ValueError` for the file-system-only ablation modes,
        which have no database layer to configure.
        """
        if self is Mode.RBJ:
            return SqliteJournalMode.ROLLBACK
        if self is Mode.WAL:
            return SqliteJournalMode.WAL
        if self is Mode.XFTL:
            return SqliteJournalMode.OFF
        raise ValueError(
            f"mode {self.value!r} is a file-system-only mode and has no SQLite "
            f"journal mode; open databases only on RBJ, WAL or XFTL stacks"
        )

    def fs_journal_mode(self) -> JournalMode:
        """The ext4 journaling mode this stack mode mounts with."""
        if self in (Mode.RBJ, Mode.WAL, Mode.FS_ORDERED):
            return JournalMode.ORDERED
        if self is Mode.XFTL:
            return JournalMode.XFTL
        if self is Mode.FS_FULL:
            return JournalMode.FULL
        if self is Mode.FS_NONE:
            return JournalMode.NONE
        raise ValueError(f"mode {self.value!r} has no file-system journal mode")

    @classmethod
    def coerce(cls, mode: "Mode | str") -> "Mode":
        """Accept a :class:`Mode`, its value (``"X-FTL"``) or name (``"xftl"``)."""
        if isinstance(mode, cls):
            return mode
        if not isinstance(mode, str):
            raise ValueError(f"stack mode must be a Mode or its name, not {mode!r}")
        for member in cls:
            if mode == member.value or mode.upper() == member.name:
                return member
        valid = ", ".join(sorted({m.value for m in cls} | {m.name for m in cls}))
        raise ValueError(f"unknown stack mode {mode!r}; expected one of: {valid}")


@dataclass(frozen=True)
class StackConfig:
    """Everything needed to build one simulated machine.

    Frozen, as machines share one (a verify row's scenarios do): derive a
    variant with :func:`dataclasses.replace`."""

    mode: Mode = Mode.XFTL  # or any name Mode.coerce accepts
    num_blocks: int = 1024
    pages_per_block: int = 128
    page_size: int = 8192
    # Device parallelism: flash channels (ops overlap across them) and the
    # NCQ command-queue depth.  The defaults (1/1) reproduce the seed's
    # strictly serial device bit for bit.
    channels: int = 1
    queue_depth: int = 1
    # Barrier-enabled device ("Barrier Enabled IO Stack for Flash
    # Storage"): True makes the device's ordering commands order-only
    # epoch barriers; False (drain) makes each of them cost a flush.  The
    # device is the only reader — nothing above it branches on this.
    barrier_mode: bool = False
    profile: LatencyProfile = OPENSSD_PROFILE
    ftl: FtlConfig = field(default_factory=FtlConfig)
    journal_pages: int = 256
    fs_cache_pages: int = 8192
    max_inodes: int = 128
    # Observability: ``metrics`` enables the counter registry, ``trace``
    # records cross-layer spans as well (and so implies ``metrics``).  An installed
    # ObservabilityHub overrides both: each stack gets an untraced session of its own.
    metrics: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", Mode.coerce(self.mode))


@dataclass
class BenchStack:
    """One assembled machine: chip, FTL, device, file system."""

    config: StackConfig
    clock: SimClock
    chip: FlashChip
    ftl: PageMappingFTL
    device: StorageDevice
    fs: Ext4
    crash_plan: CrashPlan
    obs: Observability = NULL_OBS
    _session_seq: int = 0
    _session_names: set = field(default_factory=set)
    tenants: list = field(default_factory=list)

    def open_database(
        self, name: str = "test.db", cache_pages: int = 4096, **kwargs
    ) -> Connection:
        return Connection(
            self.fs,
            name,
            self.config.mode.sqlite_journal_mode(),
            cache_pages=cache_pages,
            **kwargs,
        )

    def open_session(
        self, name: str | None = None, tenant: "Tenant | None" = None
    ) -> "Session":
        """Open a named :class:`Session` — one logical client of this stack.

        Names are unique on a stack: an open name raises ``ValueError``,
        and a generated name (``s<n>``) skips the names already taken.
        """
        taken = self._session_names
        if name is None:
            name = next(f"s{n}" for n in count(self._session_seq) if f"s{n}" not in taken)
        elif name in taken:
            raise ValueError(f"session {name!r} is already open on this stack")
        self._session_seq += 1
        taken.add(name)
        return Session(self, name, tenant=tenant)

    def open_tenant(self, name: str | None = None, weight: int = 1) -> "Tenant":
        """Open a named :class:`Tenant` — one isolated slice of this stack.

        Tenants share the device, FTL and file system but own a path
        prefix, their sessions and a deterministic RNG lane; see
        :mod:`repro.stack.tenant`.  Opening an open name again with the
        same weight returns the open tenant; with another weight the
        device's tenant registry raises ``ValueError``.
        """
        if name is None:
            name = f"t{len(self.tenants)}"
        tenant_id = self.chip.tenants.register(name, weight)
        for tenant in self.tenants:
            if tenant.id == tenant_id:
                return tenant
        tenant = Tenant(self, name, weight)
        self.tenants.append(tenant)
        return tenant

    def remount_after_crash(self) -> "BenchStack":
        """Power-cycle the device and remount the file system in place."""
        self.device.power_off()
        self.device.power_on()
        self.fs = Ext4.mount(
            self.device,
            self.config.mode.fs_journal_mode(),
            journal_pages=self.config.journal_pages,
            cache_capacity=self.config.fs_cache_pages,
            max_inodes=self.config.max_inodes,
        )
        return self


def build_ftl(config: StackConfig) -> PageMappingFTL:
    """A fresh FTL for ``config`` on a chip, clock and crash plan of its own:
    X-FTL for ``Mode.XFTL``, else the stock page-mapping firmware, as on the
    paper's testbed.  Its obs handle is a hub session labeled with the FTL
    class, else a handle of its own if ``metrics`` or ``trace`` asks, else
    :data:`NULL_OBS`."""
    clock = SimClock()
    xftl = config.mode is Mode.XFTL
    label = "XFTL" if xftl else "PageMappingFTL"
    hub = default_hub()
    if hub is not None:
        obs = hub.session(label=label)
    elif config.metrics or config.trace:
        obs = Observability(enabled=True, trace=config.trace, label=label)
    else:
        obs = NULL_OBS
    if obs.enabled:
        obs.bind_clock(clock)
    geometry = FlashGeometry(
        page_size=config.page_size,
        pages_per_block=config.pages_per_block,
        num_blocks=config.num_blocks,
        channels=config.channels,
    )
    # With channels=1 the chip is strictly serial (the arithmetic the
    # channel-equivalence baseline pins); with channels>1 operations on
    # different channels overlap for real.
    chip = FlashChip(
        geometry, clock=clock, profile=config.profile, crash_plan=CrashPlan(), obs=obs
    )
    if xftl:
        return XFTL(chip, config.ftl)
    return PageMappingFTL(chip, config.ftl)


def build_device(config: StackConfig) -> StorageDevice:
    """:func:`build_ftl`'s FTL behind the NCQ device ``config`` describes."""
    return StorageDevice(
        build_ftl(config), queue_depth=config.queue_depth, barrier_mode=config.barrier_mode
    )


def build_stack(config: StackConfig) -> BenchStack:
    """:func:`build_device`'s device with ext4 made on it: the whole machine."""
    device = build_device(config)
    chip = device.chip
    obs = chip.obs
    fs = Ext4.mkfs(
        device,
        config.mode.fs_journal_mode(),
        journal_pages=config.journal_pages,
        cache_capacity=config.fs_cache_pages,
        max_inodes=config.max_inodes,
    )
    if obs.enabled:
        obs.label = config.mode.value
        obs.annotate("mode", config.mode.value)
        obs.annotate("fs_journal_mode", config.mode.fs_journal_mode().value)
        if config.mode.is_database_mode:
            obs.annotate("sqlite_journal_mode", config.mode.sqlite_journal_mode().value)
        obs.annotate(
            "geometry",
            f"{config.num_blocks}x{config.pages_per_block}x{config.page_size}",
        )
        obs.annotate("channels", config.channels)
        obs.annotate("queue_depth", config.queue_depth)
        obs.annotate("barrier_mode", "barrier" if device.barrier_mode else "drain")
        obs.annotate("gc_mode", config.ftl.gc_mode)
        obs.annotate("cmt_pages", config.ftl.cmt_pages)
        obs.annotate("retain_versions", config.ftl.retain_versions)
    return BenchStack(
        config=config,
        clock=chip.clock,
        chip=chip,
        ftl=device.ftl,
        device=device,
        fs=fs,
        crash_plan=chip.crash_plan,
        obs=obs,
    )


def open_stack(
    mode: Mode | str = Mode.XFTL,
    metrics: bool = False,
    trace: bool = False,
    **overrides,
) -> BenchStack:
    """Build a stack by mode name — the front door of the package.

    ``mode`` accepts the enum, its paper name (``"X-FTL"``) or its enum
    name in any case (``"xftl"``)::

        import repro

        stack = repro.open_stack("X-FTL", metrics=True)
        db = stack.open_database()
    """
    config = StackConfig(mode=mode, metrics=metrics, trace=trace, **overrides)
    return build_stack(config)


# Imported last: session/txn modules depend on the sqlite/fs layers above,
# and Ext4 reaches back into repro.stack.txn lazily (txn_manager property),
# so the submodules must not be imported until this module body is built.
from repro.stack.session import Session, SessionScheduler  # noqa: E402
from repro.stack.tenant import Tenant, TenantScheduler  # noqa: E402
from repro.stack.txn import TransactionContext, TxnManager, TxnState  # noqa: E402
