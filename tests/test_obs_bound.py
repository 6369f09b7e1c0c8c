"""One counter per event: the registry reads the layers' own records by name.

Every count a layer keeps in a record of its own (``FlashStats``,
``DeviceCounters``, the chip's torn programs, the device's and queue's
stall counts, the collector's schedule counts, X-FTL's version counts, a
tenant's account, ext4's ``FsStats``, its page cache's and its journal's
counts, and the records every pager, connection and transaction manager
of a stack shares) is exported through ``MetricsRegistry.bind``; nothing
increments an obs twin, and no bound record is a layer.
These tests pin that the bound names read the records, on a bare stack and
through ``build_stack``, across merged sessions and across a remount (the
fresh mount's records replace the old ones), and that a disabled handle
binds nothing.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro.device.commands import DeviceCounters
from repro.device.ssd import StorageDevice
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import FlashStats
from repro.fs.ext4 import FsStats
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.obs import NULL_OBS, Observability, install_default_hub, uninstall_default_hub
from repro.stack import Mode, StackConfig, TenantScheduler, build_stack
from repro.tenancy import TenantAccount

_SMALL = dict(num_blocks=128, pages_per_block=64)


def _names(record) -> dict[str, int]:
    """What ``record``'s ``OBS_NAMES`` read."""
    return {name: getattr(record, field) for name, field in record.OBS_NAMES.items()}


def _expected(chip, device, fs=None, sessions=()) -> dict[str, int]:
    """Every bound name of a chip + device (+ fs, + sessions), read straight
    from the records."""
    expected = {**_names(chip.stats), **_names(chip.counts), **_names(device.ftl.gc.counts)}
    if isinstance(device.ftl, XFTL):
        expected.update(_names(device.ftl.mvcc))
    expected.update(
        {f"dev.{f.name}": getattr(device.counters, f.name) for f in fields(DeviceCounters)}
    )
    expected.update(_names(device.stalls))
    if device.queue is not None:
        expected.update(_names(device.queue.counts))
    # The records every pager, connection and transaction manager shares.
    for record in chip.obs._shared.values():
        expected.update(_names(record))
    for account in chip.tenants.accounts:
        for field in TenantAccount.OBS_FIELDS:
            expected[f"tenant.{account.name}.{field}"] = getattr(account, field)
    if fs is not None:
        expected.update({f"fs.{f.name}": getattr(fs.stats, f.name) for f in fields(FsStats)})
        expected.update(_names(fs.cache.counts))
        if fs.journal is not None:
            expected.update(_names(fs.journal.counts))
    for session in sessions:
        expected[f"session.{session.name}.commits"] = session.counts.commits
        expected[f"session.{session.name}.rollbacks"] = session.counts.rollbacks
    return expected


def _bound_values(registry, names) -> dict[str, int]:
    return {name: registry.counter_value(name) for name in names}


def test_ftl_gc_shaped_bare_stack_reads_every_record():
    """No build_stack: the chip, device and queue bind themselves."""
    obs = Observability(enabled=True, label="bare")
    chip = FlashChip(
        FlashGeometry(page_size=512, pages_per_block=16, num_blocks=64, channels=8), obs=obs
    )
    ftl = PageMappingFTL(
        chip,
        FtlConfig(
            gc_mode="background",
            gc_policy="cost-benefit",
            gc_background_watermark=4,
            gc_copyback_pages_per_step=4,
            gc_hot_write_threshold=4,
            gc_wear_spread_threshold=16,
            gc_wear_check_interval=32,
        ),
    )
    device = StorageDevice(ftl, queue_depth=8)
    fill = int(ftl.exported_pages * 0.85)
    rng = random.Random(7)
    for lpn in range(fill):
        device.write(lpn, ("fill", lpn))
    device.flush()
    for seq in range(4 * fill):
        device.write(rng.randrange(fill // 5) if rng.random() < 0.8 else rng.randrange(fill), seq)
        if seq % 64 == 0:
            device.read(rng.randrange(fill))
    device.flush()
    assert chip.stats.gc_invocations > 0
    assert chip.stats.gc_copyback_writes > 0
    expected = _expected(chip, device)
    assert set(obs.registry._bound) == set(expected)
    assert _bound_values(obs.registry, expected) == expected
    assert obs.registry.counters().items() >= expected.items()


def test_merged_registry_sums_bound_counts():
    hub = install_default_hub()
    try:
        stacks = [build_stack(StackConfig(mode=Mode.XFTL, **_SMALL)) for _ in range(2)]
    finally:
        uninstall_default_hub()
    for count, stack in zip((5, 9), stacks):
        for lpn in range(count):
            stack.device.write(lpn, b"x")
        stack.device.flush()
    merged = hub.merged_registry()
    for name, field in FlashStats.OBS_NAMES.items():
        total = sum(getattr(stack.chip.stats, field) for stack in stacks)
        assert merged.counter_value(name) == total, name
    total_writes = sum(stack.device.counters.writes for stack in stacks)
    assert merged.counter_value("dev.writes") == total_writes > 0


def _run_sql(db, rows: int = 40) -> None:
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for start in range(0, rows, 10):
        db.execute("BEGIN")
        for i in range(start, start + 10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("COMMIT")
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'gone' WHERE id = 1")
    db.execute("ROLLBACK")


def _single_stacks():
    yield build_stack(StackConfig(mode=Mode.RBJ, metrics=True, **_SMALL))
    yield build_stack(StackConfig(mode=Mode.WAL, metrics=True, **_SMALL))
    yield build_stack(
        StackConfig(mode=Mode.XFTL, metrics=True, ftl=FtlConfig(cmt_pages=2), **_SMALL)
    )


def _tenant_stack():
    stack = build_stack(
        StackConfig(
            mode=Mode.XFTL,
            metrics=True,
            barrier_mode=True,
            channels=4,
            queue_depth=4,
            **_SMALL,
        )
    )
    scheduler = TenantScheduler(stack, fairness="deficit")
    for name in ("alice", "bob"):
        tenant = stack.open_tenant(name)
        db = tenant.open_database("app.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")

        def task(db=db, name=name):
            for i in range(6):
                db.execute("BEGIN")
                db.execute("INSERT INTO t VALUES (?, ?)", (i, f"{name}-{i}"))
                db.execute("COMMIT")
                yield None

        scheduler.add(tenant, [task()])
    scheduler.run()
    return stack


def test_no_plain_counter_carries_a_bound_name():
    stacks = []
    for stack in _single_stacks():
        _run_sql(stack.open_database("t.db"))
        stacks.append(stack)
    stacks.append(_tenant_stack())
    for stack in stacks:
        registry = stack.obs.registry
        sessions = [session for tenant in stack.tenants for session in tenant.sessions]
        expected = _expected(stack.chip, stack.device, stack.fs, sessions)
        assert set(registry._bound) == set(expected), stack.config.mode
        assert _bound_values(registry, expected) == expected
    tenants = stacks[-1].obs.registry
    assert tenants.counter_value("tenant.alice.commits") >= 6
    assert tenants.counter_value("dev.queue.epochs") > 0


def test_remount_rebinds_fs_records_to_the_new_mount():
    """Counts are per mount: after a power cycle obs ``fs.*`` reads the fresh
    ``FsStats``, cache and journal, not a sum over mounts."""
    stack = build_stack(StackConfig(mode=Mode.RBJ, metrics=True, **_SMALL))
    _run_sql(stack.open_database("t.db"))
    old = stack.fs
    stack.remount_after_crash()
    registry = stack.obs.registry
    fresh = registry.counter_value("fs.journal_page_writes")
    assert fresh == stack.fs.stats.journal_page_writes < old.stats.journal_page_writes
    db = stack.open_database("t.db")
    assert db.execute("SELECT COUNT(*) FROM t") == [(40,)]
    db.execute("INSERT INTO t VALUES (100, 'after')")
    expected = _expected(stack.chip, stack.device, stack.fs)
    assert stack.fs.stats.fsync_calls > 0
    assert set(registry._bound) == set(expected)
    assert _bound_values(registry, expected) == expected
    # Re-pointing is for a record of the same class only.
    with pytest.raises(ValueError):
        registry.bind(FlashStats(), {"fs.data_page_writes": "page_programs"})
    with pytest.raises(ValueError):
        registry.bind(FsStats(), {"sqlite.statements": "fsync_calls"})


def test_metrics_off_binds_nothing_on_the_shared_null_handle():
    for mode in (Mode.RBJ, Mode.WAL, Mode.XFTL):
        stack = build_stack(StackConfig(mode=mode, **_SMALL))
        assert stack.obs is NULL_OBS
        stack.device.write(0, b"x")
    assert NULL_OBS.registry.counters() == {}
    assert NULL_OBS.registry._bound == {}
