"""Regression tests: an armed crash point powers down the whole stack.

Before the fix, a fired :class:`~repro.errors.PowerFailure` left the FTL
reporting ``powered=True`` (and the device ``is_on``), so the documented
recovery sequence — catch PowerFailure, remount — died with
``FtlError("remount on a powered FTL")`` unless the harness manually
called ``power_fail()`` first.  Power loss now propagates through the
crash plan's subscriber list to every layer holding volatile state.
"""

from dataclasses import replace

import pytest

from repro.device import StorageDevice
from repro.errors import FtlError, PowerFailure
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL, XFTL
from repro.sim import CrashPlan, registered_crash_points

GEO = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=16)
CFG = FtlConfig(overprovision=0.25, map_entries_per_page=64, barrier_meta_pages=1)


def make_ftl(cls, plan):
    return cls(FlashChip(GEO, crash_plan=plan), CFG)


class TestPowerLossPropagation:
    @pytest.mark.parametrize("cls", [PageMappingFTL, XFTL])
    def test_crash_fire_powers_down_ftl(self, cls):
        plan = CrashPlan()
        ftl = make_ftl(cls, plan)
        ftl.write(0, b"durable")
        ftl.barrier()
        plan.arm("flash.program.after")
        with pytest.raises(PowerFailure):
            ftl.write(1, b"lost")
        assert ftl.powered is False
        # The documented recovery path must work without a manual power_fail().
        ftl.remount()
        ftl.check_invariants()
        assert ftl.read(0) == b"durable"

    def test_torn_page_countdown_powers_down_ftl(self):
        plan = CrashPlan()
        ftl = make_ftl(PageMappingFTL, plan)
        ftl.write(0, b"durable")
        ftl.barrier()
        plan.arm("flash.program.mid", tear_page=True)
        with pytest.raises(PowerFailure):
            ftl.write(1, b"torn")
        assert ftl.powered is False
        ftl.remount()
        ftl.check_invariants()
        assert ftl.read(0) == b"durable"

    def test_powered_ftl_still_rejects_remount(self):
        ftl = make_ftl(PageMappingFTL, CrashPlan())
        with pytest.raises(FtlError):
            ftl.remount()

    def test_crash_fire_powers_down_device(self):
        plan = CrashPlan()
        device = StorageDevice(make_ftl(XFTL, plan))
        device.write(0, b"durable")
        device.flush()
        plan.arm("flash.program.after")
        with pytest.raises(PowerFailure):
            device.write(1, b"lost")
        assert device.is_on is False
        assert device.ftl.powered is False
        device.power_on()
        assert device.read(0) == b"durable"

    def test_manual_power_cycle_still_works(self):
        device = StorageDevice(make_ftl(PageMappingFTL, CrashPlan()))
        device.write(0, b"v")
        device.flush()
        device.power_off()
        device.power_off()  # idempotent
        device.power_on()
        assert device.read(0) == b"v"

    def test_subscribers_do_not_leak_across_instances(self):
        plan = CrashPlan()
        for _ in range(50):
            make_ftl(PageMappingFTL, plan)
        ftl = make_ftl(PageMappingFTL, plan)
        ftl.write(0, b"x")
        plan.arm("flash.program.after")
        with pytest.raises(PowerFailure):
            ftl.write(1, b"y")
        # Dead FTLs were garbage-collected from the subscriber list.
        assert sum(1 for ref in plan._subscribers if ref() is not None) <= 2


class TestCrashPointRegistry:
    def test_all_stack_layers_register_points(self):
        import repro.stack  # noqa: F401  (imports every layer)

        names = {spec.name for spec in registered_crash_points()}
        expected = {
            "flash.program.before",
            "flash.program.mid",
            "flash.program.after",
            "flash.erase.before",
            "ftl.barrier.mid",
            "xftl.commit.before-flush",
            "xftl.commit.after-flush",
            "fs.fsync.mid",
            "sqlite.commit.mid",
        }
        assert expected <= names

    def test_component_filter(self):
        """A verify layer reaches the points whose component its prefixes name."""
        from repro.verify.runner import applicable_points

        points = applicable_points("ftl.pagemap")
        assert any(spec.component.startswith("flash") for spec in points)
        assert all(spec.component.startswith(("flash", "ftl.pagemap")) for spec in points)
        assert len(points) < len(registered_crash_points())

    def test_tearable_flag(self):
        specs = {spec.name: spec for spec in registered_crash_points()}
        assert specs["flash.program.mid"].tearable
        assert not specs["flash.program.after"].tearable

    def test_specs_carry_docs(self):
        for spec in registered_crash_points():
            assert spec.doc


class TestRetiredXl2pRelocation:
    def test_gc_oob_keeps_xl2p_table_identity(self):
        """Regression: a GC-relocated retired X-L2P table page was relabelled
        OOB_META with index 0, so recovery misfiled it as firmware metadata."""
        from repro.ftl.pagemap import OOB_XL2P_TABLE, OWNER_RETIRED, OWNER_XL2P_TABLE

        ftl = make_ftl(XFTL, CrashPlan())
        oob = ftl._gc_oob(OWNER_RETIRED, (OWNER_XL2P_TABLE, 3), old_ppn=0, seq=5)
        kind, index, seq, tid = oob
        assert kind == OOB_XL2P_TABLE
        assert index == 3
        assert seq == 5
        assert tid is None

    def test_root_follows_relocated_retired_table_page(self):
        from repro.ftl.pagemap import OWNER_RETIRED, OWNER_XL2P_TABLE

        ftl = make_ftl(XFTL, CrashPlan())
        ftl._root.xl2p_ppns = (10, 11)
        ftl._repoint_owner(OWNER_RETIRED, (OWNER_XL2P_TABLE, 1), old_ppn=11, new_ppn=42)
        assert ftl._root.xl2p_ppns == (10, 42)
        assert ftl._pending_retired == {42}

    @pytest.mark.parametrize("kind", ["map", "meta", "xl2p-table", "version"])
    def test_every_retired_kind_keeps_its_identity_through_a_gc_job(self, kind):
        """A retired page moved by a real collection keeps its OOB kind and
        key, stays retired under the same detail, and the durable root's
        reference follows it; the next publish releases it."""
        from repro.ftl.pagemap import (
            DEAD,
            OOB_MAP,
            OOB_META,
            OOB_XL2P_TABLE,
            OWNER_MAP,
            OWNER_META,
            OWNER_RETIRED,
            OWNER_VERSION,
            OWNER_XL2P_TABLE,
        )

        config = FtlConfig(
            overprovision=0.25,
            map_entries_per_page=16,
            barrier_meta_pages=1,
            xl2p_capacity=64,  # two X-L2P table pages per flush
            retain_versions=2 if kind == "version" else 1,
        )
        ftl = XFTL(FlashChip(replace(GEO, num_blocks=32)), config)
        root = ftl._root
        if kind == "map":
            ftl.write(0, b"a")
            ftl.barrier()
            old, owner, oob_kind, key = root.map_dir[0], OWNER_MAP, OOB_MAP, 0
            ftl.write(0, expected := b"b")
            # The barrier's flush, its publish still pending.
            ftl._flush_pages(sorted(ftl._dirty_segments))

            def root_ref():
                return root.map_dir[0]
        elif kind == "meta":
            ftl.barrier()
            old, owner, oob_kind, key = root.meta_dir[0], OWNER_META, OOB_META, 0
            ftl._flush_pages((), ftl.config.barrier_meta_pages)
            expected = None

            def root_ref():
                return root.meta_dir[0]
        elif kind == "xl2p-table":
            ftl.write_tx(1, 0, expected := b"a")
            ftl.commit(1)
            old, owner, oob_kind, key = root.xl2p_ppns[1], OWNER_XL2P_TABLE, OOB_XL2P_TABLE, 1
            # What the next commit's X-L2P flush does before its publish.
            ftl._retire(old, OWNER_XL2P_TABLE, 1)
            ftl._xl2p_page_ppns = []

            def root_ref():
                return root.xl2p_ppns[1]
        else:
            ftl.write(0, b"a")
            old = ftl.mapped_ppn(0)
            ftl.write(0, b"b")
            ftl.write(0, expected := b"c")
            # The third write pushed the chain past its depth of one and
            # released the first copy.  Nothing in the root names a version
            # page, so it is relabelled as metadata under its lpn: recovery
            # checks a persisted chain entry against the OOB at the entry's
            # own (old) ppn, never at the relocated copy.
            owner, oob_kind, key, root_ref = OWNER_VERSION, OOB_META, 0, None
        assert ftl._pending_retired == {old}
        assert ftl._owner[old] == OWNER_RETIRED
        assert ftl._owner_detail[old] == (owner, key)
        per = GEO.pages_per_block
        for lpn in range(10, 10 + 2 * per):  # seal the page's block
            ftl.write(lpn, b"filler")
        job = ftl.gc._open_job(0, old // per)
        ftl.gc._run_job(0, job)
        assert ftl._owner[old] == DEAD and old not in ftl._pending_retired
        (new,) = ftl._pending_retired
        assert ftl._owner[new] == OWNER_RETIRED
        assert ftl._owner_detail[new] == (owner, key)
        assert ftl.chip.read_oob(new)[:2] == (oob_kind, key)
        assert ftl.chip.read_oob(new)[3] is None
        if root_ref is not None:
            assert root_ref() == new
        ftl.barrier()
        assert ftl._owner[new] == DEAD and not ftl._pending_retired
        ftl.check_invariants()
        assert ftl.read(0) == expected
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert ftl.read(0) == expected
