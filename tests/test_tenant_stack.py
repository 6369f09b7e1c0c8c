"""Multi-tenant stack: isolation, attribution, fairness and determinism."""

from __future__ import annotations

import contextlib
import os
from unittest import mock

import pytest

from repro.errors import PowerFailure
from repro.device import StorageDevice
from repro.device.queue import CommandQueue
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL
from repro.ftl.pagemap import OWNER_DATA
from repro.obs import NULL_OBS
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, TenantScheduler, build_stack
from repro.tenancy import UNATTRIBUTED, TenantRegistry
from repro.workloads.android import ALL_PROFILES, AndroidTraceGenerator, TraceReplayer

from tests.test_channel_equivalence import state_digest

_STACK = dict(
    num_blocks=192,
    pages_per_block=32,
    page_size=4096,
    journal_pages=64,
    fs_cache_pages=256,
    max_inodes=48,
)


def _stack(**overrides):
    config = dict(mode=Mode.XFTL, **_STACK)
    config.update(overrides)
    return build_stack(StackConfig(**config))


class TestNamespaces:
    """A tenant's namespace is its ``<name>/`` path prefix."""

    def test_tenant_files_live_under_prefix(self):
        stack = _stack()
        alice = stack.open_tenant("alice")
        alice.open_database("notes.db").execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        assert stack.fs.exists("alice/notes.db")
        assert stack.fs.listdir() == ["alice/notes.db"]

    def test_namespaces_survive_remount(self):
        stack = _stack()
        alice = stack.open_tenant("alice")
        db = alice.open_database("app.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        stack.device.power_off()
        stack.remount_after_crash()
        assert stack.fs.exists("alice/app.db")
        assert stack.fs.listdir() == ["alice/app.db"]

    @pytest.mark.parametrize(
        "mode, files",
        [
            (Mode.RBJ, {"app.db", "app.db-journal"}),
            (Mode.WAL, {"app.db", "app.db-wal"}),
            (Mode.XFTL, {"app.db"}),
        ],
        ids=["rbj", "wal", "xftl"],
    )
    def test_every_file_of_a_tenant_database_is_under_its_prefix(self, mode, files):
        """Each file a tenant's database creates is named under the
        tenant's prefix, no other tenant's, and a power cycle keeps it.
        Alice's last commit is cut at ``sqlite.commit.mid``, which only the
        rollback journal reaches, so the RBJ remount finds a hot journal."""
        stack = _stack(mode=mode)
        tenants = [stack.open_tenant(name) for name in ("alice", "bob")]
        created = {}
        dbs = {}
        with mock.patch.object(stack.fs, "create", wraps=stack.fs.create) as create:
            for tenant in tenants:
                create.reset_mock()
                db = dbs[tenant.name] = tenant.open_database("app.db")
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
                for i in range(4):
                    db.execute("INSERT INTO t VALUES (?, ?)", (i, tenant.name))
                created[tenant.name] = {call.args[0] for call in create.call_args_list}
        stack.crash_plan.arm("sqlite.commit.mid")
        with contextlib.suppress(PowerFailure):
            dbs["alice"].execute("UPDATE t SET v = 'cut'")
        assert (stack.crash_plan.fired is not None) == (mode is Mode.RBJ)
        before = stack.fs.listdir()
        stack.remount_after_crash()
        assert stack.fs.listdir() == before
        held = []
        for tenant in tenants:
            assert created[tenant.name] == {tenant.path(name) for name in files}
            held += [name for name in before if name.startswith(tenant.path(""))]
        assert sorted(held) == before  # every file is under exactly one prefix
        if mode is Mode.RBJ:
            assert "alice/app.db-journal" in before and "bob/app.db-journal" not in before


class TestAttribution:
    def test_per_tenant_metrics_attributed(self):
        stack = _stack()
        scheduler = TenantScheduler(stack, fairness="deficit")
        tenants = [stack.open_tenant(name) for name in ("alice", "bob")]
        for tenant in tenants:
            db = tenant.open_database("app.db")
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")

            def task(db=db, tenant=tenant):
                for i in range(6):
                    db.execute("BEGIN")
                    db.execute(
                        "INSERT INTO t VALUES (?, ?)", (i, f"{tenant.name}-{i}")
                    )
                    db.execute("COMMIT")
                    yield None

            scheduler.add(tenant, [task()])
        scheduler.run()
        registry = stack.chip.tenants.as_dict()
        for name in ("alice", "bob"):
            assert registry["tenants"][name]["writes"] > 0, name
            assert registry["tenants"][name]["commits"] >= 6, name

    def test_background_gc_attributes_every_data_copyback(self):
        """Two tenants write interleaved pages on a background-GC device: a
        victim then holds both tenants' live pages, every data-page copyback
        is booked to the account of the tenant that wrote its lpn (the
        shared lane for the pages written before either opened), and each
        such victim is a cross-tenant collision for both."""
        geometry = FlashGeometry(page_size=512, pages_per_block=32, num_blocks=128, channels=4)
        chip = FlashChip(geometry)
        ftl = PageMappingFTL(chip, FtlConfig(gc_mode="background", gc_policy="cost-benefit"))
        device = StorageDevice(ftl, queue_depth=4)
        registry = chip.tenants
        data_copybacks = 0
        relocate = ftl._apply_relocations

        def counting_relocations(owners, keys, srcs, dst):
            nonlocal data_copybacks
            data_copybacks += owners.count(OWNER_DATA)
            relocate(owners, keys, srcs, dst)

        ftl._apply_relocations = counting_relocations
        fill = int(ftl.exported_pages * 0.75)
        shared = fill // 4
        for lpn in range(shared):  # before any tenant opens: the shared lane
            device.write(lpn, ("shared", lpn))
        tenants = (registry.register("alice"), registry.register("bob"))
        for lpn in range(shared, fill):  # each tenant owns every other lpn
            registry.activate(tenants[lpn % 2])
            device.write(lpn, ("fill", lpn))
        device.flush()
        rng = make_rng(7, "test.tenant_stack", "background_gc")
        for step in range(3000):
            lpn = rng.randrange(fill)
            registry.activate(tenants[lpn % 2] if lpn >= shared else UNATTRIBUTED)
            device.write(lpn, ("w", step))
            if step % 8 == 7:
                device.flush()

        # Background slices collect all of it (356 victims, none urgent,
        # when recorded).
        assert chip.stats.gc_urgent_collections == 0 and chip.stats.gc_invocations > 100
        assert chip.stats.gc_copyback_writes >= data_copybacks > 0
        accounts = registry.accounts
        assert [account.id for account in accounts] == [UNATTRIBUTED, *tenants]
        assert all(account.gc_copybacks > 0 for account in accounts)
        assert sum(account.gc_copybacks for account in accounts) == data_copybacks
        assert registry.cross_collisions > 0
        # Two tenants: every collision involves both.
        assert all(
            accounts[tenant].gc_cross_collisions == registry.cross_collisions
            for tenant in tenants
        )

    def test_weight_validation(self):
        stack = _stack()
        with pytest.raises(ValueError):
            stack.open_tenant("bad", weight=0)

    def test_reregistering_with_the_same_weight_is_idempotent(self):
        stack = _stack()
        first = stack.open_tenant("a", weight=3)
        again = stack.open_tenant("a", weight=3)
        assert again.id == first.id
        assert stack.chip.tenants.account(first.id).weight == 3

    def test_reopening_an_open_tenant_returns_it(self):
        stack = _stack()
        first = stack.open_tenant("a", weight=2)
        again = stack.open_tenant("a", weight=2)
        assert again is first
        assert len(stack.tenants) == 1
        assert first.open_session().name == "a.s0"
        assert again.open_session().name == "a.s1"  # one tenant, one session count

    def test_reregistering_with_another_weight_raises(self):
        """The weight sets both the DRR lane and the NCQ share; a second
        weight for one name would make the two disagree."""
        stack = _stack()
        tenant = stack.open_tenant("a", weight=1)
        with pytest.raises(ValueError, match="weight 1, not 3"):
            stack.open_tenant("a", weight=3)
        assert stack.tenants == [tenant]
        assert stack.chip.tenants.account(tenant.id).weight == 1

    def test_owner_map_is_array_backed_and_compact(self):
        """The per-lpn owner map is a flat typed array, not a dict.

        Footprint regression for the compaction: the array must undercut
        the dict it replaced by a wide margin on a dense ownership map
        (the dict paid ~100 bytes per entry; the array pays 4 plus slack).
        Unwritten lpns must still read as UNATTRIBUTED without growing it.
        """
        import sys

        registry = TenantRegistry()
        tenant = registry.register("alice")
        registry.activate(tenant)
        lpns = 20_000
        for lpn in range(lpns):
            registry.note_write(lpn)
        for lpn in (0, lpns // 2, lpns - 1):
            assert registry.owner_of(lpn) == tenant
        assert registry.owner_of(lpns + 10_000) == UNATTRIBUTED

        array_bytes = sys.getsizeof(registry._owner_of)
        dict_equivalent = {lpn: tenant for lpn in range(lpns)}
        dict_bytes = sys.getsizeof(dict_equivalent)
        assert array_bytes < dict_bytes / 4, (array_bytes, dict_bytes)

    def test_unknown_fairness_policy_rejected(self):
        stack = _stack()
        with pytest.raises(ValueError):
            TenantScheduler(stack, fairness="lottery")


class TestQueueShares:
    def test_share_split_by_weight(self):
        registry = TenantRegistry()
        heavy = registry.register("heavy", weight=3)
        light = registry.register("light", weight=1)
        shares = registry.queue_shares(8)
        assert shares[heavy] == 6
        assert shares[light] == 2
        # Everyone gets at least one slot however small the depth.
        assert registry.queue_shares(1) == {heavy: 1, light: 1}

    def test_share_floor_remainder_is_not_handed_out(self):
        """Floor with a minimum of one: equal tenants leave the remainder
        unused at depth 8 and overshoot a depth smaller than their count."""
        registry = TenantRegistry()
        ids = [registry.register(name) for name in ("a", "b", "c")]
        assert registry.queue_shares(8) == dict.fromkeys(ids, 2)
        assert registry.queue_shares(2) == dict.fromkeys(ids, 1)

    def test_share_cap_blocks_until_completion(self):
        clock = SimClock()
        registry = TenantRegistry()
        hot = registry.register("hot", weight=1)
        registry.register("cold", weight=1)
        queue = CommandQueue(clock, depth=4, obs=NULL_OBS, tenants=registry)
        queue.set_shares(registry.queue_shares(4))  # 2 slots each
        registry.current = hot
        queue.admit()
        queue.push(clock.now_us + 100.0)
        queue.admit()
        queue.push(clock.now_us + 200.0)
        # Third hot command: the queue has free depth but the tenant's
        # share (2) is exhausted, so admit waits for a completion.
        before = clock.now_us
        queue.admit()
        assert clock.now_us >= before + 100.0
        assert queue.counts.share_stalls == 1

    def test_no_shares_no_stalls(self):
        clock = SimClock()
        registry = TenantRegistry()
        hot = registry.register("hot", weight=1)
        queue = CommandQueue(clock, depth=4, obs=NULL_OBS, tenants=registry)
        registry.current = hot
        for offset in (100.0, 200.0, 300.0):
            queue.admit()
            queue.push(clock.now_us + offset)
        assert clock.now_us == 0.0
        assert queue.counts.share_stalls == 0

    def _capped_queue(self, depth=8):
        clock = SimClock()
        registry = TenantRegistry()
        hot = registry.register("hot", weight=1)
        cold = registry.register("cold", weight=1)
        queue = CommandQueue(clock, depth=depth, obs=NULL_OBS, tenants=registry)
        queue.set_shares(registry.queue_shares(depth))
        return clock, registry, queue, hot, cold

    def test_share_stall_waits_on_own_completion_not_global_head(self):
        """The stalled tenant's wait target is its *own* earliest command.

        The cold tenant's command is the global queue head; waiting on it
        cannot lower the hot tenant's live count.  The capped admit must
        join the hot tenant's own earliest completion (300), count exactly
        one stall, and leave the cold command untouched in flight.
        """
        clock, registry, queue, hot, cold = self._capped_queue(depth=2)  # 1 each
        registry.current = cold
        queue.admit()
        queue.push(50.0)  # global head, foreign to the hot tenant
        registry.current = hot
        queue.admit()
        queue.push(300.0)
        queue.admit()  # hot share (1) exhausted
        assert clock.now_us == 300.0
        assert queue.counts.share_stalls == 1

    def test_empty_share_does_not_wedge(self):
        """A cap the tenant cannot satisfy must bail out, not spin forever.

        With no own command in flight the live count can never drop by
        waiting; the admit loop must break (and make no clock progress)
        instead of wedging on completions that cannot help.
        """
        clock, registry, queue, hot, _cold = self._capped_queue(depth=2)
        queue.set_shares({hot: 0})
        registry.current = hot
        queue.admit()  # capped at 0 with nothing in flight: returns
        assert clock.now_us == 0.0
        assert queue.counts.share_stalls == 1

    def test_reset_clears_tenant_bookkeeping(self):
        """Power loss forgets per-tenant live counts along with the heap.

        A stale ``_live_by_tenant`` count would make every post-recovery
        capped admit stall (or spuriously bail) against commands that no
        longer exist.  After ``reset()`` the bookkeeping is empty and a
        share-capped admit proceeds without waiting or counting a stall.
        """
        clock, registry, queue, hot, _cold = self._capped_queue(depth=4)  # 2 each
        registry.current = hot
        for end in (100.0, 200.0):
            queue.admit()
            queue.push(end)
        queue.reset()
        assert queue._live_by_tenant == {}
        assert queue.in_flight == 0
        queue.admit()  # share is free again: no wait, no stall
        assert clock.now_us == 0.0
        assert queue.counts.share_stalls == 0
        queue.push(clock.now_us + 50.0)
        assert queue.in_flight == 1


class TestAndroidTenants:
    """Android trace mixes driven through the tenant API (satellite #3)."""

    N_TENANTS = 4
    SCALE = 0.002

    def _run(self, fairness: str):
        stack = _stack(max_inodes=64)
        scheduler = TenantScheduler(stack, fairness=fairness, group_commit=False)
        tenants = []
        for profile in ALL_PROFILES[: self.N_TENANTS]:
            name = profile.name.lower().replace(" ", "")
            tenant = stack.open_tenant(name)
            ops, _stats = AndroidTraceGenerator(profile, scale=self.SCALE).generate()
            replayer = TraceReplayer(tenant)
            scheduler.add(tenant, [replayer.replay_task(ops)])
            tenants.append(tenant)
        scheduler.run()
        capture = {
            "flash_stats": stack.chip.stats.as_dict(),
            "elapsed_us": stack.clock.now_us,
            "state_digest": state_digest(stack.ftl),
            "registry": stack.chip.tenants.as_dict(),
        }
        return stack, tenants, capture

    @pytest.mark.parametrize("fairness", ["round-robin", "deficit"])
    def test_deterministic_under_interleaving(self, fairness):
        _, _, first = self._run(fairness)
        _, _, second = self._run(fairness)
        assert first == second

    def test_four_tenants_isolated_and_attributed(self):
        stack, tenants, capture = self._run("deficit")
        assert len(tenants) == 4
        registry = capture["registry"]
        held = []
        for tenant in tenants:
            # Every tenant's databases live under its own prefix...
            files = [name for name in stack.fs.listdir() if name.startswith(tenant.path(""))]
            assert files, tenant.name
            held += files
            # ...and its replay produced attributed commits and writes.
            assert registry["tenants"][tenant.name]["commits"] > 0, tenant.name
            assert registry["tenants"][tenant.name]["writes"] > 0, tenant.name
        assert sorted(held) == stack.fs.listdir()


class TestFairness:
    def test_deficit_bounds_cold_tail(self):
        """The tentpole claim: deficit < round-robin on cold-tenant p99
        (11,699 against 20,139 us when recorded)."""
        from repro.bench.experiments import tenant_fairness

        with mock.patch.dict(os.environ, REPRO_SCALE="0.42"):  # 5 txns per session
            result = tenant_fairness()
        rr = result.runs["round-robin"]
        drr = result.runs["deficit"]
        # Identical statement streams either way...
        assert rr["hot_commits"] == drr["hot_commits"]
        assert rr["cold_commits"] == drr["cold_commits"]
        # ...but the cold tenants' tail is strictly better under deficit.
        assert drr["cold_p99_us"] < rr["cold_p99_us"]

    def test_a_tenant_assigned_twice_runs_as_one_lane(self):
        """Tasks added in two calls, or through a re-opened tenant, share
        the tenant's one deficit lane instead of doubling its quantum."""
        from repro.sim.interleave import QUANTUM_US

        stack = _stack()
        scheduler = TenantScheduler(stack, fairness="deficit")
        log = []

        def task(name):
            for _ in range(3):
                log.append(name)
                stack.clock.advance(QUANTUM_US)
                yield None

        scheduler.add(stack.open_tenant("a"), [task("a1")])
        scheduler.add(stack.open_tenant("b"), [task("b")])
        scheduler.add(stack.open_tenant("a"), [task("a2")])
        scheduler.run()
        assert log == ["a1", "b", "a2", "b", "a1", "b", "a2", "a1", "a2"]
