"""Unit and property tests for X-FTL transactional semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PowerFailure, TransactionError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, XFTL
from repro.ftl.xl2p import TxStatus, XL2PTable
from repro.sim import CrashPlan


def make_xftl(num_blocks=32, pages_per_block=8, crash_plan=None, **cfg) -> XFTL:
    geo = FlashGeometry(page_size=512, pages_per_block=pages_per_block, num_blocks=num_blocks)
    defaults = dict(
        overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1, xl2p_capacity=64
    )
    defaults.update(cfg)
    return XFTL(FlashChip(geo, crash_plan=crash_plan), FtlConfig(**defaults))


class TestXL2PTable:
    def test_put_and_get(self):
        table = XL2PTable(capacity=4)
        table.put(1, 10, 100)
        entry = table.get(1, 10)
        assert entry.new_ppn == 100
        assert entry.status is TxStatus.ACTIVE

    def test_put_same_page_twice_returns_previous(self):
        table = XL2PTable(capacity=4)
        assert table.put(1, 10, 100) is None
        previous = table.put(1, 10, 200)
        assert previous.new_ppn == 100
        assert table.get(1, 10).new_ppn == 200
        assert len(table) == 1

    def test_capacity_enforced(self):
        table = XL2PTable(capacity=2)
        table.put(1, 0, 10)
        table.put(1, 1, 11)
        with pytest.raises(TransactionError):
            table.put(1, 2, 12)

    def test_capacity_allows_updates_when_full(self):
        table = XL2PTable(capacity=2)
        table.put(1, 0, 10)
        table.put(1, 1, 11)
        table.put(1, 0, 12)  # update of existing entry: allowed
        assert table.get(1, 0).new_ppn == 12

    def test_remove_tid(self):
        table = XL2PTable(capacity=8)
        table.put(1, 0, 10)
        table.put(1, 1, 11)
        table.put(2, 0, 12)
        removed = table.remove_tid(1)
        assert {e.lpn for e in removed} == {0, 1}
        assert len(table) == 1
        assert table.get(2, 0) is not None

    def test_entries_isolated_per_tid(self):
        table = XL2PTable(capacity=8)
        table.put(1, 5, 10)
        table.put(2, 5, 20)
        assert table.get(1, 5).new_ppn == 10
        assert table.get(2, 5).new_ppn == 20

    def test_flush_page_count_matches_paper_sizes(self):
        # 500 entries x 16 bytes = 8 KB -> one 8 KB page
        assert XL2PTable(capacity=500, entry_bytes=16).flush_page_count(8192) == 1
        # 1000 entries x 16 bytes = 16 KB -> two 8 KB pages
        assert XL2PTable(capacity=1000, entry_bytes=16).flush_page_count(8192) == 2

    def test_serialize_round_trip(self):
        table = XL2PTable(capacity=64)
        table.put(1, 0, 10)
        table.put(1, 3, 13)
        table.put(2, 7, 27)
        table.set_status(1, TxStatus.COMMITTED)
        images = table.serialize(page_size=512)
        restored = XL2PTable.deserialize(images, capacity=64, entry_bytes=16)
        assert restored.get(1, 0).status is TxStatus.COMMITTED
        assert restored.get(2, 7).status is TxStatus.ACTIVE
        assert len(restored) == 3


class TestTransactionalReadsWrites:
    def test_uncommitted_write_invisible_to_plain_read(self):
        ftl = make_xftl()
        ftl.write(0, b"committed")
        ftl.write_tx(1, 0, b"pending")
        assert ftl.read(0) == b"committed"

    def test_transaction_sees_own_write(self):
        ftl = make_xftl()
        ftl.write(0, b"committed")
        ftl.write_tx(1, 0, b"pending")
        assert ftl.read_tx(1, 0) == b"pending"

    def test_other_transaction_sees_committed_copy(self):
        ftl = make_xftl()
        ftl.write(0, b"committed")
        ftl.write_tx(1, 0, b"pending")
        assert ftl.read_tx(2, 0) == b"committed"

    def test_commit_publishes(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"v1")
        ftl.commit(1)
        assert ftl.read(0) == b"v1"

    def test_abort_discards(self):
        ftl = make_xftl()
        ftl.write(0, b"before")
        ftl.write_tx(1, 0, b"never")
        ftl.abort(1)
        assert ftl.read(0) == b"before"

    def test_abort_of_first_write_leaves_page_unmapped(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"never")
        ftl.abort(1)
        assert ftl.read(0) is None

    def test_multi_page_transaction_commits_as_group(self):
        ftl = make_xftl()
        for lpn in range(5):
            ftl.write_tx(9, lpn, b"group-%d" % lpn)
        for lpn in range(5):
            assert ftl.read(lpn) is None
        ftl.commit(9)
        for lpn in range(5):
            assert ftl.read(lpn) == b"group-%d" % lpn

    def test_rewrite_within_transaction_keeps_one_entry(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"first")
        ftl.write_tx(1, 0, b"second")
        assert len(ftl.xl2p) == 1
        ftl.commit(1)
        assert ftl.read(0) == b"second"

    def test_write_tx_requires_tid(self):
        ftl = make_xftl()
        with pytest.raises(TransactionError):
            ftl.write_tx(None, 0, b"x")

    def test_commit_flushes_xl2p_pages(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        before = ftl.stats.xl2p_page_writes
        ftl.commit(1)
        assert ftl.stats.xl2p_page_writes > before

    def test_commit_does_not_flush_main_map(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        before = ftl.stats.map_page_writes
        ftl.commit(1)
        assert ftl.stats.map_page_writes == before

    def test_empty_commit_allowed(self):
        ftl = make_xftl()
        ftl.commit(42)
        assert ftl.stats.commits == 1

    def test_empty_commit_does_not_flush_or_persist(self):
        """Regression: an empty commit used to CoW-flush the whole X-L2P
        table and durably record the tid in the committed set."""
        ftl = make_xftl()
        before = ftl.stats.xl2p_page_writes
        ftl.commit(42)
        assert ftl.stats.xl2p_page_writes == before
        assert 42 not in ftl._root.committed_tids

    def test_double_commit_raises(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        ftl.commit(1)
        with pytest.raises(TransactionError):
            ftl.commit(1)

    def test_commit_after_abort_raises(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        ftl.abort(1)
        with pytest.raises(TransactionError):
            ftl.commit(1)

    def test_abort_after_commit_raises(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        ftl.commit(1)
        with pytest.raises(TransactionError):
            ftl.abort(1)

    def test_double_abort_is_noop(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        ftl.abort(1)
        ftl.abort(1)  # rolling back an already-rolled-back tid is harmless
        assert ftl.stats.aborts == 1

    def test_abort_writes_nothing(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"x")
        programs_before = ftl.stats.page_programs
        ftl.abort(1)
        assert ftl.stats.page_programs == programs_before


class TestGcPinning:
    def test_uncommitted_pages_survive_gc(self):
        ftl = make_xftl()
        ftl.write_tx(1, 150, b"pinned-uncommitted")
        # Hammer other pages to force many GC cycles.
        for round_num in range(40):
            for lpn in range(12):
                ftl.write(lpn, b"hot-%d" % round_num)
        assert ftl.stats.gc_invocations > 0
        assert ftl.read_tx(1, 150) == b"pinned-uncommitted"
        ftl.commit(1)
        assert ftl.read(150) == b"pinned-uncommitted"

    def test_old_committed_copy_pinned_until_commit(self):
        ftl = make_xftl()
        ftl.write(150, b"old-copy")
        ftl.write_tx(1, 150, b"new-copy")
        for round_num in range(40):
            for lpn in range(12):
                ftl.write(lpn, b"hot-%d" % round_num)
        # Old copy must still be readable: transaction could yet abort.
        assert ftl.read(150) == b"old-copy"
        ftl.abort(1)
        assert ftl.read(150) == b"old-copy"
        ftl.check_invariants()

    def test_invariants_hold_under_mixed_traffic(self):
        ftl = make_xftl()
        tid = 0
        for round_num in range(25):
            tid += 1
            for lpn in range(6):
                ftl.write_tx(tid, lpn, b"t%d-%d" % (tid, lpn))
            if round_num % 3 == 0:
                ftl.abort(tid)
            else:
                ftl.commit(tid)
            ftl.write(20 + (round_num % 5), b"plain-%d" % round_num)
        ftl.check_invariants()


class TestCrashRecovery:
    def test_committed_survives_crash(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"durable")
        ftl.commit(1)
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"durable"
        ftl.check_invariants()

    def test_uncommitted_rolled_back_on_crash(self):
        ftl = make_xftl()
        ftl.write(0, b"base")
        ftl.barrier()
        ftl.write_tx(1, 0, b"in-flight")
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"base"
        ftl.check_invariants()

    def test_crash_before_xl2p_flush_rolls_back(self):
        plan = CrashPlan()
        plan.arm("xftl.commit.before-flush")
        ftl = make_xftl(crash_plan=plan)
        ftl.write(0, b"base")
        ftl.barrier()
        ftl.write_tx(1, 0, b"almost-committed")
        with pytest.raises(PowerFailure):
            ftl.commit(1)
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"base"

    def test_crash_after_xl2p_flush_commits(self):
        plan = CrashPlan()
        plan.arm("xftl.commit.after-flush")
        ftl = make_xftl(crash_plan=plan)
        ftl.write(0, b"base")
        ftl.barrier()
        ftl.write_tx(1, 0, b"committed")
        with pytest.raises(PowerFailure):
            ftl.commit(1)
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"committed"

    def test_recovery_is_idempotent(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"v")
        ftl.commit(1)
        ftl.power_fail()
        ftl.remount()
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"v"
        ftl.check_invariants()

    def test_mixed_committed_and_active_at_crash(self):
        ftl = make_xftl()
        for lpn in range(4):
            ftl.write(lpn, b"base-%d" % lpn)
        ftl.barrier()
        ftl.write_tx(1, 0, b"c1")
        ftl.write_tx(1, 1, b"c1b")
        ftl.commit(1)
        ftl.write_tx(2, 2, b"active")
        ftl.write_tx(3, 3, b"active2")
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(0) == b"c1"
        assert ftl.read(1) == b"c1b"
        assert ftl.read(2) == b"base-2"
        assert ftl.read(3) == b"base-3"

    def test_commit_of_a_page_written_before_the_last_barrier_survives(self):
        """A page takes effect at its commit, not where it was written: T1's
        page sits below root.seq and T2's X-L2P flush dropped T1's entry, so
        only the root's tid -> commit sequence still says it is committed."""
        ftl = make_xftl()
        ftl.write(5, b"old5")
        ftl.write(6, b"old6")
        ftl.barrier()
        ftl.write_tx(1, 5, b"t1")
        ftl.barrier()
        ftl.commit(1)
        ftl.write_tx(2, 6, b"t2")
        ftl.commit(2)
        ftl.power_fail()
        ftl.remount()
        assert ftl.read(5) == b"t1"
        assert ftl.read(6) == b"t2"
        ftl.check_invariants()

    def test_xl2p_recovery_time_recorded(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"v")
        ftl.commit(1)
        ftl.power_fail()
        ftl.remount()
        assert ftl.last_xl2p_recovery_us > 0


class TestXftlProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        txns=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=15),
                        st.binary(min_size=1, max_size=4),
                    ),
                    min_size=1,
                    max_size=5,
                ),
                st.booleans(),  # commit?
            ),
            max_size=25,
        )
    )
    def test_serial_transactions_atomicity(self, txns):
        """Serial txns: committed state == replay of committed txns only."""
        ftl = make_xftl(num_blocks=48)
        reference: dict[int, bytes] = {}
        for tid, (writes, do_commit) in enumerate(txns, start=1):
            staged: dict[int, bytes] = {}
            for lpn, payload in writes:
                ftl.write_tx(tid, lpn, payload)
                staged[lpn] = payload
            if do_commit:
                ftl.commit(tid)
                reference.update(staged)
            else:
                ftl.abort(tid)
        for lpn in range(16):
            assert ftl.read(lpn) == reference.get(lpn)
        ftl.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(
        txns=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=10),
                        st.binary(min_size=1, max_size=4),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_crash_exposes_exactly_committed_state(self, txns):
        """Crash at the end: recovery shows all committed, no uncommitted."""
        ftl = make_xftl(num_blocks=48)
        reference: dict[int, bytes] = {}
        last_tid = len(txns)
        for tid, (writes, do_commit) in enumerate(txns, start=1):
            for lpn, payload in writes:
                ftl.write_tx(tid, lpn, payload)
            if do_commit:
                ftl.commit(tid)
                for lpn, payload in writes:
                    reference[lpn] = payload
            elif tid != last_tid:
                ftl.abort(tid)
            # else: leave the last txn in-flight at the crash
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        for lpn in range(11):
            assert ftl.read(lpn) == reference.get(lpn)


class TestConflictDetection:
    """X-FTL leaves isolation to the host: two writers of one page are
    both accepted, and the last committer wins."""

    def test_disabled_by_default(self):
        ftl = make_xftl()
        ftl.write_tx(1, 0, b"first")
        ftl.write_tx(2, 0, b"second")  # allowed: last committer wins
        ftl.commit(1)
        ftl.commit(2)
        assert ftl.read(0) == b"second"
