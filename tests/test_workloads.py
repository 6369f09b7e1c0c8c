"""Tests for the workload generators and drivers."""

import pytest

from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.android import (
    ALL_PROFILES,
    FACEBOOK,
    GMAIL,
    RL_BENCHMARK,
    WEB_BROWSER,
    AndroidTraceGenerator,
    TraceReplayer,
)
from repro.workloads.fio import FioBenchmark
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tpcc import MIXES, TpccConfig, TpccDriver, TpccLoader


def make_stack(mode=Mode.XFTL, num_blocks=256):
    return build_stack(StackConfig(mode=mode, num_blocks=num_blocks, pages_per_block=64))


class TestSyntheticWorkload:
    def test_zero_rows_is_a_value_error(self):
        """An empty table loaded, and ``run`` then died in ``randrange``."""
        db = make_stack().open_database("s.db")
        with pytest.raises(ValueError, match="rows must be at least 1, got 0"):
            SyntheticWorkload(db, rows=0)

    @pytest.mark.parametrize(
        "transactions, updates_per_txn",
        [(0, 5), (-3, 5), (10, 0)],
        ids=["no-txns", "negative-txns", "no-updates"],
    )
    def test_a_run_of_nothing_is_a_value_error(self, transactions, updates_per_txn):
        """``run`` returned an empty result for any count below 1."""
        stack = make_stack()
        workload = SyntheticWorkload(stack.open_database("s.db"), rows=10)
        workload.load()
        now = stack.clock.now_us
        with pytest.raises(ValueError, match="must be at least 1"):
            workload.run(transactions=transactions, updates_per_txn=updates_per_txn)
        assert stack.clock.now_us == now  # rejected before any statement ran

    def test_load_populates_table(self):
        stack = make_stack()
        db = stack.open_database("s.db")
        workload = SyntheticWorkload(db, rows=500)
        workload.load()
        assert db.execute("SELECT COUNT(*) FROM partsupply") == [(500,)]

    def test_load_above_one_xl2p_of_rows_commits_in_parts(self):
        """In one transaction, ~17,200 rows fill X-FTL's 1,000-entry X-L2P."""
        db = make_stack().open_database("s.db")
        SyntheticWorkload(db, rows=17_400).load()
        assert db.execute("SELECT COUNT(*) FROM partsupply") == [(17_400,)]

    def test_tuples_are_about_220_bytes(self):
        from repro.sqlite.records import encode_record

        stack = make_stack()
        db = stack.open_database("s.db")
        SyntheticWorkload(db, rows=50).load()
        rows = db.execute("SELECT * FROM partsupply WHERE ps_id = 1")
        size = len(encode_record(rows[0]))
        assert 180 <= size <= 260  # "220 bytes each" in the paper

    def test_run_updates_supplycost(self):
        stack = make_stack()
        db = stack.open_database("s.db")
        workload = SyntheticWorkload(db, rows=200)
        workload.load()
        before = dict(db.execute("SELECT ps_partkey, ps_supplycost FROM partsupply"))
        result = workload.run(transactions=20, updates_per_txn=3)
        after = dict(db.execute("SELECT ps_partkey, ps_supplycost FROM partsupply"))
        assert result.elapsed_s > 0
        assert before != after
        assert len(after) == 200  # updates never add or drop tuples

    def test_deterministic_given_seed(self):
        elapsed = []
        for _ in range(2):
            stack = make_stack()
            db = stack.open_database("s.db")
            workload = SyntheticWorkload(db, rows=200, seed=42)
            workload.load()
            elapsed.append(workload.run(transactions=10, updates_per_txn=2).elapsed_s)
        assert elapsed[0] == elapsed[1]


class TestAndroidTraces:
    def test_profiles_match_table2_structure(self):
        assert RL_BENCHMARK.files == 1 and RL_BENCHMARK.tables == 3
        assert GMAIL.files == 2 and GMAIL.tables == 31
        assert FACEBOOK.files == 11 and FACEBOOK.tables == 72
        assert WEB_BROWSER.files == 6 and WEB_BROWSER.tables == 26

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_generated_mix_tracks_profile(self, profile):
        ops, stats = AndroidTraceGenerator(profile, scale=0.02).generate()
        assert stats.inserts == max(1, round(profile.inserts * 0.02))
        assert stats.updates == max(1, round(profile.updates * 0.02))
        assert stats.selects == max(1, round(profile.selects * 0.02))
        assert len(ops) > 0

    def test_facebook_trace_carries_blobs(self):
        ops, _stats = AndroidTraceGenerator(FACEBOOK, scale=0.02).generate()
        blob_inserts = [
            op for op in ops if "INSERT" in op.sql and any(isinstance(p, bytes) for p in op.params)
        ]
        assert blob_inserts, "Facebook stores thumbnails as blobs (§6.3.2)"

    def test_trace_deterministic(self):
        first, _ = AndroidTraceGenerator(GMAIL, scale=0.02).generate()
        second, _ = AndroidTraceGenerator(GMAIL, scale=0.02).generate()
        assert [(op.file, op.sql, op.params) for op in first] == [
            (op.file, op.sql, op.params) for op in second
        ]

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            AndroidTraceGenerator(GMAIL, scale=0)

    @pytest.mark.parametrize("mode", [Mode.WAL, Mode.XFTL])
    def test_replay_executes_cleanly(self, mode):
        stack = make_stack(mode, num_blocks=384)
        ops, stats = AndroidTraceGenerator(WEB_BROWSER, scale=0.01).generate()
        replayer = TraceReplayer(stack)
        elapsed = replayer.replay(ops)
        assert elapsed > 0
        assert len(replayer.connections) == WEB_BROWSER.files

    def test_xftl_replay_faster_than_wal(self):
        elapsed = {}
        for mode in (Mode.WAL, Mode.XFTL):
            stack = make_stack(mode, num_blocks=384)
            ops, _stats = AndroidTraceGenerator(RL_BENCHMARK, scale=0.005).generate()
            elapsed[mode] = TraceReplayer(stack).replay(ops)
        assert elapsed[Mode.XFTL] < elapsed[Mode.WAL]


class TestTpcc:
    @pytest.fixture(scope="class")
    def loaded(self):
        stack = make_stack(Mode.XFTL, num_blocks=384)
        db = stack.open_database("tpcc.db")
        config = TpccConfig(warehouses=1, customers_per_district=10, items=50,
                            initial_orders_per_district=9)
        TpccLoader(db, config).load()
        return db, config

    def test_loader_cardinalities(self, loaded):
        db, config = loaded
        assert db.execute("SELECT COUNT(*) FROM warehouse") == [(1,)]
        assert db.execute("SELECT COUNT(*) FROM district") == [(10,)]
        assert db.execute("SELECT COUNT(*) FROM item") == [(50,)]
        assert db.execute("SELECT COUNT(*) FROM stock") == [(50,)]
        assert db.execute("SELECT COUNT(*) FROM customer") == [(100,)]
        assert db.execute("SELECT COUNT(*) FROM orders") == [(90,)]

    def test_new_order_inserts_rows(self, loaded):
        db, config = loaded
        driver = TpccDriver(db, config)
        orders0 = db.execute("SELECT COUNT(*) FROM orders")[0][0]
        driver.transactions.new_order()
        assert db.execute("SELECT COUNT(*) FROM orders")[0][0] == orders0 + 1

    def test_payment_moves_money(self, loaded):
        db, config = loaded
        driver = TpccDriver(db, config)
        ytd0 = db.execute("SELECT w_ytd FROM warehouse WHERE id = 1")[0][0]
        driver.transactions.payment()
        assert db.execute("SELECT w_ytd FROM warehouse WHERE id = 1")[0][0] > ytd0

    def test_delivery_consumes_new_orders(self, loaded):
        db, config = loaded
        driver = TpccDriver(db, config)
        pending0 = db.execute("SELECT COUNT(*) FROM new_order")[0][0]
        driver.transactions.delivery()
        assert db.execute("SELECT COUNT(*) FROM new_order")[0][0] < pending0

    def test_read_transactions_do_not_mutate(self, loaded):
        db, config = loaded
        driver = TpccDriver(db, config)
        counts0 = [db.execute(f"SELECT COUNT(*) FROM {t}")[0][0]
                   for t in ("orders", "order_line", "customer", "stock")]
        driver.transactions.order_status()
        driver.transactions.stock_level()
        driver.transactions.selection_only()
        driver.transactions.join_only()
        counts1 = [db.execute(f"SELECT COUNT(*) FROM {t}")[0][0]
                   for t in ("orders", "order_line", "customer", "stock")]
        assert counts0 == counts1

    def test_all_mixes_run(self):
        stack = make_stack(Mode.XFTL, num_blocks=384)
        db = stack.open_database("tpcc.db")
        config = TpccConfig(warehouses=1, customers_per_district=10, items=50,
                            initial_orders_per_district=9)
        TpccLoader(db, config).load()
        driver = TpccDriver(db, config)
        for mix in MIXES:
            result = driver.run(mix, transactions=5)
            assert result.tpm > 0

    def test_unknown_mix_rejected(self, loaded):
        db, config = loaded
        with pytest.raises(ValueError):
            TpccDriver(db, config).run("nope", transactions=1)


class TestFio:
    @pytest.mark.parametrize("mode", [Mode.FS_ORDERED, Mode.FS_FULL, Mode.XFTL])
    def test_runs_and_reports_iops(self, mode):
        stack = build_stack(StackConfig(mode=mode, num_blocks=256, journal_pages=64))
        fio = FioBenchmark(stack, file_pages=1024)
        result = fio.run(runtime_s=2.0, fsync_interval=5, threads=1)
        assert result.writes > 0
        assert result.iops > 0
        assert result.fsyncs >= result.writes // 5

    def test_less_frequent_fsync_is_faster(self):
        iops = []
        for interval in (1, 20):
            stack = build_stack(StackConfig(mode=Mode.FS_ORDERED, num_blocks=256,
                                            journal_pages=64))
            result = FioBenchmark(stack, file_pages=1024).run(
                runtime_s=2.0, fsync_interval=interval
            )
            iops.append(result.iops)
        assert iops[1] > iops[0]

    def test_threaded_iops_exceeds_single(self):
        results = []
        for threads in (1, 16):
            stack = build_stack(StackConfig(mode=Mode.FS_ORDERED, num_blocks=256,
                                            journal_pages=64))
            results.append(
                FioBenchmark(stack, file_pages=1024).run(
                    runtime_s=2.0, fsync_interval=5, threads=threads
                )
            )
        assert results[1].iops >= results[0].iops

    def test_max_writes_cap(self):
        stack = build_stack(StackConfig(mode=Mode.FS_NONE, num_blocks=256, journal_pages=64))
        result = FioBenchmark(stack, file_pages=1024).run(
            runtime_s=1e9, fsync_interval=5, max_writes=37
        )
        assert result.writes == 37

    def test_zero_fsync_interval_is_a_value_error(self):
        """It divided by zero at the first write."""
        stack = build_stack(StackConfig(mode=Mode.FS_NONE, num_blocks=256, journal_pages=64))
        with pytest.raises(ValueError, match="fsync_interval must be at least 1, got 0"):
            FioBenchmark(stack, file_pages=1024).run(runtime_s=1.0, fsync_interval=0)
        assert not stack.fs.exists("fio.dat")

    def test_zero_threads_is_a_value_error(self):
        """It ran as one thread and reported ``threads=0``."""
        stack = build_stack(StackConfig(mode=Mode.FS_NONE, num_blocks=256, journal_pages=64))
        with pytest.raises(ValueError, match="threads must be at least 1, got 0"):
            FioBenchmark(stack, file_pages=1024).run(runtime_s=1.0, threads=0)
        assert not stack.fs.exists("fio.dat")
