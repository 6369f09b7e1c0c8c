"""Unit tests for the ``repro.obs`` metrics registry.

Covers the enabled path (counters and histograms accumulate, exports are
deterministic), the disabled path (shared null singletons, and — the
acceptance-critical property — zero tracked allocations on the hot write
path), and merging across sessions.
"""

import os
import tracemalloc

import repro.obs
from repro.flash.stats import FlashStats
from repro.obs import (
    DEFAULT_SIZE_BOUNDS,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    MetricsRegistry,
    Observability,
)
from repro.stack import Mode, StackConfig, build_stack


class TestEnabledRegistry:
    def test_counter_accumulates_and_is_shared_by_name(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("flash.page_programs")
        counter.inc()
        counter.inc(4)
        assert registry.counter_value("flash.page_programs") == 5
        assert registry.counter("flash.page_programs") is counter

    def test_bound_record_is_read_when_asked(self):
        registry = MetricsRegistry(enabled=True)
        stats = FlashStats()
        registry.bind(stats, {"flash.page_programs": "page_programs"})
        stats.page_programs = 7
        registry.counter("flash.torn_programs").inc()
        assert registry.counter_value("flash.page_programs") == 7
        assert registry.counters() == {"flash.page_programs": 7, "flash.torn_programs": 1}
        assert registry.layers() == ["flash"]
        assert "counter,flash.page_programs,value,7" in registry.to_csv()
        merged = MetricsRegistry(enabled=True).merge_from([registry, registry])
        assert merged.counter_value("flash.page_programs") == 14

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("ftl.xl2p.flush_pages", DEFAULT_SIZE_BOUNDS)
        for value in (1, 2, 2, 8, 5000):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == 1
        assert histogram.max == 5000
        assert histogram.mean == (1 + 2 + 2 + 8 + 5000) / 5
        buckets = histogram.as_dict()["buckets"]
        assert buckets["le_2"] == 2  # the two 2s; 1 lands in le_1
        assert buckets["overflow"] == 1  # 5000 is past the last bound

    def test_layers_and_prefix_query(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("flash.page_programs").inc()
        registry.counter("fs.fsync_calls").inc(2)
        registry.counter("fs.cache.hits").inc(3)
        assert registry.layers() == ["flash", "fs"]
        assert registry.counters_of_layer("fs") == {
            "fs.cache.hits": 3,
            "fs.fsync_calls": 2,
        }

    def test_exports_are_sorted_and_parseable(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("b.two").inc(2)
        registry.counter("a.one").inc(1)
        assert list(registry.counters()) == ["a.one", "b.two"]
        csv = registry.to_csv()
        assert csv.splitlines()[0] == "kind,name,field,value"
        assert "counter,a.one,value,1" in csv
        assert registry.as_dict()["counters"] == {"a.one": 1, "b.two": 2}
        assert "[a]" in registry.report()

    def test_merge_from_sums_counters_and_histograms(self):
        first = MetricsRegistry(enabled=True)
        second = MetricsRegistry(enabled=True)
        first.counter("ftl.barriers").inc(2)
        second.counter("ftl.barriers").inc(3)
        first.histogram("fs.fsync.latency_us").observe(100.0)
        second.histogram("fs.fsync.latency_us").observe(300.0)
        merged = MetricsRegistry(enabled=True).merge_from([first, second])
        assert merged.counter_value("ftl.barriers") == 5
        histogram = merged.histograms()["fs.fsync.latency_us"]
        assert histogram.count == 2
        assert histogram.min == 100.0
        assert histogram.max == 300.0


class TestDisabledRegistry:
    def test_hands_out_shared_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("flash.page_programs") is NULL_COUNTER
        assert registry.histogram("fs.fsync.latency_us") is NULL_HISTOGRAM

    def test_null_instruments_record_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x.y").inc(10)
        registry.histogram("x.z").observe(1.0)
        assert registry.counter_value("x.y") == 0
        assert registry.counters() == {}
        assert "(no metrics recorded)" in registry.report()

    def test_disabled_observability_skips_meta_and_verify(self):
        obs = Observability(enabled=False)
        obs.annotate("mode", "X-FTL")
        assert obs.meta == {}
        obs.registry.bind(FlashStats(page_reads=3), {"flash.page_reads": "page_reads"})
        assert obs.registry.counters() == {}

    def test_disabled_obs_zero_tracked_allocations_on_hot_write_path(self):
        """The acceptance-criterion micro-benchmark: with metrics off, the
        instrumented write path must not allocate inside ``repro.obs``."""
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=128, pages_per_block=64)
        )
        assert not stack.obs.enabled
        payload = b"x" * 64
        # Warm-up so lazy one-time work (interning, method caches) is done.
        for lpn in range(8):
            stack.device.write(lpn, payload)
        stack.device.flush()

        obs_dir = os.path.dirname(repro.obs.__file__)
        tracemalloc.start()
        try:
            for lpn in range(64):
                stack.device.write(lpn, payload)
            stack.device.flush()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_traces = snapshot.filter_traces(
            [tracemalloc.Filter(True, os.path.join(obs_dir, "*"))]
        )
        sizes = [stat.size for stat in obs_traces.statistics("filename")]
        assert sum(sizes) == 0, f"obs allocated {sum(sizes)} bytes while disabled"


class TestSessionExportDeterminism:
    def _run(self):
        stack = build_stack(
            StackConfig(
                mode=Mode.XFTL, num_blocks=128, pages_per_block=64, metrics=True
            )
        )
        db = stack.open_database("t.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("COMMIT")
        return stack.obs

    def test_same_seed_runs_dump_identical_metrics(self):
        first = self._run()
        second = self._run()
        assert first.registry.as_dict() == second.registry.as_dict()
        assert first.registry.to_csv() == second.registry.to_csv()
