"""Unit tests for the ``repro.obs`` metrics registry.

Covers the enabled path (bound records are read by name, histograms
accumulate, exports are deterministic), the disabled path (nothing is
bound, and — the acceptance-critical property — zero tracked allocations
on the hot write path), and merging across sessions.
"""

import os
import tracemalloc

import repro.obs
from repro.device.queue import QueueCounts
from repro.flash.stats import ChipCounts, FlashStats
from repro.fs.ext4 import FsStats
from repro.fs.pagecache import CacheCounts
from repro.obs import DEFAULT_SIZE_BOUNDS, Histogram, MetricsRegistry, Observability
from repro.stack import Mode, StackConfig, build_stack


class TestEnabledRegistry:
    def test_bound_record_is_read_when_asked(self):
        registry = MetricsRegistry(enabled=True)
        stats, chip = FlashStats(), ChipCounts()
        registry.bind(stats, {"flash.page_programs": "page_programs"})
        registry.bind(chip, ChipCounts.OBS_NAMES)
        stats.page_programs = 7
        chip.torn_programs = 1
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
        registry.bind(FlashStats(page_programs=1), {"flash.page_programs": "page_programs"})
        registry.bind(FsStats(fsync_calls=2), {"fs.fsync_calls": "fsync_calls"})
        registry.bind(CacheCounts(hits=3), {"fs.cache.hits": "hits"})
        assert registry.layers() == ["flash", "fs"]
        assert registry.counters_of_layer("fs") == {
            "fs.cache.hits": 3,
            "fs.fsync_calls": 2,
        }

    def test_exports_are_sorted_and_parseable(self):
        registry = MetricsRegistry(enabled=True)
        stats = FlashStats(page_reads=2, page_programs=1)
        registry.bind(stats, {"b.two": "page_reads", "a.one": "page_programs"})
        assert list(registry.counters()) == ["a.one", "b.two"]
        csv = registry.to_csv()
        assert csv.splitlines()[0] == "kind,name,field,value"
        assert "counter,a.one,value,1" in csv
        assert registry.as_dict()["counters"] == {"a.one": 1, "b.two": 2}
        assert "[a]" in registry.report()

    def test_merge_from_sums_counters_and_histograms(self):
        first = MetricsRegistry(enabled=True)
        second = MetricsRegistry(enabled=True)
        first.bind(FlashStats(barriers=2), {"ftl.barriers": "barriers"})
        second.bind(FlashStats(barriers=3), {"ftl.barriers": "barriers"})
        first.histogram("fs.fsync.latency_us").observe(100.0)
        second.histogram("fs.fsync.latency_us").observe(300.0)
        for registry, depth, peak in ((first, 1, 4), (second, 2, 3)):
            counts = QueueCounts(depth=depth, peak_depth=peak)
            registry.bind_gauge(counts, "dev.queue.depth", "depth", "peak_depth")
        merged = MetricsRegistry(enabled=True).merge_from([first, second])
        assert merged.counter_value("ftl.barriers") == 5
        histogram = merged.histograms()["fs.fsync.latency_us"]
        assert histogram.count == 2
        assert histogram.min == 100.0
        assert histogram.max == 300.0
        gauge = merged.gauge("dev.queue.depth")
        assert (gauge.value, gauge.max_value) == (2.0, 4.0)

    def test_a_bound_histogram_is_exported_by_its_name(self):
        registry = MetricsRegistry(enabled=True)
        latency = Histogram("tenant.a.commit_latency_us")
        registry.bind_histogram(latency)
        latency.observe(7.0)
        assert registry.histograms() == {"tenant.a.commit_latency_us": latency}
        assert registry.as_dict()["histograms"]["tenant.a.commit_latency_us"]["count"] == 1


class TestDisabledRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.bind(FlashStats(page_reads=3), {"flash.page_reads": "page_reads"})
        registry.bind_gauge(QueueCounts(depth=1), "dev.queue.depth", "depth", "peak_depth")
        registry.bind_histogram(Histogram("x.z"))
        assert registry.counter_value("flash.page_reads") == 0
        assert registry.counters() == {}
        assert registry.gauges() == {} and registry.histograms() == {}
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
