"""Cross-layer span tests: one SQLite COMMIT seen at every layer.

The tentpole property of the tracing side of ``repro.obs``: a single
SQLite transaction commit on an X-FTL stack produces one ``sqlite``-layer
span whose sub-tree contains the file-system fsync, the device's tagged
writes and commit command, and the NAND programs they caused — all
correlated on the simulated clock.  RBJ (the sync prologue) and WAL (the
frame append's ``fbarrier``) are held to the same tree.
"""

import json

from repro.flash.stats import FlashStats
from repro.obs.tracing import Tracer
from repro.stack import Mode, StackConfig, build_stack


def _traced_stack(mode=Mode.XFTL):
    return build_stack(
        StackConfig(mode=mode, num_blocks=128, pages_per_block=64, metrics=True, trace=True)
    )


def _run_commit(stack):
    db = stack.open_database("t.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    db.execute("BEGIN")
    for i in range(10):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    db.execute("COMMIT")
    return db


def _descendants(tracer, span):
    """The whole finished sub-tree below ``span``."""
    out, frontier = [], [span.span_id]
    while frontier:
        children = [s for s in tracer.spans if s.parent_id in frontier]
        out += children
        frontier = [s.span_id for s in children]
    return out


class TestTracerUnit:
    def test_nesting_and_queries(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", "sqlite"):
            with tracer.span("inner", "fs"):
                pass
        (outer,) = tracer.find("outer")
        (inner,) = tracer.find("inner")
        assert inner.parent_id == outer.span_id
        assert tracer.children_of(outer) == [inner]
        assert [s.name for s in tracer.roots()] == ["outer"]
        assert "outer" in tracer.render_tree()

    def test_disabled_tracer_records_nothing(self):
        """Metrics on, trace off: no layer asks the tracer for a span."""
        stack = build_stack(
            StackConfig(mode=Mode.XFTL, num_blocks=128, pages_per_block=64, metrics=True)
        )
        _run_commit(stack)
        assert not stack.obs.tracer.enabled
        assert stack.obs.tracer.spans == [] and stack.obs.tracer._next_id == 1
        assert stack.obs.registry.counter_value("sqlite.txn_commits") > 0

    def test_capacity_drops_instead_of_growing(self):
        tracer = Tracer(enabled=True, capacity=2)
        for i in range(5):
            with tracer.span(f"s{i}", "fs"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


class TestCrossLayerCommitSpan:
    def test_sqlite_commit_nests_every_layer(self):
        stack = _traced_stack()
        _run_commit(stack)
        tracer = stack.obs.tracer

        commits = [s for s in tracer.find("commit") if s.layer == "sqlite"]
        assert commits, "no sqlite commit span recorded"
        span = commits[-1]  # the explicit COMMIT (earlier ones are autocommits)
        below = _descendants(tracer, span)
        layers_below = {s.layer for s in below}
        names_below = {(s.layer, s.name) for s in below}

        # The commit drove work at every layer of the stack.
        assert {"fs", "dev", "ftl", "flash"} <= layers_below
        assert ("fs", "fsync") in names_below
        assert ("dev", "write_tx") in names_below
        assert ("dev", "commit") in names_below
        assert ("ftl", "xftl_commit") in names_below
        assert ("flash", "program") in names_below

        # Children are correlated on the simulated clock: contained in the
        # parent's [start, end] window.
        assert span.end_us is not None
        for child in below:
            assert span.start_us <= child.start_us
            assert child.end_us is not None and child.end_us <= span.end_us

        # The device commit(t) carries the transaction tag downward.
        dev_commits = [s for s in below if (s.layer, s.name) == ("dev", "commit")]
        assert all(s.tid is not None for s in dev_commits)

    def test_flash_programs_have_device_ancestors(self):
        stack = _traced_stack()
        _run_commit(stack)
        tracer = stack.obs.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        programs = [s for s in tracer.spans if (s.layer, s.name) == ("flash", "program")]
        assert programs
        for program in programs:
            layers = set()
            parent_id = program.parent_id
            while parent_id is not None:
                parent = by_id[parent_id]
                layers.add(parent.layer)
                parent_id = parent.parent_id
            assert "dev" in layers or "ftl" in layers


class TestWalCommitSpan:
    """A WAL COMMIT appends its frames with one ``fbarrier``: the frames are
    device writes, and the ext4 journal commit under it flushes the device,
    whose FTL barrier programs the map pages."""

    def test_commit_nests_fbarrier_writes_flushes_and_programs(self):
        stack = _traced_stack(Mode.WAL)
        _run_commit(stack)
        tracer = stack.obs.tracer

        def named(spans, layer, name):
            return [s for s in spans if (s.layer, s.name) == (layer, name)]

        span = named(tracer.spans, "sqlite", "commit")[-1]  # the explicit COMMIT
        (fbarrier,) = named(_descendants(tracer, span), "fs", "fbarrier")
        below = _descendants(tracer, fbarrier)
        assert named(below, "dev", "write")
        flushes = named(below, "dev", "flush")
        assert flushes
        barriers = [
            s for flush in flushes for s in named(tracer.children_of(flush), "ftl", "barrier")
        ]
        assert len(barriers) == len(flushes)
        assert any(named(tracer.children_of(barrier), "flash", "program") for barrier in barriers)
        for child in below:
            assert fbarrier.start_us <= child.start_us <= child.end_us <= fbarrier.end_us

    def test_same_seed_runs_identical_dumps(self):
        first, second = _traced_stack(Mode.WAL), _traced_stack(Mode.WAL)
        _run_commit(first)
        _run_commit(second)
        assert first.obs.registry.as_dict() == second.obs.registry.as_dict()
        assert json.dumps(first.obs.tracer.as_dicts()) == json.dumps(second.obs.tracer.as_dicts())


class TestDeterminismAndCrossCheck:
    def test_same_seed_runs_identical_dumps(self):
        first = _traced_stack()
        _run_commit(first)
        second = _traced_stack()
        _run_commit(second)
        assert first.obs.registry.as_dict() == second.obs.registry.as_dict()
        assert json.dumps(first.obs.tracer.as_dicts()) == json.dumps(
            second.obs.tracer.as_dicts()
        )

    def test_obs_counters_match_flash_stats_exactly(self):
        stack = _traced_stack()
        db = _run_commit(stack)
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'rolled-back' WHERE id = 1")
        db.execute("ROLLBACK")
        registry = stack.obs.registry
        for name, field in FlashStats.OBS_NAMES.items():
            assert registry.counter_value(name) == getattr(stack.chip.stats, field), name
        assert registry.counter_value("flash.page_programs") > 0


class TestSyncPrologue:
    def test_every_sync_entry_point_is_counted_timed_and_spanned(self):
        """RBJ journal create/delete are directory syncs (``sync_metadata``):
        they count as fsyncs, so they are in the latency histogram and the
        span tree too — count, histogram and spans must agree."""
        stack = build_stack(
            StackConfig(
                mode=Mode.RBJ, num_blocks=128, pages_per_block=64, metrics=True, trace=True
            )
        )
        _run_commit(stack)
        registry = stack.obs.registry
        fsyncs = registry.counters()["fs.fsync_calls"]
        assert fsyncs == stack.fs.stats.fsync_calls > 0
        assert registry.histograms()["fs.fsync.latency_us"].count == fsyncs
        sync_names = {"fsync", "fbarrier", "fdatabarrier", "fsync_group", "stage_tx", "sync_metadata"}
        spans = [s for s in stack.obs.tracer.spans if s.layer == "fs" and s.name in sync_names]
        assert len(spans) == fsyncs
        assert {"fbarrier", "sync_metadata"} <= {s.name for s in spans}
