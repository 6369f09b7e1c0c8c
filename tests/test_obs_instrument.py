"""The instrumentation table: what it names exists, and metrics-off runs none of it.

``repro.obs.instrument.INSTRUMENTS`` is the one place that lists every span
and histogram the stack records.  These tests hold the table to the code
(every row names a live class, method and argument), hold a metrics-off
stack to making no call into ``repro.obs`` on any benchmark leg, and pin
how an attached wrapper behaves: it calls through the class attribute at
call time, and an exception closes its span and skips its observations.
"""

from __future__ import annotations

import importlib
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.device.ssd import StorageDevice
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
import repro.obs
from repro.obs import NULL_OBS, Observability
from repro.obs.instrument import INSTRUMENTS, Arg, Span, Value
from repro.stack import Mode, StackConfig, build_stack


def _arguments(row) -> list[Arg]:
    record = row.record
    if isinstance(record, Span):
        return [arg for arg in (record.name, record.lpn, record.tid) if isinstance(arg, Arg)]
    if isinstance(record, Value):
        return [arg for arg in (record.of, record.index) if arg is not None]
    return []


@pytest.mark.parametrize("row", INSTRUMENTS, ids=[f"{r.cls}.{r.method}" for r in INSTRUMENTS])
def test_every_row_names_a_live_method_and_its_arguments(row):
    module, _, name = row.cls.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    # A hook each subclass defines (``Pager._commit``) is named on the base.
    owners = [cls] if hasattr(cls, row.method) else cls.__subclasses__()
    assert owners
    for owner in owners:
        params = list(inspect.signature(getattr(owner, row.method)).parameters)
        for arg in _arguments(row):
            head = arg.path.split(".")[0]
            assert head == "result" or head in params, (owner, row, head)
        if isinstance(row.record, Value) and row.record.index is not None:
            assert hasattr(owner, row.record.count)


# ------------------------------------------------------- metrics off: no calls


_OBS_DIR = str(Path(repro.obs.__file__).parent)


@pytest.fixture
def obs_calls():
    """Every call into a function defined under ``repro/obs/`` while the
    test runs, by file and name (a ``sys.setprofile`` hook; ``clear()``
    starts the window)."""
    calls: Counter[str] = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == Path(_OBS_DIR):
            calls[f"{Path(code.co_filename).name}:{code.co_qualname}"] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
def test_metrics_off_sql_transaction_calls_no_null_instrument(mode, obs_calls):
    stack = build_stack(StackConfig(mode=mode, num_blocks=128, pages_per_block=64))
    assert stack.obs is NULL_OBS
    db = stack.open_database("t.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for i in range(40):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    obs_calls.clear()
    programs = stack.chip.stats.page_programs
    db.execute("BEGIN")
    for i in range(0, 40, 8):
        db.execute("UPDATE t SET v = ? WHERE id = ?", (f"w{i}", i))
    db.execute("COMMIT")
    assert stack.chip.stats.page_programs > programs
    assert dict(obs_calls) == {}


def test_metrics_off_ftl_gc_shaped_device_calls_no_null_instrument(obs_calls):
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=16, num_blocks=64, channels=8))
    ftl = PageMappingFTL(
        chip,
        FtlConfig(
            gc_mode="background",
            gc_policy="cost-benefit",
            gc_background_watermark=4,
            gc_copyback_pages_per_step=4,
            gc_hot_write_threshold=4,
            gc_wear_spread_threshold=2,
            gc_wear_check_interval=8,
        ),
    )
    device = StorageDevice(ftl, queue_depth=8)
    fill = int(ftl.exported_pages * 0.85)
    rng = random.Random(7)

    def op(seq: int) -> None:
        device.write(rng.randrange(fill // 5) if rng.random() < 0.8 else rng.randrange(fill), seq)
        if seq % 8 == 7:
            device.read(rng.randrange(fill))
            device.flush()

    for lpn in range(fill):
        device.write(lpn, ("fill", lpn))
    device.flush()
    for seq in range(2 * fill):
        op(seq)
    obs_calls.clear()
    before = chip.stats.snapshot()
    for seq in range(50):
        op(seq)
    used = chip.stats.delta(before)
    assert used.gc_invocations > 0 and used.gc_copyback_writes > 0 and used.block_erases > 0
    assert device.queue.counts.peak_depth > 1
    assert dict(obs_calls) == {}


# ------------------------------------------------------------ the wrappers


def _traced_device():
    obs = Observability(enabled=True, trace=True)
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32), obs=obs)
    obs.bind_clock(chip.clock)
    return obs, StorageDevice(PageMappingFTL(chip, FtlConfig(overprovision=0.25)))


def test_wrapper_calls_the_class_attribute_at_call_time(monkeypatch):
    obs, device = _traced_device()
    seen = []
    original = StorageDevice._flush

    def patched(self):
        seen.append(self)
        return original(self)

    monkeypatch.setattr(StorageDevice, "_flush", patched)
    device.flush()
    assert seen == [device]
    assert [span.name for span in obs.tracer.find("flush")] == ["flush"]
    assert obs.registry.histograms()["dev.flush.latency_us"].count == 1


def test_exception_closes_the_span_and_skips_the_observation(monkeypatch):
    obs, device = _traced_device()

    def failing(self):
        self.clock.advance(5.0)
        raise RuntimeError("power lost")

    monkeypatch.setattr(StorageDevice, "_barrier_point", failing)
    with pytest.raises(RuntimeError):
        device.flush()
    (span,) = obs.tracer.find("flush")
    assert span.duration_us > 0.0
    assert obs.tracer._stack == []
    assert obs.registry.histograms()["dev.flush.latency_us"].count == 0


def test_rows_read_keyword_arguments_too():
    obs, device = _traced_device()
    device._write(data=b"x", lpn=5)
    device._write(6, data=b"y")
    assert [span.lpn for span in obs.tracer.find("write")] == [5, 6]


def test_a_metrics_off_instance_holds_no_wrapper():
    _, device = _traced_device()
    assert "_flush" in vars(device)
    bare = StorageDevice(
        PageMappingFTL(FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)))
    )
    instrumented = set(row.method for row in INSTRUMENTS)
    for layer in (bare, bare.ftl, bare.ftl.gc, bare.chip):
        assert instrumented.isdisjoint(vars(layer)), type(layer).__name__
