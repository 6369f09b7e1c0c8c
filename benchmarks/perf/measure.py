"""Measurement: fixed-op windows, the metrics drawn from them, and a whole run.

A *window* is a fixed number of ops on a freshly set-up stack, so every sim
number is a function of code and seed alone.  A *run* repeats
(set-up, window) cycles until ``--seconds`` of measuring have accumulated:
host metrics are taken over all cycles, sim metrics must be identical in
every cycle (checked), and the last cycle's outputs are verified.

Host time is **process CPU time** (``time.process_time``), not wall time: the
simulator is one thread that never sleeps or waits for I/O, so on an idle
machine the two are equal, and on a shared one wall time also counts what the
hypervisor gave to neighbours.  Every host time is then scaled to *nominal
machine speed* by the reference loop interleaved with it (reference.py says
why).  Raw CPU and wall time survive as the diagnostics
``workloads.host_speed`` and ``workloads.stolen_frac``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError

from benchmarks.perf import spec
from benchmarks.perf.reference import NOMINAL_CHUNK_S, ReferenceLoop, host_clock
from benchmarks.perf.trace import Tracer
from benchmarks.perf.workloads import make_workload

def read_counts(workload) -> dict[str, float]:
    """Cumulative public counters of every layer (callers take deltas)."""
    flash, dev, device = workload.chip.stats, workload.device.counters, workload.device
    counts = {
        "flash.page_programs": flash.page_programs,
        "flash.page_reads": flash.page_reads,
        "flash.block_erases": flash.block_erases,
        "ftl.host_page_writes": flash.host_page_writes,
        "ftl.map_page_writes": flash.map_page_writes,
        "ftl.xl2p_page_writes": flash.xl2p_page_writes,
        "ftl.gc_invocations": flash.gc_invocations,
        "ftl.gc_copyback_writes": flash.gc_copyback_writes,
        "ftl.gc_urgent_collections": flash.gc_urgent_collections,
        "ftl.gc_wear_migrations": flash.gc_wear_migrations,
        "device.writes": dev.writes + dev.tagged_writes + dev.barrier_writes,
        "device.reads": dev.reads + dev.tagged_reads,
        "device.flushes": dev.flushes,
        "device.commits": dev.commits,
        "device.barrier_stalls": device.barrier_stalls,
        "device.barrier_stall_sim_us": device.barrier_stall_us,
        "channel_busy_us": sum(workload.chip.channel_busy_us()),
        "sim_us": workload.clock.now_us,
    }
    fs = workload.fs  # None where the workload has no file system
    for field in ("data_page_writes", "journal_page_writes", "meta_page_writes", "fsync_calls"):
        counts[f"fs.{field}"] = getattr(fs.stats, field) if fs else 0
    counts["cache_hits"] = fs.cache.hits if fs else 0
    counts["cache_misses"] = fs.cache.misses if fs else 0
    for metric, counter in spec.OBS_COUNTS.items():
        counts[metric] = workload.obs.registry.counter_value(counter)
    return counts


@dataclass
class Window:
    """Raw record of one measured window."""

    ops: int
    failed: int
    wall_s: float
    op_host_s: list[float]  # raw CPU seconds per op
    op_sim_us: list[float]
    tick_host_s: list[float]  # raw CPU seconds per tick
    tick_speed: list[float]  # machine speed around each tick, 1.0 = nominal
    marks: list[tuple[float, int, int]]  # at tick boundaries: sim_us, programs, host writes
    counts: dict[str, float]  # deltas over the window
    erase_spread: float
    channels: int
    pages_per_block: int

    @property
    def cpu_s(self) -> float:
        return sum(self.tick_host_s)

    @property
    def host_s(self) -> float:
        """Host seconds at nominal speed."""
        return sum(t * speed for t, speed in zip(self.tick_host_s, self.tick_speed))

    @property
    def speed(self) -> float:
        """Machine speed over the window: multiply a raw CPU time by it."""
        return self.host_s / self.cpu_s

    @property
    def sim_s(self) -> float:
        return self.counts["sim_us"] / 1e6

    def tick_ops_per_s(self) -> list[float]:
        per_tick = self.ops / spec.TICKS
        return [per_tick / (t * speed) for t, speed in zip(self.tick_host_s, self.tick_speed)]

    def write_amp(self, first_tick: int, last_tick: int) -> float:
        a, b = self.marks[first_tick], self.marks[last_tick]
        return (b[1] - a[1]) / max(1, b[2] - a[2])

    def quarter_write_amps(self) -> tuple[float, float]:
        quarter = spec.TICKS // 4
        return self.write_amp(0, quarter), self.write_amp(spec.TICKS - quarter, spec.TICKS)

    def steady(self) -> bool:
        first, last = self.quarter_write_amps()
        return abs(last - first) <= spec.STEADY_TOLERANCE * first

    def segments(self) -> dict[str, list[float]]:
        """Per-segment host ops/s and write amplification (steady-state evidence)."""
        step = spec.TICKS // spec.SEGMENTS
        rates = self.tick_ops_per_s()
        return {
            "host_ops_per_s": [
                statistics.harmonic_mean(rates[t : t + step]) for t in range(0, spec.TICKS, step)
            ],
            "write_amp": [self.write_amp(t, t + step) for t in range(0, spec.TICKS, step)],
        }


def run_window(
    workload, ops: int, reference: ReferenceLoop, tracer: Tracer | None = None
) -> Window:
    """Run ``ops`` ops, timing each on both clocks; ``tracer`` makes it a traced window."""
    if ops % spec.TICKS:
        raise ValueError(f"window of {ops} ops is not a multiple of {spec.TICKS}")
    op = tracer.traced_op(workload.op) if tracer else workload.op
    clock, stats = workload.clock, workload.chip.stats
    now = host_clock
    op_host_s: list[float] = []
    op_sim_us: list[float] = []
    tick_host_s: list[float] = []
    failed = 0
    gc.collect()
    before = read_counts(workload)
    wall0 = time.perf_counter()
    marks = [(clock.now_us, stats.page_programs, stats.host_page_writes)]
    chunks = [reference.chunk()]  # one reference chunk on each side of every tick
    for _ in range(spec.TICKS):
        if tracer:
            tracer.enabled = True
        tick0 = now()
        for _ in range(ops // spec.TICKS):
            sim0 = clock.now_us
            t0 = now()
            try:
                op()
            except ReproError:
                failed += 1
                workload.abort_op()
            t1 = now()
            op_host_s.append(t1 - t0)
            op_sim_us.append(clock.now_us - sim0)
        tick_host_s.append(now() - tick0)
        if tracer:
            tracer.enabled = False
        marks.append((clock.now_us, stats.page_programs, stats.host_page_writes))
        chunks.append(reference.chunk())
    wall_s = time.perf_counter() - wall0 - sum(chunks)
    after = read_counts(workload)
    wear = workload.ftl.wear_stats()
    geometry = workload.chip.geometry
    return Window(
        ops=ops,
        failed=failed,
        wall_s=wall_s,
        op_host_s=op_host_s,
        op_sim_us=op_sim_us,
        tick_host_s=tick_host_s,
        tick_speed=[2 * NOMINAL_CHUNK_S / (a + b) for a, b in zip(chunks, chunks[1:])],
        marks=marks,
        counts={name: after[name] - before[name] for name in after},
        erase_spread=wear["max"] - wear["min"],
        channels=geometry.channels,
        pages_per_block=geometry.pages_per_block,
    )


def _middle_mean(values) -> float:
    """Interquartile mean: as deaf to slow bursts as the median, steadier on mixed ops."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def sim_metrics(window: Window) -> dict[str, float]:
    """The sim-clock end-to-end metrics of one window."""
    ops, counts = window.ops, window.counts
    return {
        "sim_ops_per_s": ops / window.sim_s,
        "sim_op_ms_p99": _p99(window.op_sim_us) / 1e3,
        "flash_programs_per_op": counts["flash.page_programs"] / ops,
        "flash_erases_per_kop": counts["flash.block_erases"] * 1e3 / ops,
    }


def sim_layer_metrics(window: Window) -> dict[str, float]:
    """Per-layer metrics that are a function of code and seed alone."""
    counts = window.counts
    out = {name: counts[name] for name in spec.PUBLIC_COUNTS}
    lookups = counts["cache_hits"] + counts["cache_misses"]
    victim_pages = counts["ftl.gc_invocations"] * window.pages_per_block
    first, last = window.quarter_write_amps()
    out.update(
        {
            "fs.cache_hit_ratio": counts["cache_hits"] / lookups if lookups else 0.0,
            "ftl.gc_valid_ratio": (
                counts["ftl.gc_copyback_writes"] / victim_pages if victim_pages else 0.0
            ),
            "ftl.write_amp": window.write_amp(0, spec.TICKS),
            "flash.channel_util": counts["channel_busy_us"] / window.channels / counts["sim_us"],
            "flash.erase_spread": window.erase_spread,
            "device.barrier_stall_sim_us_per_op": (
                counts["device.barrier_stall_sim_us"] / window.ops
            ),
            "sim.elapsed_s": window.sim_s,
            "workloads.sim_op_ms_p50": statistics.median(window.op_sim_us) / 1e3,
            "workloads.segment_write_amp_first": first,
            "workloads.segment_write_amp_last": last,
        }
    )
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(name: str, seed: int, sizes: dict[str, int], reference: ReferenceLoop, metrics=False):
    """A set-up workload and what setting it up cost, in host seconds at nominal speed."""
    workload = make_workload(name, seed, sizes, metrics)
    gc.collect()
    chunk_before = reference.chunk()  # one chunk on each side, as around a window's tick
    start = host_clock()
    workload.setup()
    cpu_s = host_clock() - start
    return workload, cpu_s * 2 * NOMINAL_CHUNK_S / (chunk_before + reference.chunk())


def _with_units(values: dict[str, float], metrics) -> dict[str, dict]:
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics}


def _result(mismatches: list[str], guards: list[str], windows: list[Window], metrics, **extra):
    """A run's result: the driver's four keys first, diagnostics after.

    ``mismatches`` are outputs that failed verification and count as failed
    ops; ``guards`` (steadiness, determinism, traced = untraced) make the run
    incorrect without being anyone's failed op.
    """
    attempted = sum(w.ops for w in windows)
    failed = min(attempted, sum(w.failed for w in windows) + len(mismatches))
    if not windows[0].steady():
        first, last = windows[0].quarter_write_amps()
        guards = guards + [f"not steady: write amplification {first:.3f} -> {last:.3f}"]
    return {
        "correct": failed == 0 and not guards,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "steady": windows[0].steady(),
        "problems": (mismatches + guards)[:20],
        **extra,
    }


def run_untraced(name: str, seed: int, seconds: float, sizes: dict[str, int]) -> dict:
    """End-to-end metrics: (set-up, window) cycles on the default, unobserved stack."""
    max_cycles = max(1, round(seconds * 0.3))  # bounds a run when the simulator gets faster
    reference = ReferenceLoop()
    windows: list[Window] = []
    setups: list[float] = []
    while len(windows) < max_cycles and sum(w.cpu_s for w in windows) < seconds:
        workload = None  # one stack alive at a time, so peak_rss_mb is one stack's
        workload, setup_s = _setup(name, seed, sizes, reference)
        setups.append(setup_s)
        windows.append(run_window(workload, sizes["window_ops"], reference))
    mismatches = workload.verify()
    guards = []
    sim = sim_metrics(windows[0])
    for cycle, window in enumerate(windows[1:], start=2):
        if sim_metrics(window) != sim:
            guards.append(f"cycle {cycle}: sim metrics differ from cycle 1 on the same seed")
    values = {
        "setup_s": statistics.median(setups),
        "host_ops_per_s": _middle_mean(
            rate for window in windows for rate in window.tick_ops_per_s()
        ),
        "peak_rss_mb": peak_rss_mb(),
        **sim,
    }
    cpu_s = sum(w.cpu_s for w in windows)
    return _result(
        mismatches, guards, windows, _with_units(values, spec.END_TO_END),
        cycles=len(windows), setups_s=setups,
        host_speed=sum(w.host_s for w in windows) / cpu_s,
        stolen_frac=1.0 - cpu_s / sum(w.wall_s for w in windows),
        sim_op_ms_p50=statistics.median(windows[0].op_sim_us) / 1e3,
        segments=windows[0].segments(),
    )


def run_traced(
    name: str, seed: int, sizes: dict[str, int], out_dir: Path | None = None
) -> dict:
    """Per-layer metrics: one untraced reference window, then the same window traced.

    Both windows do the same fixed work (``--seconds`` does not apply): the
    untraced one gives the host time the overhead is measured against and
    the counts the traced window must reproduce exactly.
    """
    ops = sizes["window_ops"]
    reference = ReferenceLoop()
    workload, _ = _setup(name, seed, sizes, reference)
    untraced = run_window(workload, ops, reference)
    workload = None

    tracer = Tracer(spec.SPAN_SAMPLE_EVERY, spec.SPAN_SAMPLE_CAP)
    tracer.install()
    try:
        workload, _ = _setup(name, seed, sizes, reference, metrics=True)
        traced = run_window(workload, ops, reference, tracer)
    finally:
        tracer.uninstall()
    mismatches = workload.verify()

    guards = []
    values = sim_layer_metrics(traced)
    for metric, value in sim_layer_metrics(untraced).items():
        if values[metric] != value:
            guards.append(f"{metric}: traced {values[metric]!r} != untraced {value!r}")
    if sim_metrics(traced) != sim_metrics(untraced):
        guards.append("sim end-to-end metrics of the traced window differ from the untraced")
    if name == "update_xftl":
        # The paper's claim, asserted: X-FTL mode writes no journal and syncs once per txn.
        if values["fs.journal_page_writes"] != 0 or values["fs.fsync_calls"] != ops:
            guards.append(
                f"update_xftl: {values['fs.journal_page_writes']} journal page writes, "
                f"{values['fs.fsync_calls']} fsyncs for {ops} txns"
            )
    totals = tracer.layer_totals()
    for layer in spec.LAYERS:
        row = totals.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.host_self_us_per_op"] = row["self_s"] * traced.speed * 1e6 / ops
        values[f"{layer}.calls"] = row["calls"]
    for metric in spec.OBS_COUNTS:
        values[metric] = traced.counts[metric]
    flash_ops = sum(
        untraced.counts[f"flash.{kind}"] for kind in ("page_programs", "page_reads", "block_erases")
    )
    rates = untraced.segments()["host_ops_per_s"]
    values.update(
        {
            "sim.host_us_per_flash_op": untraced.host_s * 1e6 / flash_ops,
            "workloads.host_speed": untraced.speed,
            "workloads.stolen_frac": 1.0 - untraced.cpu_s / untraced.wall_s,
            "workloads.host_op_ms_p50": (
                statistics.median(untraced.op_host_s) * untraced.speed * 1e3
            ),
            "workloads.host_op_ms_p99": _p99(untraced.op_host_s) * untraced.speed * 1e3,
            "workloads.trace_overhead_frac": traced.host_s / untraced.host_s - 1.0,
            "workloads.segment_ops_per_s_min": min(rates),
            "workloads.segment_ops_per_s_max": max(rates),
        }
    )
    self_sum = sum(row["self_s"] for row in totals.values())
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = {"workload": name, "seed": seed, "window_cpu_s": traced.cpu_s, **tracer.as_dict()}
        (out_dir / f"trace_{name}.json").write_text(json.dumps(trace))
    return _result(
        mismatches, guards, [untraced, traced], _with_units(values, spec.PER_LAYER),
        traced_cpu_s=traced.cpu_s, traced_self_sum_s=self_sum,
    )
