"""One function per table/figure of the paper's evaluation (§6).

Every function builds fresh simulated machines, runs the workload, and
returns an :class:`ExperimentResult` with the same rows/series the paper
reports.  Absolute numbers depend on the simulation's latency profile and
on the scaled-down workload sizes (see ``DESIGN.md``); the *shape* — which
mode wins and by roughly what factor — is the reproduction target.

Scale note: the paper runs 1,000 synthetic transactions on a 60,000-row
table and replays full traces; defaults here are scaled for minutes-level
runtimes and can be raised with the ``REPRO_SCALE`` environment variable
(e.g. ``REPRO_SCALE=5`` for paper-sized runs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from repro.bench.aging import age_device
from repro.bench.reporting import format_table
from repro.errors import PowerFailure
from repro.ftl.pagemap import PageMappingFTL
from repro.stack import BenchStack, Mode, StackConfig, TenantScheduler, build_ftl, build_stack
from repro.ftl.base import FtlConfig
from repro.sim.latency import OPENSSD_PROFILE, S830_PROFILE
from repro.sim.rng import make_rng
from repro.workloads.android import ALL_PROFILES, AndroidTraceGenerator, TraceReplayer
from repro.workloads.fio import FioBenchmark
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tpcc import MIXES, TpccConfig, TpccDriver, TpccLoader


def _scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _scaled(count: int) -> int:
    """``count`` at ``REPRO_SCALE``, never below one."""
    return max(1, int(count * _scale()))


@dataclass
class ExperimentResult:
    """Formatted result of one experiment.

    ``rows`` is the printed table.  Where the rows round or format what
    was measured, ``runs`` keeps each run's raw measurements once, keyed
    by its row label, for the notes and the shape checks to read.
    """

    name: str
    headers: list[str]
    rows: list[list[Any]]
    notes: str = ""
    runs: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text


# --------------------------------------------------------------- shared setup

SQLITE_MODES = (Mode.RBJ, Mode.WAL, Mode.XFTL)
GC_VALIDITIES = (0.3, 0.5, 0.7)
_PAPER_DEVICE = StackConfig(num_blocks=512, pages_per_block=128, ftl=FtlConfig(gc_policy="fifo"))


def _sqlite_stack(mode: Mode, **overrides: Any) -> BenchStack:
    """Build one stack: the paper's SQLite device unless ``overrides`` say.

    512 blocks of 128 8-KB pages, inline FIFO GC (so aging sets the
    carried-over validity), a serial drain device.  Every experiment stack
    is built here.
    """
    return build_stack(replace(_PAPER_DEVICE, mode=mode, **overrides))


def _loaded_synthetic(
    mode: Mode, rows: int, validity: float | None = None, **overrides: Any
) -> tuple[BenchStack, SyntheticWorkload]:
    stack = _sqlite_stack(mode, **overrides)
    db = stack.open_database("test.db")
    workload = SyntheticWorkload(db, rows=rows)
    workload.load()
    if validity is not None:
        age_device(stack, validity)
    return stack, workload


def _filled_ftl(
    config: FtlConfig,
    fill_fraction: float,
    num_blocks: int,
    pages_per_block: int,
    channels: int = 1,
    mode: Mode = Mode.RBJ,
) -> tuple[PageMappingFTL, int]:
    """A bare FTL on a 512-byte-page chip, its first ``fill`` lpns written.

    ``mode`` picks the firmware: X-FTL for ``Mode.XFTL``, else the stock
    FTL.  The fill ends in a barrier and a drain, so the steady stream
    that follows starts from a persisted map and an idle device.  Returns
    the FTL and ``fill``.  Under an installed hub the chip records into a
    session of its own, labeled with the FTL class.
    """
    ftl = build_ftl(
        StackConfig(
            mode=mode,
            num_blocks=num_blocks,
            pages_per_block=pages_per_block,
            page_size=512,
            channels=channels,
            ftl=config,
        )
    )
    fill = int(ftl.exported_pages * fill_fraction)
    for lpn in range(fill):
        ftl.write(lpn, ("fill", lpn))
    ftl.barrier()
    ftl.chip.drain()
    return ftl, fill


def _skewed_lpn(rng, hot_span: int, fill: int) -> int:
    """One draw of the 80/20 stream: 80% of accesses hit the first ``hot_span`` lpns.

    The FTL experiments seed one stream per experiment and replay it
    against every collector or cache they compare, so rows differ only in
    the configuration (Dayan & Bonnet's method).
    """
    return rng.randrange(hot_span if rng.random() < 0.8 else fill)


# ------------------------------------------------------------------- Figure 5


def fig5_synthetic_elapsed() -> ExperimentResult:
    """Figure 5: synthetic workload elapsed time vs. updated pages per txn."""
    transactions = _scaled(100)
    rows = _scaled(12_000)
    result_rows = []
    runs: dict[str, Any] = {}
    for validity in GC_VALIDITIES:
        for mode in SQLITE_MODES:
            for pages in (1, 5, 10, 20):
                stack, workload = _loaded_synthetic(mode, rows, validity)
                run = workload.run(transactions=transactions, updates_per_txn=pages)
                measured_validity = stack.ftl.gc_mean_valid_ratio()
                runs[f"{validity:.0%}/{mode.value}/{pages}"] = {
                    "elapsed_s": run.elapsed_s,
                    "gc_validity": measured_validity,
                }
                result_rows.append(
                    [f"{validity:.0%}", mode.value, pages, round(run.elapsed_s, 2),
                     f"{measured_validity:.0%}"]
                )
    rbj, wal, xftl = (runs[f"50%/{mode.value}/5"]["elapsed_s"] for mode in SQLITE_MODES)
    return ExperimentResult(
        name=f"Figure 5: synthetic workload ({transactions:,} txns, {rows:,} rows)",
        headers=["GC validity", "mode", "pages/txn", "elapsed (s)", "measured GC validity"],
        rows=result_rows,
        notes=(
            f"At 5 pages/txn, 50% validity: X-FTL is {wal / xftl:.1f}x faster "
            f"than WAL and {rbj / xftl:.1f}x faster than RBJ "
            "(paper: 3.5x and 11.7x)."
        ),
        runs=runs,
    )


# ------------------------------------------------------------------- Table 1


def table1_io_counts() -> ExperimentResult:
    """Table 1: host-side and FTL-side I/O counts (5 pages/txn, 50% validity)."""
    transactions = _scaled(300)
    rows = _scaled(12_000)
    result_rows = []
    for mode in SQLITE_MODES:
        stack, workload = _loaded_synthetic(mode, rows, 0.5)
        ftl0 = stack.ftl.stats.snapshot()
        fs0 = stack.fs.stats.snapshot()
        workload.run(transactions=transactions, updates_per_txn=5)
        ftl = stack.ftl.stats.delta(ftl0)
        fs = stack.fs.stats.delta(fs0)
        result_rows.append(
            [
                mode.value,
                fs.data_page_writes,
                fs.journal_page_writes,
                fs.meta_page_writes,
                fs.data_page_writes + fs.journal_page_writes + fs.meta_page_writes,
                fs.fsync_calls,
                ftl.page_programs,
                ftl.page_reads,
                ftl.gc_invocations,
                ftl.block_erases,
            ]
        )
    return ExperimentResult(
        name=(
            f"Table 1: I/O counts ({transactions:,} txns, 5 pages/txn, "
            "50% GC validity)"
        ),
        headers=[
            "mode", "SQLite data", "journal/WAL", "fs metadata", "total host",
            "fsync calls", "FTL write", "FTL read", "GC", "erase",
        ],
        rows=result_rows,
        notes=(
            "Paper shape: RBJ >> WAL >> X-FTL in every column; X-FTL roughly "
            "halves host writes vs WAL and cuts fsyncs to one per transaction."
        ),
    )


# ------------------------------------------------------------------- Figure 6


def fig6_ftl_activity() -> ExperimentResult:
    """Figure 6: FTL page writes and GC counts vs. GC validity ratio."""
    transactions = _scaled(150)
    rows = _scaled(12_000)
    result_rows = []
    for validity in GC_VALIDITIES:
        for mode in SQLITE_MODES:
            stack, workload = _loaded_synthetic(mode, rows, validity)
            ftl0 = stack.ftl.stats.snapshot()
            workload.run(transactions=transactions, updates_per_txn=5)
            ftl = stack.ftl.stats.delta(ftl0)
            result_rows.append(
                [f"{validity:.0%}", mode.value, ftl.page_programs, ftl.gc_invocations]
            )
    return ExperimentResult(
        name="Figure 6: I/O activity inside the SSD (5 pages/txn)",
        headers=["GC validity", "mode", "page writes", "GC count"],
        rows=result_rows,
        notes="Both metrics grow with validity; X-FTL stays far below WAL and RBJ.",
    )


# ------------------------------------------------------------------- Table 2


def table2_trace_characteristics() -> ExperimentResult:
    """Table 2: shape of the four Android traces (generated vs. published)."""
    trace_scale = 0.05 * _scale()
    result_rows = []
    for profile in ALL_PROFILES:
        ops, stats = AndroidTraceGenerator(profile, scale=trace_scale).generate()
        result_rows.append(
            [
                profile.name,
                profile.files,
                profile.tables,
                stats.queries,
                stats.selects,
                stats.joins,
                stats.inserts,
                stats.updates,
                stats.deletes,
                profile.avg_pages_per_txn,
                stats.ddl,
            ]
        )
    return ExperimentResult(
        name=f"Table 2: Android trace characteristics (generated at scale {trace_scale})",
        headers=[
            "trace", "#files", "#tables", "#queries", "#select", "#join",
            "#insert", "#update", "#delete", "avg pages/txn", "#DDL",
        ],
        rows=result_rows,
        notes="Counts scale linearly; published values are scale 1.0.",
    )


# ------------------------------------------------------------------- Figure 7


def fig7_smartphone() -> ExperimentResult:
    """Figure 7: smartphone workload elapsed time, WAL vs X-FTL."""
    trace_scale = 0.03 * _scale()
    result_rows = []
    for profile in ALL_PROFILES:
        # One generated trace per profile, replayed on both modes.
        ops, _stats = AndroidTraceGenerator(profile, scale=trace_scale).generate()
        elapsed: dict[str, float] = {}
        for mode in (Mode.WAL, Mode.XFTL):
            stack = _sqlite_stack(mode)
            elapsed[mode.value] = TraceReplayer(stack).replay(ops)
        speedup = elapsed[Mode.WAL.value] / max(elapsed[Mode.XFTL.value], 1e-9)
        result_rows.append(
            [
                profile.name,
                round(elapsed[Mode.WAL.value], 2),
                round(elapsed[Mode.XFTL.value], 2),
                f"{speedup:.2f}x",
            ]
        )
    return ExperimentResult(
        name=f"Figure 7: smartphone workloads (trace scale {trace_scale})",
        headers=["trace", "WAL (s)", "X-FTL (s)", "speedup"],
        rows=result_rows,
        notes="Paper: X-FTL 2.4x-3.0x faster than WAL across all four traces.",
    )


# --------------------------------------------------------------- Tables 3 & 4


def table4_tpcc() -> ExperimentResult:
    """Tables 3+4: TPC-C mixes and their throughput (tpmC), WAL vs X-FTL."""
    transactions = _scaled(150)
    mix_rows = [
        [name] + [f"{weights.get(t, 0)}%" for t in
                  ("delivery", "order_status", "payment", "stock_level", "new_order",
                   "selection_only", "join_only")]
        for name, weights in MIXES.items()
    ]
    result_rows = []
    for mix in MIXES:
        tpm: dict[str, float] = {}
        for mode in (Mode.WAL, Mode.XFTL):
            stack = _sqlite_stack(mode)
            db = stack.open_database("tpcc.db")
            config = TpccConfig()
            TpccLoader(db, config).load()
            driver = TpccDriver(db, config)
            run = driver.run(mix, transactions=transactions)
            tpm[mode.value] = run.tpm
        ratio = tpm[Mode.XFTL.value] / max(tpm[Mode.WAL.value], 1e-9)
        result_rows.append(
            [mix, round(tpm[Mode.WAL.value]), round(tpm[Mode.XFTL.value]), f"{ratio:.2f}x"]
        )
    mix_table = format_table(
        ["workload", "delivery", "order status", "payment", "stock level",
         "new order", "selection", "join"],
        mix_rows,
        title="Table 3: TPC-C workload mixes",
    )
    return ExperimentResult(
        name=f"Table 4: TPC-C throughput in tpmC ({transactions:,} txns per cell)",
        headers=["workload", "WAL", "X-FTL", "X-FTL/WAL"],
        rows=result_rows,
        notes=(
            mix_table
            + "\nPaper: 2.3x (write-intensive), 2.5x (read-intensive), "
            "~1.0x (selection-only and join-only)."
        ),
    )


# --------------------------------------------------------------- Figures 8 & 9


FS_LABELS = {
    Mode.FS_ORDERED: "ext4 ordered journaling",
    Mode.FS_FULL: "ext4 full journaling",
    Mode.XFTL: "X-FTL (journaling off)",
}
FSYNC_INTERVALS = (1, 5, 10, 15, 20)


def _fio_run(mode: Mode, runtime_s: float, interval: int, threads: int, **overrides: Any):
    """One FIO 8 KB random-write run on a fresh 768-block stack (stock GC)."""
    stack = _sqlite_stack(mode, num_blocks=768, journal_pages=512, ftl=FtlConfig(), **overrides)
    fio = FioBenchmark(stack, file_pages=32_768)
    return fio.run(runtime_s=runtime_s, fsync_interval=interval, threads=threads)


def fig8_fio_single_thread() -> ExperimentResult:
    """Figure 8: FIO random-write IOPS vs fsync interval, one thread."""
    runtime_s = 30.0 * _scale()
    result_rows = []
    for mode, label in FS_LABELS.items():
        for interval in FSYNC_INTERVALS:
            run = _fio_run(mode, runtime_s, interval, threads=1)
            result_rows.append([label, interval, round(run.iops, 1), run.writes])
    return ExperimentResult(
        name=f"Figure 8: FIO single-thread 8KB random-write IOPS ({runtime_s:.0f}s runs)",
        headers=["configuration", "pages/fsync", "IOPS", "writes"],
        rows=result_rows,
        notes=(
            "Paper: X-FTL beats ordered journaling by 67-99% and full "
            "journaling by 240-254% across all fsync intervals."
        ),
    )


def fig9_fio_s830() -> ExperimentResult:
    """Figure 9: 16-thread FIO — S830 journaling modes vs X-FTL on OpenSSD."""
    runtime_s = 30.0 * _scale()
    configs = [
        ("S830 ordered journaling", Mode.FS_ORDERED, S830_PROFILE),
        ("OpenSSD with X-FTL", Mode.XFTL, OPENSSD_PROFILE),
        ("S830 full journaling", Mode.FS_FULL, S830_PROFILE),
    ]
    result_rows = []
    for label, mode, profile in configs:
        for interval in FSYNC_INTERVALS:
            run = _fio_run(mode, runtime_s, interval, threads=16, profile=profile)
            result_rows.append([label, interval, round(run.iops, 1)])
    return ExperimentResult(
        name=f"Figure 9: FIO 16-thread IOPS, X-FTL vs Samsung S830 ({runtime_s:.0f}s runs)",
        headers=["configuration", "pages/fsync", "IOPS"],
        rows=result_rows,
        notes=(
            "Paper: X-FTL on the (older) OpenSSD sits between the S830's "
            "ordered and full journaling modes."
        ),
    )


# ------------------------------------------------------- channel scaling


def channel_scaling() -> ExperimentResult:
    """Channel scaling: throughput vs. flash channels at a fixed queue depth.

    Not a paper figure — it validates the device model the §6.3.4 comparison
    rests on.  The S830's advantage over the OpenSSD board is channel/way
    parallelism; here the same NAND timings are spread over 1..8 channels
    behind an NCQ queue, and two shapes must hold: FIO randwrite throughput
    grows with channels (the device overlaps), and X-FTL keeps beating the
    rollback journal at every channel count (the paper's win is not an
    artifact of a serial device).
    """
    channel_counts = (1, 2, 4, 8)
    queue_depth = 8
    runtime_s = 15.0 * _scale()
    transactions = _scaled(60)
    rows = _scaled(6_000)
    result_rows = []
    runs: dict[str, Any] = {}
    for mode, label in FS_LABELS.items():
        for channels in channel_counts:
            run = _fio_run(
                mode, runtime_s, 10, threads=1, channels=channels, queue_depth=queue_depth
            )
            runs[f"fio/{mode.value}/{channels}"] = {"iops": run.iops}
            base_iops = runs[f"fio/{mode.value}/{channel_counts[0]}"]["iops"]
            result_rows.append(
                [
                    "FIO randwrite",
                    label,
                    channels,
                    round(run.iops, 1),
                    f"{run.iops / max(base_iops, 1e-9):.2f}x",
                ]
            )
    for channels in channel_counts:
        for mode in SQLITE_MODES:  # RBJ first: the X-FTL row compares with it
            _stack, workload = _loaded_synthetic(
                mode, rows, channels=channels, queue_depth=queue_depth
            )
            run = workload.run(transactions=transactions, updates_per_txn=5)
            runs[f"synthetic/{mode.value}/{channels}"] = {"elapsed_s": run.elapsed_s}
            rbj_s = runs[f"synthetic/RBJ/{channels}"]["elapsed_s"]
            result_rows.append(
                [
                    "synthetic 5 pages/txn",
                    mode.value,
                    channels,
                    round(run.elapsed_s, 2),
                    f"{rbj_s / max(run.elapsed_s, 1e-9):.1f}x RBJ/X-FTL"
                    if mode is Mode.XFTL
                    else "",
                ]
            )
    return ExperimentResult(
        name=(
            f"Channel scaling: 1..{max(channel_counts)} flash channels, "
            f"queue depth {queue_depth}"
        ),
        headers=["workload", "configuration", "channels", "IOPS / elapsed (s)", "vs baseline"],
        rows=result_rows,
        notes=(
            "Expected shape: FIO IOPS grow monotonically with channels "
            "(>=2x at 8); X-FTL stays fastest at every channel count."
        ),
        runs=runs,
    )


# ---------------------------------------------------- concurrent sessions


def concurrency_scaling() -> ExperimentResult:
    """Concurrent sessions: commits/sec and X-L2P flushes per commit vs N.

    Not a paper figure — it measures what the Session/TxnManager layer
    buys: N TPC-C terminals (each its own database, the paper's §6.2
    file-granularity locking) interleave over one device.  On X-FTL their
    COMMITs coalesce into group commits, so the X-L2P flush count per
    committed transaction falls below 1 as sessions are added, while
    RBJ/WAL pay the full journal protocol per transaction regardless.

    A paired X-FTL run with group commit disabled checks that grouping
    changes only the commit protocol: the data page programs
    (``host_page_writes``) must be identical, since the terminals execute
    the same statement stream either way; a mismatch raises.
    """
    from repro.workloads.tpcc import MultiTerminalTpccDriver

    transactions_per_terminal = _scaled(25)
    mix = "write-intensive"
    config = TpccConfig(
        warehouses=1, districts_per_warehouse=2, customers_per_district=10,
        items=50, initial_orders_per_district=5,
    )

    def _run(mode: Mode, sessions: int, group_commit: bool):
        stack = _sqlite_stack(mode)
        driver = MultiTerminalTpccDriver(
            stack, terminals=sessions, config=config, group_commit=group_commit
        )
        driver.load()
        stats0 = stack.chip.stats.snapshot()
        result = driver.run(mix, transactions_per_terminal)
        stats = stack.chip.stats.delta(stats0)
        return result, stats

    result_rows = []
    runs: dict[str, Any] = {}
    identity_notes = []
    for mode in SQLITE_MODES:
        for sessions in (1, 2, 4):
            run, stats = _run(mode, sessions, group_commit=True)
            commits = sum(run.per_terminal_commits)
            record = runs[f"{mode.value}/{sessions}"] = {
                "commits": commits,
                "commits_per_s": commits / max(run.elapsed_s, 1e-9),
            }
            flush_cell = group_cell = "-"
            if mode is Mode.XFTL:
                record["flushes_per_commit"] = stats.xl2p_flushes / max(commits, 1)
                flush_cell = f"{record['flushes_per_commit']:.2f}"
                group_cell = f"{run.mean_group_size:.1f}"
                # Paired ungrouped run: same statements, no commit batching.
                _solo, solo_stats = _run(mode, sessions, group_commit=False)
                if solo_stats.host_page_writes != stats.host_page_writes:
                    raise RuntimeError(
                        f"{sessions} sessions: grouped commits programmed "
                        f"{stats.host_page_writes} data pages, serial commits "
                        f"{solo_stats.host_page_writes}"
                    )
                identity_notes.append(
                    f"{sessions} sessions: grouped and serial commits "
                    f"programmed identical data pages "
                    f"({stats.host_page_writes})."
                )
            result_rows.append(
                [
                    mode.value,
                    sessions,
                    commits,
                    round(record["commits_per_s"], 1),
                    flush_cell,
                    group_cell,
                ]
            )
    return ExperimentResult(
        name=(
            f"Concurrency: {mix} TPC-C terminals over one device "
            f"({transactions_per_terminal} txns/terminal)"
        ),
        headers=[
            "mode", "sessions", "commits", "commits/s",
            "X-L2P flushes/commit", "mean group size",
        ],
        rows=result_rows,
        notes=(
            "Expected shape: X-FTL commits/s grows with sessions while "
            "flushes/commit falls below 1 (group commit); RBJ/WAL stay "
            "at one journal protocol per transaction.\n"
            + "\n".join(identity_notes)
        ),
        runs=runs,
    )


# ----------------------------------------------------------- GC comparison


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def gc_comparison() -> ExperimentResult:
    """Inline vs background GC: foreground write latency at high utilization.

    Not a paper figure — it isolates what ``FtlConfig.gc_mode="background"``
    buys.  Both FTLs run the identical skewed overwrite stream (80% of
    writes to 20% of the space) on a device filled to 92% of its exported
    capacity, where every few foreground writes force a reclamation.  The
    inline collector performs whole stop-the-world block collections under
    unlucky host writes; the background collector paces copybacks into
    channel idle windows, so its foreground tail (p99/max) must come in far
    below inline's.  The background row also exercises hot/cold stream
    separation and wear leveling; erase-count spread is reported before
    and after the steady-state phase.
    """
    writes = _scaled(4_000)
    utilization = 0.92
    channels = 4

    def _background_config(wear_threshold: int) -> FtlConfig:
        return FtlConfig(
            gc_mode="background",
            gc_policy="cost-benefit",
            gc_background_watermark=4,
            gc_copyback_pages_per_step=2,
            gc_hot_write_threshold=4,
            gc_wear_spread_threshold=wear_threshold,
            gc_wear_check_interval=16,
        )

    def _run(ftl_config: FtlConfig, fill_fraction: float) -> dict[str, Any]:
        ftl, fill = _filled_ftl(
            ftl_config, fill_fraction, num_blocks=96, pages_per_block=32, channels=channels
        )
        chip = ftl.chip
        hot_span = max(1, fill // 5)
        spread_before = chip.state.wear_spread()
        stats0 = ftl.stats.snapshot()
        rng = make_rng(0x5EED6C, "bench.gc_comparison", "steady-stream")
        latencies: list[float] = []
        for seq in range(writes):
            lpn = _skewed_lpn(rng, hot_span, fill)
            start_us = chip.clock.now_us
            ftl.write(lpn, ("steady", seq))
            latencies.append(chip.clock.now_us - start_us)
        chip.drain()
        stats = ftl.stats.delta(stats0)
        latencies.sort()
        return {
            "fill": fill_fraction,
            "p50_us": _percentile(latencies, 0.50),
            "p99_us": _percentile(latencies, 0.99),
            "max_us": latencies[-1] if latencies else 0.0,
            "gc_invocations": stats.gc_invocations,
            "gc_urgent": stats.gc_urgent_collections,
            "wear_migrations": stats.gc_wear_migrations,
            "spread_before": spread_before,
            "spread_after": chip.state.wear_spread(),
        }

    # Wear leveling needs headroom to take on fully-valid victims, so it is
    # demonstrated at moderate fill; the latency comparison runs at the
    # high utilization where GC pressure is constant.
    wear_fill = min(utilization, 0.72)
    runs = {
        "inline": _run(FtlConfig(gc_mode="inline", gc_policy="greedy"), utilization),
        "background": _run(_background_config(8), utilization),
        "background, wear off": _run(_background_config(0), wear_fill),
        "background, wear on": _run(_background_config(4), wear_fill),
    }
    result_rows = [
        [
            label,
            f"{run['fill']:.0%}",
            round(run["p50_us"], 1),
            round(run["p99_us"], 1),
            round(run["max_us"], 1),
            run["gc_invocations"],
            run["gc_urgent"],
            run["wear_migrations"],
            f"{run['spread_before']} -> {run['spread_after']}",
        ]
        for label, run in runs.items()
    ]
    return ExperimentResult(
        name=(
            f"GC: inline vs background foreground write latency "
            f"({writes:,} writes at {utilization:.0%} utilization, "
            f"{channels} channels)"
        ),
        headers=[
            "configuration", "fill", "p50 (us)", "p99 (us)", "max (us)",
            "GC victims", "urgent", "wear migrations", "erase spread",
        ],
        rows=result_rows,
        notes=(
            "Expected shape: identical write streams, but background GC's "
            "p99/max foreground latency sits far below inline's because "
            "copybacks are paced into channel idle windows; only urgent "
            "(headroom-floor) collections still stall the host.  The two "
            "moderate-fill rows isolate wear leveling: with it on, cold "
            "low-erase blocks are migrated back into circulation and the "
            "erase-count spread after the run is never wider (the targeted "
            "test in tests/test_ftl_gc.py drives a longer skewed workload "
            "where the gap is pronounced)."
        ),
        runs=runs,
    )


# ----------------------------------------------------------- demand paging


def mapping_locality() -> ExperimentResult:
    """Demand-paged mapping: CMT hit ratio and map-write cost vs. locality.

    Not a paper figure — it isolates what ``FtlConfig.cmt_pages`` costs and
    buys.  The device is sized so the full L2P map spans several times more
    translation pages than the cache holds (the DFTL regime); an identical
    80/20 operation stream then runs at three localities, from a tight hot
    span that fits the cache to a uniform sweep that thrashes it.  Each
    locality is run twice: with the small CMT and with the whole map held
    in DRAM (``cmt_pages=0``, the seed behaviour).  The interesting columns
    are the CMT hit ratio — which collapses as the hot span outgrows the
    cache — and the translation write amplification (translation-page
    programs per host write): the in-RAM map pays it only at barriers,
    while the demand-paged map adds eviction writebacks that grow as
    locality degrades.
    """
    operations = _scaled(6_000)
    cmt_pages = 16
    map_entries_per_page = 64

    def _run(hot_fraction: float, pages: int) -> dict[str, Any]:
        config = FtlConfig(
            map_entries_per_page=map_entries_per_page, cmt_pages=pages, cmt_dirty_batch=4
        )
        ftl, fill = _filled_ftl(config, 0.6, num_blocks=128, pages_per_block=64)
        hot_span = max(1, int(fill * hot_fraction))
        stats0 = ftl.stats.snapshot()
        rng = make_rng(0x5EED6C, "bench.mapping", "steady-stream")
        for seq in range(operations):
            lpn = _skewed_lpn(rng, hot_span, fill)
            if rng.random() < 0.3:
                ftl.read(lpn)
            else:
                ftl.write(lpn, ("steady", seq))
            if (seq + 1) % 256 == 0:
                ftl.barrier()
        ftl.barrier()
        stats = ftl.stats.delta(stats0)
        accesses = stats.cmt_hits + stats.cmt_misses
        return {
            "translation_pages": -(-ftl.exported_pages // map_entries_per_page),
            "hit_ratio": stats.cmt_hits / accesses if accesses else None,
            "fetch_reads": stats.cmt_fetch_reads,
            "evictions": stats.cmt_evictions,
            "writebacks": stats.cmt_writebacks,
            "map_page_writes": stats.map_page_writes,
            "host_page_writes": stats.host_page_writes,
            "translation_wa": stats.map_page_writes / max(stats.host_page_writes, 1),
        }

    result_rows = []
    runs: dict[str, Any] = {}
    for hot_fraction in (0.05, 0.2, 1.0):
        locality = f"{hot_fraction:.0%} hot span"
        for label, pages in (("demand-paged", cmt_pages), ("in-RAM map", 0)):
            run = runs[f"{locality}/{label}"] = _run(hot_fraction, pages)
            ratio = run["hit_ratio"]
            result_rows.append(
                [
                    locality,
                    label,
                    f"{ratio:.1%}" if ratio is not None else "-",
                    run["fetch_reads"],
                    run["evictions"],
                    run["writebacks"],
                    run["map_page_writes"],
                    f"{run['translation_wa']:.3f}",
                ]
            )
    return ExperimentResult(
        name=(
            f"Mapping: CMT hit ratio vs. locality ({operations:,} ops, "
            f"{cmt_pages} cached of ~{run['translation_pages']} translation pages)"
        ),
        headers=[
            "locality", "mapping", "CMT hit ratio", "fetch reads",
            "evictions", "writebacks", "map page writes", "translation WA",
        ],
        rows=result_rows,
        notes=(
            "Expected shape: the hit ratio falls as the hot span outgrows "
            "the cache (uniform is worst); translation write amplification "
            "for the demand-paged map exceeds the in-RAM map's "
            "barrier-only flushes and grows as locality degrades."
        ),
        runs=runs,
    )


# ---------------------------------------------------------------------- MVCC


def mvcc_retention() -> ExperimentResult:
    """Multi-version X-L2P: reader staleness vs. the GC cost of retention.

    Not a paper figure — it measures what ``FtlConfig.retain_versions``
    buys and costs.  An identical skewed transactional overwrite stream
    runs once per retention depth; alongside it, an AS-OF reader probes
    historical snapshots at fixed ages (2, 8, 32 and 128 commits back),
    always choosing a page that *changed* since the probed snapshot, and
    a host-side history oracle says what the correct historical value
    was.  A probe is **stale** when ``read_as_of`` had already lost the
    version and clamped to a newer copy.  At ``retain_versions=1`` the
    FTL publishes no commit epochs at all (bit-identity with the
    single-version stack), so the row is the pure cost baseline; deeper
    retention pushes freshness out to older snapshots — a probe survives
    as long as its page was overwritten at most ``retain - 1`` times
    since the snapshot.

    The cost column group is the flip side: retained versions are live
    pages GC must copy forward, so valid ratios in victim blocks rise
    with depth and write amplification / copyback traffic grow.  Commits
    are single-transaction (no grouping) so the history oracle maps one
    commit sequence to one published version; the ``ftl.mvcc`` verify
    layer covers grouped commits.
    """
    transactions = _scaled(600)
    probe_ages = (2, 8, 32, 128)

    def _run(retain: int) -> dict[str, Any]:
        config = FtlConfig(
            gc_mode="background",
            gc_policy="cost-benefit",
            gc_background_watermark=4,
            gc_copyback_pages_per_step=2,
            gc_hot_write_threshold=4,
            retain_versions=retain,
        )
        # High fill keeps GC active (so retention's copyback cost shows);
        # the narrow hot span concentrates overwrites so probed snapshots
        # age past the chain bound within the probe window.  Retained
        # chains are live pages, so the deepest sweep must still fit.
        ftl, fill = _filled_ftl(
            config, 0.7, num_blocks=96, pages_per_block=32, channels=2, mode=Mode.XFTL
        )
        hot_span = 48
        stats0 = ftl.stats.snapshot()
        # History oracle: per-lpn (commit_seq, value), appended at commit.
        history: dict[int, list[tuple[int, Any]]] = {}
        fresh: dict[int, int] = {age: 0 for age in probe_ages}
        stale: dict[int, int] = {age: 0 for age in probe_ages}
        rng = make_rng(0x5EED6C, "bench.mvcc", "steady-stream")
        for tid in range(1, transactions + 1):
            written: dict[int, Any] = {}
            for _ in range(rng.randrange(1, 3)):
                lpn = _skewed_lpn(rng, hot_span, fill)
                value = ("txn", tid, lpn)
                ftl.write_tx(tid, lpn, value)
                written[lpn] = value  # last write per lpn wins at commit
            ftl.commit(tid)
            seq = ftl.snapshot_seq()
            for lpn, val in written.items():
                history.setdefault(lpn, []).append((seq, val))
            if tid % 7 == 0:
                # Probe each age with a page that changed after the
                # probed snapshot, so a correct answer requires the
                # retained version (not just the unchanged current copy).
                for age in probe_ages:
                    snap = seq - age
                    if snap < 1:
                        continue
                    candidates = [
                        lpn
                        for lpn, entries in history.items()
                        if lpn < hot_span
                        and entries[-1][0] > snap
                        and any(s <= snap for s, _ in entries)
                    ]
                    if not candidates:
                        continue
                    lpn = candidates[rng.randrange(len(candidates))]
                    # history is in commit order: the last entry at or
                    # before the snapshot is what it saw.
                    expected = [val for s, val in history[lpn] if s <= snap][-1]
                    if ftl.read_as_of(lpn, snap) == expected:
                        fresh[age] += 1
                    else:
                        stale[age] += 1
        ftl.chip.drain()
        stats = ftl.stats.delta(stats0)
        return {
            "fresh_ratio": {
                age: fresh[age] / (fresh[age] + stale[age])
                if fresh[age] + stale[age]
                else None
                for age in probe_ages
            },
            "write_amp": stats.page_programs / max(stats.host_page_writes, 1),
            "copyback_writes": stats.gc_copyback_writes,
            "gc_invocations": stats.gc_invocations,
            "block_erases": stats.block_erases,
            "retained_pages": ftl.retained_version_count(),
        }

    result_rows = []
    runs: dict[str, Any] = {}
    for retain in (1, 2, 4, 8):
        run = runs[str(retain)] = _run(retain)
        result_rows.append(
            [retain]
            + [
                f"{ratio:.0%}" if ratio is not None else "-"
                for ratio in run["fresh_ratio"].values()
            ]
            + [
                f"{run['write_amp']:.2f}",
                run["copyback_writes"],
                run["gc_invocations"],
                run["block_erases"],
                run["retained_pages"],
            ]
        )
    return ExperimentResult(
        name=(
            f"MVCC: AS-OF freshness and GC cost vs retain_versions "
            f"({transactions:,} single-page txns, background GC)"
        ),
        headers=(
            ["retain"]
            + [f"fresh@-{age}" for age in probe_ages]
            + ["write amp", "GC copybacks", "GC victims", "erases", "retained pages"]
        ),
        rows=result_rows,
        notes=(
            "Expected shape: retain=1 has no commit epochs at all (the "
            "sequence counter stays off for bit-identity), so AS-OF probes "
            "show '-' and the row is the pure cost baseline.  From retain=2 "
            "up, freshness at a given age rises with depth: a probe goes "
            "stale once its page was overwritten more than retain-1 times "
            "since the snapshot.  The price is GC: retained versions are "
            "live pages, so copyback traffic grows with depth."
        ),
        runs=runs,
    )


# ------------------------------------------------------------------- Table 5


def table5_recovery() -> ExperimentResult:
    """Table 5: SQLite restart time after a mid-workload power failure."""
    transactions = _scaled(60)
    rows = _scaled(6_000)
    result_rows = []
    for mode in SQLITE_MODES:
        stack, workload = _loaded_synthetic(mode, rows)
        # For WAL, accumulate committed frames first (the paper's WAL file
        # is sized to its 1000-frame checkpoint threshold at crash time).
        workload.run(transactions=transactions, updates_per_txn=5)
        # Crash mid-commit: for RBJ just after the journal went hot (so
        # restart must roll back from it); otherwise mid device writes.
        if mode is Mode.RBJ:
            stack.crash_plan.arm("sqlite.commit.mid")
        else:
            stack.crash_plan.arm("flash.program.after", after=3)
        try:
            workload.run(transactions=5, updates_per_txn=10)
        except PowerFailure:
            pass
        stack.crash_plan.disarm_all()
        stack.remount_after_crash()
        db = stack.open_database("test.db")
        sqlite_recovery_ms = db.last_recovery_us / 1000.0
        if mode is Mode.XFTL:
            # The paper's X-FTL restart time is the X-L2P load + reflect
            # step inside the device (§6.4).
            sqlite_recovery_ms = stack.ftl.last_xl2p_recovery_us / 1000.0
        count = db.execute("SELECT COUNT(*) FROM partsupply")[0][0]
        result_rows.append([mode.value, round(sqlite_recovery_ms, 2), count == rows])
    return ExperimentResult(
        name="Table 5: restart time after power failure (ms)",
        headers=["mode", "restart (ms)", "data intact"],
        rows=result_rows,
        notes="Paper: rollback 20.1 ms, WAL 153.0 ms, X-FTL 3.5 ms.",
    )


# ------------------------------------------------------------- multi-tenancy


def tenant_fairness() -> ExperimentResult:
    """Noisy neighbour: one hot tenant vs three cold tenants, RR vs deficit.

    Not a paper figure — it measures what the tenant-aware scheduler buys
    on the paper's §6.3 shape (many small SQLite clients on one X-FTL
    device).  One *hot* tenant runs four sessions of eight-update
    inline-commit transactions; the three *cold* tenants run one
    session of single-update transactions each.  Under plain round-robin
    every session gets a turn per round, so the hot tenant's extra
    sessions multiply the simulated time injected into every cold
    tenant's open transaction window.  Deficit round-robin banks one
    time quantum per tenant per round — the hot sessions share their
    tenant's quantum — so the cold tenants' p99 commit latency must come
    in below the round-robin run's.

    Both policies execute the identical statement streams; per-tenant
    device counts (writes, flushes, commits) come from the device's
    tenant registry.
    """
    tenants = 4
    transactions = _scaled(12)
    cold_transactions = transactions * 2  # enough samples for a pooled p99
    hot_sessions = 4
    hot_updates_per_txn = 8
    rows = 64

    def _txn_task(db, rng, count, updates, latencies, clock):
        for _ in range(count):
            started = clock.now_us
            db.execute("BEGIN")
            for _ in range(updates):
                target = rng.randrange(rows)
                db.execute(
                    "UPDATE kv SET v = ? WHERE id = ?", (f"v-{target}", target)
                )
                yield None
            db.execute("COMMIT")
            latencies.append(clock.now_us - started)
            yield None

    def _seed_database(db) -> None:
        db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        for row in range(rows):
            db.execute("INSERT INTO kv (id, v) VALUES (?, ?)", (row, f"v-{row}"))
        db.execute("COMMIT")

    def _run(policy: str) -> dict[str, Any]:
        stack = _sqlite_stack(
            Mode.XFTL,
            num_blocks=256,
            pages_per_block=64,
            channels=2,
            queue_depth=4,
        )
        scheduler = TenantScheduler(stack, fairness=policy, group_commit=False)
        clock = stack.clock
        latencies: dict[str, list[float]] = {}

        hot = stack.open_tenant("hot")
        latencies["hot"] = []
        hot_tasks = []
        for index in range(hot_sessions):
            session = hot.open_session()
            db = hot.open_database(f"hot{index}.db", session=session)
            _seed_database(db)
            hot_tasks.append(
                _txn_task(
                    db, hot.make_rng("txn", index), transactions,
                    hot_updates_per_txn, latencies["hot"], clock,
                )
            )
        scheduler.add(hot, hot_tasks)

        for index in range(tenants - 1):
            cold = stack.open_tenant(f"cold{index}")
            latencies[cold.name] = []
            db = cold.open_database("app.db")
            _seed_database(db)
            scheduler.add(
                cold,
                [
                    _txn_task(
                        db, cold.make_rng("txn"), cold_transactions, 1,
                        latencies[cold.name], clock,
                    )
                ],
            )

        scheduler.run()
        cold_pool = sorted(
            value
            for name, values in latencies.items()
            if name != "hot"
            for value in values
        )
        hot_pool = sorted(latencies["hot"])
        return {
            "hot_p50_us": _percentile(hot_pool, 0.50),
            "hot_p99_us": _percentile(hot_pool, 0.99),
            "cold_p50_us": _percentile(cold_pool, 0.50),
            "cold_p99_us": _percentile(cold_pool, 0.99),
            "hot_commits": len(hot_pool),
            "cold_commits": len(cold_pool),
            "elapsed_s": clock.now_s,
            "registry": stack.chip.tenants.as_dict(),
        }

    runs = {policy: _run(policy) for policy in ("round-robin", "deficit")}
    result_rows = [
        [
            policy,
            lane,
            run[f"{lane}_commits"],
            round(run[f"{lane}_p50_us"], 1),
            round(run[f"{lane}_p99_us"], 1),
        ]
        for policy, run in runs.items()
        for lane in ("hot", "cold")
    ]
    rr = runs["round-robin"]
    drr = runs["deficit"]
    ratio = rr["cold_p99_us"] / max(drr["cold_p99_us"], 1e-9)
    return ExperimentResult(
        name=(
            f"Tenant fairness: 1 hot ({hot_sessions} sessions, "
            f"{hot_updates_per_txn} updates/txn) vs {tenants - 1} cold tenants"
        ),
        headers=["policy", "tenant lane", "commits", "p50 (us)", "p99 (us)"],
        rows=result_rows,
        notes=(
            "Expected shape: deficit scheduling bounds the cold tenants' "
            "tail while round-robin lets the hot tenant's sessions inflate "
            f"it.  Cold p99 round-robin/deficit = {ratio:.1f}x."
        ),
        runs=runs,
    )


# ------------------------------------------------ barrier-enabled IO stack


def barrier_comparison() -> ExperimentResult:
    """Rival design: drain-and-wait vs barrier-enabled durability points.

    Not a paper figure — it runs the "Barrier Enabled IO Stack" rival
    head to head against the drain-based stack.  Every SQLite journaling
    mode executes the identical commit-heavy synthetic workload twice on a
    parallel device (4 channels behind a depth-4 NCQ queue): once on a drain
    device, where each ordering point on the commit path (``fbarrier``,
    the journal's ordered commit page) costs flushes, and once on a
    barrier-enabled device, where the same calls cost order-only epoch
    closes and BARRIER_WRITE commands.

    The drain runs count the commit-path stalls they actually waited out
    (``barrier_stalls``/``barrier_stall_us``: queue still busy when the
    durability point drained it); the barrier runs count the same stalls
    *avoided* (``stalls_avoided``/``stall_avoided_us``) plus the epochs
    their ordering points closed.  Expected shape: on 4 channels the
    drain runs stall on every fsync that catches in-flight commands, the
    barrier runs convert all of those into order-only epoch closes
    (zero drain stalls) and finish no slower.
    """
    channels = 4
    queue_depth = 4
    transactions = _scaled(50)
    rows = _scaled(2_000)

    def _run(mode: Mode, barrier_mode: bool) -> dict[str, Any]:
        stack, workload = _loaded_synthetic(
            mode, rows, channels=channels, queue_depth=queue_depth, barrier_mode=barrier_mode
        )
        run = workload.run(transactions=transactions, updates_per_txn=2)
        device = stack.device
        stalls = device.stalls
        return {
            "elapsed_s": run.elapsed_s,
            "flushes": device.counters.flushes,
            "barriers": device.counters.barriers,
            "barrier_writes": device.counters.barrier_writes,
            "drain_stalls": stalls.barrier_stalls,
            "drain_stall_us": stalls.barrier_stall_us,
            "stalls_avoided": stalls.stalls_avoided,
            "stall_avoided_us": stalls.stall_avoided_us,
            "epochs_closed": device.queue.counts.epochs_closed,
        }

    result_rows = []
    runs: dict[str, Any] = {}
    stall_notes = []
    for mode in SQLITE_MODES:
        drain = runs[f"{mode.value}/drain"] = _run(mode, barrier_mode=False)
        barrier = runs[f"{mode.value}/barrier"] = _run(mode, barrier_mode=True)
        for durability, run in (("drain", drain), ("barrier", barrier)):
            result_rows.append(
                [
                    mode.value,
                    durability,
                    round(run["elapsed_s"], 2),
                    run["flushes"],
                    run["barriers"] + run["barrier_writes"],
                    f"{run['drain_stalls']} ({run['drain_stall_us'] / 1e3:.1f} ms)",
                    f"{run['stalls_avoided']} ({run['stall_avoided_us'] / 1e3:.1f} ms)",
                    run["epochs_closed"],
                ]
            )
        stall_notes.append(
            f"{mode.value}: drain stalled {drain['drain_stalls']}x "
            f"({drain['drain_stall_us'] / 1e3:.1f} ms); barrier stalled "
            f"{barrier['drain_stalls']}x, avoided {barrier['stalls_avoided']} "
            f"({barrier['stall_avoided_us'] / 1e3:.1f} ms), "
            f"{drain['elapsed_s'] / max(barrier['elapsed_s'], 1e-9):.2f}x faster."
        )
    return ExperimentResult(
        name=(
            f"Barrier-enabled IO stack vs drain: {channels} channels, "
            f"queue depth {queue_depth}, {transactions} txns of 2 updates"
        ),
        headers=[
            "mode", "durability", "elapsed (s)", "flushes",
            "barrier cmds", "drain stalls", "stalls avoided", "epochs",
        ],
        rows=result_rows,
        notes=(
            "Expected shape: barrier mode turns every commit-path drain "
            "stall into an order-only epoch close (zero drain stalls) "
            "and commits no slower.\n" + "\n".join(stall_notes)
        ),
        runs=runs,
    )


# ------------------------------------------------------------------ ablations
# Not paper figures: each isolates one mechanism DESIGN.md calls out, at a
# fixed size (``REPRO_SCALE`` does not apply).


def ablation_xl2p_size() -> ExperimentResult:
    """X-L2P table size vs commit cost (paper §5.3: 500 entries fit one
    8 KB flash page, 1,000 take two)."""
    result_rows = []
    runs: dict[str, Any] = {}
    for capacity in (500, 1000, 2000):
        stack = _sqlite_stack(Mode.XFTL, num_blocks=256, ftl=FtlConfig(xl2p_capacity=capacity))
        ftl = stack.ftl
        t0 = stack.clock.now_us
        for tid in range(1, 101):
            for page in range(5):
                ftl.write_tx(tid, page, ("payload",))
            ftl.commit(tid)
        cost = runs[str(capacity)] = (stack.clock.now_us - t0) / 100.0
        result_rows.append([capacity, round(cost, 1)])
    return ExperimentResult(
        name="Ablation: X-L2P table size vs commit cost (5-page txns)",
        headers=["X-L2P capacity (entries)", "avg commit cost (us)"],
        rows=result_rows,
        runs=runs,
    )


def ablation_map_chunk() -> ExperimentResult:
    """Mapping-chunk granularity vs the stock FTL's barrier cost (the
    quantity X-FTL avoids paying): finer chunks persist more map pages."""
    result_rows = []
    runs: dict[str, Any] = {}
    for chunk in (64, 256, 1024):
        stack = _sqlite_stack(
            Mode.FS_ORDERED, num_blocks=256, ftl=FtlConfig(map_entries_per_page=chunk)
        )
        ftl = stack.ftl
        # Dirty a clustered run of logical pages (a database file's working
        # set is contiguous on disk), then time one barrier.
        for lpn in range(2_048):
            ftl.write(lpn, ("data",))
        t0 = stack.clock.now_us
        ftl.barrier()
        cost = runs[str(chunk)] = stack.clock.now_us - t0
        result_rows.append([chunk, round(cost, 1)])
    return ExperimentResult(
        name="Ablation: mapping-chunk granularity vs barrier (fsync) cost",
        headers=["map entries per chunk", "barrier cost (us)"],
        rows=result_rows,
        runs=runs,
    )


def ablation_gc_policy() -> ExperimentResult:
    """GC victim policy (greedy vs FIFO rotation) on a device aged to 50 %."""
    runs: dict[str, Any] = {}
    for policy in ("greedy", "fifo"):
        stack, workload = _loaded_synthetic(
            Mode.XFTL, 6_000, 0.5, num_blocks=512, ftl=FtlConfig(gc_policy=policy)
        )
        t0 = stack.clock.now_s
        workload.run(transactions=100, updates_per_txn=5)
        runs[policy] = {
            "elapsed_s": stack.clock.now_s - t0,
            "gc_validity": stack.ftl.gc_mean_valid_ratio(),
        }
    return ExperimentResult(
        name="Ablation: GC victim policy on an aged (50%) device",
        headers=["GC policy", "elapsed (s)", "mean GC validity"],
        rows=[
            [policy, round(run["elapsed_s"], 2), f"{run['gc_validity']:.0%}"]
            for policy, run in runs.items()
        ],
        runs=runs,
    )


ALL_EXPERIMENTS = {
    "fig5": fig5_synthetic_elapsed,
    "table1": table1_io_counts,
    "fig6": fig6_ftl_activity,
    "table2": table2_trace_characteristics,
    "fig7": fig7_smartphone,
    "table4": table4_tpcc,
    "fig8": fig8_fio_single_thread,
    "fig9": fig9_fio_s830,
    "table5": table5_recovery,
    "barrier": barrier_comparison,
    "channels": channel_scaling,
    "concurrency": concurrency_scaling,
    "gc": gc_comparison,
    "mapping": mapping_locality,
    "mvcc": mvcc_retention,
    "tenants": tenant_fairness,
    "ablation_xl2p_size": ablation_xl2p_size,
    "ablation_map_chunk": ablation_map_chunk,
    "ablation_gc_policy": ablation_gc_policy,
}
