"""What the benchmark measures: workloads, sizes and metric names.

``BENCHMARK.json`` at the repository root is the contract the driver reads
(names, units, directions, bounds); this module is the same list with the
two things the contract has no key for — the *clock* each number is taken on
and a one-line definition — and ``test_harness.py`` checks the two agree.

Clocks:

- ``host``  — what the simulator costs the person running it: process CPU
  time scaled to nominal machine speed (measure.py and reference.py say why
  not wall time) and memory.  Noisy; compared within the bounds of
  BENCHMARK.json.
- ``sim``   — what the modelled device would do: simulated time and the
  counts the stack keeps.  A deterministic function of code and ``--seed``;
  two runs of the same code must agree to the last digit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: One measured window is split into this many equal-op ticks; a segment is
#: two ticks (10 per window) and a quarter is five.
TICKS = 20
SEGMENTS = 10

#: First-quarter vs last-quarter write amplification may differ by this
#: share before a window is reported as not in steady state.
STEADY_TOLERANCE = 0.10

#: Every Nth op of a traced window keeps its full span tree (capped).
SPAN_SAMPLE_EVERY = 100
SPAN_SAMPLE_CAP = 40


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    op: str
    why: str


WORKLOADS = (
    WorkloadInfo(
        "update_rbj",
        "SQL txn",
        "Paper 6.3.1 synthetic 5-update txn in RBJ mode: rollback journal + ext4 ordered "
        "journal + stock-FTL map flush per barrier + GC; the I/O-stack-bound leg through SQL",
    ),
    WorkloadInfo(
        "update_xftl",
        "SQL txn",
        "Identical traffic and seed in X-FTL mode: no journal writes, one tagged commit per "
        "txn, X-L2P flush; an fs-journal optimisation must move update_rbj and not this",
    ),
    WorkloadInfo(
        "tpcc_wal",
        "TPC-C txn",
        "TPC-C write-intensive mix in WAL mode: inserts, deletes, index upkeep, joins; the "
        "SQL-engine-bound leg, where an FTL or flash optimisation predicts no change",
    ),
    WorkloadInfo(
        "ftl_gc",
        "8 writes + flush",
        "No SQLite or ext4: skewed overwrites on an 85%-full 8-channel queue-depth-8 device "
        "with background GC and wear levelling; the only leg with overlap and NCQ",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: Fixed op counts (never durations), so sim numbers repeat exactly.
#: ``window_ops`` must be a multiple of TICKS.  See README "Sizes".
SIZES: dict[str, dict[str, int]] = {
    "update_rbj": {"rows": 2000, "num_blocks": 2048, "window_ops": 1500},
    "update_xftl": {"rows": 2000, "num_blocks": 2048, "window_ops": 6000},
    "tpcc_wal": {"num_blocks": 512, "window_ops": 1000},
    "ftl_gc": {"num_blocks": 128, "precondition_ops": 2500, "window_ops": 2000},
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str
    what: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_m = Metric


END_TO_END = (
    _m("setup_s", "s", "lower", "host",
       "build stack + load + age + precondition; median of the run's set-ups"),
    _m("host_ops_per_s", "op/s", "higher", "host",
       "ops / host time per tick (20 per window); mean of the middle half of the run's ticks"),
    _m("peak_rss_mb", "MB", "lower", "host", "ru_maxrss at exit"),
    _m("sim_ops_per_s", "op/sim-s", "higher", "sim",
       "window ops / SimClock elapsed - the paper's elapsed-time / tpmC axis"),
    _m("sim_op_ms_p99", "sim-ms", "lower", "sim",
       "p99 simulated op latency; where GC and checkpoint spikes show"),
    _m("flash_programs_per_op", "pages/op", "lower", "sim",
       "FlashStats.page_programs / ops - end-to-end write amplification"),
    _m("flash_erases_per_kop", "erases/kop", "lower", "sim",
       "block_erases x 1000 / ops - device lifetime"),
)

PER_LAYER = (
    # sqlite
    _m("sqlite.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time in Connection.execute / window ops"),
    _m("sqlite.calls", "count", "lower", "sim", "traced calls of Connection.execute"),
    _m("sqlite.txn_commits", "count", "lower", "sim", "obs counter sqlite.txn_commits"),
    _m("sqlite.page_writes", "count", "lower", "sim", "obs counter sqlite.page_writes"),
    _m("sqlite.spilled_pages", "count", "lower", "sim", "obs counter sqlite.spilled_pages"),
    _m("sqlite.wal_checkpoints", "count", "lower", "sim", "obs counter sqlite.wal_checkpoints"),
    # fs
    _m("fs.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time in Ext4/FileHandle / window ops"),
    _m("fs.calls", "count", "lower", "sim", "traced calls into Ext4/FileHandle"),
    _m("fs.data_page_writes", "count", "lower", "sim", "FsStats.data_page_writes"),
    _m("fs.journal_page_writes", "count", "lower", "sim", "FsStats.journal_page_writes"),
    _m("fs.meta_page_writes", "count", "lower", "sim", "FsStats.meta_page_writes"),
    _m("fs.fsync_calls", "count", "lower", "sim", "FsStats.fsync_calls"),
    _m("fs.journal_commits", "count", "lower", "sim", "obs counter fs.journal.commits"),
    _m("fs.cache_hit_ratio", "ratio", "higher", "sim", "page-cache hits / (hits + misses)"),
    # device
    _m("device.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time in StorageDevice / window ops"),
    _m("device.calls", "count", "lower", "sim", "traced calls into StorageDevice"),
    _m("device.writes", "count", "lower", "sim", "write commands (plain + tagged + barrier)"),
    _m("device.reads", "count", "lower", "sim", "read commands (plain + tagged)"),
    _m("device.flushes", "count", "lower", "sim", "DeviceCounters.flushes"),
    _m("device.commits", "count", "lower", "sim", "DeviceCounters.commits"),
    _m("device.barrier_stalls", "count", "lower", "sim", "drain barriers that waited"),
    _m("device.barrier_stall_sim_us_per_op", "sim-us/op", "lower", "sim",
       "sim time those drains waited / window ops"),
    _m("device.queue_admit_stalls", "count", "lower", "sim",
       "obs counter dev.queue.admit_stalls (queue full at admit)"),
    # ftl
    _m("ftl.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time in PageMappingFTL/XFTL / window ops"),
    _m("ftl.calls", "count", "lower", "sim", "traced calls into PageMappingFTL/XFTL"),
    _m("ftl.host_page_writes", "count", "lower", "sim", "FlashStats.host_page_writes"),
    _m("ftl.map_page_writes", "count", "lower", "sim", "FlashStats.map_page_writes"),
    _m("ftl.xl2p_page_writes", "count", "lower", "sim", "FlashStats.xl2p_page_writes"),
    _m("ftl.gc_invocations", "count", "lower", "sim", "FlashStats.gc_invocations"),
    _m("ftl.gc_copyback_writes", "count", "lower", "sim", "FlashStats.gc_copyback_writes"),
    _m("ftl.gc_valid_ratio", "ratio", "lower", "sim",
       "copied pages / victim pages - GC work that bought no space"),
    _m("ftl.gc_urgent_collections", "count", "lower", "sim", "foreground GC pauses"),
    _m("ftl.gc_wear_migrations", "count", "lower", "sim", "wear-levelling migrations"),
    _m("ftl.write_amp", "ratio", "lower", "sim", "page programs / host page writes"),
    # flash
    _m("flash.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time in FlashChip/FlashArray / window ops"),
    _m("flash.calls", "count", "lower", "sim", "traced calls into FlashChip/FlashArray"),
    _m("flash.page_programs", "count", "lower", "sim", "FlashStats.page_programs"),
    _m("flash.page_reads", "count", "lower", "sim", "FlashStats.page_reads"),
    _m("flash.block_erases", "count", "lower", "sim", "FlashStats.block_erases"),
    _m("flash.channel_util", "ratio", "higher", "sim", "mean channel busy / sim elapsed"),
    _m("flash.erase_spread", "count", "lower", "sim", "max - min block erase count"),
    # sim
    _m("sim.elapsed_s", "sim-s", "lower", "sim", "simulated seconds in the window"),
    _m("sim.host_us_per_flash_op", "us", "lower", "host",
       "untraced wall / (programs + reads + erases): host cost per simulated event"),
    # workloads (driver + harness): diagnostics for the rows above
    _m("workloads.host_self_us_per_op", "us/op", "lower", "host",
       "traced self time of the workload driver / window ops"),
    _m("workloads.host_speed", "ratio", "higher", "host",
       "machine speed during the untraced window by the reference loop, 1 = nominal"),
    _m("workloads.stolen_frac", "ratio", "lower", "host",
       "1 - CPU time / wall time of the untraced window: what neighbours took"),
    _m("workloads.host_op_ms_p50", "ms", "lower", "host", "median per-op host time, untraced"),
    _m("workloads.host_op_ms_p99", "ms", "lower", "host", "p99 per-op host time, untraced"),
    _m("workloads.sim_op_ms_p50", "sim-ms", "lower", "sim", "median simulated op latency"),
    _m("workloads.trace_overhead_frac", "ratio", "lower", "host",
       "traced window host time / untraced window host time - 1"),
    _m("workloads.segment_ops_per_s_min", "op/s", "higher", "host", "slowest of 10 segments"),
    _m("workloads.segment_ops_per_s_max", "op/s", "higher", "host", "fastest of 10 segments"),
    _m("workloads.segment_write_amp_first", "ratio", "lower", "sim",
       "write amplification of the first quarter of the window"),
    _m("workloads.segment_write_amp_last", "ratio", "lower", "sim",
       "write amplification of the last quarter of the window"),
)

LAYERS = ("sqlite", "fs", "device", "ftl", "flash", "workloads")

#: Per-layer counts read from always-on public stats objects: taken in the
#: untraced and the traced window alike, and required to match.
PUBLIC_COUNTS = (
    "fs.data_page_writes", "fs.journal_page_writes", "fs.meta_page_writes", "fs.fsync_calls",
    "device.writes", "device.reads", "device.flushes", "device.commits",
    "device.barrier_stalls",
    "ftl.host_page_writes", "ftl.map_page_writes", "ftl.xl2p_page_writes",
    "ftl.gc_invocations", "ftl.gc_copyback_writes", "ftl.gc_urgent_collections",
    "ftl.gc_wear_migrations",
    "flash.page_programs", "flash.page_reads", "flash.block_erases",
)

#: Counters that exist only in the ``repro.obs`` registry (traced window,
#: stack built with metrics on): metric name -> registry counter name.
OBS_COUNTS = {
    "sqlite.txn_commits": "sqlite.txn_commits",
    "sqlite.page_writes": "sqlite.page_writes",
    "sqlite.spilled_pages": "sqlite.spilled_pages",
    "sqlite.wal_checkpoints": "sqlite.wal_checkpoints",
    "fs.journal_commits": "fs.journal.commits",
    "device.queue_admit_stalls": "dev.queue.admit_stalls",
}
