"""Latency profiles for the simulated storage stack.

The paper's elapsed-time results are dominated by flash I/O: NAND page
programs/reads/erases issued by the FTL (including garbage-collection
copybacks and mapping-table flushes) plus per-command bus and host syscall
overheads.  A :class:`LatencyProfile` collects these per-operation costs; the
flash chip and device charge them to the shared :class:`~repro.sim.SimClock`.

Two concrete profiles are provided:

``OPENSSD_PROFILE``
    The OpenSSD (Indilinx Barefoot) board used for the paper's prototype:
    Samsung K9LCG08U1M MLC NAND with 8 KB pages and 128 pages/block, SATA 2.0
    (3 Gbps) and an 87.5 MHz ARM controller.  MLC program latency dominates.

``S830_PROFILE``
    The Samsung S830 consumer SSD used for Figure 9: a newer-generation
    controller with channel parallelism and SATA 3.0, modelled as lower
    *effective* per-page costs **derived** from the OpenSSD NAND numbers by
    :func:`effective_channel_profile` rather than hand-copied, so the legacy
    serial shortcut and the real multi-channel model (a
    :class:`~repro.flash.chip.FlashChip` with ``channels > 1``) cannot
    drift apart.

Absolute values are calibrated to the magnitude of the paper's numbers (the
synthetic workload at 5 pages/txn lands in hundreds of seconds for rollback
mode and tens of seconds for X-FTL); the experiments only rely on ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class LatencyProfile:
    """Per-operation latencies, in microseconds.

    Attributes:
        name: Human-readable profile name used in reports.
        page_read_us: NAND page read (cell array to chip register).
        page_program_us: NAND page program (register to cell array).
        block_erase_us: NAND block erase.
        bus_transfer_us: Moving one page across the host interface (SATA).
        command_overhead_us: Fixed per-command cost (command parsing,
            interrupt handling, FTL firmware work on the embedded CPU).
        barrier_overhead_us: Extra fixed cost of a flush/barrier command on
            top of whatever pages it persists.
        host_syscall_us: Host-side cost of one read/write syscall through the
            kernel block layer.
        host_fsync_us: Host-side fixed cost of an fsync (journal wakeups,
            waiting on request completion) excluding device time.
        host_cpu_statement_us: Host CPU cost of parsing/binding/stepping one
            SQL statement (dominates read-only workloads like Table 4's
            selection-only mix, where no I/O happens at all).
        host_cpu_row_us: Host CPU cost per row visited by the executor
            (makes nested-loop joins proportionally slower, §6.3.3).
    """

    name: str
    page_read_us: float
    page_program_us: float
    block_erase_us: float
    bus_transfer_us: float
    command_overhead_us: float
    barrier_overhead_us: float
    host_syscall_us: float
    host_fsync_us: float
    host_cpu_statement_us: float = 40.0
    host_cpu_row_us: float = 4.0


OPENSSD_PROFILE = LatencyProfile(
    name="OpenSSD (Barefoot, MLC NAND, SATA 2.0)",
    page_read_us=220.0,
    page_program_us=1_300.0,
    block_erase_us=2_000.0,
    bus_transfer_us=30.0,
    command_overhead_us=60.0,
    barrier_overhead_us=200.0,
    host_syscall_us=15.0,
    host_fsync_us=120.0,
)

# How much of an n-channel controller's parallelism one host-visible
# command stream actually sees.  A single stream of dependent commands
# cannot keep all channels busy (striping granularity, firmware
# serialization, bus sharing), so the *effective* per-op speedup follows a
# sub-linear law: parallelism(n) = n ** CHANNEL_SCALING_EXPONENT.  The
# exponent is calibrated once against the paper's Figure 9 relation — the
# OpenSSD sustains roughly 25-35% of the 8-channel S830's throughput, i.e.
# the S830 is ~1.9x faster per op: 8 ** 0.31 ≈ 1.9.
CHANNEL_SCALING_EXPONENT = 0.31


def effective_channel_parallelism(channels: int) -> float:
    """Effective per-op speedup a serial host stream gets from ``channels``."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    return float(channels) ** CHANNEL_SCALING_EXPONENT


def effective_channel_profile(
    base: LatencyProfile, channels: int, name: str | None = None
) -> LatencyProfile:
    """Derive a serial-model "effective" profile from base NAND + channels.

    This is the *legacy shortcut*: instead of simulating overlapping
    channels, divide every device-side cost by the effective parallelism so
    a strictly serial clock lands at roughly the same elapsed time a
    saturated n-channel device would.  Host-side costs (syscalls, fsync
    wakeups, SQL CPU) are unaffected by device parallelism and stay as-is.

    The real model — a :class:`~repro.flash.chip.FlashChip` with
    ``channels > 1`` and a queued device — uses the **base** profile and
    gets its speedup from actual overlap; this derivation only exists so
    single-clock experiments (Figure 9's S830 rows) share one calibration
    source with it.
    """
    if channels == 1:
        return base if name is None else replace(base, name=name)
    parallelism = effective_channel_parallelism(channels)
    return replace(
        base,
        name=name or f"{base.name} [effective x{channels} channels]",
        page_read_us=base.page_read_us / parallelism,
        page_program_us=base.page_program_us / parallelism,
        block_erase_us=base.block_erase_us / parallelism,
        bus_transfer_us=base.bus_transfer_us / parallelism,
        command_overhead_us=base.command_overhead_us / parallelism,
        barrier_overhead_us=base.barrier_overhead_us / parallelism,
    )


# The S830's MLC NAND is the same device class as the OpenSSD's (the boards
# are one controller generation apart; the NAND array times are comparable).
# What makes the S830 fast is its 8-channel controller and SATA 3.0 link —
# which is exactly what the derivation models.
S830_PROFILE = effective_channel_profile(
    OPENSSD_PROFILE,
    channels=8,
    name="Samsung S830 (8-channel controller, SATA 3.0)",
)
