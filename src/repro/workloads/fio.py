"""FIO-style file system benchmark (§6.2, §6.3.4, Figures 8 and 9).

The paper's one job: random 8 KB writes over one large preallocated file
with an fsync every *k* writes (k ∈ {1, 5, 10, 15, 20} mimics the
synthetic workload's transaction sizes).  Throughput is reported in IOPS
over the simulated clock.

Multi-thread runs (Figure 9 uses 16 threads) overlap each thread's
host-side work with the device servicing the other threads: every thread
owns a :class:`~repro.sim.events.ResourceTimeline` carrying its
syscall/fsync CPU cost, writes round-robin across threads, and a thread's
next write joins its own pending host work (``clock.wait_until``) rather
than serialising the whole run behind it.  With enough threads the host
cost disappears behind device time — the saturation the figure measures —
while at low thread counts it shows up as real stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.events import ResourceTimeline
from repro.stack import BenchStack
from repro.sim.rng import make_rng

# Shared payload object: a million-page run must not cost real memory.
_PAYLOAD = ("fio-random-write",)


@dataclass
class FioResult:
    """Outcome of one FIO configuration."""

    writes: int
    fsyncs: int
    elapsed_s: float
    host_overhead_s: float
    threads: int

    @property
    def iops(self) -> float:
        """8 KB write IOPS over simulated elapsed time.

        Threaded runs need no correction: host-side overhead that other
        threads' device time hides never reached the clock (the per-thread
        timelines absorbed it), so elapsed time already reflects the
        saturated device.  ``host_overhead_s`` remains available as the
        total host CPU the run consumed across all threads.
        """
        if self.elapsed_s <= 0:
            return 0.0
        return self.writes / self.elapsed_s


class FioBenchmark:
    """Random-write FIO job over one file on the simulated file system."""

    def __init__(
        self,
        stack: BenchStack,
        file_pages: int = 65_536,  # 512 MB at 8 KB pages (paper: 4 GB)
    ) -> None:
        self.stack = stack
        self.file_pages = file_pages

    def run(
        self,
        runtime_s: float = 600.0,
        fsync_interval: int = 1,
        threads: int = 1,
        max_writes: int | None = None,
    ) -> FioResult:
        """Write random pages until ``runtime_s`` of simulated time has
        passed (or ``max_writes`` pages are written), with an fsync every
        ``fsync_interval`` writes, on ``threads`` host threads.
        """
        if fsync_interval < 1:
            raise ValueError(f"fsync_interval must be at least 1, got {fsync_interval}")
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        stack = self.stack
        fs = stack.fs
        profile = stack.device.profile
        rng = make_rng(7, "fio", fsync_interval, threads)
        if fs.exists("fio.dat"):
            handle = fs.open("fio.dat")
        else:
            # Lay the file out up front (fallocate), as FIO does: block
            # allocation must not pollute the measured write path.
            handle = fs.create("fio.dat")
            handle.fallocate(self.file_pages)
            fs.fsync(handle, txn=fs.txn_manager.begin() if fs.transactional else None)

        clock = stack.clock
        start = clock.now_s
        deadline = start + runtime_s
        writes = 0
        fsyncs = 0
        host_overhead_us = 0.0
        # Multi-thread overlap: each thread's host-side CPU cost rides its
        # own timeline; I/Os round-robin across threads, and a thread's
        # next I/O joins only its *own* pending host work, so host cost
        # hides behind the device servicing the other threads.
        thread_timelines = None
        if threads > 1:
            thread_timelines = [
                ResourceTimeline(clock, f"fio.thread{index}") for index in range(threads)
            ]
        timeline = None
        txn = fs.txn_manager.begin() if fs.transactional else None
        while clock.now_s < deadline:
            if thread_timelines is not None:
                timeline = thread_timelines[writes % threads]
                clock.wait_until(timeline.busy_until_us)
            handle.write_page(rng.randrange(self.file_pages), _PAYLOAD, txn=txn)
            host_overhead_us += profile.host_syscall_us
            if timeline is not None:
                timeline.reserve(profile.host_syscall_us)
            writes += 1
            if writes % fsync_interval == 0:
                fs.fsync(handle, txn=txn)
                fsyncs += 1
                host_overhead_us += profile.host_fsync_us
                if timeline is not None:
                    timeline.reserve(profile.host_fsync_us)
                if txn is not None:
                    txn = fs.txn_manager.begin()
            if max_writes is not None and writes >= max_writes:
                break
        if writes % fsync_interval:
            fs.fsync(handle, txn=txn)
            fsyncs += 1
            host_overhead_us += profile.host_fsync_us
        elif txn is not None:
            # The trailing context minted after the last fsync never wrote.
            fs.txn_manager.release(txn)
        if thread_timelines is not None:
            # The run ends when every thread's host work has drained.
            for pending in thread_timelines:
                clock.wait_until(pending.busy_until_us)
        return FioResult(
            writes=writes,
            fsyncs=fsyncs,
            elapsed_s=clock.now_s - start,
            host_overhead_s=host_overhead_us / 1e6,
            threads=threads,
        )
