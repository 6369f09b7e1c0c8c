"""Channel scaling: parallelism must buy real throughput, not just pass tests.

Acceptance criteria for the multi-channel refactor (§6.3.4 motivates the
8-channel S830 comparison):

- an 8-channel / queue-depth-8 device sustains at least 2x the randwrite
  IOPS of the serial configuration on the same workload;
- the speedup comes purely from overlap — page-program counts are identical
  at every channel count (work is conserved, only timing changes);
- X-FTL keeps beating the rollback journal at every channel count (the
  paper's win is not an artifact of a serial device).
"""

from __future__ import annotations

import pytest

from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.fio import FioBenchmark

from tests.test_channel_equivalence import _FIO_STACK, _run_synthetic


def _fio_run(mode: Mode, channels: int, queue_depth: int):
    stack = build_stack(
        StackConfig(mode=mode, channels=channels, queue_depth=queue_depth, **_FIO_STACK)
    )
    fio = FioBenchmark(stack, file_pages=256)
    result = fio.run(runtime_s=3600.0, fsync_interval=8, threads=1, max_writes=400)
    return result, stack


def _synthetic_elapsed(mode: Mode, channels: int, queue_depth: int) -> float:
    return _run_synthetic(
        mode, lambda stack: stack.clock.now_us, channels=channels, queue_depth=queue_depth
    )


class TestFioScaling:
    def test_eight_channels_at_least_double_serial_iops(self):
        serial, _ = _fio_run(Mode.FS_ORDERED, channels=1, queue_depth=1)
        wide, _ = _fio_run(Mode.FS_ORDERED, channels=8, queue_depth=8)
        assert serial.writes == wide.writes
        assert wide.iops >= 2.0 * serial.iops

    def test_xftl_scales_too(self):
        serial, _ = _fio_run(Mode.XFTL, channels=1, queue_depth=1)
        wide, _ = _fio_run(Mode.XFTL, channels=8, queue_depth=8)
        assert wide.iops >= 2.0 * serial.iops

    def test_scaling_is_monotone_in_channels(self):
        elapsed = {}
        for channels in (1, 2, 8):
            result, _ = _fio_run(Mode.FS_ORDERED, channels=channels, queue_depth=8)
            elapsed[channels] = result.elapsed_s
        assert elapsed[2] < elapsed[1]
        assert elapsed[8] < elapsed[2]

    def test_work_is_conserved_across_channel_counts(self):
        # Channels change *when* flash ops run, never *which* ops run.
        _, serial_stack = _fio_run(Mode.FS_ORDERED, channels=1, queue_depth=1)
        _, wide_stack = _fio_run(Mode.FS_ORDERED, channels=8, queue_depth=8)
        assert (
            wide_stack.chip.stats.page_programs == serial_stack.chip.stats.page_programs
        )
        assert wide_stack.device.counters.writes == serial_stack.device.counters.writes

    def test_channel_utilization_spreads_over_channels(self):
        _, stack = _fio_run(Mode.FS_ORDERED, channels=8, queue_depth=8)
        busy = stack.chip.channel_busy_us()
        assert len(busy) == 8
        assert all(b > 0.0 for b in busy)


class TestXftlStillWins:
    @pytest.mark.parametrize("channels,queue_depth", [(1, 1), (8, 8)])
    def test_xftl_faster_than_rollback_journal(self, channels, queue_depth):
        rbj = _synthetic_elapsed(Mode.RBJ, channels, queue_depth)
        xftl = _synthetic_elapsed(Mode.XFTL, channels, queue_depth)
        assert xftl < rbj
