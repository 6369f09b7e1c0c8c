"""Unit tests for the flash chip's channels and the striped geometry."""

import pytest

from repro.errors import FlashGeometryError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.sim.latency import OPENSSD_PROFILE

GEO2 = FlashGeometry(page_size=64, pages_per_block=4, num_blocks=8, channels=2)
# ppn = block * 4 + page; even blocks sit on channel 0, odd blocks on channel 1
PROGRAM = OPENSSD_PROFILE.page_program_us
READ = OPENSSD_PROFILE.page_read_us


class TestGeometryStriping:
    def test_channel_of_block_round_robin(self):
        assert [GEO2.channel_of_block(b) for b in range(4)] == [0, 1, 0, 1]

    def test_channel_blocks_ascending(self):
        assert list(GEO2.channel_blocks(0)) == [0, 2, 4, 6]
        assert list(GEO2.channel_blocks(1)) == [1, 3, 5, 7]

    def test_single_channel_owns_everything(self):
        geo = FlashGeometry(page_size=64, pages_per_block=4, num_blocks=8)
        assert list(geo.channel_blocks(0)) == list(range(8))
        assert geo.channels == 1

    def test_uneven_striping_rejected(self):
        with pytest.raises(FlashGeometryError):
            FlashGeometry(page_size=64, pages_per_block=4, num_blocks=9, channels=2)

    def test_channel_out_of_range_rejected(self):
        with pytest.raises(FlashGeometryError):
            GEO2.channel_blocks(2)


class TestFlashArray:
    def test_array_reports_channels(self):
        array = FlashChip(GEO2)
        assert array.num_channels == 2
        assert len(array.channel_busy_us()) == 2

    def test_sync_ops_serialize_like_the_chip(self):
        # Outside overlap regions the host joins every completion: two
        # channels perform the same arithmetic as one.
        array = FlashChip(GEO2)
        serial = FlashChip(FlashGeometry(page_size=64, pages_per_block=4, num_blocks=8))
        for chip in (array, serial):
            chip.program(0, b"a")
            chip.program(4, b"b")
        assert array.clock.now_us == serial.clock.now_us  # exact

    def test_overlap_across_channels(self):
        array = FlashChip(GEO2)
        with array.overlap() as region:
            array.program(0, b"a")  # channel 0
            array.program(4, b"b")  # channel 1
        assert array.clock.now_us == 0.0  # clock did not move inside region
        assert region.end_us == pytest.approx(PROGRAM)
        array.drain()
        assert array.clock.now_us == pytest.approx(PROGRAM)  # max, not sum

    def test_same_channel_serializes_inside_region(self):
        array = FlashChip(GEO2)
        with array.overlap():
            array.program(0, b"a")  # channel 0
            array.program(1, b"b")  # channel 0 again
        array.drain()
        assert array.clock.now_us == pytest.approx(2 * PROGRAM)

    def test_nested_regions_note_inner_work(self):
        array = FlashChip(GEO2)
        with array.overlap() as outer:
            with array.overlap() as inner:
                array.program(0, b"a")
            array.program(4, b"b")
        assert inner.end_us == pytest.approx(PROGRAM)
        assert outer.end_us == pytest.approx(PROGRAM)

    def test_read_dependency_chains_on_channel(self):
        array = FlashChip(GEO2)
        array.program(0, b"a")
        t0 = array.clock.now_us
        with array.overlap():
            array.read(0)
            array.program(1, b"b")  # same channel: after the read
        array.drain()
        assert array.clock.now_us == pytest.approx(t0 + READ + PROGRAM)

    def test_busy_accounting_and_utilization(self):
        array = FlashChip(GEO2)
        with array.overlap():
            array.program(0, b"a")
            array.program(4, b"b")
            array.program(5, b"c")
        array.drain()
        busy = array.channel_busy_us()
        assert busy[0] == pytest.approx(PROGRAM)
        assert busy[1] == pytest.approx(2 * PROGRAM)

    def test_drain_is_idempotent(self):
        array = FlashChip(GEO2)
        with array.overlap():
            array.program(0, b"a")
        array.drain()
        t = array.clock.now_us
        array.drain()
        assert array.clock.now_us == t
