"""Unit tests for the storage-device front-end."""

import pytest

from repro.device import DeviceCounters, StorageDevice
from repro.errors import DeviceError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL, XFTL
from repro.sim import SimClock
from repro.sim.latency import OPENSSD_PROFILE


def make_device(transactional=True):
    geometry = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32)
    chip = FlashChip(geometry)
    ftl_cls = XFTL if transactional else PageMappingFTL
    return StorageDevice(ftl_cls(chip, FtlConfig(overprovision=0.2, map_entries_per_page=16)))


class TestCommands:
    def test_write_read_round_trip(self):
        device = make_device()
        device.write(3, b"hello")
        assert device.read(3) == b"hello"

    def test_counters(self):
        device = make_device()
        device.write(0, b"x")
        device.read(0)
        device.trim(0)
        device.flush()
        assert device.counters.writes == 1
        assert device.counters.reads == 1
        assert device.counters.trims == 1
        assert device.counters.flushes == 1

    def test_extended_commands_counted(self):
        device = make_device()
        device.write_tx(1, 0, b"x")
        device.read_tx(1, 0)
        device.commit(1)
        device.write_tx(2, 1, b"y")
        device.abort(2)
        counters = device.counters
        assert counters.tagged_writes == 2
        assert counters.tagged_reads == 1
        assert counters.commits == 1
        assert counters.aborts == 1

    def test_counters_snapshot_diff(self):
        device = make_device()
        device.write(0, b"x")
        before = device.counters.snapshot()
        device.write(1, b"y")
        device.write(2, b"z")
        assert device.counters.delta(before).writes == 2

    def test_counters_as_dict(self):
        counters = DeviceCounters(reads=2)
        assert counters.as_dict()["reads"] == 2

    def test_transactions_unsupported_on_plain_ftl(self):
        device = make_device(transactional=False)
        assert not device.supports_transactions
        with pytest.raises(DeviceError):
            device.write_tx(1, 0, b"x")
        with pytest.raises(DeviceError):
            device.commit(1)

    def test_transactions_supported_on_xftl(self):
        assert make_device().supports_transactions


class TestLatencyAccounting:
    def test_write_charges_command_bus_and_program(self):
        device = make_device()
        t0 = device.clock.now_us
        device.write(0, b"x")
        elapsed = device.clock.now_us - t0
        expected = (
            OPENSSD_PROFILE.command_overhead_us
            + OPENSSD_PROFILE.bus_transfer_us
            + OPENSSD_PROFILE.page_program_us
        )
        assert elapsed == pytest.approx(expected)

    def test_read_charges_command_bus_and_read(self):
        device = make_device()
        device.write(0, b"x")
        t0 = device.clock.now_us
        device.read(0)
        expected = (
            OPENSSD_PROFILE.command_overhead_us
            + OPENSSD_PROFILE.bus_transfer_us
            + OPENSSD_PROFILE.page_read_us
        )
        assert device.clock.now_us - t0 == pytest.approx(expected)


class TestPowerCycle:
    def test_commands_rejected_while_off(self):
        device = make_device()
        device.power_off()
        with pytest.raises(DeviceError):
            device.read(0)
        with pytest.raises(DeviceError):
            device.write(0, b"x")
        with pytest.raises(DeviceError):
            device.flush()

    def test_power_cycle_recovers(self):
        device = make_device()
        device.write(0, b"persist")
        device.flush()
        device.power_off()
        assert not device.is_on
        device.power_on()
        assert device.is_on
        assert device.read(0) == b"persist"

    def test_double_power_off_is_idempotent(self):
        device = make_device()
        device.power_off()
        device.power_off()
        device.power_on()
        device.power_on()
        assert device.is_on
