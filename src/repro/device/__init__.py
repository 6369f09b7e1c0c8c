"""Storage device: the SATA-level front-end over an FTL."""

from repro.device.commands import DeviceCounters
from repro.device.queue import CommandQueue
from repro.device.ssd import StorageDevice

__all__ = [
    "CommandQueue",
    "DeviceCounters",
    "StorageDevice",
]
