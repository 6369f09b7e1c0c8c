"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, XFTL
from repro.sim import CrashPlan, SimClock


SMALL_GEOMETRY = FlashGeometry(page_size=8192, pages_per_block=16, num_blocks=64)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def chip(clock: SimClock) -> FlashChip:
    return FlashChip(SMALL_GEOMETRY, clock=clock)


@pytest.fixture
def ftl_config() -> FtlConfig:
    return FtlConfig(overprovision=0.2, map_entries_per_page=64, barrier_meta_pages=1)


@pytest.fixture
def xftl(chip: FlashChip, ftl_config: FtlConfig) -> XFTL:
    return XFTL(chip, ftl_config)


@pytest.fixture
def crash_plan() -> CrashPlan:
    return CrashPlan()

