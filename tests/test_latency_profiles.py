"""Sanity tests for the latency profiles and their calibration relations."""

from repro.sim.latency import OPENSSD_PROFILE, S830_PROFILE


class TestProfiles:
    def test_openssd_is_mlc_class(self):
        # MLC NAND: program is several times slower than read, erase slower
        # than program — the asymmetry all FTL design is built around.
        profile = OPENSSD_PROFILE
        assert profile.page_program_us > 3 * profile.page_read_us
        assert profile.block_erase_us > profile.page_program_us

    def test_s830_is_faster_across_the_board(self):
        # One controller generation newer (§6.3.4): faster at everything
        # on the device side.
        for field in ("page_read_us", "page_program_us", "block_erase_us",
                      "bus_transfer_us", "command_overhead_us",
                      "barrier_overhead_us"):
            assert getattr(S830_PROFILE, field) < getattr(OPENSSD_PROFILE, field), field

    def test_s830_is_not_unrealistically_faster(self):
        # The paper's relation: OpenSSD throughput is 25-35% of the S830's,
        # i.e. the S830 is roughly 2-4x faster, not an order of magnitude.
        ratio = OPENSSD_PROFILE.page_program_us / S830_PROFILE.page_program_us
        assert 1.5 <= ratio <= 4.0

    def test_host_side_costs_shared(self):
        # Same host machine drives both devices in Figure 9.
        assert OPENSSD_PROFILE.host_syscall_us == S830_PROFILE.host_syscall_us
        assert OPENSSD_PROFILE.host_fsync_us == S830_PROFILE.host_fsync_us
        assert OPENSSD_PROFILE.host_cpu_statement_us == S830_PROFILE.host_cpu_statement_us

    def test_profiles_are_frozen(self):
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            OPENSSD_PROFILE.page_read_us = 1  # type: ignore[misc]
