"""Unit tests for the virtual clock and the per-resource timelines."""

import pytest

from repro.sim import EventScheduler, ResourceTimeline, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_custom_start(self):
        assert SimClock(start_us=42.0).now_us == 42.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_us == pytest.approx(12.5)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now_us == 0.0

    def test_unit_conversions(self):
        clock = SimClock()
        clock.advance(2_500_000.0)
        assert clock.now_ms == pytest.approx(2_500.0)
        assert clock.now_s == pytest.approx(2.5)

    def test_wait_until_future_advances(self):
        clock = SimClock()
        clock.wait_until(30.0)
        assert clock.now_us == 30.0

    def test_wait_until_past_is_noop(self):
        clock = SimClock()
        clock.advance(50.0)
        clock.wait_until(10.0)
        assert clock.now_us == 50.0


class TestResourceTimeline:
    def test_reserve_from_idle_starts_now(self):
        clock = SimClock()
        clock.advance(10.0)
        timeline = ResourceTimeline(clock, "ch0")
        start, end = timeline.reserve(5.0)
        assert start == pytest.approx(10.0)
        assert end == pytest.approx(15.0)
        assert timeline.busy_until_us == pytest.approx(15.0)

    def test_reservations_on_one_resource_serialize(self):
        clock = SimClock()
        timeline = ResourceTimeline(clock, "ch0")
        timeline.reserve(5.0)
        start, end = timeline.reserve(5.0)
        # Clock never moved, but the second reservation queues behind the first.
        assert start == pytest.approx(5.0)
        assert end == pytest.approx(10.0)
        assert clock.now_us == 0.0

    def test_reservations_on_different_resources_overlap(self):
        clock = SimClock()
        sched = EventScheduler(clock)
        _, end_a = sched.timeline("ch0").reserve(5.0)
        _, end_b = sched.timeline("ch1").reserve(5.0)
        assert end_a == end_b == pytest.approx(5.0)
        assert sched.horizon_us() == pytest.approx(5.0)

    def test_after_us_dependency_delays_start(self):
        clock = SimClock()
        timeline = ResourceTimeline(clock, "ch0")
        start, end = timeline.reserve(3.0, after_us=7.0)
        assert start == pytest.approx(7.0)
        assert end == pytest.approx(10.0)

    def test_negative_reservation_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            ResourceTimeline(clock, "ch0").reserve(-1.0)

    def test_serial_join_matches_advance_arithmetic(self):
        # The channels=1 equivalence in miniature: reserve+wait_until must
        # perform the same float arithmetic as advance.
        durations = [220.0, 1_300.0, 0.1, 2_000.0, 30.0, 1e-3]
        serial = SimClock()
        for d in durations:
            serial.advance(d)
        overlapped = SimClock()
        timeline = ResourceTimeline(overlapped, "ch0")
        for d in durations:
            _, end = timeline.reserve(d)
            overlapped.wait_until(end)
        assert overlapped.now_us == serial.now_us  # exact, not approx

    def test_barrier_joins_all_resources(self):
        clock = SimClock()
        sched = EventScheduler(clock)
        sched.timeline("ch0").reserve(5.0)
        sched.timeline("ch1").reserve(9.0)
        sched.barrier()
        assert clock.now_us == pytest.approx(9.0)
        assert all(t.idle for t in sched.timelines())

    def test_utilization_reports_busy_fraction(self):
        clock = SimClock()
        sched = EventScheduler(clock)
        sched.timeline("ch0").reserve(5.0)
        sched.timeline("ch1").reserve(10.0)
        sched.barrier()
        util = sched.utilization()
        assert util["ch0"] == pytest.approx(0.5)
        assert util["ch1"] == pytest.approx(1.0)
