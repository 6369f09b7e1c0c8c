"""Tests for the NCQ-style device command queue.

Covers the queue mechanics (admission backpressure, polled retire, barrier
drain, power-loss reset, and a property pinning polling to the per-completion
events it replaced), the device wiring (async dispatch for
reads/writes, flush/commit as drain barriers, depth-1 passthrough), and
crash injection with commands still in flight — the new ``dev.queue.*``
crash points.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.queue import CommandQueue
from repro.device.ssd import StorageDevice
from repro.errors import DeviceError, PowerFailure
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.crash import CrashPlan
from repro.tenancy import TenantRegistry

GEOMETRY = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24, channels=2)
FTL_CONFIG = FtlConfig(
    overprovision=0.25, map_entries_per_page=32, barrier_meta_pages=1, xl2p_capacity=64
)


def make_queue(depth=4, obs=NULL_OBS):
    clock = SimClock()
    return clock, CommandQueue(clock, depth, obs)


class TestCommandQueue:
    def test_depth_must_be_positive(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            CommandQueue(clock, 0, NULL_OBS)

    def test_push_and_polled_retire(self):
        clock, queue = make_queue()
        queue.push(100.0)
        queue.push(200.0)
        assert queue.in_flight == 2
        clock.advance(150.0)  # the clock is a number: nothing fires here
        assert queue.in_flight == 1  # the read retires the command due at 100
        clock.advance(100.0)
        assert queue.in_flight == 0

    def test_push_ignores_already_complete_commands(self):
        clock, queue = make_queue()
        clock.advance(50.0)
        queue.push(50.0)  # not in the future: completed synchronously
        queue.push(10.0)
        assert queue.in_flight == 0

    def test_admit_blocks_until_slot_frees(self):
        clock, queue = make_queue(depth=2)
        queue.push(100.0)
        queue.push(300.0)
        assert queue.in_flight == 2
        queue.admit()  # full: must wait for the earliest completion
        assert clock.now_us == 100.0
        assert queue.in_flight == 1

    def test_admit_with_free_slot_does_not_wait(self):
        clock, queue = make_queue(depth=2)
        queue.push(100.0)
        queue.admit()
        assert clock.now_us == 0.0

    def test_drain_joins_latest_completion(self):
        clock, queue = make_queue()
        queue.push(100.0)
        queue.push(400.0)
        queue.push(250.0)
        queue.drain()
        assert clock.now_us == 400.0
        assert queue.in_flight == 0

    def test_reset_forgets_in_flight_without_waiting(self):
        clock, queue = make_queue()
        queue.push(100.0)
        queue.push(200.0)
        queue.reset()
        assert queue.in_flight == 0
        assert clock.now_us == 0.0
        # Time passing the forgotten completions must not count them.
        clock.advance(500.0)
        assert queue.in_flight == 0

    def test_depth_gauge_tracks_high_water(self):
        obs = Observability(enabled=True, label="queue-test")
        clock, queue = make_queue(depth=8, obs=obs)
        for end in (100.0, 200.0, 300.0):
            queue.push(end)
        queue.drain()
        gauge = obs.registry.gauge("dev.queue.depth")
        assert gauge.value == 0.0
        assert gauge.max_value == 3.0


class TestDeviceWiring:
    def _device(self, channels=2, queue_depth=4, xftl=False, plan=None):
        geo = FlashGeometry(
            page_size=512, pages_per_block=8, num_blocks=24, channels=channels
        )
        chip = FlashChip(geo, crash_plan=plan)
        ftl = XFTL(chip, FTL_CONFIG) if xftl else PageMappingFTL(chip, FTL_CONFIG)
        return StorageDevice(ftl, queue_depth=queue_depth)

    def test_depth_one_has_no_queue(self):
        device = self._device(queue_depth=1)
        assert device.queue is None

    def test_depth_below_one_rejected(self):
        with pytest.raises(DeviceError):
            self._device(queue_depth=0)

    def test_bare_chip_overlaps_queued_writes(self):
        geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24, channels=2)
        device = StorageDevice(PageMappingFTL(FlashChip(geo), FTL_CONFIG), queue_depth=4)
        device.write(0, ("v", 0))  # host writes round-robin: channel 0,
        device.write(1, ("v", 1))  # then channel 1
        assert device.queue.in_flight == 2
        busy = device.chip.channel_busy_us()
        assert busy[0] > 0.0 and busy[1] > 0.0
        # Both commands finish within one program of each other: overlapped.
        assert device.chip.busy_horizon_us() < sum(busy)
        device.flush()
        assert device.ftl.read(0) == ("v", 0) and device.ftl.read(1) == ("v", 1)

    def test_writes_leave_commands_in_flight(self):
        device = self._device()
        for lpn in range(4):
            device.write(lpn, ("v", lpn))
        assert device.queue.in_flight > 0

    def test_flush_drains_the_queue(self):
        device = self._device()
        for lpn in range(4):
            device.write(lpn, ("v", lpn))
        device.flush()
        assert device.queue.in_flight == 0

    def test_commit_drains_the_queue(self):
        device = self._device(xftl=True)
        tid = 1
        for lpn in range(4):
            device.write_tx(tid, lpn, ("t", lpn))
        assert device.queue.in_flight > 0
        device.commit(tid)
        assert device.queue.in_flight == 0
        for lpn in range(4):
            assert device.read(lpn) == ("t", lpn)

    def test_queued_writes_overlap_across_channels(self):
        serial = self._device(channels=1, queue_depth=1)
        parallel = self._device(channels=4, queue_depth=4)
        for device in (serial, parallel):
            for lpn in range(16):
                device.write(lpn, ("v", lpn))
            device.flush()
        assert parallel.clock.now_us < serial.clock.now_us
        # Same data work either way — only the timing overlaps.
        assert parallel.chip.stats.page_programs == serial.chip.stats.page_programs
        for lpn in range(16):
            assert parallel.ftl.read(lpn) == ("v", lpn)

    def test_power_cycle_resets_queue(self):
        device = self._device()
        for lpn in range(4):
            device.write(lpn, ("v", lpn))
        assert device.queue.in_flight > 0
        device.power_off()
        assert device.queue.in_flight == 0
        device.power_on()
        device.ftl.check_invariants()


class TestQueueCrashInjection:
    """Power loss with commands still in flight (satellite 3)."""

    def _crash_stack(self, xftl=False):
        plan = CrashPlan()
        geo = FlashGeometry(
            page_size=512, pages_per_block=8, num_blocks=24, channels=2
        )
        chip = FlashChip(geo, crash_plan=plan)
        ftl = XFTL(chip, FTL_CONFIG) if xftl else PageMappingFTL(chip, FTL_CONFIG)
        device = StorageDevice(ftl, queue_depth=4)
        return plan, ftl, device

    def test_crash_on_dispatch_with_inflight_commands(self):
        plan, ftl, device = self._crash_stack()
        baseline = min(ftl.exported_pages, 8)
        for lpn in range(baseline):
            device.write(lpn, ("base", lpn))
        device.flush()

        plan.arm("dev.queue.dispatch")
        with pytest.raises(PowerFailure):
            for lpn in range(baseline):
                device.write(lpn, ("new", lpn))
        assert not device.is_on  # power loss propagated to the device

        device.power_on()
        ftl.check_invariants()
        # Flushed baseline data survives; each page reads either its durable
        # baseline or an acknowledged-but-unflushed overwrite — never garbage.
        for lpn in range(baseline):
            assert ftl.read(lpn) in (("base", lpn), ("new", lpn))

    def test_crash_on_barrier_with_inflight_commands(self):
        plan, ftl, device = self._crash_stack()
        baseline = min(ftl.exported_pages, 8)
        for lpn in range(baseline):
            device.write(lpn, ("base", lpn))
        device.flush()

        plan.arm("dev.queue.barrier")
        with pytest.raises(PowerFailure):
            for lpn in range(baseline):
                device.write(lpn, ("new", lpn))
            device.flush()

        device.power_on()
        ftl.check_invariants()
        for lpn in range(baseline):
            assert ftl.read(lpn) in (("base", lpn), ("new", lpn))

    def test_xftl_commit_barrier_crash_rolls_back_uncommitted(self):
        plan, ftl, device = self._crash_stack(xftl=True)
        baseline = min(ftl.exported_pages, 8)
        for lpn in range(baseline):
            device.write(lpn, ("base", lpn))
        device.flush()

        # Commit one transaction durably, then crash at the commit barrier
        # of a second one while its tagged writes are still in flight.
        device.write_tx(1, 0, ("committed", 0))
        device.commit(1)

        plan.arm("dev.queue.barrier")
        with pytest.raises(PowerFailure):
            for lpn in range(baseline):
                device.write_tx(2, lpn, ("uncommitted", lpn))
            device.commit(2)

        device.power_on()
        ftl.check_invariants()
        # The committed transaction is durable; the in-flight one vanished.
        assert ftl.read(0) == ("committed", 0)
        for lpn in range(1, baseline):
            assert ftl.read(lpn) == ("base", lpn)

    def test_xftl_dispatch_crash_preserves_committed_state(self):
        plan, ftl, device = self._crash_stack(xftl=True)
        baseline = min(ftl.exported_pages, 8)
        for lpn in range(baseline):
            device.write(lpn, ("base", lpn))
        device.flush()
        device.write_tx(1, 1, ("committed", 1))
        device.commit(1)

        plan.arm("dev.queue.dispatch")
        with pytest.raises(PowerFailure):
            for lpn in range(baseline):
                device.write_tx(2, lpn, ("uncommitted", lpn))

        device.power_on()
        ftl.check_invariants()
        assert ftl.read(1) == ("committed", 1)
        for lpn in range(baseline):
            if lpn != 1:
                assert ftl.read(lpn) == ("base", lpn)

    def test_queue_crash_points_are_registered(self):
        from repro.sim.crash import registered_crash_points

        names = {
            spec.name
            for spec in registered_crash_points()
            if spec.component.startswith("device.queue")
        }
        assert names == {"dev.queue.dispatch", "dev.queue.barrier", "dev.queue.epoch"}


class TestInFlightBatchPowerLoss:
    """Power loss mid-batch: the reset must be atomic and leak nothing.

    Audit regression (ISSUE 6 satellite): a crash while a multi-command
    batch is partially dispatched must drop every queued-but-undispatched
    command in one step, and none of the drain-barrier bookkeeping
    (in-flight heap, per-tenant live counts) may leak into the next power
    cycle.
    """

    def _crash_stack(self):
        plan = CrashPlan()
        chip = FlashChip(GEOMETRY, crash_plan=plan)
        ftl = PageMappingFTL(chip, FTL_CONFIG)
        return plan, ftl, StorageDevice(ftl, queue_depth=4)

    def test_mid_batch_crash_drops_remainder_atomically(self):
        plan, ftl, device = self._crash_stack()
        for lpn in range(8):
            device.write(lpn, ("base", lpn))
        device.flush()

        # Fire on the third dispatch of the batch: commands 1-2 are in
        # flight, 3 is being dispatched, 4-7 are still queued at the host.
        plan.arm("dev.queue.dispatch", after=3)
        with pytest.raises(PowerFailure):
            for lpn in range(8):
                device.write(lpn, ("batch", lpn))
        assert device.queue.in_flight == 0  # reset ran via power-loss fanout

        device.power_on()
        assert device.queue.in_flight == 0
        # No leaked barrier bookkeeping: a drain with nothing in flight
        # must not wait on completions forgotten by the reset.
        before_us = device.clock.now_us
        device.queue.drain()
        assert device.clock.now_us == before_us
        ftl.check_invariants()
        for lpn in range(8):
            assert ftl.read(lpn) in (("base", lpn), ("batch", lpn))

    def test_fresh_batch_after_power_cycle_is_unaffected(self):
        plan, ftl, device = self._crash_stack()
        for lpn in range(12):
            device.write(lpn, ("old", lpn))
        assert device.queue.in_flight > 0
        device.power_off()  # in-flight batch vanishes with the power
        device.power_on()

        # A full new batch must admit, complete and drain on its own
        # terms — the dropped batch's completion times must not retire (or
        # wedge) any of the new commands.
        for lpn in range(12):
            device.write(lpn, ("new", lpn))
        device.flush()
        assert device.queue.in_flight == 0
        ftl.check_invariants()
        for lpn in range(12):
            assert ftl.read(lpn) == ("new", lpn)

    def test_stale_completion_events_do_not_retire_new_commands(self):
        clock, queue = make_queue(depth=4)
        queue.push(100.0)
        queue.push(200.0)
        queue.reset()
        # New command finishing *between* the two forgotten completions:
        # the forgotten times 100/200 must not touch it.
        queue.push(150.0)
        clock.advance(120.0)
        assert queue.in_flight == 1
        clock.advance(40.0)
        assert queue.in_flight == 0

    def test_reset_restores_full_admission_capacity(self):
        obs = Observability(enabled=True, label="queue-reset")
        clock, queue = make_queue(depth=2, obs=obs)
        queue.push(100.0)
        queue.push(200.0)
        queue.reset()
        stalls_before = obs.registry.counter_value("dev.queue.admit_stalls")
        queue.admit()  # both slots free again: no stall, no waiting
        assert clock.now_us == 0.0
        assert obs.registry.counter_value("dev.queue.admit_stalls") == stalls_before
        assert obs.registry.gauge("dev.queue.depth").value == 0.0


class EventDrivenQueue:
    """The mechanism polling replaced: one completion event per command.

    Every clock movement fires the events it passes (retiring their
    commands and setting the depth gauge) before anything reads the queue.
    """

    def __init__(self, depth, shares):
        self.depth, self.shares = depth, shares
        self.now = 0.0
        self.heap = []  # (end_us, id, tenant)
        self.next_id = self.admit_stalls = self.share_stalls = 0
        self.gauge = self.gauge_max = 0.0

    def set_gauge(self):
        self.gauge = float(len(self.heap))
        self.gauge_max = max(self.gauge_max, self.gauge)

    def wait_until(self, when_us):
        self.now = max(self.now, when_us)
        while self.heap and self.heap[0][0] <= self.now:
            heapq.heappop(self.heap)
        self.set_gauge()

    def push(self, end_us, tenant):
        if end_us > self.now:
            self.next_id += 1
            heapq.heappush(self.heap, (end_us, self.next_id, tenant))
            self.set_gauge()

    def own(self, tenant):
        return [end_us for end_us, _, owner in self.heap if owner == tenant]

    def admit(self, tenant):
        if len(self.heap) >= self.depth:
            self.admit_stalls += 1
            while len(self.heap) >= self.depth:
                self.wait_until(self.heap[0][0])
        cap = self.shares.get(tenant) if self.shares else None
        if cap is not None and len(self.own(tenant)) >= cap:
            self.share_stalls += 1
            while len(self.own(tenant)) >= cap:  # shares are >= 1
                self.wait_until(min(self.own(tenant)))

    def drain(self):
        if self.heap:
            self.wait_until(max(self.heap)[0])

    def reset(self):
        self.heap.clear()
        self.set_gauge()


STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 2), st.integers(-50, 400)),
            st.tuples(st.just("advance"), st.integers(0, 300)),
            st.tuples(st.just("admit"), st.integers(0, 2)),
            st.tuples(st.just("drain")),
            st.tuples(st.just("reset")),
        ),
        st.booleans(),  # whether a reader looks at the count after the step
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(depth=st.integers(1, 5), tenancy=st.sampled_from(["none", "tagged", "shares"]), steps=STEPS)
def test_polling_reads_what_per_completion_events_read(depth, tenancy, steps):
    """After every step the polled queue and the event-driven one agree.

    The clock, both stall counts and the gauge's high-water mark agree
    after every step, before anything polls.  The in-flight count and the
    gauge's value agree whenever a reader looks, and nobody has to look
    for the others to hold.
    """
    obs = Observability(enabled=True, label="queue-property")
    clock = SimClock()
    registry = None if tenancy == "none" else TenantRegistry()
    if registry is not None:
        registry.register("a", weight=1)
        registry.register("b", weight=2)
    queue = CommandQueue(clock, depth, obs, tenants=registry)
    shares = registry.queue_shares(depth) if tenancy == "shares" else None
    queue.set_shares(shares)
    reference = EventDrivenQueue(depth, shares)
    gauge = obs.registry.gauge("dev.queue.depth")
    for step, read in steps:
        if step[0] in ("push", "admit") and registry is not None:
            registry.current = step[1]
        tenant = None if registry is None else registry.current
        if step[0] == "push":
            queue.push(clock.now_us + step[2])
            reference.push(reference.now + step[2], tenant)
        elif step[0] == "advance":
            clock.advance(step[1])
            reference.wait_until(reference.now + step[1])
        elif step[0] == "admit":
            queue.admit()
            reference.admit(tenant)
        else:
            getattr(queue, step[0])()
            getattr(reference, step[0])()
        assert clock.now_us == reference.now
        assert obs.registry.counter_value("dev.queue.admit_stalls") == reference.admit_stalls
        assert queue.counts.share_stalls == reference.share_stalls
        assert gauge.max_value == reference.gauge_max
        if read:
            assert queue.in_flight == len(reference.heap)
            assert gauge.value == reference.gauge
