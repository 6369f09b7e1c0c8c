"""The one interleaving loop: deficit round-robin over weighted lanes.

Sessions run as one lane and tenants as one lane per tenant (or one lane
for all under ``"round-robin"``), so these tests pin the loop's order,
its batch service, its weighting and its error paths directly, with a
fake clock in place of the simulator's.
"""

from __future__ import annotations

import pytest

from repro.sim.interleave import QUANTUM_US, Park, interleave


class FakeClock:
    now_us = 0.0


def _steps(log, name, count, clock=None, cost_us=0.0):
    """A task that logs ``count`` steps, each advancing ``clock``."""
    for _ in range(count):
        log.append(name)
        if clock is not None:
            clock.now_us += cost_us
        yield None


def _never_serve(tokens):  # pragma: no cover - a test fails if reached
    raise AssertionError(f"nothing parks, yet service got {tokens}")


class TestOneLane:
    @pytest.mark.parametrize("cost_us", [0.0, 1.0, 10 * QUANTUM_US])
    def test_one_lane_is_strict_round_robin(self, cost_us):
        """Whatever a step costs against the quantum, one lane takes
        turns a, b, c, a, b, c, ... and drops a task when it ends."""
        clock, log = FakeClock(), []
        tasks = [
            _steps(log, name, count, clock, cost_us)
            for name, count in (("a", 3), ("b", 1), ("c", 2))
        ]
        interleave([(1, tasks)], _never_serve, clock)
        assert log == ["a", "b", "c", "a", "c", "a"]

    def test_parked_tokens_are_served_once_every_runnable_task_parked(self):
        log, served = [], []

        def task(name, switches):
            for _ in range(switches):
                log.append(name)
                yield None
            log.append(f"{name} parks")
            yield Park(name)
            log.append(f"{name} resumes")

        def service(tokens):
            served.append(list(tokens))
            log.append("service")

        tasks = [task("a", 0), task("b", 2), task("c", 1)]
        interleave([(1, tasks)], service, FakeClock())
        assert served == [["a", "c", "b"]]
        assert log == [
            "a parks", "b", "c", "b", "c parks", "b parks",
            "service",
            "a resumes", "c resumes", "b resumes",
        ]

    def test_parked_tasks_rejoin_their_own_lane(self):
        """Across lanes, service still waits for every lane to park, and
        each task resumes in the lane it parked from, in park order."""
        log, served = [], []

        def task(name):
            log.append(name)
            yield Park(name)
            log.append(f"{name} resumes")

        lanes = [(1, [task("a1"), task("a2")]), (1, [task("b1")])]
        interleave(lanes, served.append, FakeClock())
        assert served == [["a1", "a2", "b1"]]
        assert log == ["a1", "a2", "b1", "a1 resumes", "a2 resumes", "b1 resumes"]


class TestLanes:
    def test_weights_three_to_one_get_three_to_one_time_per_round(self):
        """Two tasks share the heavy lane's bank: they do not double it."""
        clock, log = FakeClock(), []
        step_us = QUANTUM_US / 2
        heavy = [_steps(log, "H", 60, clock, step_us), _steps(log, "H", 60, clock, step_us)]
        light = [_steps(log, "L", 40, clock, step_us)]
        interleave([(3, heavy), (1, light)], _never_serve, clock)
        rounds = 10
        assert "".join(log[: rounds * 8]) == "HHHHHHLL" * rounds
        heavy_us = log[: rounds * 8].count("H") * step_us
        light_us = log[: rounds * 8].count("L") * step_us
        assert heavy_us == 3 * light_us == rounds * 3 * QUANTUM_US

    def test_zero_cost_steps_still_end_and_still_take_turns(self):
        """A step that moves no simulated time pays one token, so a lane
        of busy-looping tasks yields to the next lane each round."""
        clock, log = FakeClock(), []
        lanes = [(1, [_steps(log, "x", 1_000)]), (1, [_steps(log, "y", 1_000)])]
        interleave(lanes, _never_serve, clock)
        assert len(log) == 2_000 and clock.now_us == 0.0
        turn = int(QUANTUM_US)
        assert log[: 2 * turn] == ["x"] * turn + ["y"] * turn

    def test_an_empty_lane_forfeits_its_bank(self):
        """A lane whose tasks all parked keeps no credit: after the batch
        it gets one quantum, as the other lane does, so the two alternate.
        Banking the parked lane's unspent 199 µs would let it step twice."""
        clock, log = FakeClock(), []

        def task(name, before, after):
            yield from _steps(log, name, before, clock, QUANTUM_US)
            yield Park(name)
            yield from _steps(log, name, after, clock, QUANTUM_US)

        lanes = [(1, [task("P", 0, 4)]), (1, [task("s", 3, 4)])]
        interleave(lanes, lambda tokens: log.append("service"), clock)
        assert log == ["s", "s", "s", "service"] + ["P", "s"] * 4


class TestErrors:
    def test_an_exception_from_a_task_propagates(self):
        def failing():
            yield None
            raise RuntimeError("power failure")

        log = []
        with pytest.raises(RuntimeError, match="power failure"):
            interleave([(1, [failing(), _steps(log, "ok", 5)])], _never_serve, FakeClock())
        assert log == ["ok"]

    def test_an_exception_from_service_propagates(self):
        def parker():
            yield Park("t")
            raise AssertionError("must not resume after a failed service")

        def service(tokens):
            raise RuntimeError("commit failed")

        with pytest.raises(RuntimeError, match="commit failed"):
            interleave([(1, [parker()]), (2, [parker()])], service, FakeClock())
