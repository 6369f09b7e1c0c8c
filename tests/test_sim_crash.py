"""Unit tests for crash-point injection."""

import pytest

from repro.errors import CrashPlanError, PowerFailure
from repro.sim import CrashPlan
from repro.sim.rng import derive_seed, make_rng


class TestCrashPlan:
    def test_unarmed_plan_never_fires(self):
        plan = CrashPlan()
        for _ in range(100):
            plan.hit("flash.program.before")
        assert plan.fired is None

    def test_fires_on_first_hit_by_default(self):
        plan = CrashPlan()
        plan.arm("x.point")
        with pytest.raises(PowerFailure):
            plan.hit("x.point")
        assert plan.fired is not None
        assert plan.fired.name == "x.point"

    @pytest.mark.parametrize("after", [0, -5])
    def test_an_occurrence_count_below_one_is_refused(self, after):
        """``after`` is 1-based: 0 and below used to fire on the first hit."""
        plan = CrashPlan()
        with pytest.raises(CrashPlanError, match=f"after {after} hits"):
            plan.arm("x.point", after=after)
        assert plan._points == []
        plan.hit("x.point")
        assert plan.fired is None

    def test_fires_on_nth_hit(self):
        plan = CrashPlan()
        plan.arm("x.point", after=3)
        plan.hit("x.point")
        plan.hit("x.point")
        with pytest.raises(PowerFailure):
            plan.hit("x.point")

    def test_other_names_do_not_fire(self):
        plan = CrashPlan()
        plan.arm("a")
        plan.hit("b")
        assert plan.fired is None

    def test_fires_only_once(self):
        plan = CrashPlan()
        plan.arm("a")
        with pytest.raises(PowerFailure):
            plan.hit("a")
        plan.hit("a")  # machine already down: no second failure
        assert plan.fired.hits == 1

    def test_disarm_all(self):
        plan = CrashPlan()
        plan.arm("a")
        plan.disarm_all()
        plan.hit("a")
        assert plan.fired is None

    def test_countdown_fires_and_reports_tear(self):
        plan = CrashPlan()
        plan.arm("flash.program.mid", tear_page=True)
        fired = plan.countdown("flash.program.mid")
        assert fired is not None and fired.tear_page
        assert plan.fired is fired

    def test_countdown_respects_after(self):
        plan = CrashPlan()
        plan.arm("p", after=2, tear_page=True)
        assert plan.countdown("p") is None
        assert plan.countdown("p") is not None

    def test_countdown_other_name_no_fire(self):
        plan = CrashPlan()
        plan.arm("p")
        assert plan.countdown("q") is None
        assert plan.fired is None

    def test_power_failure_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(PowerFailure, ReproError)
        assert not issubclass(PowerFailure, Exception)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_derive_seed_varies_with_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_varies_with_base(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_make_rng_streams_independent(self):
        rng_a = make_rng(7, "workload")
        rng_b = make_rng(7, "aging")
        seq_a = [rng_a.random() for _ in range(5)]
        seq_b = [rng_b.random() for _ in range(5)]
        assert seq_a != seq_b

    def test_make_rng_replayable(self):
        first = [make_rng(7, "w").randint(0, 100) for _ in range(1)]
        second = [make_rng(7, "w").randint(0, 100) for _ in range(1)]
        assert first == second
