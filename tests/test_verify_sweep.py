"""Bounded crash-consistency sweep: the tier-1 face of repro.verify.

Runs the scenario enumerator over both FTL layers and asserts that recovery
never violates an oracle: no invariant failures, no never-written reads,
no lost durable data, no torn transactions; shows that a stack which *does*
lose durable data turns every layer red; and covers the enumerator, the
shrinker and the CLI.  Every layer's sweep is pinned scenario for scenario
by ``tests/test_verify_baseline.py``.
"""

import pytest

from repro.errors import FtlError
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.obs import MetricsRegistry, ObservabilityHub
from repro.sim.crash import CrashPlan
from repro.verify import LAYERS, Scenario, run_scenario, shrink, sweep
from repro.verify.runner import applicable_points
from repro.verify.cli import main


class TestSweepBothFtls:
    def test_bounded_sweep_ftl_layers_clean(self):
        report = sweep(layers=["ftl.pagemap", "ftl.xftl"], budget=500, seed=0)
        assert report.scenarios_run >= 100  # surface is big enough to matter
        assert report.fired > report.scenarios_run // 2
        assert report.ok, report.summary()

    def test_sweep_covers_xftl_commit_points(self):
        seen = []
        report = sweep(
            layers=["ftl.xftl"],
            points=["xftl.commit"],
            budget=30,
            progress=lambda scenario, result: seen.append(scenario.point),
        )
        assert report.ok, report.summary()
        assert "xftl.commit.before-flush" in seen
        assert "xftl.commit.after-flush" in seen

    def test_torn_page_scenarios_included(self):
        seen = []
        report = sweep(
            layers=["ftl.pagemap"],
            points=["flash.program.mid"],
            budget=20,
            progress=lambda scenario, result: seen.append(scenario.tear),
        )
        assert report.ok, report.summary()
        assert True in seen and False in seen


class TestUpperLayersSmoke:
    def test_sqlite_commit_mid_reachable_on_rbj(self):
        result = run_scenario("sqlite.rbj", "sqlite.commit.mid", after=1, ops_limit=20)
        assert result.fired
        assert result.ok, result.violations


def _never_fires(layer):
    """A crash-free control run: an occurrence count no workload reaches."""
    return dict(layer=layer, point=applicable_points(layer)[0].name, after=10**6)


def _amnesiac_remount(monkeypatch):
    """Recovery comes back with an empty (but self-consistent) map."""
    remount = PageMappingFTL.remount

    def amnesiac(self):
        remount(self)
        for lpn in range(self.exported_pages):
            self.trim(lpn)

    monkeypatch.setattr(PageMappingFTL, "remount", amnesiac)


def _dropped_writes(monkeypatch):
    """From the arming instant on, the FTL acknowledges writes and drops them."""
    armed = []
    monkeypatch.setattr(CrashPlan, "arm", lambda self, *a, **kw: armed.append(self))

    def dropping(real):
        return lambda self, *a, **kw: None if armed else real(self, *a, **kw)

    # XFTL inherits write(): patching the base class drops it on both.
    for cls, name in ((PageMappingFTL, "write"), (XFTL, "write_tx")):
        monkeypatch.setattr(cls, name, dropping(cls.__dict__[name]))


class TestHarnessBites:
    """Lose acknowledged-durable data and every row must turn red.

    A row that forgets to judge, or judges the wrong reader, stays green
    here.  Under the amnesiac remount the file-system and SQLite rows fail
    to mount at all (a ``recovery raised`` finding); under dropped writes
    every stack still mounts, so the verdict has to come from the row's own
    oracle and read-back.
    """

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("sabotage", [_amnesiac_remount, _dropped_writes])
    def test_lost_durable_data_turns_the_row_red(self, layer, sabotage, monkeypatch):
        assert run_scenario(**_never_fires(layer)).ok
        sabotage(monkeypatch)
        result = run_scenario(**_never_fires(layer))
        assert not result.fired
        assert result.violations
        if sabotage is _dropped_writes:
            assert not any(" raised " in v for v in result.violations)


class TestPhaseLabels:
    """A stack error is a finding labelled with the phase that raised it."""

    POINT = "flash.program.after"

    def test_setup(self, monkeypatch):
        def write(self, lpn, data):
            raise FtlError("no writes today")

        monkeypatch.setattr(PageMappingFTL, "write", write)
        result = run_scenario("ftl.pagemap", self.POINT)
        assert (result.fired, result.ops_run) == (False, 0)
        assert result.violations == ["setup raised FtlError: no writes today"]

    def test_workload(self, monkeypatch):
        real_write, calls = PageMappingFTL.write, []

        def write(self, lpn, data):
            calls.append(lpn)
            if len(calls) == 24 + 6:  # the 24 seeding writes, then the sixth op
                raise FtlError("worn out")
            real_write(self, lpn, data)

        monkeypatch.setattr(PageMappingFTL, "write", write)
        result = run_scenario("ftl.pagemap", self.POINT, after=10**6)
        assert (result.fired, result.ops_run) == (False, 6)
        assert result.violations == ["workload raised FtlError: worn out"]

    def test_recovery(self, monkeypatch):
        def remount(self):
            raise FtlError("root record unreadable")

        monkeypatch.setattr(PageMappingFTL, "remount", remount)
        result = run_scenario("ftl.pagemap", self.POINT, after=30)
        assert result.fired and result.ops_run > 0
        assert result.violations == ["recovery raised FtlError: root record unreadable"]


class TestEnumerator:
    def test_every_layer_has_points(self):
        for layer in LAYERS:
            assert applicable_points(layer)

    def test_xftl_points_absent_from_stock_layers(self):
        names = {spec.name for spec in applicable_points("ftl.pagemap")}
        assert not any(name.startswith("xftl.") for name in names)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            sweep(layers=["nope"], budget=1)

    def test_rollback_commit_point_not_applicable_to_xftl_stack(self):
        # sqlite.commit.mid lives in the rollback-journal commit path, which
        # OFF mode (X-FTL) never executes; the enumerator excludes it.
        names = {spec.name for spec in applicable_points("sqlite.xftl")}
        assert "sqlite.commit.mid" not in names
        assert "sqlite.commit.mid" in {
            spec.name for spec in applicable_points("sqlite.rbj")
        }

    def test_occurrence_growth_stops_when_point_exhausted(self):
        # A short workload only erases a handful of blocks; once the armed
        # occurrence exceeds that count the run completes without firing and
        # the stream retires instead of burning the whole budget.
        report = sweep(
            layers=["ftl.pagemap"], points=["flash.erase.before"], budget=400
        )
        assert report.scenarios_run < 400
        assert report.not_fired == 1
        assert report.ok, report.summary()


class TestShrinker:
    def test_shrinks_to_minimal_prefix(self, monkeypatch):
        import repro.verify.runner as runner_mod

        def fake_run(layer, point, after=1, tear=False, seed=0, ops_limit=40):
            from repro.verify.drivers import ScenarioResult

            failing = ops_limit >= 17
            return ScenarioResult(
                layer=layer,
                point=point,
                after=after,
                tear=tear,
                fired=True,
                ops_run=ops_limit,
                violations=["boom"] if failing else [],
            )

        monkeypatch.setattr(runner_mod, "run_scenario", fake_run)
        scenario = Scenario(layer="ftl.pagemap", point="flash.program.after", ops_limit=40)
        shrunk, result = shrink(scenario, fake_run("ftl.pagemap", "x", ops_limit=40))
        assert shrunk.ops_limit == 17
        assert result.violations == ["boom"]

    def test_recipe_replays(self):
        scenario = Scenario(
            layer="ftl.xftl", point="xftl.commit.before-flush", after=2, seed=3, ops_limit=25
        )
        recipe = scenario.recipe()
        assert "--layer ftl.xftl" in recipe
        assert "--points xftl.commit.before-flush" in recipe
        assert "--after 2" in recipe


class TestCli:
    def test_bounded_sweep_exits_zero(self, capsys):
        assert main(["--layer", "ftl.pagemap", "--budget", "15"]) == 0
        out = capsys.readouterr().out
        assert "15 scenarios" in out

    def test_replay_mode(self, capsys):
        code = main(
            [
                "--layer",
                "ftl.xftl",
                "--points",
                "xftl.commit.before-flush",
                "--after",
                "1",
                "--ops",
                "20",
            ]
        )
        assert code == 0
        assert "crashed" in capsys.readouterr().out

    def test_list_points(self, capsys):
        assert main(["--list-points", "--layer", "ftl.xftl"]) == 0
        assert "xftl.commit.before-flush" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--budget", "--ops"])
    def test_a_sweep_that_runs_nothing_is_usage_error(self, flag, capsys):
        """``--budget 0`` printed ``0 scenarios`` and ``--ops 0`` ran empty
        workloads, both exiting 0."""
        with pytest.raises(SystemExit) as raised:
            main([flag, "0", "--layer", "ftl.pagemap"])
        assert raised.value.code == 2
        assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("after", ["0", "-5"])
    def test_a_replay_below_the_first_occurrence_is_usage_error(self, after, capsys):
        """``--after 0`` (or ``-5``) printed ``x0``, replayed the ``x1``
        scenario and exited 0."""
        argv = ["--layer", "ftl.xftl", "--points", "xftl.commit.before-flush", "--ops", "20"]
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--after", after])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --after: must be at least 1, got {after}" in captured.err
        assert captured.out == ""

    def test_a_budget_of_one_runs_one_scenario(self, capsys):
        assert main(["--layer", "ftl.pagemap", "--budget", "1", "--ops", "1"]) == 0
        assert "verify: 1 scenarios" in capsys.readouterr().out

    def test_bad_point_filter_is_usage_error(self):
        assert main(["--points", "definitely.not.a.point", "--budget", "1"]) == 2

    def test_metrics_fold_each_scenario_as_it_finishes(self, capsys, monkeypatch):
        """``--metrics`` holds no finished scenario's session: the hub is
        empty whenever a stack opens one, yet the report is the merge of
        every session, in order, and counts as many as before the fold."""
        every = []
        held = []
        open_session = ObservabilityHub.session

        def session(hub, label):
            held.append(len(hub.sessions))
            every.append(open_session(hub, label))
            return every[-1]

        monkeypatch.setattr(ObservabilityHub, "session", session)
        assert main(["--budget", "100", "--seed", "0", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert held == [0] * 100  # one per scenario: bare FTLs and devices too
        title = "metrics merged across 100 crash-sweep stacks"
        merged = MetricsRegistry(enabled=True).merge_from(s.registry for s in every)
        assert out.endswith("\n" + merged.report(title=title) + "\n")
