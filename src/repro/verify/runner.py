"""Scenario enumeration, sweep driving, and failure shrinking.

The enumerator walks the registered crash-point surface for each layer:
every point whose component belongs to the layer's stack, at occurrence
1, 2, 3, ... (growing until a run completes without the point firing —
the workload simply never reaches it that often), and with the page-tear
variant wherever the point is tearable.  Streams for different
(layer, point, tear) combinations are interleaved round-robin so a
budget cut still spreads coverage across the whole surface.

A failing scenario is shrunk to the smallest workload prefix that still
fails, and reported with the exact arming recipe that reproduces it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.sim.crash import registered_crash_points
from repro.verify.drivers import LAYERS, ScenarioResult, run_scenario

DEFAULT_OPS_LIMIT = 40
MAX_OCCURRENCES = 400  # hard cap per (layer, point, tear) stream


@dataclass(frozen=True)
class Scenario:
    """One fully-determined armed run."""

    layer: str
    point: str
    after: int = 1
    tear: bool = False
    seed: int = 0
    ops_limit: int = DEFAULT_OPS_LIMIT

    def recipe(self) -> str:
        """The CLI invocation that replays exactly this scenario."""
        parts = [
            "python -m repro.verify",
            f"--layer {self.layer}",
            f"--points {self.point}",
            f"--after {self.after}",
            f"--seed {self.seed}",
            f"--ops {self.ops_limit}",
        ]
        if self.tear:
            parts.append("--tear")
        return " ".join(parts)


@dataclass
class Failure:
    """A scenario whose recovery broke the consistency contract."""

    scenario: Scenario
    result: ScenarioResult
    shrunk: Scenario | None = None

    def describe(self) -> str:
        scenario = self.shrunk or self.scenario
        lines = [
            f"FAIL {scenario.layer} @ {scenario.point}"
            f" (occurrence {scenario.after}, tear={scenario.tear})",
            f"  reproduce: {scenario.recipe()}",
        ]
        lines.extend(f"  {violation}" for violation in self.result.violations)
        return "\n".join(lines)


@dataclass
class SweepReport:
    """Aggregated outcome of a sweep."""

    scenarios_run: int = 0
    fired: int = 0
    not_fired: int = 0
    failures: list[Failure] = field(default_factory=list)
    by_layer: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"verify: {self.scenarios_run} scenarios"
            f" ({self.fired} crashed, {self.not_fired} ran to completion),"
            f" {len(self.failures)} failure(s)"
        ]
        for layer in sorted(self.by_layer):
            lines.append(f"  {layer}: {self.by_layer[layer]} scenarios")
        for failure in self.failures:
            lines.append(failure.describe())
        return "\n".join(lines)


def applicable_points(layer_name: str) -> list:
    """Registered crash points reachable from ``layer_name``'s stack."""
    layer = LAYERS[layer_name]
    return [
        spec
        for spec in registered_crash_points()
        if any(spec.component.startswith(prefix) for prefix in layer.components)
    ]


def enumerate_streams(
    layers: Iterable[str],
    points: Iterable[str] | None = None,
    seed: int = 0,
    ops_limit: int = DEFAULT_OPS_LIMIT,
) -> list[Iterable[Scenario]]:
    """One lazy occurrence-stream per (layer, point, tear) combination."""

    def stream(layer: str, point: str, tear: bool):
        for after in range(1, MAX_OCCURRENCES + 1):
            yield Scenario(
                layer=layer,
                point=point,
                after=after,
                tear=tear,
                seed=seed,
                ops_limit=ops_limit,
            )

    streams: list[Iterable[Scenario]] = []
    for layer in layers:
        for spec in applicable_points(layer):
            if points is not None and not any(p in spec.name for p in points):
                continue
            streams.append(stream(layer, spec.name, False))
            if spec.tearable:
                streams.append(stream(layer, spec.name, True))
    return streams


def sweep(
    layers: Iterable[str] | None = None,
    points: Iterable[str] | None = None,
    budget: int = 500,
    seed: int = 0,
    ops_limit: int = DEFAULT_OPS_LIMIT,
    progress: Callable[[Scenario, ScenarioResult], None] | None = None,
) -> SweepReport:
    """Round-robin the streams until the budget runs out or they dry up;
    each failure is shrunk to its shortest failing workload prefix."""
    layer_names = list(layers) if layers else list(LAYERS)
    for name in layer_names:
        if name not in LAYERS:
            raise ValueError(f"unknown layer {name!r}; have {sorted(LAYERS)}")
    queue = deque(
        iter(s) for s in enumerate_streams(layer_names, points, seed, ops_limit)
    )
    report = SweepReport()
    while queue and report.scenarios_run < budget:
        stream = queue.popleft()
        scenario = next(stream, None)
        if scenario is None:
            continue
        result = run_scenario(
            scenario.layer,
            scenario.point,
            after=scenario.after,
            tear=scenario.tear,
            seed=scenario.seed,
            ops_limit=scenario.ops_limit,
        )
        report.scenarios_run += 1
        report.by_layer[scenario.layer] = report.by_layer.get(scenario.layer, 0) + 1
        if progress is not None:
            progress(scenario, result)
        if result.fired:
            report.fired += 1
            queue.append(stream)  # the point is still reachable: keep growing
        else:
            report.not_fired += 1  # occurrence exhausted; retire the stream
        if not result.ok:
            failure = Failure(scenario=scenario, result=result)
            failure.shrunk, failure.result = shrink(scenario, result)
            report.failures.append(failure)
    return report


def shrink(scenario: Scenario, result: ScenarioResult) -> tuple[Scenario, ScenarioResult]:
    """Reduce a failure to the smallest workload prefix that still fails.

    The workload is deterministic in (seed, ops_limit), so truncating
    ``ops_limit`` replays an exact prefix.  Occurrence and crash point
    are part of the failure's identity and stay fixed.
    """
    best_scenario, best_result = scenario, result

    def still_fails(candidate: Scenario) -> ScenarioResult | None:
        outcome = run_scenario(
            candidate.layer,
            candidate.point,
            after=candidate.after,
            tear=candidate.tear,
            seed=candidate.seed,
            ops_limit=candidate.ops_limit,
        )
        return outcome if not outcome.ok else None

    lo, hi = 0, scenario.ops_limit  # invariant: hi fails; lo unknown/passes
    while lo < hi:
        mid = (lo + hi) // 2
        candidate = replace(scenario, ops_limit=mid)
        outcome = still_fails(candidate)
        if outcome is not None:
            best_scenario, best_result = candidate, outcome
            hi = mid
        else:
            lo = mid + 1
    return best_scenario, best_result
