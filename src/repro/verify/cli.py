"""``python -m repro.verify`` — crash-consistency sweep CLI.

Examples::

    # bounded sweep over every layer and crash point
    python -m repro.verify --budget 500

    # one layer, one point family, verbose per-scenario lines
    python -m repro.verify --layer ftl.xftl --points xftl.commit -v

    # replay a single shrunk failure exactly
    python -m repro.verify --layer sqlite.xftl --points xftl.commit.before-flush \\
        --after 3 --seed 0 --ops 17

Exit status is 0 when every scenario's recovery satisfied the oracle,
1 when any violation survived, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.crash import registered_crash_points
from repro.verify.drivers import LAYERS
from repro.verify.runner import DEFAULT_OPS_LIMIT, applicable_points, sweep


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Sweep crash points across the stack and verify recovery.",
    )
    parser.add_argument(
        "--layer",
        action="append",
        choices=sorted(LAYERS),
        help="stack layer(s) to sweep (repeatable; default: all)",
    )
    parser.add_argument(
        "--points",
        help="comma-separated substring filter on crash-point names",
    )
    parser.add_argument(
        "--budget",
        type=_at_least_one,
        default=500,
        help="maximum number of scenarios to run (default 500)",
    )
    parser.add_argument(
        "--after",
        type=_at_least_one,
        help="pin the occurrence count (single-scenario replay mode)",
    )
    parser.add_argument("--tear", action="store_true", help="tear the page mid-program")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--ops",
        type=_at_least_one,
        default=DEFAULT_OPS_LIMIT,
        help=f"workload length per scenario (default {DEFAULT_OPS_LIMIT})",
    )
    parser.add_argument(
        "--list-points",
        action="store_true",
        help="print each layer's description and crash-point surface, then exit",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-layer metrics across the sweep and print a merged report",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _list_points(layers: list[str]) -> None:
    for layer in layers:
        print(f"{layer}:")
        print(f"    {LAYERS[layer].doc}")
        for spec in applicable_points(layer):
            tear = " [tearable]" if spec.tearable else ""
            print(f"  {spec.name}{tear} — {spec.doc}")


def _replay_one(args: argparse.Namespace) -> int:
    from repro.verify.drivers import run_scenario

    layers = args.layer or sorted(LAYERS)
    if len(layers) != 1 or not args.points or "," in args.points:
        print("--after replay mode needs exactly one --layer and one --points", file=sys.stderr)
        return 2
    result = run_scenario(
        layers[0],
        args.points,
        after=args.after,
        tear=args.tear,
        seed=args.seed,
        ops_limit=args.ops,
    )
    fired = "crashed" if result.fired else "did not reach the point"
    print(f"{result.layer} @ {result.point} x{result.after}: {fired}, {result.ops_run} ops")
    for violation in result.violations:
        print(f"  {violation}")
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    layers = args.layer or sorted(LAYERS)

    if args.list_points:
        _list_points(layers)
        return 0
    if args.after is not None:
        return _replay_one(args)

    point_filter = args.points.split(",") if args.points else None
    known = {spec.name for spec in registered_crash_points()}
    if point_filter and not any(any(p in name for name in known) for p in point_filter):
        print(f"no registered crash point matches {args.points!r}", file=sys.stderr)
        return 2

    hub = merged = None
    sessions = 0
    if args.metrics:
        from repro.obs import MetricsRegistry, install_default_hub, uninstall_default_hub

        hub = install_default_hub()
        merged = MetricsRegistry(enabled=True)

    def fold() -> None:
        # Finished stacks are folded as the sweep goes, so the hub never
        # holds more than one scenario's sessions.
        nonlocal sessions
        sessions += len(hub.sessions)
        merged.merge_from(session.registry for session in hub.sessions)
        hub.sessions.clear()

    def progress(scenario, result):
        if args.verbose:
            status = "FAIL" if not result.ok else ("fired" if result.fired else "no-fire")
            print(
                f"  [{status}] {scenario.layer} @ {scenario.point}"
                f" x{scenario.after} tear={scenario.tear}"
            )
        if hub is not None:
            fold()

    try:
        report = sweep(
            layers=layers,
            points=point_filter,
            budget=args.budget,
            seed=args.seed,
            ops_limit=args.ops,
            progress=progress if args.verbose or hub is not None else None,
        )
    finally:
        if hub is not None:
            uninstall_default_hub()
    print(report.summary())
    if hub is not None:
        fold()
        print()
        print(merged.report(title=f"metrics merged across {sessions} crash-sweep stacks"))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
