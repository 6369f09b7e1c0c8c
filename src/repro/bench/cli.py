"""Command-line experiment runner.

Run any of the paper's experiments directly::

    python -m repro.bench table1 --metrics
    python -m repro.bench fig5 table1 table5
    python -m repro.bench all --results-dir benchmarks/results  # every committed table
    REPRO_SCALE=5 python -m repro.bench fig7

An experiment is its name and ``REPRO_SCALE``: each one runs on the
device its table names (``channels`` sweeps channel counts itself).

Host speed is measured by ``benchmarks/perf`` alone; to see where one
experiment spends its wall time, run it under the standard profiler::

    python -m cProfile -s tottime -m repro.bench gc

``--metrics`` installs an :class:`~repro.obs.ObservabilityHub` around each
experiment, so every stack the experiment builds gets its own labeled
metrics session.  After the experiment the per-session reports are
printed; the flash and FTL counters in them are the stack's
:class:`~repro.flash.stats.FlashStats` fields, read by name.  Spans are
recorded by ``open_stack(..., trace=True)`` and ``python -m repro.obs
--trace``.

Results are printed and can be written to ``--results-dir`` /
``--metrics-dir``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.obs import ObservabilityHub, install_default_hub, uninstall_default_hub
from repro.obs.export import render, write_sessions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures from the X-FTL paper (SIGMOD 2013).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="also write each table to this directory as <name>.txt",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-layer metrics for every stack the experiments build",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("text", "json", "csv"),
        default="text",
        help="format for printed/written metrics sessions (default text)",
    )
    parser.add_argument(
        "--metrics-dir",
        default=None,
        help="write one metrics file per stack session to this directory",
    )
    return parser


def _report_metrics(name: str, hub: ObservabilityHub, args: argparse.Namespace) -> None:
    """Print each session, maybe write files."""
    for session in hub.sessions:
        print(render(session, args.metrics_format), end="")
    print(f"[{name}: {len(hub.sessions)} metrics session(s)]\n")
    if args.metrics_dir is not None:
        directory = pathlib.Path(args.metrics_dir) / name
        paths = write_sessions(hub.sessions, directory, fmt=args.metrics_format)
        print(f"[{name}: wrote {len(paths)} metrics file(s) to {directory}]\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    names = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    results_dir = pathlib.Path(args.results_dir) if args.results_dir else None
    for name in names:
        started = time.time()
        hub = install_default_hub() if args.metrics else None
        try:
            result = ALL_EXPERIMENTS[name]()
        finally:
            if hub is not None:
                uninstall_default_hub()
        text = result.render()
        print(text)
        print(f"[{name} finished in {time.time() - started:.1f}s wall]\n")
        if results_dir is not None:
            results_dir.mkdir(parents=True, exist_ok=True)
            (results_dir / f"{name}.txt").write_text(text + "\n")
        if hub is not None:
            _report_metrics(name, hub, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
