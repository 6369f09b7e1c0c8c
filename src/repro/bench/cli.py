"""Command-line experiment runner.

Run any of the paper's experiments directly::

    python -m repro.bench --figure table1 --metrics
    python -m repro.bench fig5 table1 table5
    python -m repro.bench all
    REPRO_SCALE=5 python -m repro.bench fig7
    python -m repro.bench channels --channels 8 --queue-depth 8
    python -m repro.bench throughput --profile 20

``--profile [N]`` wraps each experiment in :mod:`cProfile` and prints the
top ``N`` functions by internal time — the loop for hot-path work: run
``throughput --profile``, attack the leaders, re-run, compare against the
committed ``BENCH_throughput.json`` (``python -m repro.bench.regression``
is the CI smoke check).

``--metrics`` installs an :class:`~repro.obs.ObservabilityHub` around each
experiment, so every stack the experiment builds gets its own labeled
metrics session.  After the experiment the per-session reports are
printed; the flash and FTL counters in them are the stack's
:class:`~repro.flash.stats.FlashStats` fields, read by name.

Results are printed and can be written to ``--results-dir`` /
``--metrics-dir``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
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
        nargs="*",
        help=f"experiment names ({', '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--figure",
        action="append",
        default=[],
        metavar="NAME",
        help="experiment to run (repeatable; same names as the positional form)",
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
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record cross-layer spans as well as metrics (implies --metrics; memory-heavy)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="run each experiment under cProfile and print the top N "
        "functions by internal time (default N=25)",
    )
    parser.add_argument(
        "--channels",
        type=int,
        default=None,
        metavar="N",
        help="flash channels for every stack built (sets REPRO_CHANNELS; default 1)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="NCQ command-queue depth for every stack built "
        "(sets REPRO_QUEUE_DEPTH; default 1, needs --channels > 1 to matter)",
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


@contextlib.contextmanager
def _device_env(args: argparse.Namespace):
    """Scope --channels/--queue-depth to this run via the REPRO_* env vars.

    The experiment stack builders read ``REPRO_CHANNELS`` /
    ``REPRO_QUEUE_DEPTH``; setting them only for the duration of ``main``
    keeps in-process callers (tests, notebooks) side-effect free.
    """
    overrides = {}
    if args.channels is not None:
        overrides["REPRO_CHANNELS"] = str(args.channels)
    if args.queue_depth is not None:
        overrides["REPRO_QUEUE_DEPTH"] = str(args.queue_depth)
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    requested = list(args.experiments) + list(args.figure)
    if not requested:
        parser.error("no experiments given (positional names or --figure NAME)")
    names = list(ALL_EXPERIMENTS) if "all" in requested else requested
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    results_dir = pathlib.Path(args.results_dir) if args.results_dir else None
    with _device_env(args):
        for name in names:
            started = time.time()
            hub = install_default_hub(trace=args.trace) if args.metrics or args.trace else None
            try:
                if args.profile is not None:
                    import cProfile
                    import pstats

                    profiler = cProfile.Profile()
                    profiler.enable()
                    try:
                        result = ALL_EXPERIMENTS[name]()
                    finally:
                        profiler.disable()
                        pstats.Stats(profiler).sort_stats("tottime").print_stats(
                            args.profile
                        )
                else:
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
