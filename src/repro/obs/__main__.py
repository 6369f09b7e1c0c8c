"""``python -m repro.obs`` — run a small instrumented workload and report.

A quick way to see the observability layer end to end without writing any
code: build a stack in the requested mode with metrics (and optionally
spans) enabled, push a synthetic SQLite workload through it, and print the
per-layer metrics report::

    python -m repro.obs --mode xftl --transactions 50
    python -m repro.obs --mode wal --format json --out wal-metrics.json
    python -m repro.obs --mode rbj --trace
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs.export import render
from repro.stack import Mode, open_stack
from repro.workloads.synthetic import SyntheticWorkload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run a small instrumented workload and print its metrics.",
    )
    parser.add_argument(
        "--mode",
        default="xftl",
        help="stack mode: rbj, wal or xftl (default xftl)",
    )
    parser.add_argument(
        "--transactions", type=int, default=50, help="transactions to run (default 50)"
    )
    parser.add_argument(
        "--rows", type=int, default=2_000, help="table rows to load (default 2000)"
    )
    parser.add_argument(
        "--updates-per-txn",
        type=int,
        default=5,
        help="pages updated per transaction (default 5)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record cross-layer spans and print the span tree",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the rendered metrics to this file",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mode = Mode.coerce(args.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not mode.is_database_mode:
        print(f"error: {mode.value!r} is a file-system-only mode", file=sys.stderr)
        return 2

    stack = open_stack(mode, metrics=True, trace=args.trace)
    db = stack.open_database("obs.db")
    workload = SyntheticWorkload(db, rows=args.rows)
    workload.load()
    run = workload.run(
        transactions=args.transactions, updates_per_txn=args.updates_per_txn
    )
    stack.obs.annotate("workload.transactions", args.transactions)
    stack.obs.annotate("workload.rows", args.rows)
    stack.obs.annotate("workload.elapsed_s", round(run.elapsed_s, 3))

    text = render(stack.obs, args.format)
    print(text, end="")
    if args.trace:
        print(stack.obs.tracer.render_tree(max_spans=60))
    if args.out is not None:
        pathlib.Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
