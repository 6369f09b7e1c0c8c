"""The benchmark's one command.

The driver's form (one run of one workload, result as the last line)::

    python3 benchmarks/perf/run.py --workload update_rbj --seed 7 --seconds 5 --trace 0

A set (every workload, ``--runs`` fresh processes each, plus one traced run
with ``--trace 1``), written to ``--out`` and never to the repository root::

    python3 benchmarks/perf/run.py --runs 3 --trace 1

Two sets compared within the bounds of BENCHMARK.json::

    python3 benchmarks/perf/run.py --compare A.json B.json

Exit code 0 only when every output verified and every guard held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory, where trace.py would
    # shadow the stdlib module of that name; make it the repository root.
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

try:
    from benchmarks.perf import compare, measure, spec
except ImportError as error:  # the program under test is not in this checkout
    sys.exit(f"benchmarks/perf: cannot import the system under test from {ROOT / 'src'}: {error}")

DEFAULT_OUT = Path(__file__).resolve().parent / "results"


def print_metrics(title: str, metrics: dict[str, dict], specs) -> None:
    """Every metric by name, with its unit and the clock it was taken on."""
    print(title)
    for metric in specs:
        if metric.name in metrics:
            value = metrics[metric.name]["value"]
            print(f"  {metric.name:38s} {value:>16.6g} {metric.unit:10s} [{metric.clock}]")


def run_one(args) -> int:
    """The driver's form: one run, details line, then the four-key result line."""
    sizes = spec.SIZES[args.workload]
    if args.trace:
        result = measure.run_traced(args.workload, args.seed, sizes, args.out)
        specs = spec.PER_LAYER
    else:
        result = measure.run_untraced(args.workload, args.seed, args.seconds, sizes)
        specs = spec.END_TO_END
    head = {key: result.pop(key) for key in ("correct", "attempted", "failed", "metrics")}
    print_metrics(f"{args.workload} seed={args.seed} trace={args.trace}", head["metrics"], specs)
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print("details " + json.dumps(result))
    print(json.dumps(head))
    return 0 if head["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """One run in a fresh process; its result and details lines merged."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("details "):
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    return {**json.loads(lines[-1]), **json.loads(lines[-2].removeprefix("details "))}


def run_set(args) -> int:
    """Every selected workload, ``--runs`` fresh processes each; medians to ``--out``."""
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    sim_names = {m.name for m in spec.END_TO_END if m.clock == "sim"}
    report = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for name in names:
        runs = [_child(name, args.seed, args.seconds, 0, args.out) for _ in range(args.runs)]
        medians = {
            m.name: {
                "value": statistics.median(run["metrics"][m.name]["value"] for run in runs),
                "unit": m.unit,
            }
            for m in spec.END_TO_END
        }
        entry = {
            "correct": all(run["correct"] for run in runs),
            "steady": all(run["steady"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "problems": [p for run in runs for p in run["problems"]],
            "end_to_end": medians,
            "runs": [run["metrics"] for run in runs],
        }
        for metric in sim_names:
            if len({run["metrics"][metric]["value"] for run in runs}) > 1:
                entry["correct"] = False
                entry["problems"].append(f"{metric} differs between runs of the same seed")
        print_metrics(
            f"{name}: median of {args.runs} run(s), seed {args.seed}, "
            f"correct={entry['correct']} steady={entry['steady']}",
            medians, spec.END_TO_END,
        )
        if args.trace:
            traced = _child(name, args.seed, args.seconds, 1, args.out)
            entry["per_layer"] = traced["metrics"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["problems"] += traced["problems"]
            self_sum, wall = traced["traced_self_sum_s"], traced["traced_cpu_s"]
            print_metrics(
                f"{name}: traced run, correct={traced['correct']}, "
                f"layer self times sum to {self_sum / wall:.1%} of the traced window",
                traced["metrics"], spec.PER_LAYER,
            )
        for problem in entry["problems"]:
            print(f"  PROBLEM {problem}")
        ok = ok and entry["correct"]
        report["workloads"][name] = entry
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"set_seed{args.seed}_{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, help="default: all")
    parser.add_argument("--seed", type=int, default=7, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=5.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=0,
                        help="fresh-process runs per workload (a set); 0: one run in-process")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="where files are written")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two set files and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 0:
        parser.error("--seconds must be positive and --runs not negative")
    if args.compare:
        bounds = json.loads((ROOT / "BENCHMARK.json").read_text())
        return compare.compare_files(*args.compare, bounds)
    if args.workload and not args.runs:
        return run_one(args)
    args.runs = args.runs or 1
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
