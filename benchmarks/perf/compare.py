"""``--compare A B``: do two sets of runs agree within the benchmark's own bounds?

Sim metrics and counts must be identical (the simulator is deterministic);
host end-to-end metrics may be worse in B than in A by at most the metric's
bound in BENCHMARK.json, on the set medians.  Host per-layer metrics are
diagnostics: shown, never judged.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.perf import spec


def _rows(a: dict, b: dict, section: str, specs, bounds: dict[str, float]):
    """(metric, a, b, verdict) per metric both sets have in ``section``."""
    for metric in specs:
        if metric.name not in a.get(section, {}) or metric.name not in b.get(section, {}):
            continue
        va, vb = a[section][metric.name]["value"], b[section][metric.name]["value"]
        if metric.clock == "sim":
            verdict = "ok" if va == vb else "DIFFERS (must be identical)"
        elif metric.name in bounds:
            worse = (vb - va) / va if metric.better == "lower" else (va - vb) / va
            bound = bounds[metric.name]
            verdict = "ok" if worse <= bound else f"WORSE by {worse:.1%} (bound {bound:.0%})"
        else:
            verdict = "-"
        yield metric, va, vb, verdict


def compare_files(path_a: Path, path_b: Path, benchmark: dict) -> int:
    """Print one row per workload x metric; 0 when B agrees with A."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    violations = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':12s} {'metric':38s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            if wa is not wb:
                print(f"{name:12s} only in {'A' if wb is None else 'B'}")
                violations += 1
            continue
        for section, specs in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
            for metric, va, vb, verdict in _rows(wa, wb, section, specs, bounds):
                ratio = f"{vb / va:8.4f}" if va else f"{'-':>8s}"
                print(f"{name:12s} {metric.name:38s} {va:14.6g} {vb:14.6g} {ratio}  {verdict}")
                violations += verdict not in ("ok", "-")
        for label, entry in (("A", wa), ("B", wb)):
            if not entry["correct"]:
                print(f"{name:12s} {label} did not verify: {entry['problems'][:3]}")
                violations += 1
    print(f"{violations} violation(s); ratios are B/A with A as the base")
    return 1 if violations else 0
