"""The benchmark's sim side, pinned: same code and seed, same device behaviour.

``BENCHMARK.json`` is a contract (names, units, bounds), not numbers, and the
host half of what ``benchmarks/perf`` measures is noisy by nature.  The sim
half is not: simulated time and every counter the stack keeps are a function
of code and ``--seed`` alone.  ``tests/data/perf_sim_baseline.json`` records,
for each of the four workloads at seed 7 and the benchmark's own sizes, the
four sim end-to-end metrics and every ``sim_layer_metrics`` entry of one
untraced window, and this test requires them to repeat to the last digit.  A
host-side optimisation passes it untouched; a change that moves a number here
changed what the modelled device does and has to say why.

The window is built from the harness's public names only, and nothing under
``benchmarks/perf`` is edited from here.

Recorded at the commit before the B-tree's running byte count; re-record
only with a deliberate, explained bump (all workloads, or only the named
ones)::

    PYTHONPATH=src:. python tests/test_perf_sim_baseline.py --record [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import measure, spec, workloads  # noqa: E402
from benchmarks.perf.reference import ReferenceLoop  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "data" / "perf_sim_baseline.json"
SEED = 7


def _window_row(name: str) -> dict:
    sizes = spec.SIZES[name]
    workload = workloads.make_workload(name, SEED, sizes)
    workload.setup()
    window = measure.run_window(workload, sizes["window_ops"], ReferenceLoop())
    return {
        "failed": window.failed,
        "end_to_end": measure.sim_metrics(window),
        "per_layer": measure.sim_layer_metrics(window),
        "verify": workload.verify(),
    }


def test_every_workload_is_pinned() -> None:
    assert sorted(json.loads(BASELINE_PATH.read_text())) == sorted(spec.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_window_matches_recorded_baseline(name: str) -> None:
    row = _window_row(name)
    assert row["verify"] == [] and row["failed"] == 0
    assert row == json.loads(BASELINE_PATH.read_text())[name]


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit(
            "usage: PYTHONPATH=src:. python tests/test_perf_sim_baseline.py"
            " --record [WORKLOAD ...]"
        )
    only = set(sys.argv[sys.argv.index("--record") + 1 :])
    unknown = only - set(spec.WORKLOAD_NAMES)
    if unknown:
        sys.exit(f"not benchmark workloads: {sorted(unknown)}")
    recorded = json.loads(BASELINE_PATH.read_text()) if only else {}
    for name in spec.WORKLOAD_NAMES:
        if not only or name in only:
            recorded[name] = _window_row(name)
    BASELINE_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(only) or len(recorded)} perf sim baselines to {BASELINE_PATH}")
