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

    PYTHONPATH=src:. python -m tests.pins --record perf_sim [WORKLOAD ...]
"""

from __future__ import annotations

import pytest

from benchmarks.perf import measure, spec, workloads
from benchmarks.perf.reference import ReferenceLoop

from tests.pins import DATA, Pin

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


PIN = Pin("perf_sim", DATA / "perf_sim_baseline.json", spec.WORKLOAD_NAMES, _window_row)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_window_matches_recorded_baseline(name: str) -> None:
    row = PIN.check(name)
    assert row["verify"] == [] and row["failed"] == 0
