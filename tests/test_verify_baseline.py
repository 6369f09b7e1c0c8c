"""The crash sweep, pinned: same scenarios, same verdicts.

``tests/data/verify_baseline.json`` records, for every ``LAYERS`` row, what
the sweep *does* at a fixed seed: how many scenarios the enumerator reaches,
how many fire, how many fail, and a digest over the ordered
``(point, after, tear, fired, ops_run, violations)`` outcomes.  The FTL- and
device-level rows are swept exhaustively; the file-system, SQLite and tenant
rows (whole-stack machines, ~10x slower per scenario) at a budget of 150.

Seed 1 is in as well for the three rows that were red there until PR 18
(X-FTL recovery replayed pages in write order instead of commit order; 15 /
165 / 257 failures): a second seed keeps the collector and demand-paged-map
rows honest where seed 0 alone was green all along.  That the harness can
still see red is ``tests/test_verify_sweep.py::TestHarnessBites``' job.

Recorded at the commit before ``verify/drivers.py`` became table-driven;
re-record only with a deliberate, explained bump (all rows, or only the
named ones)::

    PYTHONPATH=src:. python tests/test_verify_baseline.py --record [ROW@seedN ...]
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.verify import LAYERS, sweep

BASELINE_PATH = pathlib.Path(__file__).parent / "data" / "verify_baseline.json"

_EXHAUSTIVE = 100_000  # above any row's surface: the streams dry up first
_STACK_BUDGET = 150
_STACK_PREFIXES = ("fs.", "sqlite.", "stack.")
_ALSO_AT_SEED_1 = ("ftl.gc", "ftl.gc.inline", "ftl.cmt")

PINNED = [(layer, 0) for layer in LAYERS] + [(layer, 1) for layer in _ALSO_AT_SEED_1]


def _key(layer: str, seed: int) -> str:
    return f"{layer}@seed{seed}"


def _sweep_row(layer: str, seed: int) -> dict:
    budget = _STACK_BUDGET if layer.startswith(_STACK_PREFIXES) else _EXHAUSTIVE
    outcomes = []
    report = sweep(
        layers=[layer],
        budget=budget,
        seed=seed,
        shrink_failures=False,
        progress=lambda scenario, result: outcomes.append(
            [
                scenario.point,
                scenario.after,
                scenario.tear,
                result.fired,
                result.ops_run,
                result.violations,
            ]
        ),
    )
    return {
        "scenarios": report.scenarios_run,
        "fired": report.fired,
        "failures": len(report.failures),
        "sha256": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest(),
    }


def test_every_layer_is_pinned() -> None:
    recorded = json.loads(BASELINE_PATH.read_text())
    assert sorted(recorded) == sorted(_key(layer, seed) for layer, seed in PINNED)


@pytest.mark.parametrize("layer,seed", PINNED, ids=[_key(*row) for row in PINNED])
def test_sweep_matches_recorded_baseline(layer: str, seed: int) -> None:
    assert _sweep_row(layer, seed) == json.loads(BASELINE_PATH.read_text())[_key(layer, seed)]


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit(
            "usage: PYTHONPATH=src:. python tests/test_verify_baseline.py"
            " --record [ROW@seedN ...]"
        )
    only = set(sys.argv[sys.argv.index("--record") + 1 :])
    unknown = only - {_key(*row) for row in PINNED}
    if unknown:
        sys.exit(f"not pinned rows: {sorted(unknown)}")
    recorded = json.loads(BASELINE_PATH.read_text()) if only else {}
    for layer, seed in PINNED:
        if not only or _key(layer, seed) in only:
            recorded[_key(layer, seed)] = _sweep_row(layer, seed)
    BASELINE_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(only) or len(recorded)} verify baselines to {BASELINE_PATH}")
