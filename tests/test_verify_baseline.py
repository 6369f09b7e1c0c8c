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

    PYTHONPATH=src:. python -m tests.pins --record verify [ROW@seedN ...]
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.verify import LAYERS, sweep

from tests.pins import DATA, Pin

_EXHAUSTIVE = 100_000  # above any row's surface: the streams dry up first
_STACK_BUDGET = 150
_STACK_PREFIXES = ("fs.", "sqlite.", "stack.")
_ALSO_AT_SEED_1 = ("ftl.gc", "ftl.gc.inline", "ftl.cmt")

PINNED = [f"{layer}@seed0" for layer in LAYERS] + [f"{layer}@seed1" for layer in _ALSO_AT_SEED_1]


def _sweep_row(key: str) -> dict:
    layer, _, seed = key.rpartition("@seed")
    budget = _STACK_BUDGET if layer.startswith(_STACK_PREFIXES) else _EXHAUSTIVE
    outcomes = []
    report = sweep(
        layers=[layer],
        budget=budget,
        seed=int(seed),
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


PIN = Pin("verify", DATA / "verify_baseline.json", PINNED, _sweep_row)


@pytest.mark.parametrize("key", PINNED)
def test_sweep_matches_recorded_baseline(key: str) -> None:
    PIN.check(key)
