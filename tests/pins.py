"""One harness for every committed pin.

A pin is a name, a JSON file under ``tests/data/``, its ordered row keys and
a function from a row key to a dict; the file must hold that dict for every
key, to the last digit.  Each pin is its test module's ``PIN`` (:data:`PINS`
names the modules): ``PIN.check(key)`` is the test of one row and fails with
a per-field diff, and ``tests/test_pins.py`` checks every pin for missing or
stale rows.  A row moves only on purpose, with one command that rewrites the
named rows (or all of them) and leaves every other row byte-identical::

    PYTHONPATH=src:. python -m tests.pins --record PIN [ROW ...]
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

DATA = Path(__file__).parent / "data"

PINS = {
    "access_order": "tests.test_sql_access_order",
    "barrier": "tests.test_barrier_stack",
    "bench": "tests.test_experiments_smoke",
    "channel": "tests.test_channel_equivalence",
    "gc_schedule": "tests.test_gc_schedule",
    "perf_sim": "tests.test_perf_sim_baseline",
    "verify": "tests.test_verify_baseline",
}

RECORD = "PYTHONPATH=src:. python -m tests.pins --record"


@dataclass(frozen=True)
class Pin:
    name: str
    path: Path
    keys: Sequence[str]
    row: Callable[[str], dict]

    def recorded(self) -> dict:
        return json.loads(self.path.read_text())

    def check(self, key: str) -> dict:
        """Compute row ``key``, fail on every field that differs from the
        file, and return the row."""
        __tracebackhide__ = True
        recorded = self.recorded()
        assert key in recorded, f"{self.name}[{key}] is not recorded: {RECORD} {self.name} {key}"
        actual = _plain(self.row(key))
        diff = list(_diff(recorded[key], actual, key))
        assert not diff, (
            f"{self.name}[{key}] moved in {len(diff)} field(s) (recorded -> now):\n  "
            + "\n  ".join(diff)
            + f"\nre-record on purpose with: {RECORD} {self.name} {key}"
        )
        return actual

    def check_keys(self) -> None:
        __tracebackhide__ = True
        recorded = self.recorded()
        missing = [key for key in self.keys if key not in recorded]
        stale = sorted(set(recorded) - set(self.keys))
        assert not (missing or stale), (
            f"{self.name}: rows missing from {self.path.name}: {missing};"
            f" stale rows in it: {stale} ({RECORD} {self.name} rewrites the file)"
        )

    def record(self, keys: Sequence[str] = ()) -> None:
        """Rewrite rows ``keys``, or the whole file when none are named."""
        unknown = sorted(set(keys) - set(self.keys))
        if unknown:
            raise ValueError(f"not {self.name} rows: {unknown}")
        rows = self.recorded() if keys else {}
        rows.update((key, _plain(self.row(key))) for key in self.keys if key in keys or not keys)
        self.path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def load(name: str) -> Pin:
    return importlib.import_module(PINS[name]).PIN


def _plain(row: dict) -> dict:
    """The row as the file holds it: tuples become lists, and so on."""
    return json.loads(json.dumps(row))


def _diff(recorded, actual, path: str) -> Iterator[str]:
    if isinstance(recorded, dict) and isinstance(actual, dict):
        for key in sorted(set(recorded) | set(actual)):
            old, new = recorded.get(key, "(absent)"), actual.get(key, "(absent)")
            yield from _diff(old, new, f"{path}.{key}")
    elif isinstance(recorded, list) and isinstance(actual, list) and len(recorded) == len(actual):
        for index, (old, new) in enumerate(zip(recorded, actual)):
            yield from _diff(old, new, f"{path}[{index}]")
    elif recorded != actual:
        yield f"{path}: {recorded!r} -> {actual!r}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.pins")
    parser.add_argument("--record", required=True, choices=sorted(PINS), metavar="PIN")
    parser.add_argument("rows", nargs="*", metavar="ROW", help="default: every row")
    args = parser.parse_args(argv)
    pin = load(args.record)
    try:
        pin.record(args.rows)
    except ValueError as error:
        parser.error(str(error))
    print(f"recorded {len(args.rows) or len(pin.keys)} {pin.name} row(s) to {pin.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
