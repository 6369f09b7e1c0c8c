"""What a simplification deleted stays deleted: one table of guards.

Each row names a thing that was merged away or deleted, why, and one check
that fails if it comes back: a text pattern over the source files it covers,
or, where a rename could dodge a pattern, a structural check on the live
module (its attributes, or an ``ast`` walk of one function).  A pattern row
carries a planted line, a reintroduction the pattern must match, so a
pattern that can no longer fire fails here too.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.sqlite import records, table
from repro.sqlite.sql import engine

SRC = Path(__file__).resolve().parents[1] / "src"


class Pattern(NamedTuple):
    """No line of a ``.py`` file under ``paths`` (relative to ``src/``) matches."""

    name: str
    why: str
    regex: str
    paths: tuple[str, ...]
    planted: str  # a reintroduction the regex must match

    def violations(self) -> list[str]:
        assert re.search(self.regex, self.planted), "the pattern no longer fires"
        found = []
        for root in self.paths:
            for path in sorted((SRC / root).rglob("*.py")):
                for number, line in enumerate(path.read_text().splitlines(), 1):
                    if re.search(self.regex, line):
                        found.append(f"{path.relative_to(SRC)}:{number}: {line.strip()}")
        return found


class Structure(NamedTuple):
    """``check()`` lists what came back; empty when nothing did."""

    name: str
    why: str
    check: Callable[[], list[str]]

    def violations(self) -> list[str]:
        return self.check()


def _tree(function) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


def _called(node: ast.AST) -> set[str]:
    """The names of what ``node`` calls (``f(...)`` or ``x.f(...)``)."""
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _absent(module, *names: str) -> list[str]:
    return [f"{module.__name__}.{name}" for name in names if hasattr(module, name)]


def _record_size_returns_none() -> list[str]:
    """``record_size`` returns a size for every row it accepts: no ``None``."""
    found = [
        f"return at line {node.lineno}"
        for node in ast.walk(_tree(records.record_size))
        if isinstance(node, ast.Return)
        and (node.value is None or (isinstance(node.value, ast.Constant) and node.value.value is None))
    ]
    annotation = inspect.signature(records.record_size).return_annotation
    return found + ([] if annotation == "int" else [f"annotated {annotation!r}"])


def _subclass_branches() -> list[str]:
    """Nothing below bind tests for an ``int`` subclass: no ``bool`` and no
    ``isinstance(..., int)`` in key ordering or the rowid-equality path."""
    found = []
    for function in (records.key_sort_tuple, engine._rowid_eq_rows):
        for node in ast.walk(_tree(function)):
            if isinstance(node, ast.Name) and node.id == "bool":
                found.append(f"{function.__name__}: bool")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and "int" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            ):
                found.append(f"{function.__name__}: isinstance(..., int)")
    return found


def _codec_fast_paths() -> list[str]:
    """The codec in its reference form: ``encode_record`` is a count and a join
    (no loop, no branch), and ``decode_record``'s loop is one
    ``decode_value`` call per value (no branch in it)."""
    found = _absent(records, "_BYTE", "_INT_HEAD", "_TEXT_HEAD")
    for node in ast.walk(_tree(records.encode_record)):
        if isinstance(node, (ast.For, ast.While, ast.If)):
            found.append(f"encode_record: {type(node).__name__} at line {node.lineno}")
    for loop in ast.walk(_tree(records.decode_record)):
        if isinstance(loop, ast.For):
            found += [
                f"decode_record: branch in the loop at line {node.lineno}"
                for node in ast.walk(loop)
                if isinstance(node, ast.If)
            ]
            if "decode_value" not in _called(loop):
                found.append("decode_record: the loop does not call decode_value")
    return found


def _table_store_encodes() -> list[str]:
    """The row store hands the B-tree rows, not records."""
    found = _absent(table, "encode_record")
    if "encode_record" in _called(_tree(table.TableStore)):
        found.append("TableStore calls encode_record")
    return found


ROWS = [
    Pattern(
        "statement-lifecycle",
        "One statement lifecycle: no second statement cache, no compile-time "
        "parameter capture (a plan reads its parameter cell when it runs).",
        r"_parse_cache|self\.params\[",
        ("repro/sqlite",),
        "        value = self.params[index]",
    ),
    Pattern(
        "row-function-per-path",
        "One row function per access path, bound at plan time: the per-call "
        "kind dispatch stays deleted (path.kind is a label only).",
        r"path\.kind ==|def iterate_access_path",
        ("repro/sqlite",),
        '        if path.kind == "rowid-eq":',
    ),
    Pattern(
        "key-sizing-encodes",
        "One way to size a key: by arithmetic (records.record_size); key "
        "sizing never encodes.",
        r"len\(encode_record\(",
        ("repro",),
        "    return len(encode_record(key))",
    ),
    Structure(
        "record-size-none",
        "A row of another type has no sizeless path: values are exact from "
        "bind on, so record_size sizes every row or raises.",
        _record_size_returns_none,
    ),
    Structure(
        "bool-branches",
        "No type fallback below the connection: bind makes a bool or an enum "
        "an int, so key ordering and the rowid path test exact types only.",
        _subclass_branches,
    ),
    Structure(
        "codec-fast-paths",
        "The codec is off every benchmark path, so it keeps its reference "
        "form: the single-pass fast paths and their lookup tables stay deleted.",
        _codec_fast_paths,
    ),
    Structure(
        "row-memo",
        "A leaf cell holds its row, so nothing maps payloads back to rows: the "
        "payload -> row memo and its upkeep stay deleted.",
        lambda: _absent(
            records, "_rows", "ROW_MEMO_ENTRIES", "_remember", "forget_record", "_decode_uncached"
        ),
    ),
    Structure(
        "table-store-encodes",
        "The row store hands the B-tree rows; only the B-tree encodes, for a "
        "row that spills.",
        _table_store_encodes,
    ),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_stays_deleted(row):
    assert row.violations() == [], row.why
