"""Query planning and execution.

The planner mirrors SQLite's at the level that matters for the paper's
workloads: point/range access through the rowid or a secondary index when a
WHERE conjunct allows it, full table scans otherwise, and nested-loop joins
(the paper notes SQLite uses nested loops and never materializes temporary
files for joins, §6.3.3).  Aggregates (COUNT/SUM/MIN/MAX/AVG without GROUP
BY), ORDER BY, LIMIT/OFFSET and DISTINCT cover the TPC-C transactions and
the Android traces.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable, Sequence

from repro.errors import SqlError
from repro.sqlite.records import SqlValue, key_sort_tuple, sql_values
from repro.sqlite.schema import Index, Table
from repro.sqlite.sql import ast
from repro.sqlite.table import TableStore

Row = tuple[SqlValue, ...]
# An evaluation environment: binding name -> (rowid, row values).
Env = dict[str, tuple[int, Row]]
# An access path's row function: (rowid, values) pairs under the outer Env.
RowFunction = Callable[[Env], Iterable[tuple[int, Row]]]


# ----------------------------------------------------------- value semantics


def sql_truth(value: Any) -> bool:
    """SQL WHERE truthiness: NULL and 0 are not true."""
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def sql_compare(left: SqlValue, right: SqlValue) -> int | None:
    """Three-valued comparison; None when either side is NULL."""
    if left is None or right is None:
        return None
    key_left = key_sort_tuple((left,))
    key_right = key_sort_tuple((right,))
    if key_left < key_right:
        return -1
    if key_left > key_right:
        return 1
    return 0


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


# -------------------------------------------------------- expression compiler


class Parameters:
    """The parameter cell of one prepared statement.

    A compiled ``?`` reads ``values`` when it runs, not when it is compiled, so
    one set of closures serves every execution of the SQL text.  Compiling
    raises ``arity`` to the highest ``?`` index + 1; :meth:`bind` checks it, so
    a statement given too few arguments fails before it has touched a row.
    Bind is where a value enters the engine: it is made an exact SQL type
    there (``repro.sqlite.records.sql_values``), and a value of no SQL type
    fails there, so nothing below the connection dispatches on another type.
    """

    __slots__ = ("values", "arity")

    def __init__(self) -> None:
        self.values: Sequence[SqlValue] = ()
        self.arity = 0

    def bind(self, values: Sequence[SqlValue]) -> None:
        """Set the arguments of the next run, as exact SQL values; surplus ones
        are ignored."""
        if len(values) < self.arity:
            raise SqlError(
                f"statement requires at least {self.arity} parameters, got {len(values)}"
            )
        self.values = sql_values(values)


class ExprCompiler:
    """Compiles AST expressions into closures over an Env.

    Column references are resolved once at compile time against the list of
    visible table bindings; ``rowid`` (or an INTEGER PRIMARY KEY alias) maps
    to the row's rowid.  Nothing a closure captures depends on the arguments
    of one execution, so closures live as long as the plan that holds them.
    """

    def __init__(self, bindings: list[tuple[str, Table]], params: Parameters):
        """``bindings`` are the visible (alias, table) pairs; '?' reads ``params``."""
        self.bindings = bindings
        self.params = params

    def resolve_column(self, ref: ast.ColumnRef) -> tuple[str, int | None]:
        """Returns (binding, column_index); column_index None means rowid."""
        candidates = []
        for binding, table in self.bindings:
            if ref.table is not None and ref.table != binding:
                continue
            if ref.column.lower() == "rowid":
                candidates.append((binding, None))
                continue
            try:
                position = table.column_index(ref.column)
            except Exception:
                continue
            if table.rowid_alias == position:
                candidates.append((binding, None))
            else:
                candidates.append((binding, position))
        if not candidates:
            raise SqlError(f"no such column: {ref.table + '.' if ref.table else ''}{ref.column}")
        if len(candidates) > 1:
            raise SqlError(f"ambiguous column: {ref.column}")
        return candidates[0]

    def compile(self, expr: ast.Expr) -> Callable[[Env], SqlValue]:
        """Compile ``expr`` into a closure evaluated against an Env."""
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda env: value
        if isinstance(expr, ast.Parameter):
            params, index = self.params, expr.index
            params.arity = max(params.arity, index + 1)
            return lambda env: params.values[index]
        if isinstance(expr, ast.ColumnRef):
            binding, position = self.resolve_column(expr)
            if position is None:
                return lambda env: env[binding][0]
            return lambda env: env[binding][1][position]
        if isinstance(expr, ast.Unary):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                return lambda env: None if (v := operand(env)) is None else -v
            if expr.op == "NOT":
                return lambda env: (
                    None if (v := operand(env)) is None else int(not sql_truth(v))
                )
            raise SqlError(f"unknown unary operator {expr.op}")
        if isinstance(expr, ast.Binary):
            return self.binary(expr.op, self.compile(expr.left), self.compile(expr.right))
        if isinstance(expr, ast.IsNull):
            operand = self.compile(expr.operand)
            if expr.negated:
                return lambda env: int(operand(env) is not None)
            return lambda env: int(operand(env) is None)
        if isinstance(expr, ast.InList):
            operand = self.compile(expr.operand)
            items = [self.compile(item) for item in expr.items]
            negated = expr.negated

            def run_in(env: Env) -> SqlValue:
                value = operand(env)
                if value is None:
                    return None
                hit = any(sql_compare(value, item(env)) == 0 for item in items)
                return int(hit != negated)

            return run_in
        if isinstance(expr, ast.Between):
            operand = self.compile(expr.operand)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            negated = expr.negated

            def run_between(env: Env) -> SqlValue:
                value = operand(env)
                low_cmp = sql_compare(value, low(env))
                high_cmp = sql_compare(value, high(env))
                if low_cmp is None or high_cmp is None:
                    return None
                hit = low_cmp >= 0 and high_cmp <= 0
                return int(hit != negated)

            return run_between
        if isinstance(expr, ast.Aggregate):
            raise SqlError("aggregate used outside of a SELECT list")
        raise SqlError(f"cannot compile expression {expr!r}")

    @staticmethod
    def binary(
        op: str, left: Callable[[Any], SqlValue], right: Callable[[Any], SqlValue]
    ) -> Callable[[Any], SqlValue]:
        """``left op right`` over two compiled operands.

        The operands are only ever called with what the result is called with,
        so the same operator serves row expressions (an Env) and the arithmetic
        between aggregates (the list of Envs they fold).
        """
        if op == "AND":
            return lambda env: int(sql_truth(left(env)) and sql_truth(right(env)))
        if op == "OR":
            return lambda env: int(sql_truth(left(env)) or sql_truth(right(env)))
        if op in ("=", "!=", "<", "<=", ">", ">="):

            def run_cmp(env: Env) -> SqlValue:
                result = sql_compare(left(env), right(env))
                if result is None:
                    return None
                if op == "=":
                    return int(result == 0)
                if op == "!=":
                    return int(result != 0)
                if op == "<":
                    return int(result < 0)
                if op == "<=":
                    return int(result <= 0)
                if op == ">":
                    return int(result > 0)
                return int(result >= 0)

            return run_cmp
        if op in ("+", "-", "*", "/", "%"):

            def run_arith(env: Env) -> SqlValue:
                a, b = left(env), right(env)
                if a is None or b is None:
                    return None
                if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                    raise SqlError(f"arithmetic on non-numeric values: {a!r} {op} {b!r}")
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                if op == "/":
                    if b == 0:
                        return None  # SQLite: division by zero yields NULL
                    result = a / b
                    return int(result) if isinstance(a, int) and isinstance(b, int) else result
                if b == 0:
                    return None
                return a % b

            return run_arith
        if op == "LIKE":

            def run_like(env: Env) -> SqlValue:
                value, pattern = left(env), right(env)
                if value is None or pattern is None:
                    return None
                if not isinstance(value, str) or not isinstance(pattern, str):
                    return 0
                return int(bool(_like_to_regex(pattern).match(value)))

            return run_like
        raise SqlError(f"unknown binary operator {op}")


# ------------------------------------------------------------------ planning


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def expr_references_bindings(
    expr: ast.Expr, bindings: set[str], compiler: "ExprCompiler"
) -> bool:
    """Whether ``expr`` references a column belonging to any of ``bindings``.

    Unqualified column names are resolved through the compiler so that
    ``age`` counts as a reference to whichever table actually owns it.
    """
    if isinstance(expr, ast.ColumnRef):
        try:
            binding, _position = compiler.resolve_column(expr)
        except SqlError:
            return True  # unresolvable: be conservative
        return binding in bindings
    if isinstance(expr, ast.Unary):
        return expr_references_bindings(expr.operand, bindings, compiler)
    if isinstance(expr, ast.Binary):
        return expr_references_bindings(
            expr.left, bindings, compiler
        ) or expr_references_bindings(expr.right, bindings, compiler)
    if isinstance(expr, ast.IsNull):
        return expr_references_bindings(expr.operand, bindings, compiler)
    if isinstance(expr, ast.InList):
        return expr_references_bindings(expr.operand, bindings, compiler) or any(
            expr_references_bindings(item, bindings, compiler) for item in expr.items
        )
    if isinstance(expr, ast.Between):
        return any(
            expr_references_bindings(e, bindings, compiler)
            for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, ast.Aggregate):
        return expr.argument is not None and expr_references_bindings(
            expr.argument, bindings, compiler
        )
    return False


class AccessPath:
    """How one table binding reaches its rows, given already-bound outer rows.

    ``rows(env)`` is the path's row function, bound at plan time by
    :func:`choose_access_path`: it returns the ``(rowid, values)`` pairs the
    path's conjuncts select, given the outer bindings in ``env``, and is
    called once per outer row with nothing to dispatch on.  It selects
    exactly what the same conjuncts would select as filters: an integral
    float bound is that integer, a fractional one rounds inward, a NULL (or
    NaN) bound selects nothing, every integer sorts below a text or blob
    bound, and a range over an index never selects a NULL key.  ``kind``
    names the path (the row function does not read it):

      - "full": full table scan
      - "rowid-eq": single row by rowid; a tuple of at most one row
      - "rowid-range": rowid range scan (``lo_open`` / ``hi_open`` as written)
      - "index-eq": index equality on the leading column
      - "index-range": index range on the leading column
    """

    __slots__ = ("kind", "rows", "index", "lo_open", "hi_open")

    def __init__(
        self,
        kind: str,
        rows: RowFunction,
        index: Index | None = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> None:
        self.kind = kind
        self.rows = rows
        self.index = index
        self.lo_open = lo_open
        self.hi_open = hi_open


def choose_access_path(
    binding: str,
    store: TableStore,
    conjuncts: list[ast.Expr],
    outer_bindings: set[str],
    compiler: ExprCompiler,
) -> tuple[AccessPath, list[ast.Expr]]:
    """Pick an access path for ``binding`` over ``store``; returns (path, leftover filters).

    A conjunct qualifies if one side is a column of this binding and the
    other side only references *outer* bindings (already bound in the nested
    loop) or constants.
    """
    table = store.table

    def column_of(expr: ast.Expr) -> tuple[str, int | None] | None:
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            resolved = compiler.resolve_column(expr)
        except SqlError:
            return None
        return resolved if resolved[0] == binding else None

    def is_outer_only(expr: ast.Expr) -> bool:
        return not expr_references_bindings(expr, {binding}, compiler)

    rowid_eq = None
    rowid_lo = rowid_hi = None
    rowid_lo_open = rowid_hi_open = False
    index_candidates: dict[int, dict[str, Any]] = {}
    leftovers: list[ast.Expr] = []

    for conjunct in conjuncts:
        handled = False
        if isinstance(conjunct, ast.Binary) and conjunct.op in ("=", "<", "<=", ">", ">="):
            for this_side, other_side, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _flip(conjunct.op)),
            ):
                resolved = column_of(this_side)
                if resolved is None or not is_outer_only(other_side):
                    continue
                _binding, position = resolved
                if position is None:  # rowid
                    if op == "=" and rowid_eq is None:
                        rowid_eq = other_side
                        handled = True
                    elif op in (">", ">=") and rowid_lo is None:
                        rowid_lo, rowid_lo_open = other_side, op == ">"
                        handled = True
                    elif op in ("<", "<=") and rowid_hi is None:
                        rowid_hi, rowid_hi_open = other_side, op == "<"
                        handled = True
                else:
                    column_name = table.columns[position].name
                    index = table.index_on(column_name)
                    if index is not None:
                        slot = index_candidates.setdefault(position, {"index": index})
                        if op == "=" and "eq" not in slot:
                            slot["eq"] = other_side
                            handled = True
                        elif op in (">", ">=") and "lo" not in slot:
                            slot["lo"], slot["lo_open"] = other_side, op == ">"
                            handled = True
                        elif op in ("<", "<=") and "hi" not in slot:
                            slot["hi"], slot["hi_open"] = other_side, op == "<"
                            handled = True
                if handled:
                    break
        if not handled:
            leftovers.append(conjunct)

    def compiled(expr: ast.Expr | None) -> Callable[[Env], SqlValue] | None:
        return None if expr is None else compiler.compile(expr)

    if rowid_eq is not None:
        return AccessPath("rowid-eq", _rowid_eq_rows(store, compiled(rowid_eq))), leftovers
    for slot in index_candidates.values():
        if "eq" in slot:
            index, eq = slot["index"], compiled(slot["eq"])
            return AccessPath("index-eq", _index_eq_rows(store, index, eq), index), leftovers
    if rowid_lo is not None or rowid_hi is not None:
        rows = _rowid_range_rows(
            store, compiled(rowid_lo), compiled(rowid_hi), rowid_lo_open, rowid_hi_open
        )
        return AccessPath("rowid-range", rows, None, rowid_lo_open, rowid_hi_open), leftovers
    for slot in index_candidates.values():
        if "lo" in slot or "hi" in slot:
            index = slot["index"]
            lo_open, hi_open = slot.get("lo_open", False), slot.get("hi_open", False)
            rows = _index_range_rows(
                store, index, compiled(slot.get("lo")), compiled(slot.get("hi")), lo_open, hi_open
            )
            return AccessPath("index-range", rows, index, lo_open, hi_open), leftovers
    scan_rows = store.scan_rows
    return AccessPath("full", lambda env: scan_rows()), leftovers


def _flip(op: str) -> str:
    return {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


# ------------------------------------------------------------- row functions
#
# One builder per path kind.  A bound is evaluated when the row function is
# called, once per outer row; an ``int`` bound (every bound the workloads
# bind) goes straight to the tree, anything else through the rules in the
# ``AccessPath`` docstring.

_NOTHING: tuple = ()  # what a path whose conjuncts select no row returns


def _rowid_eq_rows(store: TableStore, eq: Callable[[Env], SqlValue]) -> RowFunction:
    get_row = store.get_row

    def rows(env: Env) -> tuple[tuple[int, Row], ...]:
        rowid = eq(env)
        if type(rowid) is not int:
            if isinstance(rowid, float) and rowid.is_integer():
                rowid = int(rowid)
            else:
                return _NOTHING
        row = get_row(rowid)
        return _NOTHING if row is None else ((rowid, row),)

    return rows


def _rowid_bound(value: SqlValue, is_open: bool, upper: bool) -> tuple[int | None, bool] | None:
    """``(bound, open)`` for a rowid range, selecting what ``rowid op value``
    does as a filter; ``(None, False)`` when it keeps every rowid, None when it
    keeps none."""
    if isinstance(value, int):
        return int(value), is_open
    if isinstance(value, float):
        if value.is_integer():
            return int(value), is_open
        if math.isnan(value):
            return None
        if math.isinf(value):
            return (None, False) if (value > 0) == upper else None
        return (math.floor(value) if upper else math.ceil(value)), False
    if isinstance(value, (str, bytes)):
        return (None, False) if upper else None  # every integer sorts below text and blobs
    return None  # NULL


def _rowid_range_rows(
    store: TableStore,
    lo: Callable[[Env], SqlValue] | None,
    hi: Callable[[Env], SqlValue] | None,
    lo_open: bool,
    hi_open: bool,
) -> RowFunction:
    scan_rows = store.scan_rows

    def rows(env: Env) -> Iterable[tuple[int, Row]]:
        low = high = None
        low_open, high_open = lo_open, hi_open
        if lo is not None:
            low = lo(env)
            if type(low) is not int:
                bound = _rowid_bound(low, lo_open, upper=False)
                if bound is None:
                    return _NOTHING
                low, low_open = bound
        if hi is not None:
            high = hi(env)
            if type(high) is not int:
                bound = _rowid_bound(high, hi_open, upper=True)
                if bound is None:
                    return _NOTHING
                high, high_open = bound
        return scan_rows(low, high, low_open, high_open)

    return rows


def _index_eq_rows(store: TableStore, index: Index, eq: Callable[[Env], SqlValue]) -> RowFunction:
    index_rows = store.index_rows

    def rows(env: Env) -> Iterable[tuple[int, Row]]:
        value = eq(env)
        if value is None or value != value:  # NULL (or NaN) never matches an equality
            return _NOTHING
        key = (value,)
        return index_rows(index, key, key)

    return rows


_ABOVE_NULLS = (None,)  # with an open bound: past every NULL key of an index


def _index_range_rows(
    store: TableStore,
    index: Index,
    lo: Callable[[Env], SqlValue] | None,
    hi: Callable[[Env], SqlValue] | None,
    lo_open: bool,
    hi_open: bool,
) -> RowFunction:
    index_rows = store.index_rows

    def rows(env: Env) -> Iterable[tuple[int, Row]]:
        low, low_open = _ABOVE_NULLS, True  # no lower bound still excludes NULL
        high = None
        if lo is not None:
            value = lo(env)
            if value is None or value != value:
                return _NOTHING
            low, low_open = (value,), lo_open
        if hi is not None:
            value = hi(env)
            if value is None or value != value:
                return _NOTHING
            high = (value,)
        return index_rows(index, low, high, low_open, hi_open)

    return rows
