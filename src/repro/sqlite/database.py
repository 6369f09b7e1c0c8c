"""The public database connection.

``Connection`` is the SQLite-equivalent entry point: it owns the pager (and
therefore the journal mode), the schema catalog, and statement execution.
Statements run in autocommit mode unless BEGIN opened an explicit
transaction — exactly SQLite's model, which is what makes the per-statement
fsync patterns of the paper's Figure 1 appear.

Statement lifecycle.  Every statement goes prepare -> bind -> run, and there
is no other path.  *Prepare* turns SQL text into a plan: the parsed statement
plus everything that depends only on the text and the schema — the resolved
tables, a ``TableStore`` per table with its index trees and index column
positions, the access path and leftover filters of every nested-loop level,
and one compiled closure per expression (filters, SET assignments, select
list, ORDER BY, aggregate arguments, LIMIT / OFFSET, VALUES).  A plan binds
one row function per access path: the nested loop and the UPDATE / DELETE
match call ``path.rows(env)`` and nothing decides, per call, what kind of
path it is (``repro.sqlite.sql.engine.AccessPath``).  A connection
keeps its plans in one map keyed by the SQL text, at most
``PREPARED_STATEMENTS`` of them, least recently used out first; a text that
misses is prepared and then runs through the same code as one that hits.
*Bind* checks the argument count against the plan's arity and puts the
arguments in the plan's parameter cell, which the closures read when they
run.  It comes before any effect, so a statement given too few arguments
raises with no row touched, and a statement that fails to prepare or bind is
not cached, counted in ``sqlite.statements`` or charged host time.  *Run*
executes the closures; it never parses, resolves a name or compiles.  A plan
holds no reference to its connection: its ``run`` is handed the connection
per call, so the statement cache is no reference cycle and a dropped
connection is freed by refcounting.

A plan is valid for exactly the catalog it was built against: it holds
``Table`` objects and tree roots.  So every plan is dropped whenever the
in-memory catalog is rebuilt or changed — ``_load_schema`` (open and every
rollback path, explicit or autocommit) and every DDL statement; the rule
lives in ``Connection._drop_plans`` and nowhere else.  Preparing touches no
page (stores and trees are handles: a root page number and the page size),
because the order in which pages enter the pager cache decides what it evicts
and spills, which is simulated state: a plan that is warm and a plan that was
just rebuilt must leave every counter identical.  For the same reason running
a plan may drop a page access only where the same pages were just accessed in
the same order with nothing in between (``repro.sqlite.table``);
``tests/test_sql_access_order.py`` pins that order on a cache that evicts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from repro.errors import DatabaseError, PowerFailure, SchemaError, SqlError
from repro.fs.ext4 import Ext4
from repro.sqlite.btree import BTree, page_from_image
from repro.sqlite.pager import Pager, SqliteJournalMode
from repro.sqlite.records import SqlValue, key_sort_tuple
from repro.sqlite.schema import CATALOG_ROOT_PNO, Catalog, Column, Index, Table
from repro.sqlite.sql import ast, parse
from repro.sqlite.sql.engine import (
    AccessPath,
    Env,
    ExprCompiler,
    Parameters,
    choose_access_path,
    expr_references_bindings,
    split_conjuncts,
    sql_truth,
)
from repro.sqlite.table import TableStore

Row = tuple[SqlValue, ...]

#: How many prepared statements a connection keeps (least recently used out).
PREPARED_STATEMENTS = 512

_NO_ROW: Env = {}  # what an expression over no table (VALUES, LIMIT) is evaluated against


class _Scan:
    """One nested-loop level: a binding, how to reach its rows, which to keep."""

    __slots__ = ("binding", "store", "path", "filters")

    def __init__(
        self, binding: str, store: TableStore, path: AccessPath, filters: list[Callable]
    ) -> None:
        self.binding = binding
        self.store = store
        self.path = path
        self.filters = filters


class _Plan:
    """A prepared statement (module docstring, "Statement lifecycle")."""

    __slots__ = ("run", "params", "writes", "scans")

    def __init__(
        self,
        # run(connection): rows for SELECT and transaction control
        run: Callable[[Connection], list[Row] | None],
        params: Parameters | None = None,
        writes: bool = False,
        scans: Sequence[_Scan] = (),
    ) -> None:
        self.run = run
        self.params = Parameters() if params is None else params
        self.writes = writes  # runs inside the explicit or an autocommit transaction
        self.scans = scans  # the nested-loop levels, outermost first


@dataclass
class StatementCounts:
    """Statements every connection of one stack ran (``obs.shared``)."""

    OBS_NAMES: ClassVar[dict[str, str]] = {"sqlite.statements": "statements"}

    statements: int = 0


class Connection:
    """One connection to one database file (SQLite is serverless, §2.1)."""

    def __init__(
        self,
        fs: Ext4,
        name: str,
        journal_mode: SqliteJournalMode = SqliteJournalMode.ROLLBACK,
        cache_pages: int = 512,
        checkpoint_interval: int = 1000,
        session=None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.journal_mode = journal_mode
        self.session = session  # owning Session, if any (concurrency runs)
        existed = fs.exists(name)
        self.pager = Pager(
            fs,
            name,
            journal_mode,
            page_decoder=page_from_image,
            cache_pages=cache_pages,
            checkpoint_interval=checkpoint_interval,
            session=session,
        )
        self.last_recovery_us = self.pager.last_recovery_us
        self.counts: StatementCounts = fs.obs.shared(StatementCounts)
        self._explicit_txn = False
        # Staged commits (OFF mode): with defer_commits set, COMMIT stages
        # the transaction for a SessionScheduler's group commit (inert in
        # every other mode); begin_with_txn joins a MultiFileTransaction.
        # Either coordinator settles it on the device, then finish_commit().
        self.defer_commits = False
        self.staged_txn = None  # the context a deferred COMMIT staged
        self._joined = False  # only the multi-file coordinator settles
        self._prepared: OrderedDict[str, _Plan] = OrderedDict()
        self._profile = fs.device.profile
        self._clock = fs.device.clock
        if existed:
            self.catalog = Catalog(self.pager)
            self._load_schema()
        else:
            self._begin_internal()
            try:
                self.catalog = Catalog.bootstrap(self.pager)
                self._commit_internal()
            except PowerFailure:
                raise  # machine is down: no in-process rollback is possible
            except BaseException:
                if self.pager.in_txn:
                    self.pager.rollback()
                raise

    # ------------------------------------------------------------- txn API

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit BEGIN is open."""
        return self._explicit_txn

    def begin(self) -> None:
        """Start an explicit transaction (equivalent to executing BEGIN)."""
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        self.pager.begin()
        self._explicit_txn = True

    def begin_snapshot(self, snapshot_seq: int | None = None) -> int:
        """Start a read-only snapshot transaction (``BEGIN SNAPSHOT``).

        Pins the device's current commit-sequence epoch (or an explicit
        historical ``snapshot_seq``) and resolves every read through the
        X-FTL's retained version chains at that epoch until COMMIT or
        ROLLBACK ends the transaction.  OFF journal mode only — versioned
        reads live in the transactional FTL.  Returns the pinned sequence.
        """
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        seq = self.pager.begin_snapshot(snapshot_seq)
        self._explicit_txn = True
        return seq

    def read_as_of(self, snapshot_seq: int):
        """Context manager running a block inside an AS-OF snapshot::

            with conn.read_as_of(seq):
                rows = conn.execute("SELECT ...")

        The snapshot transaction commits (read-only bookkeeping) on normal
        exit and rolls back if the block raises.
        """
        return _AsOfRead(self, snapshot_seq)

    @property
    def snapshot_seq(self) -> int | None:
        """The pinned epoch of the open snapshot transaction, if any."""
        return self.pager.snapshot_seq

    def begin_with_txn(self, txn) -> None:
        """Join a shared device transaction (multi-file commit, §4.3).

        ``txn`` is the :class:`~repro.stack.txn.TransactionContext` minted
        by ``fs.txn_manager.begin()``.  Only OFF mode takes one; there a raw
        integer tid raises :class:`~repro.errors.TransactionError` here,
        before any statement runs under it.  From then on only the
        coordinator settles the transaction: this connection's own COMMIT
        and ROLLBACK raise.
        """
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        self.pager.begin(txn=txn)
        self._explicit_txn = True
        self._joined = True

    @property
    def pending_commit(self) -> bool:
        """Whether a deferred COMMIT is staged, awaiting its group."""
        return self.staged_txn is not None

    def _check_settle(self, verb: str) -> None:
        """Raise unless this connection may settle its transaction itself."""
        if not self._explicit_txn:
            raise DatabaseError("no transaction is active")
        if self._joined:
            raise DatabaseError(
                f"the transaction on {self.name!r} belongs to a MultiFileTransaction: "
                f"{verb} it through the coordinator"
            )
        if self.staged_txn is not None:
            raise DatabaseError(f"cannot {verb} a staged commit")

    def commit(self) -> None:
        """Commit the explicit transaction.

        With :attr:`defer_commits` set (OFF mode), the transaction is
        *staged* instead: its pages land on the device tagged
        (``Ext4.stage_tx``), and the session scheduler's group sweep
        commits the batch and calls :meth:`finish_commit`.
        """
        self._check_settle("commit")
        if self.defer_commits and self.journal_mode is SqliteJournalMode.OFF:
            txn = self.pager.stage_commit()
            if txn is None:
                self.finish_commit()  # read-only: nothing for the device to settle
            else:
                self.fs.stage_tx(self.pager.file, txn)
                self.staged_txn = txn
            return
        # Commit latency feeds the per-tenant p99 accounting; reading the
        # clock costs nothing.
        commit_started_us = self._clock.now_us
        self.pager.commit()
        self._explicit_txn = False
        if self.session is not None:
            self.session.note_commit(self._clock.now_us - commit_started_us)

    def finish_commit(self) -> None:
        """Close a staged transaction once its coordinator's device step made
        it durable: the finishing step of group and multi-file commits."""
        self.pager.finish_commit()
        self.staged_txn = None
        self._explicit_txn = False
        self._joined = False

    def rollback(self) -> None:
        """Roll back the explicit transaction (DDL included)."""
        self._check_settle("roll back")
        self.finish_rollback()

    def finish_rollback(self) -> None:
        """Drop the transaction's changes and close it: :meth:`rollback`'s
        step, which a multi-file coordinator takes after its one device
        abort (the pager then issues none)."""
        self.pager.rollback()
        self._explicit_txn = False
        self._joined = False
        if self.session is not None:
            self.session.note_rollback()
        self._load_schema()  # DDL in the aborted txn must be forgotten

    def _begin_internal(self) -> None:
        if not self.pager.in_txn:
            self.pager.begin()

    def _commit_internal(self) -> None:
        if self.pager.in_txn and not self._explicit_txn:
            self.pager.commit()

    # ------------------------------------------------------------ execution

    def execute(self, sql: str, params: Sequence[SqlValue] = ()) -> list[Row]:
        """Execute one statement; SELECT returns rows, DML returns []."""
        prepared = self._prepared
        plan = prepared.get(sql)
        if plan is None:
            plan = self._prepare(sql)
        # Prepare and bind come before the cache, the count and the clock: a
        # statement that fails either changes none of them.
        plan.params.bind(params)
        prepared[sql] = plan
        prepared.move_to_end(sql)
        if len(prepared) > PREPARED_STATEMENTS:
            prepared.popitem(last=False)
        self.counts.statements += 1
        self._clock.advance(self._profile.host_cpu_statement_us)
        if not plan.writes:
            return plan.run(self)
        if self.staged_txn is not None:  # its pages are already on the device
            raise DatabaseError("cannot write while a commit is staged")

        # Writes: run inside the explicit txn or an autocommit txn.
        self._begin_internal()
        try:
            plan.run(self)
        except PowerFailure:
            raise  # machine is down: no in-process rollback is possible
        except BaseException:
            if self.pager.in_txn and not self._explicit_txn:
                self.pager.rollback()
                self._load_schema()
            raise
        self._commit_internal()
        return []

    def close(self) -> None:
        """Close the connection, rolling back any open transaction."""
        if self._explicit_txn:
            self.rollback()

    # ------------------------------------------------------------- schema

    def _drop_plans(self) -> None:
        """The invalidation rule: a plan does not outlive the catalog it was built against."""
        self._prepared.clear()

    def _load_schema(self) -> None:
        self._drop_plans()
        self.catalog.tables = {}
        index_rows = []
        for kind, name, tbl_name, root, sql in self.catalog.entries():
            if kind == "table":
                statement = parse(sql)
                assert isinstance(statement, ast.CreateTable)
                columns = [
                    Column(c.name, c.type, primary_key=c.primary_key)
                    for c in statement.columns
                ]
                self.catalog.register_table(
                    Table(name=name, columns=columns, root_pno=root, sql=sql)
                )
            else:
                index_rows.append((name, tbl_name, root, sql))
        for name, tbl_name, root, sql in index_rows:
            statement = parse(sql)
            assert isinstance(statement, ast.CreateIndex)
            self.catalog.register_index(
                Index(
                    name=name,
                    table_name=tbl_name,
                    columns=statement.columns,
                    root_pno=root,
                    unique=statement.unique,
                    sql=sql,
                )
            )
        self.catalog.sync_next_rowid()

    def _run_create_table(self, statement: ast.CreateTable) -> None:
        if statement.name in self.catalog.tables:
            if statement.if_not_exists:
                return
            raise SchemaError(f"table {statement.name!r} already exists")
        tree = BTree.create(self.pager)
        columns = [
            Column(c.name, c.type, primary_key=c.primary_key) for c in statement.columns
        ]
        table = Table(
            name=statement.name, columns=columns, root_pno=tree.root_pno, sql=statement.sql
        )
        self.catalog.register_table(table)
        self.catalog.persist_entry(
            "table", statement.name, statement.name, tree.root_pno, statement.sql
        )
        # A non-INTEGER PRIMARY KEY is enforced through an automatic
        # unique index (SQLite does the same).
        pk = table.explicit_pk
        if pk is not None:
            auto_name = f"sqlite_autoindex_{statement.name}_1"
            auto_sql = (
                f"CREATE UNIQUE INDEX {auto_name} "
                f"ON {statement.name} ({table.columns[pk].name})"
            )
            self._create_index_object(
                auto_name, statement.name, [table.columns[pk].name], True, auto_sql
            )

    def _run_create_index(self, statement: ast.CreateIndex) -> None:
        for table in self.catalog.tables.values():
            for index in table.indexes:
                if index.name == statement.name:
                    if statement.if_not_exists:
                        return
                    raise SchemaError(f"index {statement.name!r} already exists")
        self._create_index_object(
            statement.name, statement.table, statement.columns, statement.unique, statement.sql
        )

    def _create_index_object(
        self, name: str, table_name: str, columns: list[str], unique: bool, sql: str
    ) -> None:
        table = self.catalog.get_table(table_name)
        for column in columns:
            table.column_index(column)  # validate
        tree = BTree.create(self.pager)
        index = Index(
            name=name,
            table_name=table_name,
            columns=columns,
            root_pno=tree.root_pno,
            unique=unique,
            sql=sql,
        )
        self.catalog.register_index(index)
        self.catalog.persist_entry("index", name, table_name, tree.root_pno, sql)
        # Populate from existing rows.
        store = TableStore(table, self.pager)
        for rowid, values in store.scan_rows():
            key = tuple(values[table.column_index(c)] for c in columns) + (rowid,)
            tree.insert(key, b"")

    def _run_drop_table(self, statement: ast.DropTable) -> None:
        if statement.name not in self.catalog.tables and statement.if_exists:
            return
        table = self.catalog.forget_table(statement.name)
        names = {statement.name} | {index.name for index in table.indexes}
        for index in table.indexes:
            BTree(self.pager, index.root_pno).drop()
        BTree(self.pager, table.root_pno).drop()
        self.catalog.remove_entries(names)

    def _run_drop_index(self, statement: ast.DropIndex) -> None:
        try:
            index = self.catalog.forget_index(statement.name)
        except SchemaError:
            if statement.if_exists:
                return
            raise
        BTree(self.pager, index.root_pno).drop()
        self.catalog.remove_entries({statement.name})

    # ------------------------------------------------------------- prepare

    def _prepare(self, sql: str) -> _Plan:
        """Parse ``sql`` and plan it against the current catalog; touches no page."""
        statement = parse(sql)
        if isinstance(statement, ast.Select):
            return self._plan_select(statement)
        if isinstance(statement, ast.Insert):
            return self._plan_insert(statement)
        if isinstance(statement, ast.Update):
            return self._plan_update(statement)
        if isinstance(statement, ast.Delete):
            return self._plan_delete(statement)
        if isinstance(statement, ast.Begin):
            return self._plan_txn(
                Connection.begin_snapshot if statement.snapshot else Connection.begin
            )
        if isinstance(statement, ast.Commit):
            return self._plan_txn(Connection.commit)
        if isinstance(statement, ast.Rollback):
            return self._plan_txn(Connection.rollback)
        for node, runner in (
            (ast.CreateTable, Connection._run_create_table),
            (ast.CreateIndex, Connection._run_create_index),
            (ast.DropTable, Connection._run_drop_table),
            (ast.DropIndex, Connection._run_drop_index),
        ):
            if isinstance(statement, node):
                return _Plan(lambda connection: connection._run_ddl(runner, statement), writes=True)
        raise SqlError(f"unsupported statement type {type(statement).__name__}")

    @staticmethod
    def _plan_txn(action: Callable[[Connection], object]) -> _Plan:
        def run(connection: Connection) -> list[Row]:
            action(connection)
            return []

        return _Plan(run)

    def _run_ddl(
        self, runner: Callable[[Connection, ast.Statement], None], statement: ast.Statement
    ) -> None:
        self._drop_plans()
        runner(self, statement)

    def _plan_scan(
        self,
        binding: str,
        table: Table,
        conjuncts: list[ast.Expr],
        outer: set[str],
        compiler: ExprCompiler,
    ) -> _Scan:
        store = TableStore(table, self.pager)
        path, leftovers = choose_access_path(binding, store, conjuncts, outer, compiler)
        filters = [compiler.compile(c) for c in leftovers]
        return _Scan(binding, store, path, filters)

    # ---------------------------------------------------------------- DML

    def _plan_insert(self, statement: ast.Insert) -> _Plan:
        table = self.catalog.get_table(statement.table)
        params = Parameters()
        compiler = ExprCompiler([], params)
        if statement.columns is not None:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(table.columns)))
        rows = []
        for row_exprs in statement.rows:
            if len(row_exprs) != len(positions):
                raise SqlError(
                    f"{len(positions)} columns but {len(row_exprs)} values supplied"
                )
            rows.append(
                [(position, compiler.compile(expr)) for position, expr in zip(positions, row_exprs)]
            )
        store = TableStore(table, self.pager)
        width = len(table.columns)
        return _Plan(
            lambda _connection: Connection._run_insert(store, width, rows), params, writes=True
        )

    @staticmethod
    def _run_insert(store: TableStore, width: int, rows: list[list[tuple[int, Callable]]]) -> None:
        for row in rows:
            values: list[SqlValue] = [None] * width
            for position, compute in row:
                values[position] = compute(_NO_ROW)
            store.insert_row(tuple(values))

    def _plan_match(
        self, table_name: str, where: ast.Expr | None
    ) -> tuple[Table, ExprCompiler, _Scan]:
        """The one scan of an UPDATE / DELETE, its binding the table's own name."""
        table = self.catalog.get_table(table_name)
        compiler = ExprCompiler([(table_name, table)], Parameters())
        scan = self._plan_scan(table_name, table, split_conjuncts(where), set(), compiler)
        return table, compiler, scan

    def _plan_update(self, statement: ast.Update) -> _Plan:
        table, compiler, scan = self._plan_match(statement.table, statement.where)
        assignments = [
            (table.column_index(column), compiler.compile(expr))
            for column, expr in statement.assignments
        ]
        # Only an index over an assigned column can change: the rest are
        # left alone row by row.
        indexes = scan.store.indexes_over([position for position, _ in assignments])
        return _Plan(
            lambda connection: connection._run_update(scan, assignments, indexes),
            compiler.params,
            writes=True,
            scans=[scan],
        )

    def _run_update(
        self, scan: _Scan, assignments: list[tuple[int, Callable]], indexes: list
    ) -> None:
        store, binding = scan.store, scan.binding
        for rowid, values in self._match_rows(scan):
            env: Env = {binding: (rowid, values)}
            new_values = list(values)
            for position, compute in assignments:
                new_values[position] = compute(env)
            store.update_row(rowid, values, tuple(new_values), indexes)

    def _plan_delete(self, statement: ast.Delete) -> _Plan:
        _table, compiler, scan = self._plan_match(statement.table, statement.where)
        return _Plan(
            lambda connection: connection._run_delete(scan),
            compiler.params,
            writes=True,
            scans=[scan],
        )

    def _run_delete(self, scan: _Scan) -> None:
        store = scan.store
        for rowid, values in self._match_rows(scan):
            store.delete_row(rowid, values)

    def _match_rows(self, scan: _Scan) -> list[tuple[int, Row]]:
        """Materialize (rowid, values) matching WHERE (safe to mutate after)."""
        binding, filters = scan.binding, scan.filters
        advance, row_cpu_us = self._clock.advance, self._profile.host_cpu_row_us
        matches = []
        for row in scan.path.rows(_NO_ROW):
            advance(row_cpu_us)
            if filters:
                env: Env = {binding: row}
                for keep in filters:
                    if not sql_truth(keep(env)):
                        break
                else:
                    matches.append(row)
            else:
                matches.append(row)
        return matches

    # -------------------------------------------------------------- SELECT

    def _plan_select(self, statement: ast.Select) -> _Plan:
        params = Parameters()
        if statement.source is None:
            # Expression-only SELECT (e.g. SELECT 1+1).
            compiler = ExprCompiler([], params)
            items = [compiler.compile(item.expr) for item in statement.items if item.expr]
            return _Plan(lambda _connection: [tuple(item(_NO_ROW) for item in items)], params)

        refs = [statement.source] + [join.table for join in statement.joins]
        bindings = [(ref.binding, self.catalog.get_table(ref.name)) for ref in refs]
        compiler = ExprCompiler(bindings, params)

        # Collect all conjuncts (WHERE + ON) and assign each to the first
        # nested-loop level at which every referenced binding is available.
        conjuncts = split_conjuncts(statement.where)
        for join in statement.joins:
            conjuncts.extend(split_conjuncts(join.on))

        scans: list[_Scan] = []
        remaining = list(conjuncts)
        every = {binding for binding, _table in bindings}
        outer: set[str] = set()
        for binding, table in bindings:
            available = outer | {binding}
            here = [
                c
                for c in remaining
                if not expr_references_bindings(c, every - available, compiler)
            ]
            remaining = [c for c in remaining if c not in here]
            scans.append(self._plan_scan(binding, table, here, outer, compiler))
            outer = available
        if remaining:
            raise SqlError("could not place WHERE condition in join plan")

        # Projection / aggregates.
        aggregates = projectors = None
        order_by: list[tuple[Callable, bool]] = []
        if any(
            item.expr is not None and _contains_aggregate(item.expr)
            for item in statement.items
        ):
            aggregates = [_compile_aggregate(item.expr, compiler) for item in statement.items]
        else:
            projectors = self._build_projectors(statement.items, bindings, compiler)
            order_by = [
                (compiler.compile(item.expr), item.descending) for item in statement.order_by
            ]
        constants = ExprCompiler([], params)  # LIMIT / OFFSET see no column
        offset = constants.compile(statement.offset) if statement.offset else None
        limit = constants.compile(statement.limit) if statement.limit else None
        distinct = statement.distinct

        def run(connection: Connection) -> list[Row]:
            return connection._run_select(
                scans, aggregates, projectors, order_by, distinct, offset, limit
            )

        return _Plan(run, params, scans=scans)

    def _run_select(
        self,
        scans: list[_Scan],
        aggregates: list[Callable] | None,
        projectors: list[Callable] | None,
        order_by: list[tuple[Callable, bool]],
        distinct: bool,
        offset: Callable | None,
        limit: Callable | None,
    ) -> list[Row]:
        envs: list[Env] = []
        self._nested_loop(scans, 0, {}, envs)
        if aggregates is not None:
            rows = [tuple([fold(envs) for fold in aggregates])]
        else:
            rows = []
            order_keys = []
            for env in envs:
                rows.append(tuple([project(env) for project in projectors]))
                if order_by:
                    order_keys.append(
                        tuple([_order_key(compute(env), desc) for compute, desc in order_by])
                    )
            if order_by:
                paired = sorted(zip(order_keys, range(len(rows))), key=lambda p: p[0])
                rows = [rows[i] for _key, i in paired]
        if distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows
        # SQLite: a negative OFFSET skips nothing, a negative LIMIT keeps everything.
        skip = _row_count(offset) if offset else 0
        keep = _row_count(limit) if limit else -1
        if skip > 0:
            rows = rows[skip:]
        if keep >= 0:
            rows = rows[:keep]
        return rows

    def _nested_loop(self, scans: list[_Scan], depth: int, env: Env, out: list[Env]) -> None:
        """Inner-most-last nested-loop join; appends completed environments to ``out``.

        The innermost level appends a copy of ``env`` per kept row itself, so
        there is one frame per level and outer row, not one per result.
        """
        scan = scans[depth]
        binding, filters = scan.binding, scan.filters
        advance, row_cpu_us = self._clock.advance, self._profile.host_cpu_row_us
        innermost = depth == len(scans) - 1
        for row in scan.path.rows(env):
            advance(row_cpu_us)
            env[binding] = row
            for keep in filters:
                if not sql_truth(keep(env)):
                    break
            else:
                if innermost:
                    out.append(dict(env))
                else:
                    self._nested_loop(scans, depth + 1, env, out)
        env.pop(binding, None)

    def _build_projectors(self, items, bindings, compiler):
        projectors = []
        for item in items:
            if item.expr is None:
                star_bindings = (
                    [(b, t) for b, t in bindings if b == item.star_table]
                    if item.star_table
                    else bindings
                )
                if item.star_table and not star_bindings:
                    raise SqlError(f"no such table in select list: {item.star_table}")
                for binding, table in star_bindings:
                    for position in range(len(table.columns)):
                        projectors.append(
                            lambda env, b=binding, p=position: env[b][1][p]
                        )
            else:
                projectors.append(compiler.compile(item.expr))
        return projectors


def _compile_aggregate(
    expr: ast.Expr | None, compiler: ExprCompiler
) -> Callable[[list[Env]], SqlValue]:
    """Compile one item of an aggregate SELECT into a fold over the joined rows."""
    if expr is None:
        raise SqlError("cannot mix '*' with aggregates")
    if isinstance(expr, ast.Aggregate):
        func, distinct = expr.func, expr.distinct
        if expr.argument is None:
            if func != "COUNT":
                raise SqlError(f"{func}(*) is not valid")
            return len
        compute = compiler.compile(expr.argument)

        def fold(envs: list[Env]) -> SqlValue:
            values = [compute(env) for env in envs]
            values = [v for v in values if v is not None]
            if distinct:
                values = list(dict.fromkeys(values))
            if func == "COUNT":
                return len(values)
            if not values:
                return None
            if func == "SUM":
                return sum(values)
            if func == "MIN":
                return min(values, key=lambda v: key_sort_tuple((v,)))
            if func == "MAX":
                return max(values, key=lambda v: key_sort_tuple((v,)))
            if func == "AVG":
                return sum(values) / len(values)
            raise SqlError(f"unknown aggregate {func}")

        return fold
    if isinstance(expr, ast.Binary):
        return ExprCompiler.binary(
            expr.op,
            _compile_aggregate(expr.left, compiler),
            _compile_aggregate(expr.right, compiler),
        )
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda envs: value
    raise SqlError("non-aggregate expression in aggregate SELECT")


def _row_count(compute: Callable[[Env], SqlValue]) -> int:
    value = compute(_NO_ROW)
    if not isinstance(value, int):
        raise SqlError("LIMIT/OFFSET must be integers")
    return value


class _AsOfRead:
    """Context manager behind :meth:`Connection.read_as_of`."""

    __slots__ = ("conn", "snapshot_seq")

    def __init__(self, conn: Connection, snapshot_seq: int) -> None:
        self.conn = conn
        self.snapshot_seq = snapshot_seq

    def __enter__(self) -> Connection:
        self.conn.begin_snapshot(self.snapshot_seq)
        return self.conn

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if self.conn.in_transaction:
            if exc_type is None:
                self.conn.commit()
            else:
                self.conn.rollback()
        return False


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    return False


def _order_key(value: SqlValue, descending: bool) -> tuple:
    key = key_sort_tuple((value,))
    if descending:
        return (_Reversed(key),)
    return (key,)


class _Reversed:
    """Wrapper inverting comparison order (for ORDER BY ... DESC)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key
