"""What a simplification deleted stays deleted: one table of guards.

Each row names a thing that was merged away or deleted, why, and one check
that fails if it comes back: a text pattern over the source files it covers,
or, where a rename could dodge a pattern, a structural check on the live
objects (their attributes and types, or an ``ast`` walk).  A pattern row
carries a planted line, a reintroduction the pattern must match, and names
files that exist, so a pattern that can no longer fire fails here too.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from array import array
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import repro.sim.interleave as interleave_module
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.device.queue import CommandQueue
from repro.device.ssd import StorageDevice
from repro.flash import FlashChip, FlashGeometry
from repro.flash.stats import FlashStats
from repro.fs.ext4 import Ext4
from repro.fs.journal import Jbd2Journal
from repro.fs.pagecache import CachedPage, PageCache
from repro.ftl import XFTL, pagemap
from repro.ftl.base import FtlConfig
from repro.ftl.cmt import CachedMappingTable
from repro.ftl.gc import Collector
from repro.ftl.pagemap import PageMappingFTL
from repro.sqlite import btree, records, table
from repro.sqlite.database import Connection
from repro.sqlite.multifile import MultiFileTransaction
from repro.sqlite.pager import OffPager, Pager, RollbackPager, WalPager
from repro.sqlite.sql import engine
from repro.stack import (
    BenchStack,
    Mode,
    Session,
    SessionScheduler,
    StackConfig,
    Tenant,
    TenantScheduler,
    TxnManager,
    build_stack,
)
from repro.tenancy import TenantRegistry

ROOT = Path(__file__).resolve().parents[1]


def _files(path: str) -> list[Path]:
    """The ``.py`` files a path from the repository root names (a file, a
    directory or a glob); this file, which holds the patterns, is left out."""
    found = []
    for match in sorted(ROOT.glob(path)):
        found += sorted(match.rglob("*.py")) if match.is_dir() else [match]
    return [file for file in found if file.suffix == ".py" and file != Path(__file__).resolve()]


def _lines(file: Path, within: str = "") -> list[tuple[int, str]]:
    """``file``'s numbered lines; with ``within`` (``"Class.method"``), only
    that method's (none when the file defines no such method)."""
    text = file.read_text()
    numbered = list(enumerate(text.splitlines(), 1))
    if not within:
        return numbered
    cls, method = within.split(".")
    for node in ast.parse(text).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return numbered[item.lineno - 1 : item.end_lineno]
    return []


def _grep(regex: str, paths: tuple[str, ...], within: str = "") -> list[str]:
    return [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for file in _files(path)
        for number, line in _lines(file, within)
        if re.search(regex, line)
    ]


class Pattern(NamedTuple):
    """No line of a ``.py`` file that ``paths`` name (see ``_files``) matches ``regex``."""

    name: str
    why: str
    regex: str
    planted: str  # a reintroduction the regex must match
    paths: tuple[str, ...] = ("src",)
    within: str = ""  # "Class.method": scan that method's lines alone


class Structure(NamedTuple):
    """``check()`` lists what came back; empty when nothing did."""

    name: str
    why: str
    check: Callable[[], list[str]]


def _tree(function) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


def _called(node: ast.AST) -> list[str]:
    """The names of what ``node`` calls (``f(...)`` or ``x.f(...)``), once per call."""
    return [
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    ]


def _absent(owner, *names: str) -> list[str]:
    label = getattr(owner, "__name__", type(owner).__name__)
    return [f"{label}.{name}" for name in names if hasattr(owner, name)]


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


def _commit_paths():
    """(label, ast) of each pager class's own commit, rollback and staged commit."""
    for cls in (Pager, RollbackPager, WalPager, OffPager):
        for name in ("commit", "rollback", "stage_commit"):
            if name in vars(cls):
                yield f"{cls.__name__}.{name}", _tree(vars(cls)[name])


def _commit_cache_scans() -> list[str]:
    """No commit path loops over the pager cache or the dirty set: each costs
    what the transaction touched."""
    return [
        f"{label}: for ... in {ast.unparse(node.iter)}"
        for label, tree in _commit_paths()
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and {a.attr for a in ast.walk(node.iter) if isinstance(a, ast.Attribute)}
        & {"_cache", "_dirty", "dirty"}
    ]


def _one_dirty_page_helper() -> list[str]:
    """Each path that writes or drops the dirty pages reaches them through
    ``Pager._dirty_pages`` once, and no other path names it."""
    uses = {
        label: sum(isinstance(node, ast.Attribute) and node.attr == "_dirty_pages"
                   for node in ast.walk(tree))
        for label, tree in _commit_paths()
    }
    wanted = {
        "Pager.commit": 1,
        "Pager.rollback": 1,
        "Pager.stage_commit": 0,  # raises: OFF mode only
        "OffPager.commit": 0,  # snapshot end, else Pager.commit
        "OffPager.rollback": 0,
        "OffPager.stage_commit": 1,
    }
    return [] if uses == wanted else [f"_dirty_pages uses {uses}"]


def _flat_sort_keys() -> list[str]:
    """A sort key is one flat tuple of scalars, two items per element."""
    key = records.key_sort_tuple((1, "a", None))
    return [] if key == (1, 1, 2, "a", 0, 0) else [f"key_sort_tuple((1, 'a', None)) = {key!r}"]


def _indexed_db():
    """A committed table with an index past one leaf and one spilled row, and
    the table's store."""
    stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=32))
    db = stack.open_database("guard.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("BEGIN")
    for i in range(1, 401):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i % 7, "p" * 40))
    db.execute("INSERT INTO t VALUES (?, ?, ?)", (401, 0, "s" * 3 * stack.device.page_size))
    db.execute("COMMIT")
    db.execute("SELECT * FROM t WHERE v = 1")
    return stack, db, db._prepared["SELECT * FROM t WHERE v = 1"].scans[0].store


def _leaves(pager, pno: int):
    page = pager.get(pno)
    if isinstance(page, btree.InteriorPage):
        for child in page.children:
            yield from _leaves(pager, child)
    else:
        yield page


def _shared_index_cell() -> list[str]:
    """Every cell of an index leaf is ``btree.INDEX_CELL`` itself."""
    _stack, db, store = _indexed_db()
    (tree,) = store._index_trees.values()
    leaves = list(_leaves(db.pager, tree.root_pno))
    own = sum(cell is not btree.INDEX_CELL for leaf in leaves for cell in leaf.cells)
    return [f"{own} index cells are not INDEX_CELL"] if own or len(leaves) < 2 else []


def _slotted_pages() -> list[str]:
    """No B-tree page object and no fs page-cache slot carries a ``__dict__``."""
    stack, db, _store = _indexed_db()
    kinds = (btree.LeafPage, btree.InteriorPage, btree.OverflowPage, CachedPage)
    pages = [page for page in db.pager._cache.values() if isinstance(page, kinds)]
    pages += stack.fs.cache._pages.values()
    seen = {type(page) for page in pages}
    missing = [f"no {kind.__name__} seen" for kind in kinds if kind not in seen]
    return missing + sorted({type(page).__name__ for page in pages if hasattr(page, "__dict__")})


def _table_store_encodes() -> list[str]:
    """The row store hands the B-tree rows, not records."""
    found = _absent(table, "encode_record")
    if "encode_record" in _called(_tree(table.TableStore)):
        found.append("TableStore calls encode_record")
    return found


def _ftl() -> XFTL:
    return XFTL(FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=16)))


def _holds(owner, prefix: str, **wanted: str) -> list[str]:
    """``owner``'s ``prefix`` attributes, by type or array typecode, are exactly ``wanted``."""
    held = {name: getattr(value, "typecode", type(value).__name__)
            for name, value in vars(owner).items() if name.startswith(prefix)}
    return [] if held == wanted else [f"{type(owner).__name__} holds {held}"]


def _byte_codes(*prefixes: str) -> list[str]:
    """Every ``pagemap`` constant named with a prefix is an int that fits a byte."""
    return [f"pagemap.{name} = {value!r}" for name, value in vars(pagemap).items()
            if name.startswith(prefixes) and not (type(value) is int and 0 <= value < 256)]


def _reads_l2p(node: ast.AST) -> bool:
    return any(getattr(n, "id", getattr(n, "attr", "")) in ("l2p", "_l2p") for n in ast.walk(node))


def _l2p_tested_none() -> list[str]:
    """No value read from an L2P (by index, slice or loop) is tested ``is None``."""
    found = set()
    for file in _files("src"):
        functions = ast.walk(ast.parse(file.read_text()))
        for function in (node for node in functions if isinstance(node, ast.FunctionDef)):
            reads = set()  # the names this function binds from an L2P
            for node in ast.walk(function):
                source = node.value if isinstance(node, ast.Assign) else getattr(node, "iter", None)
                if source is not None and _reads_l2p(source):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    reads |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            found |= {
                f"{file.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
                for node in ast.walk(function)
                if isinstance(node, ast.Compare)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and getattr(node.comparators[0], "value", 0) is None
                and (getattr(node.left, "id", None) in reads or _reads_l2p(node.left))
            }
    return sorted(found)


def _one_builder_each() -> list[str]:
    """The bench experiments call ``build_stack`` once and ``build_ftl`` once."""
    calls = Counter(_called(ast.parse((ROOT / "src/repro/bench/experiments.py").read_text())))
    found = [f"{calls[c]} x {c}(" for c in ("build_stack", "build_ftl") if calls[c] != 1]
    return found + _grep("extras", ("src/repro/bench/experiments.py",))


def _interleave_module() -> list[str]:
    """The module holds ``Park``, ``QUANTUM_US`` and one loop, and no second loop."""
    module = interleave_module.__name__
    defined = {name for name, value in vars(interleave_module).items()
               if not name.startswith("_") and getattr(value, "__module__", module) == module}
    found = sorted(defined ^ {"Park", "interleave", "QUANTUM_US"})
    return found + _absent(interleave_module, "RoundRobinInterleaver")


def _scheduler_knobs() -> list[str]:
    """Neither scheduler takes a batch cap or a quantum, or keeps a loop of its own."""
    found = [
        f"{function.__qualname__}{params}"
        for function, wanted in (
            (SessionScheduler.__init__, ["stack", "group_commit"]),
            (TenantScheduler.__init__, ["stack", "fairness", "group_commit"]),
            (SessionScheduler.run, ["tasks"]),
            (TenantScheduler.run, []),
        )
        if (params := list(inspect.signature(function).parameters)[1:]) != wanted
    ]
    knobs = ("_interleaver", "_run_deficit", "max_group", "quantum_us")
    return found + _absent(TenantScheduler, *knobs)


def _one_finish_method() -> list[str]:
    """Both commit coordinators finish a participant through one ``Connection`` method."""
    methods = {name for name, value in vars(Connection).items() if callable(value)}
    return [
        f"{function.__qualname__} calls Connection.{sorted(calls)}"
        for function in (SessionScheduler._commit_batch, MultiFileTransaction.commit)
        if (calls := methods.intersection(_called(_tree(function)))) != {"finish_commit"}
    ]


#: The layers under the SQL connection, where every command runs.
_LAYERS = tuple(f"src/repro/{layer}" for layer in ("device", "flash", "fs", "ftl", "sqlite"))
#: ... and the sessions, tenants and transaction managers above them.
_STACK = (*_LAYERS, "src/repro/stack", "src/repro/tenancy.py")

#: Classes of the machine a registry must never keep alive.
_LAYER_CLASSES = (
    FlashChip, TenantRegistry, PageMappingFTL, Collector, CachedMappingTable, StorageDevice,
    CommandQueue, Ext4, Jbd2Journal, PageCache, Pager, Connection, TxnManager, Session, Tenant,
    BenchStack,
)


def _bound_layers() -> list[str]:
    """Every record a metrics-on registry binds holds counts only: no layer
    and no obs handle (a hub keeps each session's registry after its
    machine is dropped)."""
    found = []
    for mode in (Mode.RBJ, Mode.XFTL):
        stack = build_stack(
            StackConfig(
                mode=mode,
                metrics=True,
                num_blocks=256,
                pages_per_block=32,
                channels=2,
                queue_depth=4,
                ftl=FtlConfig(gc_mode="background", gc_policy="cost-benefit", cmt_pages=8),
            )
        )
        db = stack.open_tenant("alice").open_database("guard.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'one')")
        registry = stack.obs.registry
        records = {
            name: held[0]
            for table in (registry._bound, registry._bound_gauges)
            for name, held in table.items()
        }
        if not any(name.startswith("session.") for name in records):
            found.append(f"{mode.value}: no session bound")
        found += [
            f"{mode.value}: {name} is bound to a {type(record).__name__}"
            for name, record in records.items()
            if isinstance(record, _LAYER_CLASSES) or hasattr(record, "obs")
        ]
    return found

def _charge_run_loops() -> list[str]:
    """``FlashChip._charge_run`` folds a run's durations: its one loop walks
    the open overlap regions, none steps through the operations."""
    return [
        f"_charge_run: {type(node).__name__} at line {node.lineno}"
        for node in ast.walk(_tree(FlashChip._charge_run))
        if isinstance(node, (ast.While, ast.comprehension))
        or (isinstance(node, ast.For) and ast.unparse(node.iter) != "regions")
    ]


# Where a machine's parts may be constructed: the builders and the layers
# that define them.  Everything else under src/, and examples/, builds from
# a StackConfig.
_PART_MAKERS = ("src/repro/stack/__init__.py", "src/repro/flash", "src/repro/ftl")
_BUILT_FROM_A_CONFIG = tuple(
    str(path.relative_to(ROOT))
    for path in sorted((ROOT / "src/repro").rglob("*.py"))
    if not any(path.is_relative_to(ROOT / maker) for maker in _PART_MAKERS)
) + ("examples",)

ROWS = [
    # -- the SQL layer
    Pattern("statement-lifecycle", "One statement cache; a plan reads its parameters as it runs.",
            r"_parse_cache|self\.params\[", "v = self.params[i]", ("src/repro/sqlite",)),
    Pattern("row-function-per-path", "A path's row function is bound when it is planned.",
            r"path\.kind ==|def iterate_access_path", 'if path.kind == "scan":',
            ("src/repro/sqlite",)),
    Pattern("key-sizing-encodes", "A key is sized by arithmetic (record_size), not encoded.",
            r"len\(encode_record\(", "return len(encode_record(key))"),
    Structure("record-size-none", "record_size sizes every exact row.", _record_size_returns_none),
    Structure("bool-branches", "No type fallback below bind.", _subclass_branches),
    Structure("codec-fast-paths", "The codec keeps its reference form.", _codec_fast_paths),
    Structure("row-memo", "A leaf cell holds its row: no payload -> row memo.",
              lambda: _absent(records, "_rows", "ROW_MEMO_ENTRIES", "_remember",
                              "forget_record", "_decode_uncached")),
    Structure("table-store-encodes", "The row store hands the B-tree rows.", _table_store_encodes),
    Structure("flat-sort-keys", "A sort key is one flat tuple, not a tuple of pairs.",
              _flat_sort_keys),
    Structure("shared-index-cell", "Every index entry shares one cell.", _shared_index_cell),
    Structure("slotted-pages", "Page objects and fs cache slots have no __dict__.",
              _slotted_pages),
    Structure("commit-cache-scans", "Commit, rollback and staging scan no cache or dirty set.",
              _commit_cache_scans),
    Structure("one-dirty-page-helper", "Dirty pages are reached through Pager._dirty_pages.",
              _one_dirty_page_helper),
    Pattern("mode-tests", "One commit protocol per journal mode, chosen at construction.",
            r"\.mode (is|in|==)|_journals_originals|mode\.value ==", "if self.mode is WAL:",
            ("src/repro/sqlite/pager.py", "src/repro/fs/ext4.py", "src/repro/workloads")),
    Structure("staged-commit-second-copy", "OFF mode has one staged commit: no second copy.",
              lambda: _absent(OffPager, "stage_for_group_commit", "finish_group_commit")
              + _absent(Connection, "end_external_txn")),
    Structure("off-pager-steps", "OffPager has one staging step and one finishing step.",
              lambda: sorted({name for name in vars(OffPager) if name.startswith(("stage",
                              "finish"))} ^ {"stage_commit", "finish_commit"})),
    Structure("one-finish-method", "Coordinators finish through one method.", _one_finish_method),
    # -- sessions, tenants and the bench
    Structure("one-interleave-loop", "Sessions and tenants share one loop.", _interleave_module),
    Structure("scheduler-knobs", "No batch cap or quantum knob on a scheduler.", _scheduler_knobs),
    Structure("session-forwarders", "Forwarders without callers stay deleted.",
              lambda: _absent(TxnManager, "commit_group")
              + _absent(Session, "snapshot_seq", "read_as_of")),
    Structure("one-builder-each", "One stack and one FTL builder in the bench.", _one_builder_each),
    Pattern("machines-from-a-config", "A chip, FTL or device is built from a StackConfig.",
            r"\b(FlashChip|FlashGeometry|PageMappingFTL|XFTL|StorageDevice)\(",
            "ftl = XFTL(FlashChip(FlashGeometry(num_blocks=24)), config)", _BUILT_FROM_A_CONFIG),
    Pattern("namespace-fence", "A tenant's namespace is its path prefix: ext4 keeps no owners.",
            r"register_namespace|namespace_owner|_check_namespace",
            "stack.fs.register_namespace(tenant.namespace, tenant.name)",
            ("src", "tests", "examples")),
    Pattern("tenant-fs-view", "A tenant opens files through its databases: no fs view.",
            r"TenantFsView", "self.fs = TenantFsView(self)", ("src", "tests", "examples")),
    Pattern("tenant-config", "A tenant's name and weight are its attributes: no config copy.",
            r"\bTenantConfig\b", "tenant = Tenant(self, TenantConfig(name=name, weight=weight))",
            ("src", "tests", "examples")),
    Pattern("fs-owner-parameter", "Ext4's file API takes a name: no owner to check.",
            r"def (create|open|unlink)\(self\b[^)]*\bowner\b",
            'def create(self, name: str, owner: str | None = None) -> "FileHandle":',
            ("src/repro/fs/ext4.py",)),
    Pattern("bench-settings-constants", "A setting that only took its default is a constant.",
            r"REPRO_(SESSIONS|TENANTS|BARRIER_MODE)|--(sessions|tenants|barrier-mode)\b"
            r"|def _(sessions|tenants|barrier_mode)\(", 'os.environ.get("REPRO_TENANTS")'),
    Pattern("no-device-env-vars", "An experiment runs on the device its table names.",
            r"REPRO_CHANNELS|REPRO_QUEUE_DEPTH", 'os.environ.get("REPRO_CHANNELS", "1")',
            ("src", "tests")),
    Pattern("bench-cli-flags", "A bench run is experiment names: no alias, device or trace flag.",
            r'"--(figure|channels|queue-depth|trace)"', 'parser.add_argument("--channels", type=int)',
            ("src/repro/bench/cli.py",)),
    Structure("experiments-take-no-arguments", "An experiment is a name and REPRO_SCALE.",
              lambda: [name for name, run in ALL_EXPERIMENTS.items()
                       if inspect.signature(run).parameters]),
    Pattern("untraced-hub", "Hub sessions record counts; spans are open_stack(trace=True).",
            r"install_default_hub\(trace|ObservabilityHub\(trace",
            "hub = install_default_hub(trace=True)", ("src", "tests")),
    Pattern("one-perf-harness", "Host speed has one harness, benchmarks/perf: no throughput bench.",
            r"def throughput\b", "def throughput(writes=None):", ("src/repro/bench",)),
    Pattern("no-wall-regression-check", "No wall-clock check against another machine's number.",
            r"repro\.bench\.regression|from repro\.bench import regression",
            "from repro.bench.regression import compare", ("src", "tests")),
    Pattern("no-throughput-json", "No committed wall-clock report, no scratch directory for it.",
            r"BENCH_throughput|\.bench_build", '".bench_build/BENCH_throughput.json"',
            ("src", "tests")),
    Pattern("no-bench-json-variable", "No environment variable picks a report path.",
            r"REPRO_BENCH_JSON", 'os.environ.get("REPRO_BENCH_JSON")', ("src", "tests")),
    Pattern("no-bench-profiler", "The stdlib cProfile profiles a bench run: no option of ours.",
            r"\bimport (cProfile|pstats)\b|cProfile\.Profile|\"--profile\"",
            "import cProfile", ("src/repro/bench",)),
    Pattern("no-pytest-benchmark", "python -m repro.bench writes every table: no pytest wrapper.",
            r"benchmark\.pedantic|pytest[-_]benchmark|--benchmark-only",
            "result = benchmark.pedantic(fig5_synthetic_elapsed, rounds=1, iterations=1)",
            ("src", "tests", "benchmarks", "examples", "setup.py")),
    Pattern("aging-runs", "Aging makes no per-page FTL call: trims and the drain take runs.",
            r"ftl\.(trim|write)\(", "ftl.trim(lpn)", ("src/repro/bench/aging.py",)),
    Pattern("one-pin-recorder", "One pin recorder, tests/pins.py: no per-file recorder.",
            r'"--record"', 'parser.add_argument("--record")', ("tests/test_*.py",)),
    Pattern("one-counter-per-event", "Layers bind their records: no obs twin, no cross-check.",
            r"verify_flash_stats|FLASH_STATS_OBS_PAIRS|\.flash_stats\b|detect_write_conflicts"
            r'|_writers_by_lpn|obs\.counter\("fs\.(data_page_writes|meta_page_writes'
            r"|journal_page_writes|fsync_calls|file_creates|file_deletes|steal_writes|cache\."
            r"|journal\.(commits|checkpoints))|statements_executed|journal_page_writes \+= (len|3)",
            'obs.counter("fs.fsync_calls")'),
    Pattern("no-inline-spans", "Spans are rows of repro.obs.instrument.INSTRUMENTS.",
            r"\.span\(", 'with self.obs.tracer.span("write", "dev", lpn=lpn):', _STACK),
    Pattern("no-inline-instruments",
            "Histograms are rows of the instrumentation table; counts are bound int fields "
            "(a tenant's commit_latency is its account's own histogram, kept with metrics off).",
            r"(?<!\.commit_latency)\.(observe|inc|set|histogram|counter|gauge)\(",
            "self._obs_flush_us.observe(self.clock.now_us - start_us)", _STACK),
    Pattern("no-trace-events", "A point the stack traces is a span row over a method of its own.",
            r"tracer\.event\(", 'self.obs.tracer.event("txn.begin", "stack", tid=tid)'),
    Pattern("no-null-instruments", "A disabled handle attaches nothing: no null instrument class.",
            r"class _Null", "class _NullCounter:"),
    Pattern("no-null-singletons", "No shared no-op instrument for a metrics-off caller.",
            r"NULL_(COUNTER|GAUGE|HISTOGRAM|SPAN)\b", "return NULL_HISTOGRAM"),
    Structure("bound-records-hold-counts", "A registry binds count records, never a layer.",
              _bound_layers),
    Structure("flash-stats-counts", "FlashStats is the one store of flash counts: all ints.",
              lambda: [f.name for f in fields(FlashStats) if f.type not in (int, "int")]),
    # -- the FTL
    Structure("l2p-four-bytes", "4 bytes per mapping.", lambda: _holds(_ftl(), "_l2p", _l2p="i")),
    Pattern("free-lpn-set", "One byte per free block: no free-lpn set in ext4.",
            r"_free_data", "self._free_data = set()"),
    Pattern("indirect-arrays", "An indirect block is an array('i'); its image is a copy.",
            r"\[None\] \* self\.ptrs_per_page|tuple\(self\._indirect",
            "self._indirect[ind_lpn] = [None] * self.ptrs_per_page", ("src/repro/fs/ext4.py",)),
    Structure("valid-ratio-list", "GC keeps a running valid ratio, not a list of ratios.",
              lambda: _absent(_ftl(), "_gc_valid_ratios") + _absent(_ftl().gc, "_gc_valid_ratios")),
    Pattern("one-l2p", "One L2P: no dict plus buckets.",
            r"SegmentedL2P|segment_items|_l2p\.(get|pop|items)\(", "self._l2p.get(lpn)"),
    Structure("l2p-none", 'One integer per L2P entry: "no page" is UNMAPPED.', _l2p_tested_none),
    Structure("oob-columns", "Four OOB columns: no per-page OOB tuple, no string kinds.",
              lambda: _byte_codes("OOB_") + _holds(_ftl().chip, "_oob", _oob_kind="bytearray",
                                                   _oob_key="q", _oob_seq="q", _oob_tag="list")),
    Pattern("oob-run-tuples", "A run's OOB is columns: no tuple per page built for it.",
            r"zip\(repeat\(OOB_DATA\)", "zip(repeat(OOB_DATA), lpns, seqs)"),
    Pattern("one-reverse-map", "One reverse map: no liveness bitmap, no dict or tuple owners.",
            r"_valid_bitmap|_owner\.(get|pop|items|values)\(|_invalidate\(|\(OWNER_\w+, [^,()]+\)",
            "self._invalidate(ppn)"),
    Structure("owner-bytes", "One byte per physical page: no string, tuple or list owners.",
              lambda: _byte_codes("OWNER_", "DEAD")
              + _holds(_ftl(), "_owner", _owner="bytearray", _owner_detail="dict")),
    Pattern("seq-draws-in-pagemap", "Sequence draws and recovery order live in pagemap.py.",
            r"_replay_applies|_reflect_committed|min_seq|def remount|self\._seq \+= 1",
            "self._seq += 1", ("src/repro/ftl/xftl.py",)),
    Pattern("one-host-program-entry", "Host pages enter through Collector.host_program alone.",
            r"def _program\b|\._program\(", "self._program(lpn, data)", ("src/repro/ftl",)),
    Pattern("inline-host-program", "The inline schedule's host program reads no background state.",
            r"\b(_step|_heat|_hot_active|_tick|tenants)\b", "self._tick += 1",
            ("src/repro/ftl/gc.py",), "InlineCollector.host_program"),
    Pattern("one-flush-loop", "One flush loop per barrier, no closure per queued write.",
            r"def _flush_map|def _flush_meta|_dispatch\(lambda: self\.ftl\.write\(",
            "def _flush_map(self):"),
    Pattern("one-mapping-update-path", "Commits fold through the CMT: no commit pinning.",
            r"_pin_translation_pages|_settle_commit_segments|insert_resident|note_writeback"
            r"|cmt\.commit\.|pin_entries|overlay|gc_idle_backlog_us", "cmt.insert_resident(s)"),
    Pattern("one-transactional-ftl", "PageMappingFTL and XFTL: no atomic-write baseline, no ABC.",
            r"AtomicWriteFTL|TxFlashFTL|OWNER_COMMIT_RECORD|def write_(atomic|group)\b"
            r"|class Ftl\b", "class Ftl(abc.ABC):"),
    # -- flash and the device
    Pattern("one-copyback-path", "A victim moves as runs: no per-page copyback.",
            r"program_copyback", "chip.program_copyback(src, dst)"),
    Structure("charge-run-folds", "A plain run's time is two folds, not a step per operation.",
              _charge_run_loops),
    Pattern("one-flash-timing-path", "One flash class: no serial chip, no dies, no FlashArray.",
            r"supports_overlap|dies_per_channel|FlashDie|def (die_of|require_channels"
            r"|channel_utilization)\b|(?<!class )FlashArray\(", "chip = FlashArray(geometry)"),
    Pattern("queue-polls", "The command queue polls; the clock fires no events.",
            r"schedule_at|schedule_many|post_many|_fire_due|_live_ids|_complete\(",
            "clock.schedule_at(t, self._complete)"),
]


def test_every_row_can_fire():
    """A row that cannot fail passes forever: unique names, live patterns, existing files."""
    assert [name for name, rows in Counter(row.name for row in ROWS).items() if rows > 1] == []
    for row in ROWS:
        if isinstance(row, Pattern):
            assert re.search(row.regex, row.planted), f"{row.name}: the pattern no longer fires"
            assert [path for path in row.paths if not _files(path)] == [], row.name
            if row.within:
                scanned = [_lines(file, row.within) for path in row.paths for file in _files(path)]
                assert any(scanned), f"{row.name}: no {row.within} to scan"


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_stays_deleted(row):
    found = row.check() if isinstance(row, Structure) else _grep(row.regex, row.paths, row.within)
    assert found == [], row.why
