"""No definition under ``src/`` that only tests reach.

A stdlib scan (``ast`` for structure, ``tokenize`` for words) of
``src/repro``.  A *definition* is a module-level function, class or
constant, a method or property, or a class nested in a class.  It is
*live* when its name appears somewhere in ``src/`` outside its own body,
in a place that is itself live: module-level code, or the body of
another live definition.  A method or nested class is live only inside a
live class; dunder methods are called implicitly and need no caller.

What counts as a reference:

- every identifier token, attribute or keyword argument alike (the scan
  matches names, not bindings, so it errs towards "live");
- every word inside a string literal, so ``getattr(obj, "delivery")``
  keeps ``delivery`` live.

So a method named like a method of a builtin type is live wherever that
name is called: ``BTree.count`` and ``TableStore.count`` had no caller, yet
passed, because ``src/`` calls ``.count(`` on a ``bytearray``.

What does not: comments, docstrings, import statements and ``__all__``.
A reference from inside a dead definition does not count either, so a
dead module is flagged whole, not just its entry point.

``ALLOWED`` keeps a definition that nothing in ``src/`` reaches, with the
reason: a caller outside ``src/`` that may not be edited together with
it, an example, or a test accessor (the reason names the invariant its
tests hold).  An allowed definition is a root, so its callees stay live.
An entry that no longer names an unreachable definition is stale and
fails the test too.

The same rule holds for *parameters*: a defaulted parameter of a ``def``
under ``src/repro`` (or a field of a ``*Config`` dataclass) that no caller
in ``src/``, ``benchmarks/perf/`` or ``examples/`` passes is an option only
tests set, and is flagged too (:class:`CallScan`, below, with its own
``PARAMETERS_ALLOWED``).

The scanners live here rather than in ``src/`` because there they would
themselves be code that only tests call.  ``python tests/test_unreferenced.py``
prints what they flag: definitions with line counts, parameters as
``path:line function(param)``.
"""

from __future__ import annotations

import ast
import io
import re
import textwrap
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ALLOWED: dict[str, str] = {
    # -- callers in benchmarks/perf/, which changes only with the benchmark
    "repro.flash.array.FlashArray": "benchmarks/perf/{spec,trace,workloads}.py build it",
    "repro.flash.chip.FlashChip.channel_busy_us": (
        "benchmarks/perf/measure.py: the flash.channel_util numerator"
    ),
    "repro.ftl.pagemap.PageMappingFTL.wear_stats": (
        "benchmarks/perf/measure.py: flash.erase_spread"
    ),
    "repro.fs.ext4.Ext4.fdatabarrier": "benchmarks/perf/trace.py times it as an fs entry point",
    # -- examples
    "repro.sim.clock.SimClock.now_ms": "examples/quickstart.py prints it",
    # -- test accessors: the invariant their tests hold, without private state
    "repro.fs.ext4.Ext4.listdir": (
        "a remount lists the files the last mount made durable, each tenant's "
        "under its own prefix"
    ),
    "repro.ftl.pagemap.PageMappingFTL.mapped_ppn": (
        "the committed L2P view: a write moves an lpn, an abort or a power cut "
        "restores the committed page"
    ),
    "repro.ftl.xftl.XFTL.version_chain": (
        "retained versions: a chain holds at most retain_versions - 1 old pages, "
        "newest last, and survives GC and remount"
    ),
    "repro.ftl.cmt.CachedMappingTable.resident_segments": (
        "the demand-paged map stays within cmt_pages, in LRU order"
    ),
    "repro.device.queue.CommandQueue.current_epoch": (
        "a barrier device opens one epoch per barrier; a drain resets it"
    ),
    "repro.device.ssd.StorageDevice.is_on": "a fired crash point powers the device down",
    "repro.fs.journal.Jbd2Journal.pending_count": (
        "a crash between journal commit and checkpoint is recovered by replay"
    ),
    "repro.stack.txn.TxnManager.live_count": (
        "every transaction context is released on commit, abort and error paths"
    ),
}

ROOT = -1  # the context of module-level code
_WORD = re.compile(r"[A-Za-z_]\w*")
_STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Definition:
    qualname: str
    name: str
    parent: int | None
    path: Path
    spans: list[range] = field(default_factory=list)  # line ranges, decorators included

    @property
    def lines(self) -> int:
        return sum(len(span) for span in self.spans)

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


def _lines(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class Scan:
    """Every definition under ``root`` and the live-or-not places that name it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.defs: list[Definition] = []
        self._by_qualname: dict[str, int] = {}
        self._by_name: dict[str, list[int]] = {}
        # referrers[d]: innermost definitions (or ROOT) that name d outside d's body
        self.referrers: list[set[int]] = []
        files = [self._parse(path) for path in sorted(root.rglob("*.py"))]
        for file in files:  # every definition is known before any word is matched
            self._match(*file)

    def _define(self, qualname: str, name: str, parent, path: Path, node) -> int:
        index = self._by_qualname.get(qualname)
        if index is None:  # a property setter or a redefinition joins the first
            index = self._by_qualname[qualname] = len(self.defs)
            self.defs.append(Definition(qualname, name, parent, path))
            self._by_name.setdefault(name, []).append(index)
            self.referrers.append(set())
        self.defs[index].spans.append(_lines(node))
        return index

    def _collect(self, body, prefix: str, parent, path: Path, owned: list) -> None:
        for node in body:
            if isinstance(node, _DEFS):
                index = self._define(f"{prefix}.{node.name}", node.name, parent, path, node)
                owned.append((_lines(node), index))
                if isinstance(node, ast.ClassDef):
                    self._collect(node.body, f"{prefix}.{node.name}", index, path, owned)
            elif parent is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        index = self._define(f"{prefix}.{target.id}", target.id, None, path, node)
                        owned.append((_lines(node), index))

    def _parse(self, path: Path) -> tuple:
        text = path.read_text()
        tree = ast.parse(text)
        module = ".".join(path.relative_to(self.root.parent).with_suffix("").parts)
        owned: list[tuple[range, int]] = []
        self._collect(tree.body, module, None, path, owned)

        skipped: set[int] = set()  # lines of import statements and ``__all__``
        docstrings: set[tuple[int, int]] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node)
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.Module, *_DEFS)) and ast.get_docstring(node) is not None:
                docstrings.add((node.body[0].lineno, node.body[0].col_offset))

        # innermost definition per line (a class is collected before its members)
        context = [ROOT] * (text.count("\n") + 2)
        for span, index in owned:
            context[span.start : span.stop] = [index] * len(span)
        return path, text, skipped, docstrings, context

    def _match(self, path: Path, text: str, skipped, docstrings, context) -> None:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            line = tok.start[0]
            if line in skipped:
                continue
            if tok.type == tokenize.NAME:
                words = (tok.string,)
            elif tok.type in _STRINGS and tok.start not in docstrings:
                words = _WORD.findall(tok.string)
            else:
                continue
            for word in words:
                for index in self._by_name.get(word, ()):
                    target = self.defs[index]
                    if target.path == path and any(line in span for span in target.spans):
                        continue  # its own body
                    self.referrers[index].add(context[line])

    def live(self, allowed) -> set[int]:
        """Least fixed point: a definition is live when its parent (if any) is
        live and it is allowed (or inside an allowed one), a dunder, or named
        from a live place."""
        roots = {self._by_qualname[q] for q in allowed if q in self._by_qualname}
        for index, d in enumerate(self.defs):  # parents precede their members
            if d.parent in roots:
                roots.add(index)
        live: set[int] = set()
        grew = True
        while grew:
            grew = False
            for index, d in enumerate(self.defs):
                if index in live or (d.parent is not None and d.parent not in live):
                    continue
                if (
                    index in roots
                    or d.dunder
                    or any(c == ROOT or c in live for c in self.referrers[index])
                ):
                    live.add(index)
                    grew = True
        return live

    def flagged(self, allowed) -> list[Definition]:
        """The outermost unreachable definitions: dead, inside nothing dead."""
        live = self.live(allowed)
        return [
            d
            for index, d in enumerate(self.defs)
            if index not in live and (d.parent is None or d.parent in live)
        ]

    def stale(self, allowed) -> list[str]:
        """Entries that name no definition, or one that is reachable without them."""
        return [
            qualname
            for qualname in allowed
            if qualname not in self._by_qualname
            or self._by_qualname[qualname] in self.live(q for q in allowed if q != qualname)
        ]


def _report(flagged: list[Definition], root: Path) -> str:
    return "\n".join(
        f"  {d.qualname}  ({d.path.relative_to(root.parent)}:{d.spans[0].start}, {d.lines} lines)"
        for d in flagged
    )


@pytest.fixture(scope="module")
def src_scan() -> Scan:
    return Scan(SRC / "repro")


def test_nothing_in_src_is_reached_only_from_outside_it(src_scan):
    flagged = src_scan.flagged(ALLOWED)
    assert not flagged, (
        "unreferenced in src/ (delete it with the tests that only exercise it, or add "
        "an ALLOWED entry naming its outside caller or the invariant its tests hold):\n"
        + _report(flagged, SRC / "repro")
    )


def test_every_allow_list_entry_is_needed(src_scan):
    assert not src_scan.stale(ALLOWED), "stale ALLOWED entries: delete them"


# -- the scanner on planted trees ---------------------------------------------


def _tree(tmp_path: Path, **modules: str) -> Path:
    root = tmp_path / "pkg"
    root.mkdir()
    for name, text in modules.items():
        (root / f"{name}.py").write_text(textwrap.dedent(text))
    return root


def _flagged(root: Path, allowed=()) -> list[str]:
    return sorted(d.qualname for d in Scan(root).flagged(allowed))


def test_flags_a_planted_unreferenced_function(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            def used():
                return 1

            def planted():
                return used()

            print(used())
        """,
    )
    assert _flagged(root) == ["pkg.main.planted"]


def test_a_name_in_a_comment_or_docstring_is_no_reference(tmp_path):
    root = _tree(
        tmp_path,
        main='''
            """Module docstring naming quantile."""

            class Histogram:
                """Answers quantile() queries."""

                def quantile(self, q):
                    return q

            # quantile is only mentioned here
            print(Histogram())
        ''',
    )
    assert _flagged(root) == ["pkg.main.Histogram.quantile"]


def test_a_caller_that_is_itself_unreferenced_does_not_count(tmp_path):
    root = _tree(
        tmp_path,
        helpers="""
            def helper():
                return 2
        """,
        main="""
            from pkg.helpers import helper

            def dead():
                return helper()
        """,
    )
    assert _flagged(root) == ["pkg.helpers.helper", "pkg.main.dead"]
    # an allow-listed definition is a root, so its callees are live
    assert _flagged(root, allowed=["pkg.main.dead"]) == []


def test_a_stale_allow_list_entry_fails(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            def used():
                return 1

            print(used())
        """,
    )
    assert Scan(root).stale(["pkg.main.used", "pkg.main.gone"]) == [
        "pkg.main.used",  # reachable without its entry
        "pkg.main.gone",  # names nothing
    ]


def test_a_name_reached_only_through_a_string_is_live(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            class Driver:
                def delivery(self):
                    return 1

                def run(self, kind):
                    return getattr(self, kind)()

            print(Driver().run("delivery"))
        """,
    )
    assert _flagged(root) == []


# -- parameters that no caller passes -------------------------------------------

#: Where a caller may live.  ``test_*.py`` files there are tests, not callers.
CALLERS = (SRC, REPO / "benchmarks" / "perf", REPO / "examples")

#: ``"repro.module.function(param)": reason`` for a defaulted parameter that
#: no caller in ``CALLERS`` passes by name.  An entry the scan no longer
#: needs fails, as for ``ALLOWED``.
PARAMETERS_ALLOWED: dict[str, str] = {
    "repro.bench.cli.main(argv)": "python -m repro.bench parses sys.argv; tests pass a list",
    "repro.obs.__main__.main(argv)": "python -m repro.obs parses sys.argv; tests pass a list",
    "repro.verify.cli.main(argv)": "python -m repro.verify parses sys.argv; tests pass a list",
    "repro.verify.oracle.TransactionOracle.__init__(baseline)": (
        "verify/drivers.py calls it through a field, as row.oracle(run.baseline)"
    ),
    "repro.workloads.fio.FioBenchmark.run(max_writes)": (
        "the channel and barrier pins' FIO legs stop at exactly 400 writes, which "
        "no runtime bound reproduces"
    ),
}

_CONSTRUCTORS = ("__init__", "__new__")


def _called(node: ast.AST) -> str | None:
    """The name a call site uses: ``f`` in ``f(...)``, ``m`` in ``x.m(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _called(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


@dataclass(frozen=True)
class Parameter:
    qualname: str  # of its def, or of its *Config class for a field
    name: str
    path: Path
    line: int
    position: int | None  # among the positions a caller fills; None: keyword-only
    callees: frozenset[str]  # the call names that reach it
    field: bool = False  # a *Config field: ``replace(config, name=...)`` passes it

    def __str__(self) -> str:
        return f"{self.qualname}({self.name})"


@dataclass(frozen=True)
class Call:
    filled: int  # positions filled before any ``*args``
    spread: bool  # ``*args``: every later position too
    keywords: frozenset[str]
    spread_keywords: bool  # ``**kwargs``: every parameter

    def passes(self, parameter: Parameter, keywords_only: bool = False) -> bool:
        if parameter.name in self.keywords or self.spread_keywords:
            return True
        position = parameter.position
        return not keywords_only and position is not None and (
            position < self.filled or self.spread
        )


class CallScan:
    """Every defaulted parameter under ``root`` and every call in ``callers``.

    A call reaches a ``def`` by its name.  An ``__init__`` or ``__new__`` is
    reached by a call of its class or of a subclass (``cls(...)`` inside a
    class is a call of that class; a base that defines ``__new__`` may build
    its subclasses, so its calls count for them too), and through
    ``super().__init__(...)`` in a subclass.  ``functools.partial(f, ...)``
    is a call of ``f``.
    """

    def __init__(self, root: Path, callers: Iterable[Path]) -> None:
        trees = {path: ast.parse(path.read_text()) for path in sorted(root.rglob("*.py"))}
        classes = [n for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)]
        self._subclasses: dict[str, set[str]] = {}
        for cls in classes:
            for base in filter(None, map(_called, cls.bases)):
                self._subclasses.setdefault(base, set()).add(cls.name)
        self._builders = {
            cls.name
            for cls in classes
            if any(isinstance(n, ast.FunctionDef) and n.name == "__new__" for n in cls.body)
        }
        self.parameters: list[Parameter] = []
        for path, tree in trees.items():
            module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
            self._collect(tree, module, None, path)
        self._calls: dict[str, list[Call]] = {}
        for directory in callers:
            for path in sorted(directory.rglob("*.py")):
                if not path.name.startswith("test_"):
                    self._record(ast.parse(path.read_text()), None)

    def _class_names(self, cls: ast.ClassDef) -> frozenset[str]:
        """The call names that construct ``cls``."""
        names, todo = {cls.name}, [cls.name]
        while todo:
            for sub in self._subclasses.get(todo.pop(), ()):
                if sub not in names:
                    names.add(sub)
                    todo.append(sub)
        names.update(b for b in map(_called, cls.bases) if b in self._builders)
        return frozenset(names)

    def _collect(self, node: ast.AST, prefix: str, owner, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                if child.name.endswith("Config") and _is_dataclass(child):
                    self._fields(child, qualname, path)
                self._collect(child, qualname, child, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                self._arguments(child, qualname, owner, path)
                self._collect(child, qualname, None, path)
            else:
                self._collect(child, prefix, owner, path)

    def _arguments(self, func, qualname: str, owner, path: Path) -> None:
        if owner is not None and func.name in _CONSTRUCTORS:
            callees = self._class_names(owner)
        elif func.name.startswith("__") and func.name.endswith("__"):
            return  # the language calls it, not a name
        else:
            callees = frozenset((func.name,))
        args = func.args
        positional = args.posonlyargs + args.args
        bound = owner is not None and "staticmethod" not in map(_called, func.decorator_list)
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first_default:], first_default):
            self.parameters.append(
                Parameter(qualname, arg.arg, path, arg.lineno, index - bound, callees)
            )
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.parameters.append(Parameter(qualname, arg.arg, path, arg.lineno, None, callees))

    def _fields(self, cls: ast.ClassDef, qualname: str, path: Path) -> None:
        callees = self._class_names(cls)
        position = 0
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            if stmt.value is not None:
                self.parameters.append(
                    Parameter(qualname, stmt.target.id, path, stmt.lineno, position, callees, True)
                )
            position += 1

    def _record(self, node: ast.AST, owner) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, ast.Call):
            self._call(node, owner)
        for child in ast.iter_child_nodes(node):
            self._record(child, owner)

    def _call(self, call: ast.Call, owner) -> None:
        name, args = _called(call.func), call.args
        names = [name]
        if name == "partial" and args:
            names, args = [_called(args[0])], args[1:]
        elif name in _CONSTRUCTORS and isinstance(call.func, ast.Attribute):
            target = call.func.value
            if isinstance(target, ast.Call) and _called(target.func) == "super":
                names = list(map(_called, owner.bases)) if owner is not None else []
            else:  # Base.__init__(self, ...)
                names, args = [_called(target)], args[1:]
        elif name == "cls" and owner is not None:
            names = [owner.name]
        starred = [isinstance(arg, ast.Starred) for arg in args]
        filled = starred.index(True) if True in starred else len(args)
        keywords = frozenset(k.arg for k in call.keywords if k.arg is not None)
        spread_keywords = any(k.arg is None for k in call.keywords)
        record = Call(filled, filled < len(args), keywords, spread_keywords)
        for name in filter(None, names):
            self._calls.setdefault(name, []).append(record)

    def passed(self, parameter: Parameter) -> bool:
        if any(
            call.passes(parameter)
            for callee in parameter.callees
            for call in self._calls.get(callee, ())
        ):
            return True
        return parameter.field and any(
            call.passes(parameter, keywords_only=True) for call in self._calls.get("replace", ())
        )

    def flagged(self, allowed) -> list[Parameter]:
        return [p for p in self.parameters if str(p) not in allowed and not self.passed(p)]

    def stale(self, allowed) -> list[str]:
        """Entries that name no parameter, or one that a caller passes."""
        unpassed = {str(p) for p in self.parameters if not self.passed(p)}
        return [key for key in allowed if key not in unpassed]


def _parameter_report(flagged: list[Parameter], root: Path) -> str:
    return "\n".join(f"  {p.path.relative_to(root.parent)}:{p.line} {p}" for p in flagged)


@pytest.fixture(scope="module")
def call_scan() -> CallScan:
    return CallScan(SRC / "repro", CALLERS)


def test_no_parameter_in_src_is_set_only_from_tests(call_scan):
    flagged = call_scan.flagged(PARAMETERS_ALLOWED)
    assert not flagged, (
        "defaulted parameters that no caller outside tests/ passes (delete the option "
        "and rewrite the tests that set it, or add a PARAMETERS_ALLOWED entry naming "
        "the invariant its tests hold):\n" + _parameter_report(flagged, SRC / "repro")
    )


def test_every_parameter_allow_list_entry_is_needed(call_scan):
    assert not call_scan.stale(PARAMETERS_ALLOWED), "stale PARAMETERS_ALLOWED entries: delete them"


def _unpassed(root: Path, allowed=()) -> list[str]:
    return sorted(str(p) for p in CallScan(root, [root]).flagged(allowed))


def test_flags_a_parameter_that_only_a_test_passes(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            def run(runtime, pattern="randwrite"):
                return runtime, pattern

            run(1.0)
        """,
        test_main="""
            from pkg.main import run

            def test_sequential():
                assert run(1.0, pattern="write")
        """,
    )
    assert _unpassed(root) == ["pkg.main.run(pattern)"]
    # an allow-listed parameter passes, and its entry is not stale
    scan = CallScan(root, [root])
    assert scan.flagged(["pkg.main.run(pattern)"]) == []
    assert scan.stale(["pkg.main.run(pattern)"]) == []


def test_a_stale_parameter_allow_list_entry_fails(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            def run(runtime, threads=1):
                return runtime * threads

            run(1.0, threads=4)
        """,
    )
    assert CallScan(root, [root]).stale(["pkg.main.run(threads)", "pkg.main.run(gone)"]) == [
        "pkg.main.run(threads)",  # a caller passes it
        "pkg.main.run(gone)",  # names nothing
    ]


def test_every_way_of_passing_a_parameter_counts(tmp_path):
    root = _tree(
        tmp_path,
        main="""
            from dataclasses import dataclass, replace
            from functools import partial

            def by_keyword(a=1): ...
            def by_position(a, b=1, *, c=2): ...
            def by_star(a, b=1): ...
            def by_double_star(a, *, b=1): ...
            def by_partial(a, b=1): ...
            def unpassed(a=1, *, b=2): ...

            class Base:
                def __init__(self, a, b=1): ...

            class Child(Base):
                def __init__(self, c=2):
                    super().__init__(c, 3)

                @classmethod
                def make(cls):
                    return cls(c=4)

            @dataclass
            class RunConfig:
                a: int = 1
                b: int = 2
                c: int = 3

            by_keyword(a=2)
            by_position(0, 1, c=3)
            by_star(*[0, 1])
            by_double_star(0, **{"b": 1})
            partial(by_partial, 0, 1)()
            unpassed()
            Child.make()
            replace(RunConfig(0), b=1)
        """,
    )
    assert _unpassed(root) == ["pkg.main.RunConfig(c)", "pkg.main.unpassed(a)", "pkg.main.unpassed(b)"]


if __name__ == "__main__":
    found = Scan(SRC / "repro").flagged(ALLOWED)
    print(_report(found, SRC / "repro"))
    print(f"{len(found)} definitions, {sum(d.lines for d in found)} lines")
    unpassed = CallScan(SRC / "repro", CALLERS).flagged(PARAMETERS_ALLOWED)
    print(_parameter_report(unpassed, SRC / "repro"))
    print(f"{len(unpassed)} parameters")
