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

The scanner lives here rather than in ``src/`` because there it would
itself be code that only tests call.  ``python tests/test_unreferenced.py``
prints what it flags, with line counts.
"""

from __future__ import annotations

import ast
import io
import re
import textwrap
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

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
    "repro.workloads.android.TraceReplayer.replay_task": "examples/smartphone_apps.py",
    # -- test accessors: the invariant their tests hold, without private state
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
    "repro.sim.events.EventScheduler.timelines": (
        "the run paths charge each flash resource exactly as the per-page loops do"
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
    "repro.stack.tenant.TenantFsView.listdir": (
        "a tenant sees only the files of its own namespace"
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


if __name__ == "__main__":
    found = Scan(SRC / "repro").flagged(ALLOWED)
    print(_report(found, SRC / "repro"))
    print(f"{len(found)} definitions, {sum(d.lines for d in found)} lines")
