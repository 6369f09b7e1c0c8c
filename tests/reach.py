"""Line reach: the function-body lines of ``src/repro`` that a run never executes.

Runs one module, as ``python -m`` would, under a ``sys.settrace`` line hook
(standard library only) and prints, function by function, the lines of
function bodies under the measured directory that never ran, then one
total line::

    python tests/reach.py -m pytest -q -p no:cacheprovider
    python tests/reach.py -m repro.verify --budget 200 --seed 0
    python tests/reach.py --root path/to/package -m package.main

A function-body line is a line that holds bytecode of a function, method,
lambda or comprehension, other than the ``def`` line itself; module and
class bodies run at import and are not counted.  Work done in a subprocess
(a CLI test, a bench worker) is not seen, nor is a thread the module
starts (nothing under ``src/repro`` starts one).  A function stops being traced
once every one of its lines has run, but a traced run is still several
times slower than an untraced one.  The exit status is the module's.
"""

from __future__ import annotations

import inspect
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USAGE = "usage: python tests/reach.py [--root DIR] -m MODULE [ARG ...]"


def _named(code) -> bool:
    """A ``def`` (or ``async def``), as opposed to a lambda or comprehension."""
    return not code.co_name.startswith("<")


def _body_lines(code) -> set[int]:
    """The lines ``code`` itself holds bytecode on, its ``def`` line left out."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    if _named(code):
        lines.discard(code.co_firstlineno)
    return lines


def _functions(code):
    """Every function code object nested in ``code``, outermost first."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def function_body_lines(path: Path) -> dict[int, str]:
    """Each function-body line of the file at ``path``, with the qualified
    name of the innermost ``def`` that holds it."""
    owner: dict[int, str] = {}
    for code in _functions(compile(path.read_text(), str(path), "exec")):
        for line in _body_lines(code):
            if _named(code) or line not in owner:
                owner[line] = code.co_qualname
    return owner


class Reach:
    """A line hook that records, per file under ``root``, the lines that ran."""

    def __init__(self, root: Path) -> None:
        self.root = str(root.resolve()) + os.sep
        # code object -> its lines not yet run, or None when the code is not
        # under root or every line has run (no local hook is installed then).
        self._pending: dict[object, set[int] | None] = {}
        self._seen: dict[object, tuple[str, set[int]]] = {}

    def _start(self, code) -> set[int] | None:
        filename = os.path.abspath(code.co_filename)
        if not filename.startswith(self.root):
            return None
        lines = _body_lines(code)
        self._seen[code] = (filename, set(lines))
        return lines or None

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            pending = self._pending[code]
        except KeyError:
            pending = self._pending[code] = self._start(code)
        return None if pending is None else self._line

    def _line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            pending = self._pending[code]
            if pending:
                pending.discard(frame.f_lineno)
                if not pending:
                    self._pending[code] = None  # later calls run untraced
        return self._line

    def run_module(self, module: str, args: list[str]) -> int:
        """Run ``module`` as ``__main__`` under the hook; returns its exit status."""
        sys.argv = [module, *args]
        sys.path[0] = os.getcwd()  # what ``python -m`` puts first
        sys.settrace(self._call)
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
            status = 0
        except SystemExit as stop:
            code = stop.code
            status = code if isinstance(code, int) else (0 if code is None else 1)
        finally:
            sys.settrace(None)
        return status

    def ran(self) -> dict[str, set[int]]:
        """The lines that ran, per absolute file name."""
        ran: dict[str, set[int]] = {}
        for code, (filename, lines) in self._seen.items():
            pending = self._pending.get(code) or set()
            ran.setdefault(filename, set()).update(lines - pending)
        return ran


def _runs(owner: dict[int, str], reached: set[int]):
    """The unreached lines of ``owner`` as ``(first, last, qualname)`` runs: a
    run ends at a line that ran or where another function's lines begin."""
    run: list[int] = []
    for line in sorted(owner):
        if run and (line in reached or owner[line] != owner[run[0]]):
            yield run[0], run[-1], owner[run[0]]
            run = []
        if line not in reached:
            run.append(line)
    if run:
        yield run[0], run[-1], owner[run[0]]


def _shown(path: Path) -> Path:
    """``path`` relative to the working directory, where it lies below it."""
    try:
        return path.relative_to(Path.cwd())
    except ValueError:
        return path


def report(root: Path, ran: dict[str, set[int]]) -> None:
    """Print every unreached function-body line under ``root``, then the total."""
    root = root.resolve()
    unreached_total = lines_total = 0
    for path in sorted(root.rglob("*.py")):
        owner = function_body_lines(path)
        reached = ran.get(str(path), set())
        lines_total += len(owner)
        unreached_total += len(set(owner) - reached)
        for first, last, name in _runs(owner, reached):
            span = str(first) if first == last else f"{first}-{last}"
            print(f"{_shown(path)}:{span} {name}")
    share = 100.0 * unreached_total / lines_total if lines_total else 0.0
    print(
        f"reach: {unreached_total:,} of {lines_total:,} function-body lines "
        f"under {_shown(root)} unreached ({share:.1f} %)"
    )


def main(argv: list[str]) -> int:
    root = ROOT / "src" / "repro"
    if argv[:1] == ["--root"] and len(argv) > 1:
        root, argv = Path(argv[1]), argv[2:]
    if len(argv) < 2 or argv[0] != "-m":
        print(USAGE, file=sys.stderr)
        return 2
    reach = Reach(root)
    status = reach.run_module(argv[1], argv[2:])
    report(root, reach.ran())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
