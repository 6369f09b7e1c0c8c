"""``tests/reach.py`` lists the function-body lines a run never executes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PLANTED = {
    "__init__.py": "",
    "branches.py": (
        "def pick(flag):\n"
        "    if flag:\n"
        "        return 'taken'\n"
        "    return 'not taken'\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def never(self):\n"
        "        return [x for x in range(3)]\n"
    ),
    "run.py": (
        "import sys\n"
        "\n"
        "from planted.branches import pick\n"
        "\n"
        "print(pick(sys.argv[1:] == ['yes']))\n"
        "raise SystemExit(3)\n"
    ),
}


@pytest.mark.parametrize(
    "args, printed, skipped",
    [(["yes"], "taken", 4), ([], "not taken", 3)],
    ids=["if-branch", "fall-through"],
)
def test_a_run_leaves_the_other_branch_and_the_uncalled_method(tmp_path, args, printed, skipped):
    """Each run of the planted module takes one branch of ``pick``: the
    tool names the other one and ``Holder.never``, and no ``def`` line,
    module line or class line; it passes the module its arguments and
    returns the module's exit status."""
    package = tmp_path / "planted"
    package.mkdir()
    for name, text in PLANTED.items():
        (package / name).write_text(text)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py"), "--root", "planted",
         "-m", "planted.run", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout.splitlines() == [
        printed,
        f"planted/branches.py:{skipped} pick",
        "planted/branches.py:9 Holder.never",
        "reach: 2 of 4 function-body lines under planted unreached (50.0 %)",
    ]


def test_a_run_without_a_module_is_a_usage_error():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py"), "--root", "src"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("usage:")
