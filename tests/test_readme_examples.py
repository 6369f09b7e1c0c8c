"""The README's code snippets and the example scripts must keep working."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.stack import Mode, StackConfig, build_stack

ROOT = pathlib.Path(__file__).parent.parent
# Every script in examples/ runs here: these two with a check of their
# output, the rest for their exit status alone.
CHECKED = {"quickstart.py", "transactional_device.py"}
RUN_ONLY = [
    "crash_recovery.py", "multifile_atomicity.py", "smartphone_apps.py", "tpcc_benchmark.py"
]


def run_example(script: str) -> subprocess.CompletedProcess:
    """Run ``examples/<script>`` in a fresh interpreter on this tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestQuickstartSnippet:
    def test_readme_quickstart_runs(self):
        """The exact flow shown in README.md's Quickstart section."""
        stack = build_stack(StackConfig(mode=Mode.XFTL))
        db = stack.open_database("app.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1, 'hello')")
        db.execute("COMMIT")
        stack.remount_after_crash()
        db = stack.open_database("app.db")
        assert db.execute("SELECT v FROM t WHERE id = 1") == [("hello",)]


class TestExampleScripts:
    def test_quickstart_example_exits_cleanly(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "starred notes" in result.stdout

    def test_transactional_device_example_exits_cleanly(self):
        result = run_example("transactional_device.py")
        assert result.returncode == 0, result.stderr
        assert "commit cost" in result.stdout

    # Some examples' calls keep a definition of src/ in use:
    # tests/test_unreferenced.py's ALLOWED names `SimClock.now_ms` and
    # `TraceReplayer.replay_task` for them, and multifile_atomicity.py
    # drives the multi-file coordinator.
    @pytest.mark.parametrize("script", RUN_ONLY)
    def test_example_runs(self, script):
        result = run_example(script)
        assert result.returncode == 0, result.stderr

    def test_every_example_has_a_test(self):
        scripts = {path.name for path in (ROOT / "examples").glob("*.py")}
        assert scripts == CHECKED | set(RUN_ONLY)
