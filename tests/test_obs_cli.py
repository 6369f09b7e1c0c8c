"""``python -m repro.obs`` rejects bad input with ``error: ...`` and exit 2."""

import pytest

from repro.obs.__main__ import main


def test_a_bad_mode_is_exit_2(capsys):
    assert main(["--mode", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_rows_is_exit_2_not_a_traceback(capsys):
    """It loaded an empty table, then the run's key draw raised
    ``empty range for randrange()``."""
    assert main(["--rows", "0", "--transactions", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rows must be at least 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value", [("--transactions", "-3"), ("--updates-per-txn", "0")]
)
def test_a_run_of_nothing_is_exit_2(capsys, flag, value):
    """``--transactions -3`` exited 0 and annotated the negative count."""
    assert main(["--rows", "10", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: transactions and updates_per_txn must be at least 1")
    assert captured.out == ""
