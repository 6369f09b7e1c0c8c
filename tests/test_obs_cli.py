"""``python -m repro.obs`` rejects bad input with ``error: ...`` and exit 2."""

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
