"""Every pin's file holds exactly its rows, and the harness bites.

The per-row checks live beside each pin (``tests/pins.py`` names them); the
harness's own tests run on a three-row scratch pin under ``tmp_path``.
"""

import sys
import types

import pytest

from tests import pins


@pytest.mark.parametrize("name", sorted(pins.PINS))
def test_every_row_is_pinned(name: str) -> None:
    pins.load(name).check_keys()


@pytest.fixture
def values() -> dict:
    return {"a": 1, "b": 2, "c": 3}


@pytest.fixture
def pin(tmp_path, values) -> pins.Pin:
    pin = pins.Pin("scratch", tmp_path / "scratch.json", [*"abc"], lambda k: {"v": values[k]})
    pin.record()
    return pin


def test_a_planted_change_fails_exactly_its_row_and_names_the_field(pin, values) -> None:
    values["b"] = 20
    assert pin.check("a") == {"v": 1} and pin.check("c") == {"v": 3}
    with pytest.raises(AssertionError, match=r"moved in 1 field\(s\).*\n  b\.v: 2 -> 20\n"):
        pin.check("b")


def test_a_missing_row_fails_and_so_does_a_stale_one(pin) -> None:
    pin.check_keys()
    with pytest.raises(AssertionError, match=r"stale rows in it: \['c'\]"):
        pins.Pin("scratch", pin.path, [*"ab"], pin.row).check_keys()
    longer = pins.Pin("scratch", pin.path, [*"abcd"], pin.row)
    with pytest.raises(AssertionError, match=r"missing from scratch\.json: \['d'\]"):
        longer.check_keys()
    with pytest.raises(AssertionError, match=r"scratch\[d\] is not recorded"):
        longer.check("d")


def test_recording_one_row_leaves_every_other_row_byte_identical(pin, values, monkeypatch):
    before = pin.path.read_text()
    assert before == (
        '{\n  "a": {\n    "v": 1\n  },\n  "b": {\n    "v": 2\n  },\n  "c": {\n    "v": 3\n  }\n}\n'
    )
    monkeypatch.setitem(sys.modules, "scratch_pin", types.SimpleNamespace(PIN=pin))
    monkeypatch.setitem(pins.PINS, "scratch", "scratch_pin")
    values["a"] = values["b"] = 20
    assert pins.main(["--record=scratch", "b"]) == 0
    assert pin.path.read_text() == before.replace('"v": 2\n', '"v": 20\n') != before
    with pytest.raises(SystemExit):
        pins.main(["--record=scratch", "d"])
    assert pin.path.read_text() == before.replace('"v": 2\n', '"v": 20\n')
