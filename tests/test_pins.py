"""The pin file and its helpers (``tests/pins.py``)."""

import pytest

from . import pins


def test_pin_file_is_in_canonical_form():
    """The file is byte for byte what the re-pinner writes: a hand edit
    that reorders or reformats it fails here."""
    assert pins.PIN_FILE.read_text() == pins.canonical(pins.PINS)


def test_unknown_pin_fails_with_its_name(monkeypatch):
    monkeypatch.setattr(pins, "recorded", None)
    with pytest.raises(AssertionError, match="no-such-pin"):
        pins.pinned("no-such-pin", 1)


def test_a_name_recorded_with_two_values_is_an_error(monkeypatch):
    monkeypatch.setattr(pins, "recorded", {})
    pins.pinned("twice", (1, 2))
    pins.pinned("twice", [1, 2])
    with pytest.raises(AssertionError, match="twice"):
        pins.pinned("twice", (1, 3))
    assert pins.recorded == {"twice": [[1, 2], [1, 3]]}
