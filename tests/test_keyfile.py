"""The one key = value syntax: what it accepts and what it refuses."""

import math

import pytest

from thermoseg import keyfile
from thermoseg.errors import ValidationError


def _parse(text):
    return keyfile.KeyFile(text.splitlines(), "f.ini", ValidationError, 1)


def test_syntax():
    keys = _parse("# comment\nname = a = b\n\n[s]\n; comment\n"
                  "Key = 5% ; not a comment\nframe = 1\nframe = 2\n")
    top, section = keys.section(""), keys.section("s")
    assert top.text("name") == "a = b"
    assert section.text("Key") == "5% ; not a comment"
    assert section.texts("frame") == ["1", "2"]
    keys.finish()


@pytest.mark.parametrize("text, message", [
    ("key: value\n", "f.ini:1: expected [section] or key = value"),
    ("[ ]\n", "f.ini:1: expected [section] or key = value, got '[ ]'"),
    ("[s]\nkey = 1\n  continued\n", "f.ini:3: expected [section]"),
    ("[s]\nkey = 1\n[s]\n", "f.ini:3: [s] repeated, first on line 1"),
    ("[s]\nkey = 1\nkey = 1\n", "f.ini:3: [s] 'key': repeated"),
    ("[s]\nKEY = 1\n", "f.ini:2: [s] 'KEY': unknown key"),
    ("[DEFAULT]\nkey = 1\n", "f.ini:1: [DEFAULT] is not a known section"),
    ("key = 1\n", "f.ini:1: 'key': unknown key"),
])
def test_syntax_errors(text, message):
    with pytest.raises(ValidationError) as info:
        keys = _parse(text)
        keys.section("s").integer("key", 0, 0)
        keys.finish()
    assert str(info.value).startswith(message)


def test_typed_getters():
    section = _parse("[s]\nbig = 9223372036854775807\nlow = -inf\n"
                     "sizes = 1 2 3\nkind = b\n").section("s")
    assert section.integer("big", 1) == 2 ** 63 - 1
    assert section.number("low") == -math.inf
    assert section.integers("sizes", 1) == (1, 2, 3)
    assert section.text("kind", "a", ("a", "b")) == "b"
    assert section.number("absent", 0.5) == 0.5


@pytest.mark.parametrize("value, get, message", [
    ("9223372036854775808", lambda s: s.integer("v", 0),
     "does not fit in int64"),
    ("0", lambda s: s.integers("v", 1), "must be >= 1, got 0"),
    ("1.5", lambda s: s.integer("v", 0), "invalid literal for int"),
    ("", lambda s: s.integers("v", 0), "expected at least one value"),
    ("nan", lambda s: s.number("v"), "nan is not a number"),
    ("1 nan", lambda s: s.numbers("v"), "nan is not a number"),
    ("c", lambda s: s.text("v", "a", ("a", "b")), "'c' is not one of a, b"),
    (None, lambda s: s.number("v"), "'v': missing"),
])
def test_getter_errors(value, get, message):
    text = "[s]\n" if value is None else f"[s]\nv = {value}\n"
    with pytest.raises(ValidationError, match=message):
        get(_parse(text).section("s"))
