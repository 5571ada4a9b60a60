"""The one text reader: UTF-8 decoding, the key = value syntax and the
numeric rows, with what each accepts and what it refuses."""

import math
import re
import warnings

import numpy as np
import pytest

from thermoseg import keyfile
from thermoseg.errors import ValidationError


def _parse(text):
    return keyfile.KeyFile(text.splitlines(), "f.ini", 1)


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


def test_lines_decode_utf8_only(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a = 1\r\nb = \xc3\xa9\n")
    assert keyfile.lines(str(path)) == ["a = 1", "b = é"]
    path.write_bytes(b"a = 1\nb = \xff\n")
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}:2: not UTF-8 text: "
                                       "invalid start byte")):
        keyfile.lines(str(path))


def test_rows_round_trip(tmp_path):
    values = np.array([[0.1, -0.0, 1e-300], [np.pi, 1.0, 2.0 ** 60]])
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8") as fh:
        keyfile.write_rows(fh, values)
    text = path.read_text(encoding="utf-8").splitlines()
    # the same bytes as formatting each value with %.17g
    assert text == [",".join("%.17g" % v for v in row) for row in values]
    back = keyfile.rows(text, 2, 3, "rows.csv", 1)
    assert back.tobytes() == values.tobytes()
    cells = keyfile.rows(["9223372036854775807,-1"], 1, 2, "m.csv", 2,
                         np.int64)
    assert cells.dtype == np.int64 and cells.tolist() == [[2 ** 63 - 1, -1]]


@pytest.mark.parametrize("lines, count, dtype, message", [
    (["1,2", "3"], 2, np.float64, "f.csv:7: the number of columns changed"),
    (["1,2", "", "3,4"], 3, np.float64,
     "f.csv:7: expected 3 rows of 2 values, got 2 rows of 2"),
    (["1,2", "3,4"], 1, np.float64, "f.csv:8: more than 1 rows"),
    ([], 1, np.float64, "f.csv:7: expected 1 rows of 2 values, got none"),
    ([""], 1, np.float64, "f.csv:7: expected 1 rows of 2 values, got none"),
    (["1,2,3"], 1, np.float64, "got 1 rows of 3"),
    (["1_0,2"], 1, np.float64, "could not convert string '1_0'"),
    (["١,2"], 1, np.float64, "could not convert string '١'"),
    (["1,#2"], 1, np.float64, "could not convert string '#2'"),
    (["1,"], 1, np.float64, "could not convert string ''"),
    (["9223372036854775808,0"], 1, np.int64,
     "could not convert string '9223372036854775808' to int64"),
    (["1.5,0"], 1, np.int64, "could not convert string '1.5' to int64"),
])
def test_rows_errors(lines, count, dtype, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a warning would print to stderr
        with pytest.raises(ValidationError, match=re.escape(message)):
            keyfile.rows(lines, count, 2, "f.csv", 7, dtype)
