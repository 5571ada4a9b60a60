"""The one text reader: UTF-8 decoding, the key = value syntax and the
numeric rows, with what each accepts and what it refuses, and the one
place a refusal gets its file's name."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest

from thermoseg import keyfile
from thermoseg.errors import ValidationError


def _parse(text):
    return keyfile.KeyFile(text.splitlines())


def test_syntax():
    keys = _parse("# comment\nname = a = b\n\n[s]\n; comment\n"
                  "Key = 5% ; not a comment\nframe = 1\nframe = 2\n")
    top, section = keys.section(""), keys.section("s")
    assert top.text("name") == "a = b"
    assert section.text("Key") == "5% ; not a comment"
    assert section.texts("frame") == [(7, "1"), (8, "2")]
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
def test_syntax_errors(text, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.ini").write_text(text)
    with pytest.raises(ValidationError) as info:
        with keyfile.reading("f.ini") as lines:
            keys = keyfile.KeyFile(lines)
            keys.section("s").integer("key", 0, 0)
            keys.finish()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text, message", [
    ("fps = 2\ntimestamps = 1 2\n", "'timestamps': cannot be set beside 'fps'"),
    ("timestamps = 1 2\n\nfps = 2\n", "'fps': cannot be set beside "
                                       "'timestamps'"),
])
def test_either_refuses_both_keys_at_the_later(text, message):
    section = _parse(text).section("")
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        section.either("fps", "timestamps")
    assert info.value.line == len(text.splitlines())
    _parse("fps = 2\n").section("").either("fps", "timestamps")


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
    with keyfile.reading(str(path)) as lines:
        assert lines == ["a = 1", "b = é"]
    path.write_bytes(b"a = 1\nb = \xff\n")
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}:2: not UTF-8 text: "
                                       "invalid start byte")):
        with keyfile.reading(str(path)):
            pass


def test_reading_names_its_file_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("outer.txt", "inner.csv"):
        (tmp_path / name).write_text("1,2\n")

    def refusal(*args):
        with pytest.raises(ValidationError) as info:
            with keyfile.reading("outer.txt"):
                raise ValidationError(*args)
        return str(info.value)

    assert refusal("bad", 3) == "outer.txt:3: bad"
    assert refusal("bad") == "outer.txt: bad"
    # an inner file's refusal keeps its name, also after a pickle round
    # trip such as a forked worker's
    with pytest.raises(ValidationError) as info:
        with keyfile.reading("inner.csv") as lines:
            keyfile.rows(lines, 1, 3, 1)
    named = pickle.loads(pickle.dumps(info.value))
    assert str(named) == ("inner.csv:1: expected 1 rows of 3 values, "
                          "got 1 rows of 2")
    with pytest.raises(ValidationError) as info:
        with keyfile.reading("outer.txt"):
            raise named
    assert str(info.value) == str(named) and info.value.path == "inner.csv"


def test_rows_round_trip(tmp_path):
    values = np.array([[0.1, -0.0, 1e-300], [np.pi, 1.0, 2.0 ** 60]])
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8") as fh:
        keyfile.write_rows(fh, values)
    text = path.read_text(encoding="utf-8").splitlines()
    # the same bytes as formatting each value with %.17g
    assert text == [",".join("%.17g" % v for v in row) for row in values]
    back = keyfile.rows(text, 2, 3, 1)
    assert back.tobytes() == values.tobytes()
    cells = keyfile.rows(["9223372036854775807,-1"], 1, 2, 2, np.int64)
    assert cells.dtype == np.int64 and cells.tolist() == [[2 ** 63 - 1, -1]]


# a refusal names the first line that fails on its own: a bad cell, a
# ragged row or a blank line
@pytest.mark.parametrize("lines, count, dtype, message", [
    (["1,2", "3"], 2, np.float64, "f.csv:8: the number of columns changed"),
    (["1,2", "", "3,4"], 3, np.float64,
     "f.csv:8: expected 3 rows of 2 values, got 2 rows of 2"),
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
    (["1,2", "3,4", "x,5"], 3, np.float64,
     "f.csv:9: could not convert string 'x' to float64 at row 2, column 1"),
    (["1,2", "3,4"], 3, np.float64,
     "f.csv:7: expected 3 rows of 2 values, got 2 rows of 2"),
])
def test_rows_errors(lines, count, dtype, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a warning would print to stderr
        with pytest.raises(ValidationError, match=re.escape(message)):
            with keyfile.reading("f.csv"):
                keyfile.rows(lines, count, 2, 7, dtype)
