"""The one reader of the project's text files. `lines` decodes a file as
UTF-8, `KeyFile` parses key = value lines (scenes, configs, manifests and
the headers of feature and model files) and `rows` parses numeric bodies
(frames, feature rows, model weights and matrix cells).

A key = value line is blank, a full-line `#` or `;` comment, a
`[section]` header, or `key = value` split at the first `=`. Keys are
case-sensitive and values verbatim: no inline comments, interpolation,
`DEFAULT` section, `:` delimiter or continuation lines. Keys above the
first header, all that a manifest or file header has, form section `""`.
A repeated section or key is an error, except a key read as a list.

Typed getters read a section's values: integers must fit int64 and reach
the caller's minimum, floats must not be nan. Each getter marks its key
read, and `KeyFile.finish` rejects every section and key left unread.

A body is comma-separated rows, parsed by `np.loadtxt`: ASCII decimal
literals, `nan` and `inf`, no comments and no `_` digit separators. Every
error is a ValidationError, with one line naming the file and the line,
and for a key its section and name.
"""

import math
import warnings

import numpy as np

from .errors import ValidationError

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

_REQUIRED = object()               # a getter default: the key must be set


def _integer(minimum):
    def convert(word):
        value = int(word)
        if value > INT64_MAX:
            raise ValueError(f"{word} does not fit in int64")
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {word}")
        return value
    return convert


def _number(word):
    value = float(word)
    if math.isnan(value):
        raise ValueError(f"{word} is not a number")
    return value


class Section:
    """The `key = value` lines under one header, with typed getters."""

    def __init__(self, owner, name, lineno):
        self.owner, self.name, self.lineno = owner, name, lineno
        self.entries, self.read = {}, set()    # key -> [(lineno, value)]

    def fail(self, key, problem, index=0):
        """Raise the file's error for `key`, at its index-th line if set."""
        entries = self.entries.get(key)
        prefix = f"[{self.name}] " if self.name else ""
        self.owner.fail(entries[index][0] if entries else None,
                        f"{prefix}{key!r}: {problem}")

    def _value(self, key, default):
        """(text, False) for a key set once, (default, True) when unset."""
        self.read.add(key)
        entries = self.entries.get(key, ())
        if len(entries) > 1:
            self.fail(key, f"repeated, first set on line {entries[0][0]}", 1)
        if not entries and default is _REQUIRED:
            self.fail(key, "missing")
        return (entries[0][1], False) if entries else (default, True)

    def _get(self, key, default, convert, many):
        text, unset = self._value(key, default)
        if unset:
            return text
        try:
            words = text.split() if many else [text]
            if not words:
                raise ValueError("expected at least one value")
            values = tuple(convert(word) for word in words)
        except ValueError as exc:
            self.fail(key, str(exc))
        return values if many else values[0]

    def text(self, key, default=_REQUIRED, choices=None):
        value, unset = self._value(key, default)
        if not unset and choices is not None and value not in choices:
            self.fail(key, f"{value!r} is not one of {', '.join(choices)}")
        return value

    def texts(self, key):
        """Every value of a key that may repeat, in file order."""
        self.read.add(key)
        return [value for _, value in self.entries.get(key, ())]

    def integer(self, key, minimum, default=_REQUIRED):
        return self._get(key, default, _integer(minimum), False)

    def integers(self, key, minimum, default=_REQUIRED):
        return self._get(key, default, _integer(minimum), True)

    def number(self, key, default=_REQUIRED):
        return self._get(key, default, _number, False)

    def numbers(self, key, default=_REQUIRED):
        return self._get(key, default, _number, True)


class KeyFile:
    """The sections parsed from a file's lines, numbered from `first_line`."""

    def __init__(self, lines, path, first_line):
        self.path, self.used = path, set()
        self.sections = {"": Section(self, "", None)}
        section = self.sections[""]
        for lineno, line in enumerate(lines, first_line):
            line = line.strip()
            if not line or line[0] in "#;":
                continue
            name = line[1:-1].strip()
            if line[0] == "[" and line[-1] == "]" and name:
                if name in self.sections:
                    self.fail(lineno, f"[{name}] repeated, first on line "
                                      f"{self.sections[name].lineno}")
                section = self.sections[name] = Section(self, name, lineno)
                continue
            key, eq, value = line.partition("=")
            if not (eq and key.strip()):
                self.fail(lineno, f"expected [section] or key = value, "
                                  f"got {line!r}")
            section.entries.setdefault(key.strip(), []).append(
                (lineno, value.strip()))

    def fail(self, lineno, message):
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        raise ValidationError(f"{where}: {message}")

    def section(self, name):
        """The named section, empty when the file has none."""
        self.used.add(name)
        return self.sections.get(name) or Section(self, name, None)

    def finish(self):
        """Reject every section and key that no getter read."""
        for name, section in self.sections.items():
            if name and name not in self.used:
                self.fail(section.lineno, f"[{name}] is not a known section")
            for key in section.entries:
                if key not in section.read:
                    section.fail(key, "unknown key")


def lines(path):
    """The lines of a UTF-8 text file, split as `str.splitlines` splits."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text: "
                              f"{exc.reason} at byte {exc.start}") from exc


def read(path):
    return KeyFile(lines(path), path, 1)


def rows(lines, count, width, path, first_line, dtype=np.float64):
    """The (count, width) array that `lines`, numbered from `first_line`,
    hold; it is sized by the rows parsed, never by `count`. A blank line
    is skipped, so it shows as a missing row."""
    if len(lines) > count:
        raise ValidationError(f"{path}:{first_line + count}: more than "
                              f"{count} rows")
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a body without rows; the count reports it
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                               ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}:{first_line}: {exc}") from exc
    if table.shape != (count, width):
        got = f"{len(table)} rows of {table.shape[1]}" if len(table) else "none"
        raise ValidationError(f"{path}:{first_line}: expected {count} rows "
                              f"of {width} values, got {got}")
    return table


def write_rows(fh, values):
    """Comma-separated rows at `%.17g`, which round-trips every float64."""
    np.savetxt(fh, values, fmt="%.17g", delimiter=",")

