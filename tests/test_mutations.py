"""A seeded mutation sweep over every file a command reads: each file of
the test pipeline, broken line by line (a PGM mask in its header only),
gives exit 0, 2 or 3, one stderr line on 2 and 3, and never an escaped
exception. A second sweep gives every numeric option of every command
each of the same values, under the same rule."""

import re
import signal
import warnings

from thermoseg import cli

# pipeline is the shared fixture
from test_cli import overflowing_model, pipeline  # noqa: F401

# Each value is either refused by the reader that parses it or harmless
# where it is accepted: none is a size that a reader accepts and then
# allocates from. A size such as 100000 in a width can pass the parser and
# ask for gigabytes, so no such value is swept.
VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "x", "", "2.5",
          "99999999999999999999")
LINES = 12                 # mutate the first lines of each file
TOKENS = 4                 # replace at most this many tokens of a line
BUDGET_S = 15              # seconds per command

# (pipeline key, command that reads the file at {path})
COMMANDS = {
    "scene": ["synth", "--scene", "{path}", "--out", "{dir}/v"],
    "config": ["train", "--features", "{features}", "--mask", "{mask}",
               "--config", "{path}", "--out", "{dir}/m.txt"],
    "manifest": ["fit", "--manifest", "{path}", "--out", "{dir}/f.csv"],
    "features": ["segment", "--model", "{model}", "--features", "{path}",
                 "--out", "{dir}/s.pgm"],
    "model": ["segment", "--model", "{path}", "--features", "{features}",
              "--out", "{dir}/s.pgm"],
    "matrix": ["eval", "--matrix", "{path}", "--positive", "1"],
    "mask": ["train", "--features", "{features}", "--mask", "{path}",
             "--config", "{config}", "--out", "{dir}/m.txt"],
}

# (option, command that takes {value} there); repro --seed runs a small
# scale, and repro --scale is refused before anything is allocated
OPTIONS = {
    "train --seed": ["train", "--features", "{features}", "--mask", "{mask}",
                     "--config", "{config}", "--out", "{dir}/m.txt",
                     "--seed", "{value}"],
    "eval --perturb": ["eval", "--model", "{model}", "--features",
                       "{features}", "--mask", "{mask}", "--perturb",
                       "{value}"],
    "eval --perturb-seed": ["eval", "--model", "{model}", "--features",
                            "{features}", "--mask", "{mask}", "--perturb",
                            "0.1", "--perturb-seed", "{value}"],
    "eval --perturb-seed without --perturb": [
        "eval", "--model", "{model}", "--features", "{features}", "--mask",
        "{mask}", "--perturb-seed", "{value}"],
    "eval --positive": ["eval", "--model", "{model}", "--features",
                        "{features}", "--mask", "{mask}", "--positive",
                        "{value}"],
    "repro --seed": ["repro", "--experiment", "synthetic-2class", "--out",
                     "{dir}/r", "--scale", "0.25", "--seed", "{value}"],
    "repro --scale": ["repro", "--experiment", "synthetic-2class", "--out",
                      "{dir}/r", "--scale", "{value}"],
}

# (option, value): the one exit code the rule above must narrow to. A
# negative perturb seed is refused whether or not --perturb is set
EXPECTED_EXIT = {("eval --perturb-seed", "-1"): 2,
                 ("eval --perturb-seed without --perturb", "-1"): 2}

_TOKEN = re.compile(r"[^\s,=]+")


def _value_spans(line):
    """(start, end) of each token after a line's first `=`, or of the
    whole line when it has none."""
    offset = line.find("=") + 1
    return [(offset + m.start(), offset + m.end())
            for m in _TOKEN.finditer(line[offset:])]


def mutants(text):
    """(description, mutated text) for each mutation of a file."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[:LINES]):
        yield f"line {i + 1} dropped", "".join(lines[:i] + lines[i + 1:])
        yield f"line {i + 1} repeated", "".join(lines[:i + 1] + lines[i:])
        for lo, hi in _value_spans(line)[:TOKENS]:
            for value in VALUES:
                changed = line[:lo] + value + line[hi:]
                yield (f"line {i + 1} {line[lo:hi]!r} -> {value!r}",
                       "".join(lines[:i] + [changed] + lines[i + 1:]))
    yield "cut in half", text[:len(text) // 2]


def file_mutants(path):
    """(description, mutated bytes) for each mutation of a file: of every
    line of a text file, and of the three header lines of a binary PGM,
    whose raster is kept."""
    blob = path.read_bytes()
    if path.suffix != ".pgm":
        for what, text in mutants(blob.decode("utf-8")):
            yield what, text.encode("utf-8")
        return
    cut = 0
    for _ in range(3):
        cut = blob.index(b"\n", cut) + 1
    for what, text in mutants(blob[:cut].decode("ascii")):
        yield what, text.encode("ascii") + blob[cut:]


class Overrun(Exception):
    """A command ran past its time budget."""


def _overrun(signum, frame):
    raise Overrun(f"ran longer than {BUDGET_S} s")


def _run(argv, capsys):
    """(exit code or escaped exception, stderr lines with warnings).
    argparse's own rejection of an option value exits 2 after its usage
    lines; those are dropped, so its one `error:` line remains."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(BUDGET_S)
    usage = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = cli.main(argv)
    except SystemExit as exc:
        outcome, usage = exc.code, exc.code == 2
    except Exception as exc:           # anything that escapes cli.main
        outcome = exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # a warning prints to stderr outside the test runner
    err = capsys.readouterr().err.splitlines()
    if (usage and err and ": error: argument " in err[-1]
            and err[0].startswith("usage: ")
            and all(line.startswith(" ") for line in err[1:-1])):
        err = err[-1:]
    return outcome, err + [str(w.message) for w in caught]


def _clean(outcome, err):
    return outcome in (0, 2, 3) and (outcome == 0 or len(err) == 1)


def test_mutated_files_exit_cleanly(pipeline, tmp_path, capsys):
    files = {key: pipeline[key]
             for key in ("features", "mask", "model", "config")}
    assert cli.main(["eval", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--mask", str(pipeline["mask"]),
                     "--out", str(tmp_path / "report")]) == 0
    sources = dict(pipeline, matrix=tmp_path / "report" / "matrix.csv")
    # the manifest names its frames relative to itself
    (tmp_path / "frames").symlink_to(pipeline["manifest"].parent / "frames")
    calls, failures = 0, []
    for kind, template in COMMANDS.items():
        path = tmp_path / sources[kind].name
        for what, blob in file_mutants(sources[kind]):
            path.write_bytes(blob)
            argv = [a.format(dir=tmp_path, path=path, **files)
                    for a in template]
            outcome, err = _run(argv, capsys)
            calls += 1
            if not _clean(outcome, err):
                failures.append((kind, what, outcome, err))
    assert calls > 1000
    assert failures == []


def test_numeric_options_exit_cleanly(pipeline, tmp_path, capsys):
    files = {key: pipeline[key]
             for key in ("features", "mask", "model", "config")}
    failures = []
    for option, template in OPTIONS.items():
        for value in VALUES:
            argv = [a.format(dir=tmp_path, value=value, **files)
                    for a in template]
            outcome, err = _run(argv, capsys)
            expected = EXPECTED_EXIT.get((option, value), outcome)
            if not _clean(outcome, err) or outcome != expected:
                failures.append((option, value, outcome, err))
    assert failures == []


def test_overflow_is_one_compute_error(pipeline, tmp_path, capsys):
    # numpy's overflow and invalid-value warnings would print their own
    # lines before the error
    config = tmp_path / "c.ini"
    config.write_text(pipeline["config"].read_text().replace(
        "hidden_activation = tanh\noptimizer = adam\nlearning_rate = 3e-3",
        "hidden_activation = relu\noptimizer = sgd-decay\n"
        "learning_rate = 1e200"))
    model = overflowing_model(pipeline, tmp_path / "m.txt")
    for argv in (["train", "--features", str(pipeline["features"]),
                  "--mask", str(pipeline["mask"]), "--config", str(config),
                  "--out", str(tmp_path / "trained.txt")],
                 ["segment", "--model", str(model), "--features",
                  str(pipeline["features"]), "--out",
                  str(tmp_path / "s.pgm")]):
        outcome, err = _run(argv, capsys)
        assert outcome == 3, (argv[0], outcome, err)
        assert len(err) == 1 and err[0].startswith("compute error: "), err
