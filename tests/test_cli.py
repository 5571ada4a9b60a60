"""End-to-end command-line runs against a tiny rendered scene."""

import importlib
import json
import os
import pathlib
import re
import signal
from dataclasses import replace

import numpy as np
import pytest

from thermoseg import (cli, evaluate, features, ingest, nn, repro, synthgen,
                       tsr)
from thermoseg.ingest import (FrameSequence, load_mask, load_sequence,
                              save_mask, write_sequence)
from thermoseg.pgmio import read_pgm

SCENE = """\
[canvas]
width = 16
height = 12

[timing]
fps = 2.0
frames = 100

[noise]
sigma = 0.5
seed = 7

[clamp]
lo = 0.0
hi = 1000.0

[region.sound]
rect = 0 0 8 12
class = 0
profile = power-law
amplitude = 300.0
exponent = -0.5

[region.flawed]
rect = 8 0 8 12
class = 1
profile = adiabatic-plate
amplitude = 300.0
thickness = 2.5e-3
diffusivity = 5.8e-8
"""

CONFIG = """\
[tsr]
degree = 3

[features]
trim_margin = 1
split_seed = 11
augment_amplitude = 0.05
augment_copies = 20
augment_seed = 13

[nn]
hidden = 8
hidden_activation = tanh
optimizer = adam
learning_rate = 3e-3
batch_size = 64
epochs = 60
seed = 12
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth+fit+train chain shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    scene = root / "scene.ini"
    scene.write_text(SCENE)
    config = root / "config.ini"
    config.write_text(CONFIG)
    out = root / "video"

    assert cli.main(["synth", "--scene", str(scene),
                     "--out", str(out)]) == 0
    manifest = out / "manifest.txt"
    assert manifest.exists()
    assert (out / "mask.pgm").exists()

    feats = root / "features.csv"
    assert cli.main(["fit", "--manifest", str(manifest),
                     "--config", str(config), "--out", str(feats)]) == 0

    model = root / "model.txt"
    trace = root / "trace.csv"
    assert cli.main(["train", "--features", str(feats),
                     "--mask", str(out / "mask.pgm"),
                     "--config", str(config),
                     "--trace", str(trace), "--out", str(model)]) == 0
    return {"root": root, "scene": scene, "config": config,
            "manifest": manifest, "mask": out / "mask.pgm",
            "features": feats, "model": model, "trace": trace}


def test_pipeline_files(pipeline):
    trained = nn.load_model(str(pipeline["model"]))
    assert trained.stats is not None
    assert trained.layer_sizes[0] == 12      # degree 3, padded
    trace_text = pipeline["trace"].read_text()
    assert trace_text.splitlines()[0].startswith("step,")
    assert trace_text.rstrip().endswith("epoch-budget")


def test_eval_command(pipeline, capsys, tmp_path):
    out = tmp_path / "report"
    code = cli.main(["eval", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--mask", str(pipeline["mask"]),
                     "--config", str(pipeline["config"]),
                     "--positive", "1", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "accuracy" in text
    assert (out / "matrix.csv").exists()
    assert (out / "report.txt").exists()
    # a tiny noiseless-ish scene should separate almost perfectly
    first = text.splitlines()
    acc_line = next(ln for ln in first if ln.startswith("accuracy"))
    acc = float(acc_line.split("%")[0].split()[-1])
    assert acc >= 95.0


def test_eval_perturbed_stays_reasonable(pipeline, capsys):
    code = cli.main(["eval", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--mask", str(pipeline["mask"]),
                     "--config", str(pipeline["config"]),
                     "--perturb", "0.03", "--perturb-seed", "5"])
    assert code == 0
    text = capsys.readouterr().out
    acc_line = next(ln for ln in text.splitlines()
                    if ln.startswith("accuracy"))
    acc = float(acc_line.split("%")[0].split()[-1])
    assert acc >= 80.0


def test_segment_command(pipeline, tmp_path):
    seg = tmp_path / "seg.pgm"
    assert cli.main(["segment", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--out", str(seg)]) == 0
    image = read_pgm(str(seg))
    assert image.shape == (12, 16)
    assert set(np.unique(image)) <= {0, 255}


def _stage_line(text, stages):
    """The lines before a command's closing stage seconds line, which must
    name `stages` in run order."""
    *lines, last = text.splitlines()
    names = re.fullmatch(r"stage seconds: (.*)", last).group(1).split(", ")
    assert [n.split(" ")[0] for n in names] == stages
    assert all(re.fullmatch(r"\w+ \d+\.\d{3}", n) for n in names)
    return lines


def test_commands_end_with_stage_seconds(pipeline, tmp_path, capsys):
    out, feats, model = tmp_path / "v", tmp_path / "f.csv", tmp_path / "m.txt"
    config = tmp_path / "c.ini"
    config.write_text("[tsr]\ndegree = 3\n[nn]\nhidden = 8\nepochs = 2\n")
    assert cli.main(["synth", "--scene", str(pipeline["scene"]),
                     "--out", str(out)]) == 0
    assert _stage_line(capsys.readouterr().out, ["render", "write"]) == [
        f"wrote 100 frames, {out / 'manifest.txt'}",
        f"wrote {out / 'mask.pgm'}"]
    assert cli.main(["fit", "--manifest", str(out / "manifest.txt"),
                     "--config", str(config), "--out", str(feats)]) == 0
    lines = _stage_line(capsys.readouterr().out, ["load", "fit", "write"])
    assert len(lines) == 1 and lines[0].startswith("fitted 192/192 pixels")
    assert cli.main(["train", "--features", str(feats), "--mask",
                     str(out / "mask.pgm"), "--config", str(config),
                     "--out", str(model)]) == 0
    lines = _stage_line(capsys.readouterr().out, ["load", "train", "write"])
    assert len(lines) == 1 and lines[0].startswith("trained (12, 8, 2)")
    assert re.search(r" steps/s, \d+\.\d\d s waiting for batches\); ",
                     lines[0])
    assert cli.main(["eval", "--model", str(model), "--features", str(feats),
                     "--mask", str(out / "mask.pgm")]) == 0
    lines = _stage_line(capsys.readouterr().out,
                        ["load", "predict", "report"])
    assert len(lines) == 4 and lines[3].startswith("accuracy ")
    assert cli.main(["segment", "--model", str(model), "--features",
                     str(feats), "--out", str(tmp_path / "s.pgm")]) == 0
    assert _stage_line(capsys.readouterr().out,
                       ["load", "predict", "write"]) == [
        f"wrote {tmp_path / 's.pgm'}"]


def test_segment_zero_model_is_all_class_zero(pipeline, tmp_path):
    trained = nn.load_model(str(pipeline["model"]))
    zeroed = replace(trained,
                     weights=tuple(np.zeros_like(w) for w in trained.weights),
                     biases=tuple(np.zeros_like(b) for b in trained.biases))
    model_path = tmp_path / "zero.txt"
    nn.save_model(zeroed, str(model_path))
    seg = tmp_path / "seg.pgm"
    assert cli.main(["segment", "--model", str(model_path),
                     "--features", str(pipeline["features"]),
                     "--out", str(seg)]) == 0
    image = read_pgm(str(seg))
    assert np.all(image == 0)                # ties break to class 0


def test_reference_report(capsys):
    assert cli.main(["eval", "--reference"]) == 0
    text = capsys.readouterr().out
    assert "95.39%" in text
    assert "96.54%" in text
    assert "97.57%" in text
    assert "98.60%" in text
    assert "5429" in text


def test_matrix_scoring(tmp_path, capsys):
    from thermoseg import evaluate
    path = tmp_path / "matrix.csv"
    evaluate.write_matrix_csv(evaluate.REFERENCE_FOUR_STATE, str(path))
    for positive, collapsed in (
            ("1 2 3", "accuracy 96.54%  precision 97.57%  recall 97.94%"),
            ("2 3", "accuracy 98.60%  precision 98.91%  recall 98.43%")):
        assert cli.main(["eval", "--matrix", str(path),
                         "--positive", positive]) == 0
        text = capsys.readouterr().out
        # the four-class table first, then the binary collapse
        assert "0.2mm" in text
        assert "accuracy 95.39%  precision undefined" in text
        assert collapsed in text


def test_eval_positive_scores_that_class(pipeline, capsys, tmp_path):
    # relabel two columns of the class-1 half as class 0, so that the
    # classes' precision and recall differ
    mask = load_mask(str(pipeline["mask"]))
    labels = mask.labels.copy()
    labels[:, 8:10] = 0
    relabeled = tmp_path / "mask.pgm"
    save_mask(replace(mask, labels=labels), str(relabeled))
    out = tmp_path / "report"
    assert cli.main(["eval", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--mask", str(relabeled),
                     "--config", str(pipeline["config"]),
                     "--positive", "0", "--out", str(out)]) == 0
    # the collapsed metrics line, which the stage seconds line follows
    last = capsys.readouterr().out.splitlines()[-2]
    rows = (out / "matrix.csv").read_text().splitlines()[1:]
    counts = np.array([[int(v) for v in row.split(",")[1:]] for row in rows])
    assert counts[0, 1] > 0 and counts[1, 0] == 0
    precision = counts[0, 0] / counts[:, 0].sum()
    recall = counts[0, 0] / counts[0, :].sum()
    assert last.endswith(f"precision {100 * precision:.2f}%  "
                         f"recall {100 * recall:.2f}%")


def _scene_with(*edits):
    """SCENE with each (old, new) pair of edits replaced."""
    text = SCENE
    for old, new in zip(edits[::2], edits[1::2]):
        assert old in text
        text = text.replace(old, new)
    return text


BIG_AMPLITUDE = ("amplitude = 300.0\nexponent",
                 "amplitude = 1.7e308\nexponent")


SYNTH = ["synth", "--scene", "{path}", "--out", "{dir}/v"]
FIT = ["fit", "--manifest", "{path}", "--out", "{dir}/f.csv"]
TRAIN = ["train", "--features", "{dir}/absent.csv", "--mask",
         "{dir}/absent.pgm", "--config", "{path}", "--out", "{dir}/m.txt"]
# augmentation comes after assembly, so its seed needs real inputs
TRAIN_PIPELINE = ["train", "--features", "{features}", "--mask", "{mask}",
                  "--config", "{path}", "--out", "{dir}/m.txt"]
MASK = ["train", "--features", "{features}", "--mask", "{path}",
        "--out", "{dir}/m.txt"]

SEGMENT = ["segment", "--model", "{model}", "--features", "{path}",
           "--out", "{dir}/seg.pgm"]
EVAL = ["eval", "--model", "{model}", "--features", "{path}", "--mask",
        "{mask}"]
MODEL = ["segment", "--model", "{path}", "--features", "{features}",
         "--out", "{dir}/seg.pgm"]


def _features_with(log_base="10.0", row="1,1.5", width="1", height="1"):
    """A one-pixel degree-3 feature file for the pipeline's model."""
    return (f"# thermoseg-features v1\nwidth = {width}\nheight = {height}\n"
            f"degree = 3\npacking = concat-padded\nlog_base = {log_base}\n"
            f"scaling_pending = 1\n{row}" + ",0.5" * 11 + "\n")


def _scaled_model(mean="0 " * 12, std="1 " * 12, weight="0.5", bias="0,0",
                  scaling="1"):
    """A whole 12/2/2 model file for the pipeline's features; a `mean` or
    `std` of None leaves its line out. `weight` opens layer 0's third row
    (line 10), `bias` is the output bias row (line 26)."""
    rows = ["0.5,-0.5"] * 12
    rows[2] = f"{weight},-0.5"
    head = [f"{key} = {value}" for key, value in (
        ("scaling", scaling), ("mean", mean), ("std", std))
        if value is not None]
    return ("thermoseg-model v1\nlayers = 12 2 2\nactivations = tanh softmax\n"
            + "\n".join(head + ["layer 0"] + rows)
            + f"\nbias\n0,0\nlayer 1\n1,-1\n-1,1\nbias\n{bias}\nend\n")


def _model_with(layers):
    """A model file header; the reader stops at its layer sizes."""
    return (f"thermoseg-model v1\nlayers = {layers}\n"
            "activations = tanh softmax\nscaling = 1\n"
            f"mean = {'0 ' * 12}\nstd = {'1 ' * 12}\nlayer 0\n")


def _manifest_with(width):
    return (f"width = {width}\nheight = 1\nfps = 2\nframe = f0.csv\n"
            "frame = f1.csv\nframe = f2.csv\n")


HUGE = "99999999999999999999"           # above int64

REPRO = ["repro", "--experiment", "synthetic-2class", "--out", "{dir}/r",
         "--scale"]
EVAL_PERTURB = ["eval", "--model", "{model}", "--features", "{features}",
                "--mask", "{mask}", "--perturb"]


# (case, input file name, its text or None to leave it absent, argv, error)
MALFORMED_INPUTS = [
    ("missing scene", "absent.ini", None, SYNTH, "absent.ini"),
    ("misspelled region key", "s.ini",
     _scene_with("amplitude = 300.0\nexponent", "amplitud = 400\nexponent"),
     SYNTH, "'amplitud'"),
    ("misspelled noise key", "s.ini", _scene_with("sigma = 0.5", "sigam = 2"),
     SYNTH, "'sigam'"),
    ("key of another profile", "s.ini",
     _scene_with("exponent = -0.5", "exponent = -0.5\nthickness = 1e-3"),
     SYNTH, "'thickness'"),
    ("unknown section", "s.ini", _scene_with("[noise]", "[nosie]"),
     SYNTH, "[nosie]"),
    ("repeated scene section", "s.ini", SCENE + "\n[noise]\nsigma = 1.0\n",
     SYNTH, ":32: [noise] repeated, first on line 9"),
    ("non-numeric sigma", "s.ini", _scene_with("sigma = 0.5", "sigma = abc"),
     SYNTH, "abc"),
    ("nan sigma", "s.ini", _scene_with("sigma = 0.5", "sigma = nan"),
     SYNTH, "sigma"),
    ("inf sigma", "s.ini", _scene_with("sigma = 0.5", "sigma = inf"),
     SYNTH, "sigma"),
    ("overflowing sigma", "s.ini", _scene_with("sigma = 0.5", "sigma = 1e308"),
     SYNTH, "sigma"),
    ("negative seed", "s.ini", _scene_with("seed = 7", "seed = -1"),
     SYNTH, "seed"),
    # 1.7e308 * t**-0.5 passes the float64 maximum at the first frame, 0.5 s
    ("profile beyond float64", "s.ini", _scene_with(*BIG_AMPLITUDE),
     SYNTH, "power-law profile is non-finite"),
    # finite at 1 s, but not with the noise's largest draw added
    ("profile plus noise beyond float64", "s.ini",
     _scene_with(*BIG_AMPLITUDE, "fps = 2.0", "fps = 1.0", "sigma = 0.5",
                 "sigma = 1e307"),
     SYNTH, "noise sigma 1e+307 on a power-law profile reaching 1.7e+308"),
    ("percent sign in a scene value", "s.ini",
     _scene_with("amplitude = 300.0\nexponent", "amplitude = 300%\nexponent"),
     SYNTH, "[region.sound] 'amplitude': could not convert string to float: "
            "'300%'"),
    ("canvas width above int64", "s.ini",
     _scene_with("width = 16", f"width = {HUGE}"),
     SYNTH, f"[canvas] 'width': {HUGE} does not fit in int64"),
    ("frame count above int64", "s.ini",
     _scene_with("frames = 100", f"frames = {HUGE}"),
     SYNTH, f"[timing] 'frames': {HUGE} does not fit in int64"),
    # refused by arithmetic on the sizes, before any array is allocated
    ("canvas beyond any array", "s.ini",
     _scene_with("width = 16\nheight = 12",
                 "width = 2147483648\nheight = 2147483648"),
     SYNTH, "canvas of 100 frames is more than an array can hold"),
    ("non-numeric clamp", "s.ini", _scene_with("hi = 1000.0", "hi = abc"),
     SYNTH, "abc"),
    ("nan scene timestamp", "s.ini",
     _scene_with("fps = 2.0\nframes = 100", "timestamps = 1 nan 3"),
     SYNTH, "timestamps"),
    ("missing manifest", "absent.txt", None, FIT, "absent.txt"),
    ("non-numeric fps", "m.txt", "width = 2\nheight = 1\nfps = x\n"
     "frame = f0.csv\nframe = f1.csv\nframe = f2.csv\n",
     FIT, "fps"),
    ("nan manifest timestamp", "m.txt", "width = 2\nheight = 1\n"
     "timestamps = 1 nan 3\nframe = f0.csv\nframe = f1.csv\n"
     "frame = f2.csv\n",
     FIT, "timestamps"),
    ("nan saturation value", "m.txt", "width = 2\nheight = 1\nfps = 2\n"
     "saturation_value = nan\nframe = f0.csv\nframe = f1.csv\n"
     "frame = f2.csv\n",
     FIT, "saturation_value"),
    ("misspelled manifest key", "m.txt", "width = 2\nheight = 1\nfps = 2\n"
     "saturation_valu = 40.0\nframe = f0.csv\nframe = f1.csv\n"
     "frame = f2.csv\n",
     FIT, "'saturation_valu'"),
    ("repeated manifest key", "m.txt", "width = 2\nheight = 1\nwidth = 3\n"
     "fps = 2\nframe = f0.csv\nframe = f1.csv\nframe = f2.csv\n",
     FIT, "'width'"),
    ("negative manifest width", "m.txt", _manifest_with(-1), FIT,
     "'width': must be >= 1, got -1"),
    ("manifest width above int64", "m.txt", _manifest_with(HUGE), FIT,
     f"'width': {HUGE} does not fit in int64"),
    # refused against the first frame, before the cube is allocated
    ("manifest width beyond its frames", "m.txt", _manifest_with(10 ** 12),
     FIT, "f0.csv:1: expected 1 rows of 1000000000000 values, got 1 rows "
          "of 2"),
    ("nan in a valid feature row (segment)", "f.csv",
     _features_with(row="1,nan"), SEGMENT, "row 0"),
    ("nan in a valid feature row (eval)", "f.csv",
     _features_with(row="1,nan"), EVAL, "row 0"),
    ("feature file in another log base", "f.csv",
     _features_with(log_base="2.0"), SEGMENT, "log_base"),
    ("negative feature width", "f.csv", _features_with(width="-1"), SEGMENT,
     "'width': must be >= 1, got -1"),
    ("feature height above int64", "f.csv", _features_with(height=HUGE),
     SEGMENT, f"'height': {HUGE} does not fit in int64"),
    # refused against the rows the file holds; no array is sized by a header
    ("feature rows beyond the file", "f.csv",
     _features_with(width="100000", height="100000"), SEGMENT,
     "f.csv:8: expected 10000000000 rows of 13 values, got 1 rows of 13"),
    ("negative model layer", "m.txt", _model_with("-1 8 2"), MODEL,
     "'layers': must be >= 1, got -1"),
    ("model layer above int64", "m.txt", _model_with(f"12 {HUGE} 2"), MODEL,
     f"'layers': {HUGE} does not fit in int64"),
    # refused against the rows the file holds; no array is sized by a header
    ("model layers beyond the file", "m.txt",
     _model_with("12 1000000000 2"), MODEL,
     "m.txt:8: expected 12 rows of 1000000000 values, got none"),
    # prediction cannot use a non-finite parameter or scaling value
    ("inf model weight", "m.txt", _scaled_model(weight="inf"), MODEL,
     "m.txt:10: 'layer 0' holds a non-finite value"),
    ("nan model weight", "m.txt", _scaled_model(weight="nan"), MODEL,
     "m.txt:10: 'layer 0' holds a non-finite value"),
    ("inf model bias", "m.txt", _scaled_model(bias="0,-inf"), MODEL,
     "m.txt:26: 'bias' holds a non-finite value"),
    ("inf scaling mean", "m.txt", _scaled_model(mean="inf" + " 0" * 11),
     MODEL, "m.txt:5: 'mean': must be finite, got inf"),
    ("inf scaling std", "m.txt", _scaled_model(std="1 inf" + " 1" * 10),
     MODEL, "m.txt:6: 'std': must be finite and >= 0, got inf"),
    ("negative scaling std", "m.txt", _scaled_model(std="-1" + " 1" * 11),
     MODEL, "m.txt:6: 'std': must be finite and >= 0, got -1"),
    ("short scaling std", "m.txt", _scaled_model(std="1 " * 11), MODEL,
     "m.txt:6: 'std': expected 12 values, got 11"),
    ("short scaling mean and std", "m.txt",
     _scaled_model(mean="0 " * 11, std="1 " * 11), MODEL,
     "m.txt:5: 'mean': expected 12 values, got 11"),
    # every model carries its scaling statistics
    ("model without scaling", "m.txt",
     _scaled_model(scaling="0", mean=None, std=None), MODEL,
     "m.txt:4: 'scaling': '0' is not one of 1"),
    ("model without a std line", "m.txt", _scaled_model(std=None), MODEL,
     "m.txt: 'std': missing"),
    ("matrix cell above int64", "mx.csv",
     f"actual,a,b\na,{HUGE},0\nb,0,1\n", ["eval", "--matrix", "{path}"],
     f"mx.csv:2: could not convert string '{HUGE}' to int64"),
    # each cell fits int64, but accuracy divides by a total that does not
    ("matrix total above int64", "mx.csv",
     "actual,a,b\na,4611686018427387904,4611686018427387904\nb,0,0\n",
     ["eval", "--matrix", "{path}", "--positive", "1"],
     "mx.csv: counts total 9223372036854775808, more than int64 holds"),
    # each row carries its class name, which must be the header's
    ("matrix rows swapped", "mx.csv",
     "actual,sound,flawed\nflawed,0,7\nsound,9,1\n",
     ["eval", "--matrix", "{path}"],
     "mx.csv:2: row named 'flawed', the header's class there is 'sound'"),
    ("matrix row without a name", "mx.csv", "actual,a,b\na,1,0\n,0,1\n",
     ["eval", "--matrix", "{path}"],
     "mx.csv:3: row named '', the header's class there is 'b'"),
    # the header names each class once
    ("matrix class named twice", "mx.csv", "actual,a,a\na,1,0\na,0,1\n",
     ["eval", "--matrix", "{path}"], "mx.csv:1: class 'a' named twice"),
    ("matrix class without a name", "mx.csv", "actual,,b\n,1,0\nb,0,1\n",
     ["eval", "--matrix", "{path}"], "mx.csv:1: class 0 has no name"),
    ("unknown config key", "c.ini", "[nn]\nmomentum = 0.9\n",
     ["fit", "--manifest", "{dir}/absent.txt", "--config", "{path}",
      "--out", "{dir}/f.csv"], "momentum"),
    ("fit log base in config", "c.ini", "[tsr]\nlog_base = 10\n",
     ["fit", "--manifest", "{dir}/absent.txt", "--config", "{path}",
      "--out", "{dir}/f.csv"], "'log_base'"),
    # early_stopping's first number sets the check interval, so a run
    # with both would ignore trace_every
    ("trace_every beside early_stopping", "c.ini",
     "[nn]\nmax_steps = 20\nearly_stopping = 100 3\ntrace_every = 7\n",
     TRAIN_PIPELINE, "trace_every and early_stopping cannot both be set"),
    ("nan learning rate", "c.ini", "[nn]\nlearning_rate = nan\n", TRAIN,
     "learning_rate"),
    ("negative max_steps", "c.ini", "[nn]\nmax_steps = -5\n", TRAIN,
     "max_steps"),
    ("negative training seed", "c.ini", "[nn]\nseed = -1\n", TRAIN, "seed"),
    ("negative split seed", "c.ini", "[features]\nsplit_seed = -3\n", TRAIN,
     "split seed"),
    ("negative augment seed", "c.ini", "[features]\naugment_seed = -3\n",
     TRAIN_PIPELINE, "augment seed"),
    ("nan augment amplitude", "c.ini",
     "[features]\naugment_amplitude = nan\naugment_copies = 2\n",
     TRAIN_PIPELINE, "amplitude"),
    ("augment amplitude with an infinite range", "c.ini",
     "[features]\naugment_amplitude = 1e308\naugment_copies = 2\n",
     TRAIN_PIPELINE, "finite range 2a, got 1e+308"),
    # refused by arithmetic on the count, before any array is allocated
    ("unshapeable augment copies", "c.ini",
     "[features]\naugment_amplitude = 0.05\n"
     "augment_copies = 99999999999999999999\n",
     TRAIN_PIPELINE, f"'augment_copies': {HUGE} does not fit in int64"),
    # 2**62 fits int64, so the count reaches augment's own shape guard
    ("unshapeable augment copies in int64", "c.ini",
     "[features]\naugment_amplitude = 0.05\n"
     "augment_copies = 4611686018427387904\n",
     TRAIN_PIPELINE, "copies 4611686018427387904"),
    # an array shape numpy accepts but no 64-bit address space holds
    # (about 1.2 EiB), so the allocation fails at once, touching no page,
    # whatever the kernel's overcommit policy
    ("augment copies beyond memory", "c.ini",
     "[features]\naugment_amplitude = 0.05\n"
     "augment_copies = 100000000000000\n",
     TRAIN_PIPELINE, "Unable to allocate"),
    ("repeated config option", "c.ini", "[tsr]\ndegree = 3\ndegree = 3\n",
     TRAIN, ":3: [tsr] 'degree': repeated, first set on line 2"),
    ("DEFAULT section in config", "c.ini", "[DEFAULT]\ndegree = 3\n", TRAIN,
     "[DEFAULT] is not a known section"),
    ("negative hidden size", "c.ini", "[nn]\nhidden = 8 -1\n", TRAIN,
     "[nn] 'hidden': must be >= 1, got -1"),
    ("hidden size above int64", "c.ini", f"[nn]\nhidden = {HUGE}\n", TRAIN,
     f"[nn] 'hidden': {HUGE} does not fit in int64"),
    # --seed s re-keys split, augment and training seeds to s+1, s+2, s+3
    ("base seed -2", "c.ini", "[nn]\nepochs = 1\n",
     TRAIN + ["--seed", "-2"], "split seed"),
    ("base seed -5", "c.ini", "[nn]\nepochs = 1\n",
     TRAIN + ["--seed", "-5"], "seed must be >= 0"),
    ("negative perturb seed", "c.ini", "[tsr]\ndegree = 3\n",
     ["eval", "--model", "{model}", "--features", "{features}", "--mask",
      "{mask}", "--config", "{path}", "--perturb", "0.1",
      "--perturb-seed", "-1"], "perturb seed"),
    ("negative perturb seed without --perturb", "absent", None,
     ["eval", "--model", "{model}", "--features", "{features}", "--mask",
      "{mask}", "--perturb-seed", "-1"],
     "perturb seed must be >= 0, got -1"),
    ("eval without inputs", "absent", None, ["eval"], "eval needs"),
    ("missing training mask", "nope.pgm", None, MASK, "nope.pgm"),
    ("negative PGM size", "n.pgm", "P5\n-1 -1\n255\n\x00", MASK,
     "n.pgm: PGM size -1x-1, need at least 1x1"),
    ("empty PGM width", "n.pgm", "P5\n0 5\n255\n", MASK,
     "n.pgm: PGM size 0x5, need at least 1x1"),
    ("negative PGM maxval", "n.pgm", "P5\n2 1\n-3\n\x00\x01", MASK,
     "n.pgm: maxval -3 outside 1..255"),
    # a repeated header line shifts the raster into the header's bytes
    ("repeated PGM size line", "n.pgm", "P5\n2 1\n2 1\n255\n\x00\x01",
     MASK, "n.pgm: 6 bytes after the 2x1 PGM raster"),
    ("PGM sample above maxval", "n.pgm", "P5\n2 1\n1\n\x00\x02", MASK,
     "n.pgm: PGM sample 2 above maxval 1"),
    ("segment into a missing directory", "absent", None,
     ["segment", "--model", "{model}", "--features", "{features}",
      "--out", "{dir}/nodir/s.pgm"], "nodir/s.pgm"),
    ("fit into a missing directory", "m.txt", "width = 2\nheight = 1\n"
     "fps = 2\nframe = f0.csv\nframe = f1.csv\nframe = f2.csv\n",
     ["fit", "--manifest", "{path}", "--out", "{dir}/nodir/f.csv"],
     "nodir/f.csv"),
    ("non-numeric positive class", "absent", None,
     ["eval", "--model", "{model}", "--features", "{features}", "--mask",
      "{mask}", "--positive", "x"], "--positive"),
    # refused before the output directory is made or anything allocated
    ("NaN scale", "absent", None, REPRO + ["nan"], "got nan"),
    ("zero scale", "absent", None, REPRO + ["0"], "(0, 1], got 0.0"),
    ("scale above 1", "absent", None, REPRO + ["2.5"], "(0, 1], got 2.5"),
    ("NaN perturbation", "absent", None, EVAL_PERTURB + ["nan"],
     "relative amplitude must be >= 0"),
    ("negative perturbation", "absent", None, EVAL_PERTURB + ["-1"],
     "got -1.0"),
]


def test_exit_code_validation_errors(pipeline, tmp_path, capsys):
    files = {key: pipeline[key] for key in ("features", "mask", "model")}
    for i in range(3):
        (tmp_path / f"f{i}.csv").write_text(f"{5.0 - i},{6.0 - i}\n")
    for case, name, text, argv, needle in MALFORMED_INPUTS:
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        argv = [a.format(dir=tmp_path, path=path, **files) for a in argv]
        assert cli.main(argv) == 2, case
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), case
        assert captured.err.count("\n") == 1, (case, captured.err)
        assert "Traceback" not in captured.err, case
        assert needle in captured.err, (case, captured.err)
    assert not (tmp_path / "r").exists()


def test_scaled_model_is_valid(pipeline, tmp_path):
    # each malformed model row breaks one value of this file
    path = tmp_path / "m.txt"
    path.write_text(_scaled_model())
    assert cli.main(["segment", "--model", str(path), "--features",
                     str(pipeline["features"]),
                     "--out", str(tmp_path / "s.pgm")]) == 0


def overflowing_model(pipeline, path):
    """Save the pipeline's model with every tanh unit saturated at 1 and
    output weights of 1e308: finite, but its logits overflow."""
    trained = nn.load_model(str(pipeline["model"]))
    hidden, out = trained.weights
    model = replace(trained, weights=(np.zeros_like(hidden),
                                      np.full_like(out, 1e308)),
                    biases=(np.full_like(trained.biases[0], 50.0),
                            np.zeros_like(trained.biases[1])))
    nn.save_model(model, str(path))
    return path


def test_exit_code_compute_error(pipeline, tmp_path, capsys):
    path = overflowing_model(pipeline, tmp_path / "broken.txt")
    code = cli.main(["eval", "--model", str(path),
                     "--features", str(pipeline["features"]),
                     "--mask", str(pipeline["mask"])])
    assert code == 3
    assert "compute error" in capsys.readouterr().err


def test_dead_frame_worker_is_one_compute_error(pipeline, tmp_path,
                                                monkeypatch, capsys):
    # two worker processes parse frames 1 to 99; the second dies at 90
    monkeypatch.setattr(ingest._kernels, "core_count", lambda: 2)
    monkeypatch.setattr(ingest, "MIN_WORKER_VALUES", 8)
    read = ingest._read_frame

    def dies_at_frame_90(path, height, width):
        if path.endswith("frame_00090.csv"):
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path, height, width)

    monkeypatch.setattr(ingest, "_read_frame", dies_at_frame_90)
    code = cli.main(["fit", "--manifest", str(pipeline["manifest"]),
                     "--config", str(pipeline["config"]),
                     "--out", str(tmp_path / "f.csv")])
    assert code == 3
    assert capsys.readouterr().err == (
        "compute error: worker process 2 of 2 died before it sent its "
        "share\n")
    assert not (tmp_path / "f.csv").exists()


def test_fit_reports_drop_reasons(tmp_path, capsys):
    stack = np.full((8, 1, 5), 50.0)
    stack[:, 0, 1] = 99.0          # saturated in the last frame
    stack[:6, 0, 2] = 99.0         # two frames left for three coefficients
    stack[2, 0, 3] = 0.0           # log undefined
    stack[:5, 0, 4] = 99.0         # one log-time value left
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1e15, 1e15 + 0.125, 1e15 + 0.25])
    manifest = write_sequence(FrameSequence(t, stack, 99.0),
                              str(tmp_path / "v"))
    config = tmp_path / "c.ini"
    config.write_text("[tsr]\ndegree = 2\n")
    assert cli.main(["fit", "--manifest", manifest, "--config", str(config),
                     "--out", str(tmp_path / "f.csv")]) == 0
    assert capsys.readouterr().out.startswith(
        "fitted 1/5 pixels; dropped 1 saturated, 1 too-few-frames, "
        "1 non-positive, 1 degenerate-window (degree 2, 9 features)")


def test_config_seed_rekeying(pipeline, tmp_path):
    # the same base seed must give identical models, different seeds not
    args = ["train", "--features", str(pipeline["features"]),
            "--mask", str(pipeline["mask"]),
            "--config", str(pipeline["config"])]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    assert cli.main(args + ["--seed", "99", "--out", str(a)]) == 0
    assert cli.main(args + ["--seed", "99", "--out", str(b)]) == 0
    assert cli.main(args + ["--seed", "100", "--out", str(c)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_repro_smoke_scale_is_deterministic(tmp_path, capsys):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main(["repro", "--experiment", "synthetic-2class",
                         "--out", str(out), "--scale", "0.1"])
        assert code in (0, 3)                # tiny-scale targets may miss
        with open(out / "results.json", "r", encoding="utf-8") as fh:
            runs.append((code, json.load(fh)))
    capsys.readouterr()
    (code1, r1), (code2, r2) = runs
    assert code1 == code2
    assert r1["sha256"] == r2["sha256"]
    assert r1["validation_accuracy"] == r2["validation_accuracy"]
    assert r1["scale"] == 0.1
    for r in (r1, r2):
        # `passed` is the targets' verdict: `<key>_min` and `<key>_max`
        # bound the result key they name
        verdicts = []
        for target, bound in r["targets"].items():
            key, side = target.rsplit("_", 1)
            assert key in r and side in ("min", "max"), target
            verdicts.append(r[key] >= bound if side == "min"
                            else r[key] <= bound)
        assert verdicts and r["passed"] == all(verdicts)
        assert code1 == (0 if r["passed"] else 3)
        assert set(r["timings"]) == {"render", "fit", "write", "train",
                                     "predict", "evaluate", "hash"}
        assert all(v >= 0.0 for v in r["timings"].values())
        assert r["peak_rss_mb"] > 0.0
        assert r["train_feeder"] in ("process", "inline")
        assert 0.0 <= r["train_batch_wait_s"] <= r["train_seconds"]
        # one high-water mark per stage end, in run order
        stages = [stage for stage, _ in r["stage_peak_rss_mb"]]
        assert stages == ["render", "fit"] * 3 + [
            "write", "train", "write", "predict", "evaluate", "hash"]
        marks = [mb for _, mb in r["stage_peak_rss_mb"]]
        assert 0.0 < marks[0] and marks == sorted(marks)
        assert marks[-1] <= r["peak_rss_mb"]
        # the largest waited-for worker process, 0 when none started
        assert r["peak_rss_children_mb"] >= 0.0
        children = r["stage_peak_rss_children_mb"]
        assert [stage for stage, _ in children] == stages
        assert [mb for _, mb in children] == sorted(mb for _, mb in children)


@pytest.mark.parametrize("experiment", sorted(repro.EXPERIMENTS))
def test_repro_stages_count_every_second(tmp_path, capsys, experiment):
    code = cli.main(["repro", "--experiment", experiment, "--out",
                     str(tmp_path), "--scale", "0.25"])
    capsys.readouterr()
    assert code in (0, 3)
    with open(tmp_path / "results.json", "r", encoding="utf-8") as fh:
        r = json.load(fh)
    staged = sum(r["timings"].values())
    assert staged <= r["elapsed_seconds"] * 1.001
    assert staged >= r["elapsed_seconds"] * 0.95, r["timings"]


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["repro", "--experiment", "warp-drive",
                  "--out", str(tmp_path)])


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_ini_blocks_parse(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert [b.splitlines()[0] for b in blocks] == ["; scene.ini",
                                                  "; config.ini"]
    scene, config = tmp_path / "scene.ini", tmp_path / "config.ini"
    scene.write_text(blocks[0])
    config.write_text(blocks[1])
    assert len(synthgen.load_scene(str(scene)).layout.regions) == 2
    parsed = cli.load_config(str(config))
    assert parsed["augment_amplitude"] == 0.05
    assert parsed["train"].early_stopping == (2000, 3)


# (file name, a command that reads it) for each kind of text file
UNDECODABLE = [
    ("s.ini", SYNTH),
    ("c.ini", TRAIN),
    ("m.txt", FIT),
    ("f0.csv", ["fit", "--manifest", "{dir}/frames.txt", "--out",
                "{dir}/f.csv"]),
    ("f.csv", SEGMENT),
    ("m.txt", MODEL),
    ("mx.csv", ["eval", "--matrix", "{path}"]),
]


def test_undecodable_file_exits_2(pipeline, tmp_path, capsys):
    files = {key: pipeline[key] for key in ("features", "mask", "model")}
    (tmp_path / "frames.txt").write_text("width = 1\nheight = 1\nfps = 2\n"
                                         "frame = f0.csv\n")
    for name, argv in UNDECODABLE:
        path = tmp_path / name
        path.write_bytes(b"width = 1\n\xff\n")
        argv = [a.format(dir=tmp_path, path=path, **files) for a in argv]
        assert cli.main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{path}:2: not UTF-8 text" in err, err


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_readers_match_the_package(pipeline, monkeypatch, capsys,
                                             tmp_path):
    # the benchmark reads the package's files with readers of its own; a
    # format change they miss would fail its operations, not this suite
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    image = tsr.read_feature_image(str(pipeline["features"]))
    height, width = image.valid.shape
    rows = [0, 5, height - 1]
    # cli-2class skips seven header lines before the feature body
    lines = pipeline["features"].read_text().splitlines()
    assert len(lines) == 7 + image.valid.size
    flags, values = workloads._read_feature_rows(str(pipeline["features"]),
                                                 width, rows)
    np.testing.assert_array_equal(flags, image.valid[rows].ravel())
    np.testing.assert_array_equal(
        values, image.values[rows].reshape(-1, image.feature_count))
    stamps, series = workloads._read_frame_rows(str(pipeline["manifest"]),
                                                rows)
    seq = load_sequence(str(pipeline["manifest"]))
    np.testing.assert_array_equal(stamps, seq.timestamps)
    np.testing.assert_array_equal(
        series, seq.data[:, rows].reshape(len(seq.timestamps), -1))
    mask = load_mask(str(pipeline["mask"]))
    np.testing.assert_array_equal(checks.read_pgm(str(pipeline["mask"])),
                                  mask.labels)
    out = tmp_path / "report"
    assert cli.main(["eval", "--model", str(pipeline["model"]),
                     "--features", str(pipeline["features"]),
                     "--mask", str(pipeline["mask"]),
                     "--config", str(pipeline["config"]),
                     "--out", str(out)]) == 0
    match = re.search(r"accuracy (\S+)%", capsys.readouterr().out)
    accuracy = evaluate.metrics(
        evaluate.read_matrix_csv(str(out / "matrix.csv")))[0]
    assert match and match.group(1) == f"{100.0 * accuracy:.2f}"
