"""The three benchmark workloads.

Each workload has a set-up (everything before its timed section, including
the inputs the timed section uses), a timed section, and `verify`, which
runs after the timed section on small extracts of the outputs. `verify`
returns one (operation, ok, detail) entry per timed operation and, for
every check, whether the check rejected a deliberately damaged output.

All inputs come from the workload seed; thermoseg only sees the generated
scenes, recordings, configs and files.
"""

import contextlib
import io
import os
import re

import numpy as np

import checks

SIGMA_4CLASS = 0.5
FPS_4CLASS = 15.0          # 3600 frames over 240 s, as the pinned experiment


def _seeds(seed, count):
    """Distinct per-stage seeds derived from the workload seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count) % 1_000_000]


def _timestamps(frames, fps):
    return (np.arange(frames) + 1.0) / fps


def _quadrant_sample(width, height, per_grade, seed):
    """Random pixels, `per_grade` inside each quadrant."""
    rng = np.random.default_rng(seed)
    truth = checks.quadrant_truth(width, height)
    rows, cols = [], []
    for grade in range(4):
        r, c = np.nonzero(truth == grade)
        pick = rng.choice(r.size, per_grade, replace=False)
        rows.append(r[pick])
        cols.append(c[pick])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return rows, cols, truth[rows, cols]


def _four_class(ts, width, height):
    return ts.synthgen.four_class_scene(
        width, height, checks.GAPS_MM, depth_mm=checks.DEFECT_DEPTH_MM,
        diffusivity=checks.POLYMER_DIFFUSIVITY,
        base_depth_mm=checks.BASE_DEPTH_MM, amplitude=checks.AMPLITUDE)


def _train_4class(ts, image, mask, seeds, trim, steps, check_every):
    """10/20/4 tanh net, +-5% x50 augmentation, Adam 1e-3, batch 2048."""
    features, nn = ts.features, ts.nn
    ds = features.assemble(image, ts.ingest.trim_mask(mask, trim))
    train_ds, val_ds, test_ds = features.split(
        ds, features.SplitSpec(0.8, 0.1, seeds[0]))
    train_aug = features.augment(train_ds, 0.05, 50, seeds[1])
    stats = features.fit_scaler(train_aug)
    train_s = features.apply_scaler(train_aug, stats)
    val_s = features.apply_scaler(val_ds, stats)
    model = nn.init_model((image.feature_count, 10, 20, 4),
                          ("tanh", "tanh", "softmax"), seeds[2], stats)
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-3,
                            batch_size=2048, max_steps=steps,
                            early_stopping=(check_every, 3), seed=seeds[3])
    model, trace = nn.train(model, train_s, val_s, config)
    return {"model": model, "trace": trace, "train_ds": train_ds,
            "train_aug": train_aug, "train_s": train_s, "val_ds": val_ds,
            "test_ds": test_ds}


def _run_ops(names, steps):
    """Results for a fixed list of operations: ok, or the error raised."""
    results = []
    for name in names:
        try:
            ok, detail = steps[name]()
        except Exception as exc:   # a raising operation counts as failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def _rejects(check, *args):
    """True when a check turns down a damaged input (or raises on it)."""
    try:
        ok, _ = check(*args)
    except Exception:
        return True
    return not ok


# ---------------------------------------------------------------------------
# inspect-4class: one new full-size part through an existing model
# ---------------------------------------------------------------------------

class Inspect4Class:
    name = "inspect-4class"
    width, height, frames = 236, 182, 3600
    train_width, train_height = 64, 48
    train_steps = 2000
    OPS = ("render", "fit", "predict", "region_report", "write_segmentation")

    def setup(self, ts, seed, out_dir, tracer=None):
        seeds = _seeds(seed, 8)
        t = _timestamps(self.frames, FPS_4CLASS)
        # the model is trained on a small recording with the same timing
        layout, mask = _four_class(ts, self.train_width, self.train_height)
        seq = ts.synthgen.render_video(
            layout, t, ts.synthgen.NoiseSpec(SIGMA_4CLASS, seeds[0]))
        image = ts.tsr.fit_sequence(seq, 4, ts.tsr.PACK_PADDED)
        del seq
        trained = _train_4class(ts, image, mask, seeds[1:5], trim=2,
                                steps=self.train_steps, check_every=500)
        layout, mask = _four_class(ts, self.width, self.height)
        rows, cols, grades = _quadrant_sample(self.width, self.height, 50,
                                              seeds[6])
        return {"t": t, "layout": layout, "mask": mask,
                "model": trained["model"], "noise_seed": seeds[5],
                "rows": rows, "cols": cols, "grades": grades,
                "seg_path": os.path.join(out_dir, "segmentation.pgm")}

    def timed(self, ts, s):
        seq = ts.synthgen.render_video(
            s["layout"], s["t"],
            ts.synthgen.NoiseSpec(SIGMA_4CLASS, s["noise_seed"]))
        series = seq.data[:, s["rows"], s["cols"]]
        saturation = seq.saturation_value
        image = ts.tsr.fit_sequence(seq, 4, ts.tsr.PACK_PADDED)
        del seq
        label_map = ts.nn.predict_map(s["model"], image)
        report = ts.evaluate.region_report(label_map, s["mask"])
        ts.evaluate.write_segmentation(label_map, 4, s["seg_path"])
        return {"series": series, "saturation": saturation, "image": image,
                "label_map": label_map, "report": report}

    def verify(self, s, o):
        truth = checks.quadrant_truth(self.width, self.height)
        rows, cols = s["rows"], s["cols"]
        feats = o["image"].values[rows, cols]
        fvalid = o["image"].valid[rows, cols]
        labels, valid = o["label_map"].labels, o["label_map"].valid
        fit_args = (o["series"], s["t"], o["saturation"], 4, feats, fvalid)
        map_args = (labels, valid, truth, 0.954, 0.986)
        report_args = (o["report"], labels, valid, truth)

        def segmentation():
            return checks.check_segmentation(checks.read_pgm(s["seg_path"]),
                                             labels, valid, 4)

        ops = _run_ops(self.OPS, {
            "render": lambda: checks.check_render(o["series"], s["grades"],
                                                  s["t"], SIGMA_4CLASS),
            "fit": lambda: checks.check_fit(*fit_args),
            "predict": lambda: checks.check_label_map(*map_args),
            "region_report": lambda: checks.check_region_report(*report_args),
            "write_segmentation": segmentation,
        })
        flipped = checks.flip_labels(labels, valid, 0.05, 4)
        image = checks.read_pgm(s["seg_path"]).copy()
        image[:3, :3] = 170 if image[0, 0] != 170 else 85
        selftests = [
            ("render", _rejects(checks.check_render, o["series"] + 0.1,
                                s["grades"], s["t"], SIGMA_4CLASS)),
            ("fit", _rejects(checks.check_fit, o["series"], s["t"],
                             o["saturation"], 4,
                             checks.perturb_coefficient(feats, fvalid), fvalid)),
            ("predict", _rejects(checks.check_label_map, flipped, valid,
                                 truth, 0.954, 0.986)),
            ("region_report", _rejects(checks.check_region_report,
                                       o["report"], flipped, valid, truth)),
            ("write_segmentation", _rejects(checks.check_segmentation, image,
                                            labels, valid, 4)),
        ]
        return ops, selftests


# ---------------------------------------------------------------------------
# train-4class: build the four-grade model from a full-canvas recording
# ---------------------------------------------------------------------------

class Train4Class:
    name = "train-4class"
    width, height, frames = 236, 182, 900     # over the same 240 s
    steps = 10000
    OPS = ("augment", "scale", "train_and_score")

    def setup(self, ts, seed, out_dir, tracer=None):
        seeds = _seeds(seed, 8)
        layout, mask = _four_class(ts, self.width, self.height)
        seq = ts.synthgen.render_video(
            layout, _timestamps(self.frames, self.frames / 240.0),
            ts.synthgen.NoiseSpec(SIGMA_4CLASS, seeds[0]))
        image = ts.tsr.fit_sequence(seq, 4, ts.tsr.PACK_PADDED)
        del seq
        return {"image": image, "mask": mask, "seeds": seeds}

    def timed(self, ts, s):
        seeds = s["seeds"]
        r = _train_4class(ts, s["image"], s["mask"], seeds[1:5], trim=5,
                          steps=self.steps, check_every=2000)
        features, nn, evaluate = ts.features, ts.nn, ts.evaluate
        model = r["model"]

        def predict(ds):
            scaled = features.apply_scaler(ds, model.stats)
            return nn.forward(model, scaled.vectors).argmax(axis=1)

        val_pred = predict(r["val_ds"])
        test_ds = r["test_ds"]
        test_pred = predict(test_ds)
        cm = evaluate.confusion(test_ds.labels, test_pred, 4)
        accuracy = evaluate.metrics(cm)[0]
        evaluate.metrics(evaluate.collapse(
            cm, evaluate.COLLAPSE_OVER_HALF_LAYER))
        pert_pred = predict(features.perturb(test_ds, 0.03, seeds[5]))
        # small extracts for the checks; the big arrays go with the pass
        n = r["train_ds"].size
        pick = np.random.default_rng(seeds[6]).choice(n, 200, replace=False)
        copy = 1 + pick % 50
        return {"train_rows": r["train_ds"].vectors.copy(), "pick": pick,
                "clones": r["train_aug"].vectors[copy * n + pick].copy(),
                "aug_rows": r["train_aug"].size,
                "raw": r["train_aug"].vectors[::25].copy(),
                "scaled": r["train_s"].vectors[::25].copy(),
                "val_acc": float(np.mean(val_pred == r["val_ds"].labels)),
                "test_labels": test_ds.labels, "test_pred": test_pred,
                "pert_pred": pert_pred, "cm": cm.counts,
                "accuracy": accuracy,
                "steps": r["trace"].steps[-1],
                "stop": r["trace"].stop_reason}

    def verify(self, s, o):
        aug_args = (o["train_rows"], o["pick"], o["clones"], 0.05, 50,
                    o["aug_rows"])
        score_args = [o["test_pred"], o["test_labels"], 0.90, o["cm"],
                      o["pert_pred"], 5.0]

        def scores():
            ok, detail = checks.check_test_scores(*score_args)
            same = abs(o["accuracy"] - float(np.mean(
                o["test_pred"] == o["test_labels"]))) <= 1e-12
            return ok and same, (f"{detail}, val {o['val_acc']:.4f}, "
                                 f"{o['steps']} steps ({o['stop']})")

        ops = _run_ops(self.OPS, {
            "augment": lambda: checks.check_augment(*aug_args),
            "scale": lambda: checks.check_scaled(o["raw"], o["scaled"]),
            "train_and_score": scores,
        })
        bad_clones = o["clones"].copy()
        bad_clones[0, 0] = o["train_rows"][o["pick"][0], 0] * 1.2 + 1.0
        bad_cm = o["cm"].copy()
        bad_cm[0, 0] += 1
        every_fifth = np.arange(o["test_pred"].size) % 5 == 0
        flipped = (o["test_pred"] + every_fifth) % 4
        selftests = [
            ("augment", _rejects(checks.check_augment, o["train_rows"],
                                 o["pick"], bad_clones, 0.05, 50,
                                 o["aug_rows"])),
            ("scale", _rejects(checks.check_scaled, o["raw"],
                               o["scaled"] * 1.2)),
            ("train_and_score/accuracy", _rejects(
                checks.check_test_scores, flipped, o["test_labels"], 0.90,
                o["cm"], o["pert_pred"], 5.0)),
            ("train_and_score/matrix", _rejects(
                checks.check_test_scores, o["test_pred"], o["test_labels"],
                0.90, bad_cm, o["pert_pred"], 5.0)),
        ]
        return ops, selftests


# ---------------------------------------------------------------------------
# cli-2class: the file path through cli.main
# ---------------------------------------------------------------------------

SCENE_2CLASS = """\
[canvas]
width = {width}
height = {height}

[timing]
fps = {fps}
frames = {frames}

[noise]
sigma = 2.0
seed = {seed}

[clamp]
lo = 0.0
hi = 254.0

{regions}
"""

SOUND = "profile = power-law\namplitude = 400.0\nexponent = -0.5"
FLAWED = ("profile = adiabatic-plate\namplitude = 400.0\n"
          "thickness = 2.5e-3\ndiffusivity = 5.8e-8")

CONFIG_2CLASS = """\
[tsr]
degree = 8

[features]
trim_margin = 0
train_fraction = 0.8
validation_fraction = 0.1
split_seed = {split_seed}

[nn]
hidden = 16 32 16
hidden_activation = relu
optimizer = sgd-decay
learning_rate = 0.05
decay_step = 500
decay_rate = 0.7
batch_size = 512
max_steps = 3000
early_stopping = 1000 3
seed = {nn_seed}
"""


def _scene_ini(width, height, frames, seed):
    x0, y0, w, h = width // 4, height // 4, width // 2, height // 2
    rects = (((0, 0, width, y0), 0), ((0, y0, x0, h), 0), ((x0, y0, w, h), 1),
             ((x0 + w, y0, width - x0 - w, h), 0),
             ((0, y0 + h, width, height - y0 - h), 0))
    regions = "\n\n".join(
        f"[region.r{i}]\nrect = {' '.join(map(str, rect))}\nclass = {cls}\n"
        + (FLAWED if cls else SOUND)
        for i, (rect, cls) in enumerate(rects))
    return SCENE_2CLASS.format(width=width, height=height, frames=frames,
                               fps=frames / 240.0, seed=seed,
                               regions=regions)


def _read_frame_rows(manifest, rows):
    """Histories of every pixel on the given rows, straight from the CSVs."""
    base = os.path.dirname(manifest)
    stamps, paths = None, []
    with open(manifest, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "frame":
                paths.append(os.path.join(base, value))
            elif key == "timestamps":
                stamps = np.array([float(v) for v in value.split()])
    series = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        series.append([float(v) for r in rows for v in lines[r].split(",")])
    return stamps, np.array(series)


def _read_feature_rows(path, width, rows):
    """Valid flags and feature rows of every pixel on the given rows."""
    wanted = {r * width + c for r in rows for c in range(width)}
    flags, values = [], []
    with open(path, encoding="utf-8") as fh:
        for _ in range(7):
            fh.readline()
        for i, line in enumerate(fh):
            if i in wanted:
                parts = line.split(",")
                flags.append(parts[0] == "1")
                values.append([float(v) for v in parts[1:]])
    return np.array(flags), np.array(values)


class Cli2Class:
    name = "cli-2class"
    # 400 frames rather than the 600 of synthetic-2class keep the three
    # set-ups of a run (two recordings each) inside the run-time budget
    width, height, frames = 96, 72, 400
    sample_rows = tuple(range(3, 72, 7))   # 10 rows, border and inner part
    OPS = ("fit_a", "fit_b", "train", "eval", "segment")

    def _cli(self, ts, tracer, argv):
        """cli.main in process, its stdout captured; (exit code, output)."""
        buf = io.StringIO()
        span = (tracer.span(f"cli.{argv[0]}") if tracer is not None
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(buf):
            code = ts.cli.main(argv)
        return code, buf.getvalue()

    def setup(self, ts, seed, out_dir, tracer=None):
        seeds = _seeds(seed, 4)
        paths = {}
        codes = []
        for key, noise in (("a", seeds[0]), ("b", seeds[1])):
            scene = os.path.join(out_dir, f"scene_{key}.ini")
            with open(scene, "w", encoding="utf-8") as fh:
                fh.write(_scene_ini(self.width, self.height, self.frames,
                                    noise))
            video = os.path.join(out_dir, f"video_{key}")
            codes.append(self._cli(ts, tracer, ["synth", "--scene", scene,
                                                "--out", video])[0])
            paths[key] = {"manifest": os.path.join(video, "manifest.txt"),
                          "mask": os.path.join(video, "mask.pgm"),
                          "features": os.path.join(out_dir, f"feat_{key}.csv")}
        if codes != [0, 0]:
            raise RuntimeError(f"synth exited {codes}")
        config = os.path.join(out_dir, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIG_2CLASS.format(split_seed=seeds[2],
                                          nn_seed=seeds[3]))
        return {"paths": paths, "config": config, "tracer": tracer,
                "model": os.path.join(out_dir, "model.txt"),
                "trace": os.path.join(out_dir, "trace.csv"),
                "report": os.path.join(out_dir, "report"),
                "seg": os.path.join(out_dir, "segmentation_b.pgm")}

    def timed(self, ts, s):
        a, b, cfg = s["paths"]["a"], s["paths"]["b"], s["config"]
        runs = {}
        for op, argv in (
                ("fit_a", ["fit", "--manifest", a["manifest"], "--config", cfg,
                           "--out", a["features"]]),
                ("fit_b", ["fit", "--manifest", b["manifest"], "--config", cfg,
                           "--out", b["features"]]),
                ("train", ["train", "--features", a["features"], "--mask",
                           a["mask"], "--config", cfg, "--trace", s["trace"],
                           "--out", s["model"]]),
                ("eval", ["eval", "--model", s["model"], "--features",
                          b["features"], "--mask", b["mask"], "--config", cfg,
                          "--out", s["report"]]),
                ("segment", ["segment", "--model", s["model"], "--features",
                             b["features"], "--out", s["seg"]])):
            runs[op] = self._cli(ts, s["tracer"], argv)
        return runs

    def _fit_args(self, s, key):
        p = s["paths"][key]
        if "frames_" + key not in s:    # the recordings do not change
            s["frames_" + key] = _read_frame_rows(p["manifest"],
                                                  self.sample_rows)
        t, series = s["frames_" + key]
        valid, feats = _read_feature_rows(p["features"], self.width,
                                          self.sample_rows)
        return series, t, 254.0, 8, feats, valid

    def verify(self, s, o):
        match = re.search(r"accuracy (\S+)%", o["eval"][1])
        reported = float(match.group(1)) if match else None
        seg_args = (s["seg"], s["paths"]["b"]["mask"], 0.88, reported)
        fit_args = {k: self._fit_args(s, k) for k in ("a", "b")}

        def fit(key, op):
            code = o[op][0]
            ok, detail = checks.check_fit(*fit_args[key], min_windows=2)
            return code == 0 and ok, f"exit {code}; {detail}"

        def exit_only(op):
            ok, detail = checks.check_exit(o[op][0])
            return ok, f"{detail}; {o[op][1].strip().splitlines()[-1]}"

        def segment():
            ok, detail = checks.check_cli_segmentation(*seg_args)
            return ok and o["segment"][0] == 0, detail

        ops = _run_ops(self.OPS, {
            "fit_a": lambda: fit("a", "fit_a"),
            "fit_b": lambda: fit("b", "fit_b"),
            "train": lambda: exit_only("train"),
            "eval": lambda: exit_only("eval"),
            "segment": segment,
        })
        series, t, sat, degree, feats, valid = fit_args["b"]
        selftests = [
            ("fit", _rejects(checks.check_fit, series, t, sat, degree,
                             checks.perturb_coefficient(feats, valid), valid)),
            ("fit/saturated-window", _rejects(
                checks.check_fit, np.minimum(series, 253.0), t, sat, degree,
                feats, valid, 2)),
            ("exit", _rejects(checks.check_exit, 2)),
            ("segment/eval-agreement", _rejects(
                checks.check_cli_segmentation, s["seg"],
                s["paths"]["b"]["mask"], 0.88, (reported or 0.0) + 0.5)),
            ("segment/accuracy", _rejects(
                checks.check_cli_segmentation, checks.flip_shades(
                    s["seg"], s["seg"] + ".flipped", 0.15),
                s["paths"]["b"]["mask"], 0.88, reported)),
        ]
        return ops, selftests


WORKLOADS = {w.name: w for w in (Inspect4Class, Train4Class, Cli2Class)}
