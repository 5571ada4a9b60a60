"""End-to-end experiment runs with pinned seeds and target checks.

Two experiments mirror the source study's published results on data this
package can regenerate:

* synthetic-2class: two uniform 160x120 videos (sound vs delaminated
  cooling) train a 16/32/16 relu net on degree-8 features; a composite
  video with a centered delaminated rectangle is then segmented out of
  sample. Targets: in-sample accuracy >= 0.93, composite pixel accuracy
  >= 0.88.
* surrogate-4class: one 236x182 quadrant scene grades gap thicknesses
  {0, 0.1, 0.2, 0.3}mm at 5mm depth; degree-4 padded features, +-5% x50
  augmentation, 10/20/4 tanh net with Adam. Targets: validation accuracy
  >= 0.90 and a +-3% feature perturbation costing <= 5 accuracy points.

All frame data stays in memory; what lands on disk (features, models,
matrices, segmentations) is byte-stable for a fixed seed. A scale factor
in (0, 1) shrinks the canvases and budgets proportionally for smoke tests.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from . import evaluate, features, nn, synthgen, tsr
from .errors import ValidationError
from .ingest import frame_times, save_mask, trim_mask

# thermal diffusivity of printed polymer, m^2/s
POLYMER_DIFFUSIVITY = 5.8e-8

def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _scaled(value, scale, minimum):
    return max(minimum, int(round(value * scale)))


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    """The peak RSS so far of this process, or with RUSAGE_CHILDREN of its
    largest child that has been waited for, in MB."""
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(who).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1024
    return round(rss * unit / 2 ** 20, 1)


class StageTimer:
    """Wall seconds per named stage, summed over every entry to it, and the
    peak RSS of the process and of its largest worker process as each
    stage ends. A peak is a high-water mark, so the stage whose mark rises
    is the one that raised it. A forked worker's peak counts the parent's
    pages it maps, such as the frame cube or the training feeder's
    matrix, so the two are never added."""

    def __init__(self):
        self.seconds = {}
        self.marks = []
        self.child_marks = []

    @contextlib.contextmanager
    def __call__(self, stage):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] = (self.seconds.get(stage, 0.0)
                                   + time.perf_counter() - t0)
            self.marks.append([stage, _peak_rss_mb()])
            self.child_marks.append(
                [stage, _peak_rss_mb(resource.RUSAGE_CHILDREN)])

    def report(self):
        """`timings`, `stage_peak_rss_mb` and `stage_peak_rss_children_mb`
        ([stage, MB] per stage end, in order), `peak_rss_mb` and
        `peak_rss_children_mb` for results.json; like every timing they
        never reach a file whose sha256 is recorded."""
        return {"timings": {k: round(v, 3) for k, v in self.seconds.items()},
                "stage_peak_rss_mb": self.marks,
                "stage_peak_rss_children_mb": self.child_marks,
                "peak_rss_mb": _peak_rss_mb(),
                "peak_rss_children_mb": _peak_rss_mb(
                    resource.RUSAGE_CHILDREN)}


def _fit_report(fitted):
    """`fit_reasons` and `rms_quantiles` for results.json, from
    (recording, FeatureImage, LabelMask) triples. A class's rms quantiles
    (p50, p95, max) span its fitted mask pixels in every recording. Like
    every diagnostic, none of this reaches a hashed file.
    """
    rms = {}
    for _, image, mask in fitted:
        for c in np.unique(mask.labels[mask.valid]):
            keep = mask.valid & image.valid & (mask.labels == c)
            rms[str(c)] = np.append(rms.get(str(c), []), image.rms[keep])
    return {"fit_reasons": {name: tsr.reason_counts(image)
                            for name, image, _ in fitted},
            "rms_quantiles": {c: dict(zip(("p50", "p95", "max"), np.quantile(
                v, (0.5, 0.95, 1.0)).tolist())) if v.size else None
                for c, v in sorted(rms.items())}}


def _dataset_accuracy(model, ds):
    return float(np.mean(nn.predict(model, ds.vectors) == ds.labels))


def train_classifier(ds, split, hidden, activation, config, init_seed,
                     augment):
    """Split, augment, scale and train: the one training pipeline.

    `split` is a SplitSpec, `hidden` the hidden layer widths (all with
    `activation`, then a softmax head), `augment` an (amplitude, copies,
    seed) triple for `features.augment`; 0 copies trains on a copy of the
    plain training rows. The scaler is fitted on the (augmented) training
    rows, which are then scaled in place: the augmented matrix is the only
    training matrix held, and `ds` is left untouched.
    Returns (model carrying its scaling stats, trace, train, val, test),
    train augmented and scaled, val and test unscaled.
    """
    train_ds, val_ds, test_ds = features.split(ds, split)
    train_ds = features.augment(train_ds, *augment)
    stats = features.fit_scaler(train_ds)
    features.scale(train_ds.vectors, stats)
    model = nn.init_model((ds.feature_count, *hidden, ds.class_count),
                          (*([activation] * len(hidden)), "softmax"),
                          init_seed, stats)
    model, trace = nn.train(model, train_ds,
                            features.apply_scaler(val_ds, stats), config)
    return model, trace, train_ds, val_ds, test_ds


def _render_fit(stage, degree, *scene):
    """Render one recording from render_video's arguments and fit it at
    `degree`; the frame cube never leaves this function."""
    with stage("render"):
        seq = synthgen.render_video(*scene)
    with stage("fit"):
        return tsr.fit_sequence(seq, degree)


def _save_training(out_dir, stage, model, trace):
    """Write model.txt and trace.csv (stage "write"); the model path."""
    path = os.path.join(out_dir, "model.txt")
    with stage("write"):
        nn.save_model(model, path)
        nn.write_trace(trace, os.path.join(out_dir, "trace.csv"))
    return path


def run_synthetic_2class(out_dir, stage, scale, seed=3101):
    """Two pure-class videos train the net; a composite video tests it."""
    width = _scaled(160, scale, 16)
    height = _scaled(120, scale, 12)
    frames = _scaled(600, scale, 80)
    timestamps = frame_times(frames, frames / 240.0)   # a 240 s recording

    amplitude = 400.0
    sound = synthgen.power_law(amplitude, -0.5)
    # shallow (2.5mm) delamination so the two decays diverge well inside
    # the 240s recording
    flawed = synthgen.adiabatic_plate(amplitude, 2.5e-3, POLYMER_DIFFUSIVITY)
    degree = 8

    full = (0, 0, width, height)
    inner = (width // 4, height // 4, width // 2, height // 2)
    layouts = {
        "sound": synthgen.RegionLayout(
            width, height, (synthgen.Region(full, 0, sound),)),
        "flawed": synthgen.RegionLayout(
            width, height, (synthgen.Region(full, 1, flawed),)),
        "composite": synthgen.composite_layout(width, height, inner,
                                               flawed, sound)}
    # one (name, FeatureImage, LabelMask) per recording, noise seeds
    # seed, seed + 1 and seed + 2
    fitted = [(name, _render_fit(stage, degree, layout, timestamps,
                                 synthgen.NoiseSpec(2.0, seed + i),
                                 (0.0, 254.0)), layout.label_mask())
              for i, (name, layout) in enumerate(layouts.items())]
    img_composite, composite_mask = fitted[2][1:]

    features_path = os.path.join(out_dir, "features_composite.csv")
    with stage("write"):
        tsr.write_feature_image(img_composite, features_path)

    # staircase-decay SGD with early stopping; the rate suits standardized
    # features
    config = nn.TrainConfig(optimizer="sgd-decay", learning_rate=0.05,
                            decay_step=1000, decay_rate=0.9, batch_size=512,
                            max_steps=_scaled(12000, scale, 2000),
                            early_stopping=(100, 3), seed=seed + 5)
    pure = [features.assemble(image, mask) for _, image, mask in fitted[:2]]
    pure = features.Dataset(np.concatenate([d.vectors for d in pure]),
                            np.concatenate([d.labels for d in pure]), 2)
    with stage("train"):
        model, trace, _, _, test_ds = train_classifier(
            pure, features.SplitSpec(0.8, 0.1, seed + 3), (16, 32, 16),
            "relu", config, seed + 4, (0.0, 0, 0))
    model_path = _save_training(out_dir, stage, model, trace)

    with stage("predict"):
        in_sample = _dataset_accuracy(model, test_ds)
        label_map = nn.predict_map(model, img_composite)

    with stage("evaluate"):
        usable = label_map.valid & composite_mask.valid
        out_sample = float(np.mean(
            label_map.labels[usable] == composite_mask.labels[usable]))
        cm = evaluate.confusion(composite_mask.labels[usable],
                                label_map.labels[usable], 2,
                                ("sound", "flawed"))
        matrix_path = os.path.join(out_dir, "composite_matrix.csv")
        evaluate.write_matrix_csv(cm, matrix_path)
        seg_path = os.path.join(out_dir, "composite_segmentation.pgm")
        evaluate.write_segmentation(label_map, 2, seg_path)
        mask_path = os.path.join(out_dir, "composite_mask.pgm")
        save_mask(composite_mask, mask_path)

    return {
        "seed": seed,
        "canvas": [width, height],
        "frames": frames,
        "degree": degree,
        "in_sample_accuracy": in_sample,
        "out_of_sample_accuracy": out_sample,
        "validation_accuracy": trace.saved_val_acc,
        "targets": {"in_sample_accuracy_min": 0.93,
                    "out_of_sample_accuracy_min": 0.88},
        "outputs": {"features": features_path, "model": model_path,
                    "matrix": matrix_path, "segmentation": seg_path,
                    "mask": mask_path},
    }, trace, fitted


def run_surrogate_4class(out_dir, stage, scale, seed=4202):
    """Quadrant gap-grading scene: train, evaluate, perturbed replay."""
    width = _scaled(236, scale, 24)
    height = _scaled(182, scale, 20)
    frames = _scaled(3600, scale, 60)
    trim = 5 if scale >= 1.0 else 1

    layout, mask = synthgen.four_class_scene(
        width, height, (0.0, 0.1, 0.2, 0.3), depth_mm=5.0,
        diffusivity=POLYMER_DIFFUSIVITY, base_depth_mm=20.0, amplitude=100.0)
    # sigma 0.5 keeps the two deepest grades separable (max d' ~ 3.3)
    image = _render_fit(stage, 4, layout, frame_times(frames, frames / 240.0),
                        synthgen.NoiseSpec(0.5, seed))

    features_path = os.path.join(out_dir, "features.csv")
    mask_path = os.path.join(out_dir, "mask.pgm")
    with stage("write"):
        tsr.write_feature_image(image, features_path)
        save_mask(mask, mask_path)

    trimmed = trim_mask(mask, trim)
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-5,
                            batch_size=2048,
                            epochs=_scaled(160, scale, 60),
                            early_stopping=(2000, 3), seed=seed + 4)
    with stage("train"):
        ds = features.assemble(image, trimmed)
        model, trace, train_aug, val_ds, test_ds = train_classifier(
            ds, features.SplitSpec(0.8, 0.1, seed + 1), (10, 20), "tanh",
            config, seed + 3, (0.05, 50, seed + 2))
    model_path = _save_training(out_dir, stage, model, trace)

    with stage("predict"):
        val_acc = _dataset_accuracy(model, val_ds)
        test_pred = nn.predict(model, test_ds.vectors)
        perturbed = features.perturb(test_ds, 0.03, seed + 5)
        pert_acc = _dataset_accuracy(model, perturbed)
        label_map = nn.predict_map(model, image)

    with stage("evaluate"):
        test_acc = float(np.mean(test_pred == test_ds.labels))
        cm = evaluate.confusion(test_ds.labels, test_pred, 4,
                                ("0mm", "0.1mm", "0.2mm", "0.3mm"))
        # the paper's acceptable/unacceptable split, reported, not a target
        binary_acc = evaluate.metrics(evaluate.collapse(
            cm, evaluate.COLLAPSE_OVER_HALF_LAYER))[0]
        matrix_path = os.path.join(out_dir, "test_matrix.csv")
        evaluate.write_matrix_csv(cm, matrix_path)
        seg_path = os.path.join(out_dir, "segmentation.pgm")
        evaluate.write_segmentation(label_map, 4, seg_path)
        regions = evaluate.region_report(label_map, trimmed)

    return {
        "seed": seed,
        "canvas": [width, height],
        "frames": frames,
        "trim_margin": trim,
        "dataset_rows": ds.size,
        "augmented_rows": train_aug.size,
        "validation_accuracy": val_acc,
        "test_accuracy": test_acc,
        "binary_test_accuracy": binary_acc,
        "perturbed_test_accuracy": pert_acc,
        "degradation_pp": (test_acc - pert_acc) * 100.0,
        "region_majorities": {str(r): s.majority_class
                              for r, s in sorted(regions.items())},
        "targets": {"validation_accuracy_min": 0.90,
                    "degradation_pp_max": 5.0},
        "outputs": {"features": features_path, "mask": mask_path,
                    "model": model_path, "matrix": matrix_path,
                    "segmentation": seg_path},
    }, trace, (("scene", image, mask),)


EXPERIMENTS = {"synthetic-2class": run_synthetic_2class,
               "surrogate-4class": run_surrogate_4class}


def missed_targets(result):
    """The targets a result misses, as `<key> <value> (<target> <bound>)`
    texts: each target `<key>_min` or `<key>_max` bounds result[<key>]
    from below or above."""
    missed = []
    for target, bound in result["targets"].items():
        key, side = target.rsplit("_", 1)
        value = result[key]
        if not {"min": value >= bound, "max": value <= bound}[side]:
            missed.append(f"{key} {value} ({target} {bound})")
    return missed


def run_experiment(name, out_dir, seed=None, scale=1.0):
    """Run one experiment and write its results.json; returns the result.

    The experiment returns its own result keys (`targets` and `outputs`
    among them), its training trace and its fitted (recording,
    FeatureImage, LabelMask) triples; the rest of the report is built
    here. Timings never reach a file whose sha256 is recorded.
    """
    if name not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; pick from {', '.join(EXPERIMENTS)}")
    # written so that NaN fails it too
    if not 0.0 < scale <= 1.0:
        raise ValidationError(f"scale must be in (0, 1], got {scale}")
    t0 = time.monotonic()
    stage = StageTimer()
    os.makedirs(out_dir, exist_ok=True)
    kwargs = {} if seed is None else {"seed": seed}
    result, trace, fitted = EXPERIMENTS[name](out_dir, stage, scale, **kwargs)
    with stage("hash"):
        hashes = {k: _file_sha256(p)
                  for k, p in sorted(result["outputs"].items())}
    steps = trace.steps[-1]
    result.update({
        "experiment": name,
        "scale": scale,
        "train_steps": steps,
        "train_seconds": round(trace.seconds, 3),
        "train_steps_per_s": round(steps / trace.seconds, 1),
        "train_batch_wait_s": round(trace.batch_wait, 3),
        "train_feeder": trace.feeder,
        "stop_reason": trace.stop_reason,
        "restored_step": trace.restored_step,
        **stage.report(),
        **_fit_report(fitted),
        "passed": not missed_targets(result),
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "sha256": hashes,
    })
    path = os.path.join(out_dir, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
