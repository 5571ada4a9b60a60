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
below 1 shrinks the canvases and budgets proportionally for smoke tests.
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
from .ingest import LabelMask, save_mask, trim_mask

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


def _train_timing(trace):
    """Step-loop time and throughput, for results.json only: timings never
    reach a file whose sha256 is recorded."""
    return {"train_seconds": round(trace.seconds, 3),
            "train_steps_per_s": round(trace.steps[-1] / trace.seconds, 1)}


class StageTimer:
    """Wall seconds per named stage, summed over every entry to it."""

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def __call__(self, stage):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] = (self.seconds.get(stage, 0.0)
                                   + time.perf_counter() - t0)

    def report(self):
        """`timings` and `peak_rss_mb` for results.json; like every timing
        they never reach a file whose sha256 is recorded."""
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit = 1 if sys.platform == "darwin" else 1024
        return {"timings": {k: round(v, 3) for k, v in self.seconds.items()},
                "peak_rss_mb": round(rss * unit / 2 ** 20, 1)}


def _fit_report(fitted):
    """`fit_reasons`, `rms_quantiles` and `blas_threads` for results.json,
    from (recording, FeatureImage, LabelMask) triples. A class's rms
    quantiles (p50, p95, max) span its fitted mask pixels in every
    recording. Like every diagnostic, none of this reaches a hashed file.
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
                for c, v in sorted(rms.items())},
            "blas_threads": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


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


def _uniform_mask(width, height, class_id):
    labels = np.full((height, width), class_id, dtype=np.int64)
    return LabelMask(width, height, labels, np.ones((height, width), bool))


def run_synthetic_2class(out_dir, seed=3101, scale=1.0):
    """Two pure-class videos train the net; a composite video tests it."""
    t0 = time.monotonic()
    stage = StageTimer()
    os.makedirs(out_dir, exist_ok=True)
    width = _scaled(160, scale, 16)
    height = _scaled(120, scale, 12)
    frames = _scaled(600, scale, 80)
    fps = frames / 240.0
    timestamps = (np.arange(frames) + 1.0) / fps

    amplitude = 400.0
    sound = synthgen.power_law(amplitude, -0.5)
    # shallow (2.5mm) delamination so the two decays diverge well inside
    # the 240s recording
    flawed = synthgen.adiabatic_plate(amplitude, 2.5e-3, POLYMER_DIFFUSIVITY)
    clamp = (0.0, 254.0)
    degree = 8

    sigma = 2.0

    def fit_video(layout, noise_seed):
        with stage("render"):
            seq = synthgen.render_video(
                layout, timestamps, synthgen.NoiseSpec(sigma, noise_seed),
                clamp)
        with stage("fit"):
            return tsr.fit_sequence(seq, degree)

    full = (0, 0, width, height)
    img_sound = fit_video(
        synthgen.RegionLayout(width, height,
                              (synthgen.Region(full, 0, sound),)), seed)
    img_flawed = fit_video(
        synthgen.RegionLayout(width, height,
                              (synthgen.Region(full, 1, flawed),)), seed + 1)
    inner = (width // 4, height // 4, width // 2, height // 2)
    composite_layout = synthgen.composite_layout(width, height, inner,
                                                 flawed, sound)
    img_composite = fit_video(composite_layout, seed + 2)
    composite_mask = composite_layout.label_mask()

    features_path = os.path.join(out_dir, "features_composite.csv")
    tsr.write_feature_image(img_composite, features_path)

    mask_sound = _uniform_mask(width, height, 0)
    mask_flawed = _uniform_mask(width, height, 1)
    ds_sound = features.assemble(img_sound, mask_sound)
    ds_flawed = features.assemble(img_flawed, mask_flawed)
    pure = features.Dataset(
        np.concatenate([ds_sound.vectors, ds_flawed.vectors]),
        np.concatenate([ds_sound.labels, ds_flawed.labels]), 2)

    # staircase-decay SGD with early stopping; the rate suits standardized
    # features
    config = nn.TrainConfig(optimizer="sgd-decay", learning_rate=0.05,
                            decay_step=1000, decay_rate=0.9, batch_size=512,
                            max_steps=_scaled(12000, scale, 2000),
                            early_stopping=(100, 3), seed=seed + 5)
    with stage("train"):
        model, trace, _, _, test_ds = train_classifier(
            pure, features.SplitSpec(0.8, 0.1, seed + 3), (16, 32, 16),
            "relu", config, seed + 4, (0.0, 0, 0))

    model_path = os.path.join(out_dir, "model.txt")
    nn.save_model(model, model_path)
    nn.write_trace(trace, os.path.join(out_dir, "trace.csv"))

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

    outputs = {"features": features_path, "model": model_path,
               "matrix": matrix_path, "segmentation": seg_path,
               "mask": mask_path}
    result = {
        "experiment": "synthetic-2class",
        "seed": seed,
        "scale": scale,
        "canvas": [width, height],
        "frames": frames,
        "degree": degree,
        "in_sample_accuracy": in_sample,
        "out_of_sample_accuracy": out_sample,
        "validation_accuracy": trace.val_acc[-1] if trace.val_acc else None,
        "train_steps": trace.steps[-1] if trace.steps else 0,
        **_train_timing(trace),
        "stop_reason": trace.stop_reason,
        **stage.report(),
        **_fit_report((("sound", img_sound, mask_sound),
                       ("flawed", img_flawed, mask_flawed),
                       ("composite", img_composite, composite_mask))),
        "targets": {"in_sample_accuracy_min": 0.93,
                    "out_of_sample_accuracy_min": 0.88},
        "passed": bool(in_sample >= 0.93 and out_sample >= 0.88),
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "outputs": outputs,
        "sha256": {k: _file_sha256(p) for k, p in sorted(outputs.items())},
    }
    return result


def run_surrogate_4class(out_dir, seed=4202, scale=1.0):
    """Quadrant gap-grading scene: train, evaluate, perturbed replay."""
    t0 = time.monotonic()
    stage = StageTimer()
    os.makedirs(out_dir, exist_ok=True)
    width = _scaled(236, scale, 24)
    height = _scaled(182, scale, 20)
    frames = _scaled(3600, scale, 60)
    fps = frames / 240.0
    timestamps = (np.arange(frames) + 1.0) / fps
    trim = 5 if scale >= 1.0 else 1

    layout, mask = synthgen.four_class_scene(
        width, height, (0.0, 0.1, 0.2, 0.3), depth_mm=5.0,
        diffusivity=POLYMER_DIFFUSIVITY, base_depth_mm=20.0, amplitude=100.0)
    # sigma 0.5 keeps the two deepest grades separable (max d' ~ 3.3)
    with stage("render"):
        seq = synthgen.render_video(layout, timestamps,
                                    synthgen.NoiseSpec(0.5, seed))
    with stage("fit"):
        image = tsr.fit_sequence(seq, degree=4, packing=tsr.PACK_PADDED)
    del seq

    features_path = os.path.join(out_dir, "features.csv")
    tsr.write_feature_image(image, features_path)
    mask_path = os.path.join(out_dir, "mask.pgm")
    save_mask(mask, mask_path)

    trimmed = trim_mask(mask, trim)
    ds = features.assemble(image, trimmed)
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-5,
                            batch_size=2048,
                            epochs=_scaled(160, scale, 60),
                            early_stopping=(2000, 3), seed=seed + 4)
    with stage("train"):
        model, trace, train_aug, val_ds, test_ds = train_classifier(
            ds, features.SplitSpec(0.8, 0.1, seed + 1), (10, 20), "tanh",
            config, seed + 3, (0.05, 50, seed + 2))

    model_path = os.path.join(out_dir, "model.txt")
    nn.save_model(model, model_path)
    nn.write_trace(trace, os.path.join(out_dir, "trace.csv"))

    with stage("predict"):
        val_acc = _dataset_accuracy(model, val_ds)
        test_pred = nn.predict(model, test_ds.vectors)
        perturbed = features.perturb(test_ds, 0.03, seed + 5)
        pert_acc = _dataset_accuracy(model, perturbed)
        label_map = nn.predict_map(model, image)

    with stage("evaluate"):
        test_acc = float(np.mean(test_pred == test_ds.labels))
        degradation = (test_acc - pert_acc) * 100.0
        cm = evaluate.confusion(test_ds.labels, test_pred, 4,
                                ("0mm", "0.1mm", "0.2mm", "0.3mm"))
        matrix_path = os.path.join(out_dir, "test_matrix.csv")
        evaluate.write_matrix_csv(cm, matrix_path)
        seg_path = os.path.join(out_dir, "segmentation.pgm")
        evaluate.write_segmentation(label_map, 4, seg_path)
        regions = evaluate.region_report(label_map, trimmed)

    outputs = {"features": features_path, "mask": mask_path,
               "model": model_path, "matrix": matrix_path,
               "segmentation": seg_path}
    result = {
        "experiment": "surrogate-4class",
        "seed": seed,
        "scale": scale,
        "canvas": [width, height],
        "frames": frames,
        "trim_margin": trim,
        "dataset_rows": ds.size,
        "augmented_rows": train_aug.size,
        "validation_accuracy": val_acc,
        "test_accuracy": test_acc,
        "perturbed_test_accuracy": pert_acc,
        "degradation_pp": degradation,
        "region_majorities": {str(r): s.majority_class
                              for r, s in sorted(regions.items())},
        "train_steps": trace.steps[-1] if trace.steps else 0,
        **_train_timing(trace),
        "stop_reason": trace.stop_reason,
        **stage.report(),
        **_fit_report((("scene", image, mask),)),
        "targets": {"validation_accuracy_min": 0.90,
                    "degradation_pp_max": 5.0},
        "passed": bool(val_acc >= 0.90 and degradation <= 5.0),
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "outputs": outputs,
        "sha256": {k: _file_sha256(p) for k, p in sorted(outputs.items())},
    }
    return result


EXPERIMENTS = {"synthetic-2class": run_synthetic_2class,
               "surrogate-4class": run_surrogate_4class}


def run_experiment(name, out_dir, seed=None, scale=1.0):
    if name not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; pick from {', '.join(EXPERIMENTS)}")
    kwargs = {} if seed is None else {"seed": seed}
    result = EXPERIMENTS[name](out_dir, scale=scale, **kwargs)
    path = os.path.join(out_dir, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
