"""Command-line pipeline driver.

Subcommands compose the library stages over files on disk:

  synth    scene description -> frame CSVs + manifest + truth mask
  fit      manifest -> per-pixel feature image CSV
  train    feature image + mask + config -> model + trace
  eval     model + feature image + mask -> confusion matrices + metrics
  segment  model + feature image -> greyscale PGM
  repro    pinned end-to-end experiment runs with target checks

Exit codes: 0 success, 2 validation/input error (a file that cannot be
read or written included), 3 compute error.
"""

import argparse
import configparser
import dataclasses
import os
import sys

from . import evaluate, features, nn, repro, synthgen, tsr
from .errors import ComputeError, ValidationError
from .ingest import load_mask, load_sequence, save_mask, trim_mask, write_sequence


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "tsr": {"degree": "4", "packing": tsr.PACK_PADDED},
    "features": {"trim_margin": "0", "train_fraction": "0.8",
                 "validation_fraction": "0.1", "split_seed": "0",
                 "augment_amplitude": "0.0", "augment_copies": "0",
                 "augment_seed": "0"},
    "nn": {"hidden": "10 20", "hidden_activation": "tanh",
           "optimizer": "adam", "learning_rate": "1e-5",
           "decay_step": "1000", "decay_rate": "0.9", "batch_size": "2048",
           "epochs": "0", "max_steps": "0", "early_stopping": "off",
           "trace_every": "0", "seed": "0"},
}


def load_config(path):
    """Parse and validate a pipeline INI; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    for section, defaults in TRAIN_DEFAULTS.items():
        parser[section] = dict(defaults)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValidationError(" ".join(str(exc).split())) from exc
        if not read:
            raise ValidationError(f"cannot read config {path}")
    for section in parser.sections():
        if section not in TRAIN_DEFAULTS:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        for key in parser[section]:
            if key not in TRAIN_DEFAULTS[section]:
                raise ValidationError(
                    f"{path}: unknown key {key!r} in [{section}]")
    try:
        es_text = parser.get("nn", "early_stopping").strip()
        if es_text in ("off", "none", ""):
            early_stopping = None
        else:
            apart, runs = (int(v) for v in es_text.split())
            early_stopping = (apart, runs)
        config = {
            "degree": parser.getint("tsr", "degree"),
            "packing": parser.get("tsr", "packing"),
            "trim_margin": parser.getint("features", "trim_margin"),
            "train_fraction": parser.getfloat("features", "train_fraction"),
            "validation_fraction": parser.getfloat("features",
                                                   "validation_fraction"),
            "split_seed": parser.getint("features", "split_seed"),
            "augment_amplitude": parser.getfloat("features",
                                                 "augment_amplitude"),
            "augment_copies": parser.getint("features", "augment_copies"),
            "augment_seed": parser.getint("features", "augment_seed"),
            "hidden": [int(v) for v in parser.get("nn", "hidden").split()],
            "hidden_activation": parser.get("nn", "hidden_activation"),
            "train": nn.TrainConfig(
                optimizer=parser.get("nn", "optimizer"),
                learning_rate=parser.getfloat("nn", "learning_rate"),
                decay_step=parser.getint("nn", "decay_step"),
                decay_rate=parser.getfloat("nn", "decay_rate"),
                batch_size=parser.getint("nn", "batch_size"),
                epochs=parser.getint("nn", "epochs"),
                max_steps=parser.getint("nn", "max_steps"),
                early_stopping=early_stopping,
                trace_every=parser.getint("nn", "trace_every"),
                seed=parser.getint("nn", "seed")),
        }
    except (configparser.Error, ValueError) as exc:
        raise ValidationError(f"{path}: bad config value: {exc}") from exc
    if config["hidden_activation"] not in ("relu", "tanh"):
        raise ValidationError("hidden_activation must be relu or tanh")
    if any(h < 1 for h in config["hidden"]) or not config["hidden"]:
        raise ValidationError("hidden sizes must be positive")
    return config


def _apply_seed(config, seed):
    """A --seed flag re-keys every stage seed from one base value."""
    if seed is None:
        return config
    config = dict(config)
    config["split_seed"] = seed + 1
    config["augment_seed"] = seed + 2
    config["train"] = dataclasses.replace(config["train"], seed=seed + 3)
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args):
    scene = synthgen.load_scene(args.scene)
    seq = synthgen.render_video(scene.layout, scene.timestamps, scene.noise,
                                scene.clamp)
    os.makedirs(args.out, exist_ok=True)
    manifest = write_sequence(seq, args.out)
    mask_path = os.path.join(args.out, "mask.pgm")
    save_mask(scene.layout.label_mask(), mask_path)
    print(f"wrote {seq.frame_count} frames, {manifest}")
    print(f"wrote {mask_path}")
    return 0


def cmd_fit(args):
    config = load_config(args.config)
    seq = load_sequence(args.manifest)
    image = tsr.fit_sequence(seq, config["degree"], config["packing"])
    tsr.write_feature_image(image, args.out)
    counts = tsr.reason_counts(image)
    fitted = counts.pop("fitted")
    dropped = ", ".join(f"{n} {name}" for name, n in counts.items())
    print(f"fitted {fitted}/{image.width * image.height} pixels; "
          f"dropped {dropped} (degree {image.degree}, "
          f"{image.feature_count} features) -> {args.out}")
    return 0


def _assemble(args, config):
    image = tsr.read_feature_image(args.features)
    mask = load_mask(args.mask)
    if config["trim_margin"] > 0:
        mask = trim_mask(mask, config["trim_margin"])
    return features.assemble(image, mask)


def cmd_train(args):
    config = _apply_seed(load_config(args.config), args.seed)
    spec = features.SplitSpec(config["train_fraction"],
                              config["validation_fraction"],
                              config["split_seed"])
    augment = (config["augment_amplitude"], config["augment_copies"],
               config["augment_seed"])
    model, trace, *_ = repro.train_classifier(
        _assemble(args, config), spec, config["hidden"],
        config["hidden_activation"], config["train"], config["train"].seed,
        augment)
    nn.save_model(model, args.out)
    if args.trace:
        nn.write_trace(trace, args.trace)
    steps = trace.steps[-1]
    print(f"trained {model.layer_sizes} in {steps} steps "
          f"({trace.stop_reason}, {steps / trace.seconds:.0f} steps/s); "
          f"final val acc {trace.val_acc[-1]:.4f} -> {args.out}")
    return 0


def _collapse_spec(text):
    """The --positive class ids as a binary collapse, None when absent."""
    if text is None:
        return None
    try:
        ids = frozenset(int(v) for v in text.split())
    except ValueError as exc:
        raise ValidationError(
            f"--positive takes space-separated class ids, got {text!r}") from exc
    return evaluate.BinaryCollapseSpec(ids)


def _score(cm, spec):
    """The matrix and its metrics, then, given a collapse spec, the 2x2
    collapse and its metrics."""
    lines = []
    for table in [cm] if spec is None else [cm, evaluate.collapse(cm, spec)]:
        lines += [evaluate.format_matrix(table),
                  evaluate.format_metrics(*evaluate.metrics(table))]
    return "\n".join(lines)


def cmd_eval(args):
    if args.reference:
        print(evaluate.reference_report())
        return 0
    spec = _collapse_spec(args.positive)
    if args.matrix:
        print(_score(evaluate.read_matrix_csv(args.matrix), spec))
        return 0
    if not (args.model and args.features and args.mask):
        raise ValidationError("eval needs --model, --features and --mask "
                              "(or --reference / --matrix)")
    model = nn.load_model(args.model)
    ds = _assemble(args, load_config(args.config))
    if args.perturb > 0:
        ds = features.perturb(ds, args.perturb, args.perturb_seed)
    cm = evaluate.confusion(ds.labels, nn.predict(model, ds.vectors),
                            model.output_size)
    report = _score(cm, spec)
    print(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        evaluate.write_matrix_csv(cm, os.path.join(args.out, "matrix.csv"))
        with open(os.path.join(args.out, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0


def cmd_segment(args):
    model = nn.load_model(args.model)
    image = tsr.read_feature_image(args.features)
    label_map = nn.predict_map(model, image)
    evaluate.write_segmentation(label_map, model.output_size, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_repro(args):
    result = repro.run_experiment(args.experiment, args.out, args.seed,
                                  args.scale)
    for key in ("experiment", "validation_accuracy", "in_sample_accuracy",
                "out_of_sample_accuracy", "test_accuracy",
                "perturbed_test_accuracy", "degradation_pp", "elapsed_seconds",
                "passed"):
        if key in result:
            print(f"{key}: {result[key]}")
    print(f"results: {os.path.join(args.out, 'results.json')}")
    return 0 if result["passed"] else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thermoseg",
        description="Flash-thermography delamination screening pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scene description to frames")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit per-pixel features from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train", help="train a classifier on labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model against a labeled mask")
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--mask")
    p.add_argument("--config")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="relative feature perturbation before scoring")
    p.add_argument("--perturb-seed", type=int, default=0)
    p.add_argument("--positive",
                   help="class ids (space separated) for a binary collapse")
    p.add_argument("--matrix", help="score a stored confusion matrix CSV")
    p.add_argument("--reference", action="store_true",
                   help="print metrics recomputed from the published "
                        "reference matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("segment", help="render a model's class map as PGM")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("repro", help="run a pinned end-to-end experiment")
    p.add_argument("--experiment", required=True, choices=repro.EXPERIMENTS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink canvases and budgets for smoke runs")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
