"""Command-line pipeline driver.

Subcommands compose the library stages over files on disk:

  synth    scene description -> frame CSVs + manifest + truth mask
  fit      manifest -> per-pixel feature image CSV
  train    feature image + mask + config -> model + trace
  eval     model + feature image + mask -> confusion matrices + metrics
  segment  model + feature image -> greyscale PGM
  repro    pinned end-to-end experiment runs with target checks

synth, fit, train, eval (of a model) and segment end their output with
one `stage seconds:` line, the wall seconds of each of their stages.

Exit codes: 0 success, 2 validation/input error (a file that cannot be
read, decoded or written, and an allocation that memory cannot hold,
included), 3 compute error or, from repro, a missed target (one
`targets missed:` line on stderr).
"""

import argparse
import dataclasses
import os
import sys

from . import evaluate, features, keyfile, nn, repro, synthgen, tsr
from .errors import ComputeError, ValidationError
from .ingest import load_mask, load_sequence, save_mask, trim_mask, write_sequence


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path):
    """Parse and validate a pipeline INI, or give the defaults for `path`
    None; every key is optional, unknown sections and keys are errors."""
    keys = keyfile.KeyFile((), path, 1) if path is None else keyfile.read(path)
    fit, feats, net = (keys.section(s) for s in ("tsr", "features", "nn"))
    base = nn.TrainConfig()
    config = {
        "degree": fit.integer("degree", 2, 4),
        "packing": fit.text("packing", tsr.PACK_PADDED,
                            (tsr.PACK_PADDED, tsr.PACK_TRUNCATED)),
        "trim_margin": feats.integer("trim_margin", 0, 0),
        "train_fraction": feats.number("train_fraction", 0.8),
        "validation_fraction": feats.number("validation_fraction", 0.1),
        # seeds are range-checked where they are used
        "split_seed": feats.integer("split_seed", keyfile.INT64_MIN, 0),
        "augment_amplitude": feats.number("augment_amplitude", 0.0),
        "augment_copies": feats.integer("augment_copies", 0, 0),
        "augment_seed": feats.integer("augment_seed", keyfile.INT64_MIN, 0),
        "hidden": net.integers("hidden", 1, (10, 20)),
        "hidden_activation": net.text("hidden_activation", "tanh",
                                      ("relu", "tanh")),
        "train": nn.TrainConfig(
            optimizer=net.text("optimizer", base.optimizer),
            learning_rate=net.number("learning_rate", base.learning_rate),
            decay_step=net.integer("decay_step", 1, base.decay_step),
            decay_rate=net.number("decay_rate", base.decay_rate),
            batch_size=net.integer("batch_size", 1, base.batch_size),
            epochs=net.integer("epochs", 0, base.epochs),
            max_steps=net.integer("max_steps", 0, base.max_steps),
            early_stopping=net.integers("early_stopping", 1, None),
            trace_every=net.integer("trace_every", 0, base.trace_every),
            seed=net.integer("seed", keyfile.INT64_MIN, base.seed)),
    }
    keys.finish()
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

def _print_stages(stage):
    """The summary line of a command's stage seconds, in run order."""
    print("stage seconds: " + ", ".join(
        f"{name} {seconds:.3f}" for name, seconds in stage.seconds.items()))


def cmd_synth(args):
    stage = repro.StageTimer()
    with stage("render"):
        scene = synthgen.load_scene(args.scene)
        seq = synthgen.render_video(scene.layout, scene.timestamps,
                                    scene.noise, scene.clamp)
    with stage("write"):
        os.makedirs(args.out, exist_ok=True)
        manifest = write_sequence(seq, args.out)
        mask_path = os.path.join(args.out, "mask.pgm")
        save_mask(scene.layout.label_mask(), mask_path)
    print(f"wrote {len(seq.timestamps)} frames, {manifest}")
    print(f"wrote {mask_path}")
    _print_stages(stage)
    return 0


def cmd_fit(args):
    stage = repro.StageTimer()
    with stage("load"):
        config = load_config(args.config)
        seq = load_sequence(args.manifest)
    with stage("fit"):
        image = tsr.fit_sequence(seq, config["degree"], config["packing"])
    with stage("write"):
        tsr.write_feature_image(image, args.out)
    counts = tsr.reason_counts(image)
    fitted = counts.pop("fitted")
    dropped = ", ".join(f"{n} {name}" for name, n in counts.items())
    print(f"fitted {fitted}/{image.valid.size} pixels; "
          f"dropped {dropped} (degree {image.degree}, "
          f"{image.feature_count} features) -> {args.out}")
    _print_stages(stage)
    return 0


def _assemble(args, config):
    image = tsr.read_feature_image(args.features)
    mask = trim_mask(load_mask(args.mask), config["trim_margin"])
    return features.assemble(image, mask)


def cmd_train(args):
    stage = repro.StageTimer()
    with stage("load"):
        config = _apply_seed(load_config(args.config), args.seed)
        spec = features.SplitSpec(config["train_fraction"],
                                  config["validation_fraction"],
                                  config["split_seed"])
        augment = (config["augment_amplitude"], config["augment_copies"],
                   config["augment_seed"])
        ds = _assemble(args, config)
    with stage("train"):
        model, trace, *_ = repro.train_classifier(
            ds, spec, config["hidden"], config["hidden_activation"],
            config["train"], config["train"].seed, augment)
    with stage("write"):
        nn.save_model(model, args.out)
        if args.trace:
            nn.write_trace(trace, args.trace)
    steps = trace.steps[-1]
    print(f"trained {model.layer_sizes} in {steps} steps "
          f"({trace.stop_reason}, {steps / trace.seconds:.0f} steps/s, "
          f"{trace.batch_wait:.2f} s waiting for batches); "
          f"final val acc {trace.saved_val_acc:.4f} -> {args.out}")
    _print_stages(stage)
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
    features.check_seed(args.perturb_seed, "perturb")  # even unperturbed
    stage = repro.StageTimer()
    with stage("load"):
        model = nn.load_model(args.model)
        ds = _assemble(args, load_config(args.config))
        if args.perturb != 0:
            ds = features.perturb(ds, args.perturb, args.perturb_seed)
    with stage("predict"):
        cm = evaluate.confusion(ds.labels, nn.predict(model, ds.vectors),
                                model.output_size)
    with stage("report"):
        report = _score(cm, spec)
        print(report)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            evaluate.write_matrix_csv(cm,
                                      os.path.join(args.out, "matrix.csv"))
            with open(os.path.join(args.out, "report.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(report + "\n")
    _print_stages(stage)
    return 0


def cmd_segment(args):
    stage = repro.StageTimer()
    with stage("load"):
        model = nn.load_model(args.model)
        image = tsr.read_feature_image(args.features)
    with stage("predict"):
        label_map = nn.predict_map(model, image)
    with stage("write"):
        evaluate.write_segmentation(label_map, model.output_size, args.out)
    print(f"wrote {args.out}")
    _print_stages(stage)
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
    if result["passed"]:
        return 0
    print("targets missed: " + ", ".join(repro.missed_targets(result)),
          file=sys.stderr)
    return 3


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
                   help="shrink canvases and budgets for smoke runs, "
                        "in (0, 1]")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
