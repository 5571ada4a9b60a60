"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Run with -s to see the one-line pass summaries; under plain pytest -v the
per-test PASSED/FAILED line carries the verdict. Criteria 2 and 3 run the
pinned experiments at full scale, so this module takes a few minutes.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from thermoseg import cli, evaluate, features, nn, repro, synthgen, tsr
from thermoseg.ingest import FrameSequence


@pytest.fixture(scope="module")
def two_class_runs(tmp_path_factory):
    """Full-scale two-class experiment, twice with the same seed."""
    root = tmp_path_factory.mktemp("two_class")
    results = []
    for name in ("run1", "run2"):
        results.append(repro.run_experiment("synthetic-2class",
                                            str(root / name)))
    return results


@pytest.fixture(scope="module")
def four_class_run(tmp_path_factory):
    """Full-scale four-class experiment, once."""
    out = tmp_path_factory.mktemp("four_class") / "run1"
    return repro.run_experiment("surrogate-4class", str(out))


def test_criterion_1_reference_metric_reproduction():
    """Published confusion-matrix arithmetic is pinned to +-0.1 pp."""
    cm = evaluate.REFERENCE_FOUR_STATE
    acc4, _, _ = evaluate.metrics(cm)
    assert abs(100.0 * acc4 - 95.4) <= 0.1

    two = evaluate.collapse(cm, evaluate.COLLAPSE_ANY_DEFECT)
    acc, precision, recall = evaluate.metrics(two)
    assert abs(100.0 * acc - 96.5) <= 0.1
    assert abs(100.0 * precision - 97.6) <= 0.1
    assert abs(100.0 * recall - 97.9) <= 0.1

    half = evaluate.collapse(cm, evaluate.COLLAPSE_OVER_HALF_LAYER)
    acc_h, precision_h, recall_h = evaluate.metrics(half)
    assert abs(100.0 * acc_h - 98.6) <= 0.1
    assert abs(100.0 * precision_h - 98.9) <= 0.1
    assert abs(100.0 * recall_h - 98.4) <= 0.1

    # the one-sample tally disagreements must be documented in the report
    report = evaluate.reference_report()
    assert "2537" in report and "2538" in report and "5429" in report
    print(f"criterion 1 PASS: four-state {100 * acc4:.2f}%, "
          f"any-defect {100 * acc:.2f}/{100 * precision:.2f}/"
          f"{100 * recall:.2f}%, over-half-layer {100 * acc_h:.2f}/"
          f"{100 * precision_h:.2f}/{100 * recall_h:.2f}%")


def _check_fit_report(result, recordings, classes):
    """results.json explains the fit: drop reasons per recording and rms
    quantiles per class."""
    assert sorted(result["fit_reasons"]) == sorted(recordings)
    for counts in result["fit_reasons"].values():
        assert counts["fitted"] > 0
    assert sorted(result["rms_quantiles"]) == sorted(classes)
    for q in result["rms_quantiles"].values():
        assert 0.0 < q["p50"] <= q["p95"] <= q["max"]


def test_criterion_2_two_class_experiment(two_class_runs):
    """160x120 two-class run: >=93% in-sample, >=88% out-of-sample, <=15min."""
    result = two_class_runs[0]
    assert result["in_sample_accuracy"] >= 0.93
    assert result["out_of_sample_accuracy"] >= 0.88
    assert result["elapsed_seconds"] <= 15 * 60
    _check_fit_report(result, ("sound", "flawed", "composite"), ("0", "1"))
    # the run early-stops; it reports the restored model, whose accuracy
    # trace.csv logged at the restored step
    assert result["stop_reason"] == "early-stopping"
    trace = os.path.join(os.path.dirname(result["outputs"]["model"]),
                         "trace.csv")
    with open(trace, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[-1] == ("# stop: early-stopping, restored step "
                         f"{result['restored_step']}")
    rows = {int(row.split(",")[0]): float(row.split(",")[5])
            for row in lines[1:-1]}
    assert result["restored_step"] < result["train_steps"]
    assert abs(result["validation_accuracy"]
               - rows[result["restored_step"]]) <= 1e-9
    print(f"criterion 2 PASS: in-sample "
          f"{result['in_sample_accuracy']:.4f} >= 0.93, out-of-sample "
          f"{result['out_of_sample_accuracy']:.4f} >= 0.88 "
          f"({result['elapsed_seconds']:.0f}s)")


def test_criterion_3_four_class_experiment(four_class_run):
    """Quadrant gap-grading run: >=90% validation, <=5pp perturbed drop."""
    result = four_class_run
    assert result["validation_accuracy"] >= 0.90
    assert result["degradation_pp"] <= 5.0
    assert result["elapsed_seconds"] <= 30 * 60
    # every quadrant's majority prediction should be its own grade
    assert result["region_majorities"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    _check_fit_report(result, ("scene",), ("0", "1", "2", "3"))
    print(f"criterion 3 PASS: validation "
          f"{result['validation_accuracy']:.4f} >= 0.90, degradation "
          f"{result['degradation_pp']:.2f}pp <= 5pp "
          f"({result['elapsed_seconds']:.0f}s)")


def test_four_class_binary_accuracy_recounts_from_matrix(four_class_run):
    """The acceptable/unacceptable accuracy in results.json is the
    over-half-layer collapse of the written test matrix."""
    result = four_class_run
    cm = evaluate.read_matrix_csv(result["outputs"]["matrix"])
    counts = cm.counts
    # classes 0 and 1 are acceptable, 2 and 3 unacceptable
    agree = counts[:2, :2].sum() + counts[2:, 2:].sum()
    assert result["binary_test_accuracy"] == agree / counts.sum()
    # merging classes cannot turn a correct pixel wrong
    assert result["binary_test_accuracy"] >= result["test_accuracy"]
    assert result["test_accuracy"] == np.trace(counts) / counts.sum()


def _fit_features(series, t, degree):
    """Padded feature row of one pixel history, fitted by fit_sequence."""
    seq = FrameSequence(t, series[:, None, None], np.inf)
    image = tsr.fit_sequence(seq, degree)
    assert image.valid[0, 0]
    return image.values[0, 0]


def test_criterion_4_fit_exactness():
    """Noiseless signals are recovered to 1e-8 absolute."""
    # the one-dimensional cooling signature: log-log slope -1/2
    t = np.linspace(0.4, 240.0, 600)
    row = _fit_features(350.0 * t ** -0.5, t, degree=8)
    coefficients, first, second = row[:9], row[9:17], row[18:25]
    assert abs(coefficients[1] - (-0.5)) < 1e-8
    npt.assert_allclose(coefficients[2:], 0.0, atol=1e-8)
    probe = np.linspace(math.log10(t[0]), math.log10(t[-1]), 7)
    npt.assert_allclose(np.polyval(first[::-1], probe), -0.5, atol=1e-8)
    npt.assert_allclose(np.polyval(second[::-1], probe), 0.0, atol=1e-8)

    # arbitrary log-polynomial series of any degree up to the fit degree
    rng = np.random.default_rng(1861)
    worst = 0.0
    for _ in range(40):
        degree = int(rng.integers(2, 9))
        poly_degree = int(rng.integers(0, degree + 1))
        coeffs = rng.uniform(-0.5, 0.5, poly_degree + 1)
        coeffs *= 0.25 ** np.arange(poly_degree + 1)   # keep 10**p bounded
        profile = synthgen.log_polynomial(coeffs.tolist())
        n = int(rng.integers(degree + 4, 400))
        tt = np.sort(rng.uniform(1.0, 50.0, n))
        tt += np.arange(n) * 1e-9
        series = synthgen.eval_profile(profile, tt)
        got = _fit_features(series, tt, degree)[:degree + 1]
        expected = np.zeros(degree + 1)
        expected[:poly_degree + 1] = coeffs
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst < 1e-8
    print(f"criterion 4 PASS: slope signature exact, worst log-polynomial "
          f"coefficient error {worst:.2e} < 1e-8")


def _max_relative_gradient_error(sizes, activations, pairs, seed):
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(pairs):
        model = nn.init_model(sizes, activations,
                              int(rng.integers(0, 2 ** 31)),
                              features.ScalingStats(np.zeros(sizes[0]),
                                                    np.ones(sizes[0])))
        x = rng.normal(size=(8, sizes[0]))
        y = rng.integers(0, sizes[-1], 8)
        grads_w, grads_b = oracle.backward(model, x, y)
        for _ in range(40):
            layer = int(rng.integers(0, len(model.weights)))
            if rng.uniform() < 0.8:
                kind, grads = "weights", grads_w
                index = (int(rng.integers(0, sizes[layer])),
                         int(rng.integers(0, sizes[layer + 1])))
            else:
                kind, grads = "biases", grads_b
                index = (int(rng.integers(0, sizes[layer + 1])),)

            def bumped_loss(bump):
                params = list(getattr(model, kind))
                p = params[layer].copy()
                p[index] += bump
                params[layer] = p
                probed = replace(model, **{kind: tuple(params)})
                return nn.loss(nn.forward(probed, x), y)

            numeric = (bumped_loss(h) - bumped_loss(-h)) / (2.0 * h)
            analytic = grads[layer][index]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-6:
                # both effectively zero; central differences are pure
                # roundoff here, so compare absolutely instead
                assert abs(numeric - analytic) < 1e-8
                continue
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def test_criterion_5_gradient_oracle():
    """100 random (model, batch) pairs per architecture, rel error < 1e-4."""
    relu = _max_relative_gradient_error(
        (27, 16, 32, 16, 2), ("relu", "relu", "relu", "softmax"),
        pairs=100, seed=401)
    tanh = _max_relative_gradient_error(
        (15, 10, 20, 4), ("tanh", "tanh", "softmax"), pairs=100, seed=402)
    assert relu < 1e-4
    assert tanh < 1e-4
    print(f"criterion 5 PASS: max relative gradient error relu {relu:.2e}, "
          f"tanh {tanh:.2e} (both < 1e-4)")


def test_criterion_6_repro_determinism(two_class_runs, tmp_path):
    """Same seed twice: byte-identical features, model, matrices, PGMs.

    The two-class experiment is compared at full scale (reusing the
    criterion-2 runs); the four-class experiment is compared at scale 0.1
    to keep the suite under a few minutes. A full-scale four-class rerun
    reproduces byte-identically as well; it is just too slow to repeat
    inside the gate.
    """
    first, second = two_class_runs
    assert set(first["sha256"]) >= {"features", "model", "matrix",
                                    "segmentation"}
    assert first["sha256"] == second["sha256"]
    for key, path in first["outputs"].items():
        with open(path, "rb") as fa, open(second["outputs"][key], "rb") as fb:
            assert fa.read() == fb.read(), f"{key} differs between runs"

    small = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = cli.main(["repro", "--experiment", "surrogate-4class",
                         "--out", str(out), "--scale", "0.1"])
        assert code in (0, 3)
        with open(out / "results.json", "r", encoding="utf-8") as fh:
            small.append(json.load(fh))
    assert small[0]["sha256"] == small[1]["sha256"]
    # stage timings vary between runs and never reach a hashed file
    assert set(small[0]["timings"]) == {"render", "fit", "write", "train",
                                        "predict", "evaluate", "hash"}
    print(f"criterion 6 PASS: {len(first['sha256'])} two-class outputs and "
          f"{len(small[0]['sha256'])} four-class outputs byte-identical "
          f"across reruns")


def test_criterion_7_schedule_and_early_stopping():
    """Loss run [0.50,0.52,0.55,0.58] halts and restores; staircase lr."""
    stopper = nn.EarlyStopping(100, 3)
    losses = [0.50, 0.52, 0.55, 0.58]
    halts = [stopper.update(100 * (i + 1), v, f"weights@{100 * (i + 1)}")
             for i, v in enumerate(losses)]
    assert halts == [False, False, False, True]
    assert stopper.snapshot == "weights@100"
    assert stopper.snapshot_step == 100

    config = nn.TrainConfig(optimizer="sgd-decay", learning_rate=1e-7,
                            decay_step=1000, decay_rate=0.9, epochs=1)
    npt.assert_allclose(nn.lr_at(config, 2500), 8.1e-8, rtol=1e-12)
    print("criterion 7 PASS: halt after 3 consecutive increases with "
          "snapshot restore to step 100; lr_at(2500) = 8.1e-8")


def test_criterion_8_hardware_results_out_of_scope():
    """The printed-coupon camera recordings are not distributed, so their
    headline accuracies cannot be recomputed here. What stands in:

      - criterion 1 pins every piece of published confusion-matrix
        arithmetic exactly (the 95.4% headline number is itself an output
        of that arithmetic);
      - criteria 2 and 3 are the designated synthetic substitutes, built
        from the documented physics so the full pipeline is exercised
        end to end on data this package can regenerate forever.
    """
    # both substitutes exist and are runnable by name
    assert set(repro.EXPERIMENTS) == {"synthetic-2class", "surrogate-4class"}
    # the reference report states the published numbers it reproduces
    report = evaluate.reference_report()
    assert "95.39%" in report
    print("criterion 8 PASS: hardware recordings unavailable by design; "
          "criteria 1-3 are the documented substitutes")
