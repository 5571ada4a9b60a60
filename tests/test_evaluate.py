"""Confusion matrices, collapses, metrics, segmentation rendering."""

import numpy as np
import numpy.testing as npt
import pytest

from thermoseg import evaluate
from thermoseg.errors import ValidationError
from thermoseg.ingest import INVALID_LABEL, LabelMask


def _map_from(labels, valid=None):
    labels = np.asarray(labels, dtype=np.int64)
    if valid is None:
        valid = np.ones(labels.shape, dtype=bool)
    return LabelMask(labels, valid)


# ---------------------------------------------------------------------------
# confusion matrices
# ---------------------------------------------------------------------------

def test_confusion_hand_case():
    actual = [0, 0, 1, 1, 2, 2, 2]
    predicted = [0, 1, 1, 1, 2, 0, 2]
    cm = evaluate.confusion(actual, predicted, 3)
    npt.assert_array_equal(cm.counts, [[1, 1, 0], [0, 2, 0], [1, 0, 2]])
    assert cm.total == 7
    assert cm.class_names == ("0", "1", "2")


def test_confusion_perfect_is_diagonal():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, 500)
    cm = evaluate.confusion(labels, labels, 4)
    assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
    assert np.trace(cm.counts) == 500


def test_confusion_errors():
    with pytest.raises(ValidationError):
        evaluate.confusion([0, 1], [0], 2)
    with pytest.raises(ValidationError):
        evaluate.confusion([], [], 2)
    with pytest.raises(ValidationError):
        evaluate.confusion([0, 2], [0, 1], 2)
    with pytest.raises(ValidationError):
        evaluate.confusion([0, 1], [0, -1], 2)


def test_confusion_matrix_validation():
    with pytest.raises(ValidationError):
        evaluate.ConfusionMatrix(np.zeros((2, 3), dtype=np.int64), ("a", "b"))
    with pytest.raises(ValidationError):
        evaluate.ConfusionMatrix(np.array([[1, -1], [0, 2]]), ("a", "b"))


# ---------------------------------------------------------------------------
# reference matrix and collapses
# ---------------------------------------------------------------------------

def test_reference_four_state_accuracy():
    acc, precision, recall = evaluate.metrics(evaluate.REFERENCE_FOUR_STATE)
    npt.assert_allclose(acc, 0.9539425202652911, rtol=1e-15)
    assert precision is None and recall is None
    assert evaluate.REFERENCE_FOUR_STATE.total == 5428


def test_reference_any_defect_collapse():
    two = evaluate.collapse(evaluate.REFERENCE_FOUR_STATE,
                            evaluate.COLLAPSE_ANY_DEFECT)
    npt.assert_array_equal(two.counts, [[1152, 102], [86, 4088]])
    acc, precision, recall = evaluate.metrics(two)
    npt.assert_allclose(acc, 0.9653647752394989, rtol=1e-15)
    npt.assert_allclose(precision, 0.9756563245823389, rtol=1e-15)
    npt.assert_allclose(recall, 0.9793962625778629, rtol=1e-15)


def test_reference_over_half_layer_collapse():
    two = evaluate.collapse(evaluate.REFERENCE_FOUR_STATE,
                            evaluate.COLLAPSE_OVER_HALF_LAYER)
    npt.assert_array_equal(two.counts, [[2537, 31], [45, 2815]])
    acc, precision, recall = evaluate.metrics(two)
    npt.assert_allclose(acc, 0.9859985261606485, rtol=1e-15)
    npt.assert_allclose(precision, 0.9891075193253689, rtol=1e-15)
    npt.assert_allclose(recall, 0.9842657342657343, rtol=1e-15)


def test_collapse_preserves_total_and_helps_accuracy():
    rng = np.random.default_rng(6)
    for _ in range(25):
        k = int(rng.integers(3, 7))
        counts = rng.integers(0, 50, size=(k, k))
        cm = evaluate.ConfusionMatrix(counts,
                                      tuple(str(i) for i in range(k)))
        if cm.total == 0:
            continue
        size = int(rng.integers(1, k))
        pos = frozenset(rng.choice(k, size=size, replace=False).tolist())
        two = evaluate.collapse(cm, evaluate.BinaryCollapseSpec(pos))
        assert two.total == cm.total
        acc_k, _, _ = evaluate.metrics(cm)
        acc_2, _, _ = evaluate.metrics(two)
        assert acc_2 >= acc_k - 1e-12


def test_collapse_spec_validation():
    cm = evaluate.confusion([0, 1, 2], [0, 1, 2], 3)
    with pytest.raises(ValidationError):
        evaluate.collapse(cm, evaluate.BinaryCollapseSpec(frozenset()))
    with pytest.raises(ValidationError):
        evaluate.collapse(cm, evaluate.BinaryCollapseSpec(frozenset({3})))
    with pytest.raises(ValidationError):
        evaluate.collapse(cm, evaluate.BinaryCollapseSpec(frozenset({0, 1, 2})))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_collapsed_metrics_match_hand_counts():
    # pairs (actual, predicted): (0,0) (1,1) (2,1) (2,2) (1,0)
    cm = evaluate.confusion([0, 1, 2, 2, 1], [0, 1, 1, 2, 0], 3)
    for positive, want in [
            ({1, 2}, (4 / 5, 3 / 3, 3 / 4)),   # tp 3, fp 0, fn 1, tn 1
            ({2}, (4 / 5, 1 / 1, 1 / 2)),      # tp 1, fp 0, fn 1, tn 3
            ({0}, (4 / 5, 1 / 2, 1 / 1))]:     # tp 1, fp 1, fn 0, tn 3
        two = evaluate.collapse(cm, evaluate.BinaryCollapseSpec(
            frozenset(positive)))
        assert evaluate.metrics(two) == want


def test_metrics_undefined_ratios_are_none():
    # nothing predicted positive: precision undefined
    cm = evaluate.ConfusionMatrix(np.array([[5, 0], [3, 0]]), ("n", "p"))
    acc, precision, recall = evaluate.metrics(cm)
    npt.assert_allclose(acc, 5.0 / 8.0)
    assert precision is None
    npt.assert_allclose(recall, 0.0)

    # no actual positives: recall undefined
    cm = evaluate.ConfusionMatrix(np.array([[5, 2], [0, 0]]), ("n", "p"))
    _, precision, recall = evaluate.metrics(cm)
    npt.assert_allclose(precision, 0.0)
    assert recall is None


def test_metrics_validation():
    cm = evaluate.confusion([0, 1], [0, 1], 2)
    with pytest.raises(ValidationError):
        evaluate.collapse(cm, evaluate.BinaryCollapseSpec(frozenset({0, 1})))
    with pytest.raises(ValidationError):
        evaluate.metrics(evaluate.ConfusionMatrix(
            np.zeros((2, 2), dtype=np.int64), ("a", "b")))


# ---------------------------------------------------------------------------
# segmentation rendering
# ---------------------------------------------------------------------------

def test_render_shades_four_classes():
    label_map = _map_from([[0, 1], [2, 3]])
    image = evaluate.render_segmentation(label_map, 4)
    npt.assert_array_equal(image, [[0, 85], [170, 255]])
    assert image.dtype == np.uint8


def test_render_shades_two_classes():
    label_map = _map_from([[0, 1, 0]])
    image = evaluate.render_segmentation(label_map, 2)
    npt.assert_array_equal(image, [[0, 255, 0]])


def test_render_invalid_pixels_get_sentinel_shade():
    valid = np.array([[True, False], [True, True]])
    label_map = _map_from([[0, 3], [1, 2]], valid)
    image = evaluate.render_segmentation(label_map, 4)
    assert image[0, 1] == evaluate.INVALID_SHADE
    assert image[0, 0] == 0


def test_render_shades_are_injective():
    for k in (2, 3, 4, 5, 8, 16):
        label_map = _map_from(np.arange(k)[None, :])
        image = evaluate.render_segmentation(label_map, k)
        assert np.unique(image).size == k


def test_render_validation():
    label_map = _map_from([[0, 1]])
    with pytest.raises(ValidationError):
        evaluate.render_segmentation(label_map, 1)
    with pytest.raises(ValidationError):
        evaluate.render_segmentation(_map_from([[0, 5]]), 4)


def test_write_segmentation(tmp_path):
    label_map = _map_from([[0, 1], [1, 0]])
    path = tmp_path / "seg.pgm"
    evaluate.write_segmentation(label_map, 2, str(path))
    data = path.read_bytes()
    assert data.startswith(b"P5")


# ---------------------------------------------------------------------------
# region reports
# ---------------------------------------------------------------------------

def test_region_report_perfect_prediction():
    labels = np.repeat(np.arange(3), 8).reshape(3, 8)
    mask = _map_from(labels)
    report = evaluate.region_report(_map_from(labels), mask)
    assert sorted(report) == [0, 1, 2]
    for region, summary in report.items():
        assert summary.majority_class == region
        assert summary.fraction_correct == 1.0
        assert summary.pixel_count == 8
        assert summary.class_fractions == {region: 1.0}


def test_region_report_majority_survives_salt_noise():
    rng = np.random.default_rng(3)
    labels = np.zeros((10, 10), dtype=np.int64)
    labels[5:] = 1
    predicted = labels.copy()
    flip = rng.choice(50, size=8, replace=False)
    predicted.reshape(-1)[flip] = 1 - predicted.reshape(-1)[flip]
    report = evaluate.region_report(_map_from(predicted), _map_from(labels))
    assert report[0].majority_class == 0
    assert report[1].majority_class == 1
    assert 0.5 < report[0].fraction_correct < 1.0
    fractions = report[0].class_fractions
    npt.assert_allclose(sum(fractions.values()), 1.0)


def test_region_report_warns_on_empty_region():
    labels = np.array([[0, 0, 1, 1]])
    prediction_valid = np.array([[True, True, False, False]])
    label_map = _map_from([[0, 0, 0, 0]], prediction_valid)
    with pytest.warns(UserWarning, match="region 1"):
        report = evaluate.region_report(label_map, _map_from(labels))
    assert sorted(report) == [0]


def test_region_report_ignores_invalid_mask_label():
    labels = np.array([[0, 1, INVALID_LABEL, INVALID_LABEL]])
    report = evaluate.region_report(_map_from([[0, 1, 0, 1]]),
                                    _map_from(labels))
    assert sorted(report) == [0, 1]


def test_region_report_dimension_check():
    with pytest.raises(ValidationError):
        evaluate.region_report(_map_from([[0, 1]]), _map_from([[0], [1]]))


# ---------------------------------------------------------------------------
# text and file output
# ---------------------------------------------------------------------------

def test_format_matrix_contains_counts_and_names():
    text = evaluate.format_matrix(evaluate.REFERENCE_FOUR_STATE)
    assert "0.1mm" in text
    assert "1408" in text
    assert len(text.splitlines()) == 5


def test_format_metrics():
    text = evaluate.format_metrics(0.9539, None, 0.5)
    assert "95.39%" in text
    assert "undefined" in text
    assert "50.00%" in text


def test_matrix_csv_round_trip(tmp_path):
    path = tmp_path / "matrix.csv"
    evaluate.write_matrix_csv(evaluate.REFERENCE_FOUR_STATE, str(path))
    back = evaluate.read_matrix_csv(str(path))
    npt.assert_array_equal(back.counts, evaluate.REFERENCE_FOUR_STATE.counts)
    assert back.class_names == evaluate.REFERENCE_FOUR_STATE.class_names


def test_matrix_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="none.csv"):
        evaluate.read_matrix_csv(str(tmp_path / "none.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("whatever\n1,2\n")
    with pytest.raises(ValidationError):
        evaluate.read_matrix_csv(str(bad))
    short = tmp_path / "short.csv"
    short.write_text("actual,a,b\na,1,2\n")
    with pytest.raises(ValidationError):
        evaluate.read_matrix_csv(str(short))
    cells = tmp_path / "cells.csv"
    cells.write_text(f"actual,a,b\na,{2 ** 63 - 1},0\nb,0,0\n")
    assert evaluate.read_matrix_csv(str(cells)).counts[0, 0] == 2 ** 63 - 1
    for cell, message in (
            (2 ** 63, "cells.csv:2: could not convert string "
                      "'9223372036854775808' to int64"),
            (-1, "cells.csv: counts must be >= 0"),
            # each cell fits int64 but the total, and accuracy with it, wraps
            (2 ** 63 - 1, "cells.csv: counts total 9223372036854775808, "
                          "more than int64 holds")):
        cells.write_text(f"actual,a,b\na,{cell},0\nb,0,1\n")
        with pytest.raises(ValidationError, match=message):
            evaluate.read_matrix_csv(str(cells))
    cells.write_text(f"actual,a,b\na,{2 ** 62},{2 ** 62}\nb,0,0\n")
    with pytest.raises(ValidationError, match="total 9223372036854775808"):
        evaluate.read_matrix_csv(str(cells))


def test_reference_report_documents_bookkeeping():
    text = evaluate.reference_report()
    assert "95.39%" in text
    assert "96.54%" in text
    assert "98.60%" in text
    # the published tallies disagree by one sample; the report says so
    assert "5429" in text
    assert "2538" in text
    assert "2537" in text
