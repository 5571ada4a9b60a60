"""Confusion matrices, binary collapses, metrics and segmentation images.

Accuracy is trace/total. Precision and recall are reported for the
positive aggregate (the defect classes) of a binary collapse; zero
denominators yield None rather than a fabricated 0 or 1 so degenerate
classifiers stay visible.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import keyfile
from .errors import ValidationError
from .ingest import INVALID_LABEL
from .pgmio import write_pgm

INVALID_SHADE = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray            # (K, K), rows actual, columns predicted
    class_names: tuple

    def __post_init__(self):
        k = len(self.class_names)
        if self.counts.shape != (k, k) or k < 1:
            raise ValidationError(
                "counts must be K x K with one name per class")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be >= 0")
        total = sum(self.counts.ravel().tolist())
        if total > keyfile.INT64_MAX:
            raise ValidationError(
                f"counts total {total}, more than int64 holds")

    @property
    def class_count(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class BinaryCollapseSpec:
    positive_set: frozenset

    def validate(self, class_count):
        pos = set(self.positive_set)
        if not pos:
            raise ValidationError("positive set must be non-empty")
        if not pos <= set(range(class_count)):
            raise ValidationError(f"positive set {sorted(pos)} outside "
                                  f"0..{class_count - 1}")
        if len(pos) == class_count:
            raise ValidationError("positive set must be a proper subset")


def confusion(actual, predicted, class_count, class_names=None):
    """counts[i][j] = how often actual class i was predicted as j."""
    actual = np.asarray(actual).reshape(-1)
    predicted = np.asarray(predicted).reshape(-1)
    if actual.shape != predicted.shape:
        raise ValidationError(f"{actual.shape[0]} actual vs "
                              f"{predicted.shape[0]} predicted labels")
    if actual.size == 0:
        raise ValidationError("no samples")
    for name, arr in (("actual", actual), ("predicted", predicted)):
        if arr.min() < 0 or arr.max() >= class_count:
            raise ValidationError(
                f"{name} labels outside 0..{class_count - 1}")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    if class_names is None:
        class_names = tuple(str(i) for i in range(class_count))
    return ConfusionMatrix(counts, tuple(class_names))


def collapse(cm, spec):
    """Merge classes into {negative, positive} on both axes."""
    spec.validate(cm.class_count)
    pos = np.array([i in spec.positive_set for i in range(cm.class_count)])
    counts = np.empty((2, 2), dtype=np.int64)
    counts[0, 0] = cm.counts[~pos][:, ~pos].sum()
    counts[0, 1] = cm.counts[~pos][:, pos].sum()
    counts[1, 0] = cm.counts[pos][:, ~pos].sum()
    counts[1, 1] = cm.counts[pos][:, pos].sum()
    return ConfusionMatrix(counts, ("negative", "defect"))


def metrics(cm):
    """(accuracy, precision, recall); precision and recall are those of
    class 1 of a 2x2 matrix, where `collapse` puts the positive aggregate,
    and None for any other size. Undefined ratios are None too."""
    total = cm.total
    if total == 0:
        raise ValidationError("empty confusion matrix")
    acc = float(np.trace(cm.counts)) / total
    if cm.class_count != 2:
        return acc, None, None
    (_, fp), (fn, tp) = cm.counts.tolist()
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return acc, precision, recall


def render_segmentation(label_map, class_count):
    """Greyscale image: class i at round(255 i/(K-1)), invalid at shade 1."""
    if class_count < 2:
        raise ValidationError("need at least 2 classes to spread shades")
    labels = label_map.labels
    in_range = (labels >= 0) & (labels < class_count)
    if not in_range[label_map.valid].all():
        raise ValidationError(f"labels outside 0..{class_count - 1}")
    shades = np.rint(255.0 * np.arange(class_count) / (class_count - 1))
    image = np.full(labels.shape, INVALID_SHADE, dtype=np.uint8)
    ok = label_map.valid
    image[ok] = shades.astype(np.uint8)[labels[ok]]
    return image


def write_segmentation(label_map, class_count, path):
    write_pgm(path, render_segmentation(label_map, class_count))


@dataclass(frozen=True)
class RegionSummary:
    label: int
    pixel_count: int
    majority_class: int
    fraction_correct: float
    class_fractions: dict


def region_report(label_map, mask):
    """Majority predicted class and class mix per ground-truth region.

    Regions with no usable pixel are omitted with a warning.
    """
    if label_map.labels.shape != mask.labels.shape:
        raise ValidationError("prediction and mask dimensions differ")
    usable = mask.valid & label_map.valid
    summaries = {}
    region_labels = np.unique(mask.labels[mask.valid])
    for region in region_labels:
        if region == INVALID_LABEL:
            continue
        sel = usable & (mask.labels == region)
        count = int(sel.sum())
        if count == 0:
            warnings.warn(f"region {region} has no usable pixels; omitted")
            continue
        predicted = label_map.labels[sel]
        ids, freq = np.unique(predicted, return_counts=True)
        majority = int(ids[freq.argmax()])
        correct = float((predicted == region).mean())
        fractions = {int(i): float(f) / count for i, f in zip(ids, freq)}
        summaries[int(region)] = RegionSummary(int(region), count, majority,
                                               correct, fractions)
    return summaries


# ---------------------------------------------------------------------------
# reference results
# ---------------------------------------------------------------------------

# Four-state confusion matrix published for the printed-coupon study this
# pipeline mirrors; rows/columns ordered by gap thickness.
REFERENCE_FOUR_STATE = ConfusionMatrix(
    np.array([[1152, 83, 1, 18],
              [61, 1241, 0, 12],
              [6, 6, 1377, 11],
              [19, 14, 19, 1408]], dtype=np.int64),
    ("0mm", "0.1mm", "0.2mm", "0.3mm"))

# Any delamination counts as a defect.
COLLAPSE_ANY_DEFECT = BinaryCollapseSpec(frozenset({1, 2, 3}))
# Gaps under half a print-layer height pass as acceptable.
COLLAPSE_OVER_HALF_LAYER = BinaryCollapseSpec(frozenset({2, 3}))

REFERENCE_NOTE = """\
Source-study bookkeeping notes:
  - The published four-state table sums to 5428 samples while its footers
    state n=5429; one sample is unaccounted for in the source.
  - The published defect-tolerant two-state table prints 2538 where
    summation of the four-state table gives 2537. Values here pin to the
    summation-consistent 2537.
"""


def format_matrix(cm):
    """Aligned text table, actual classes in rows."""
    names = [str(n) for n in cm.class_names]
    width = max(8, max(len(n) for n in names) + 2,
                len(str(int(cm.counts.max()))) + 2)
    head = "actual\\pred".ljust(12) + "".join(n.rjust(width) for n in names)
    lines = [head]
    for i, name in enumerate(names):
        row = name.ljust(12) + "".join(
            str(int(v)).rjust(width) for v in cm.counts[i])
        lines.append(row)
    return "\n".join(lines)


def format_metrics(acc, precision, recall):
    def pct(v):
        return "undefined" if v is None else f"{100.0 * v:.2f}%"
    return (f"accuracy {pct(acc)}  precision {pct(precision)}  "
            f"recall {pct(recall)}")


def write_matrix_csv(cm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("actual," + ",".join(str(n) for n in cm.class_names) + "\n")
        for i, name in enumerate(cm.class_names):
            row = ",".join(str(int(v)) for v in cm.counts[i])
            fh.write(f"{name},{row}\n")


def read_matrix_csv(path):
    with keyfile.reading(path) as text:
        if not (text and text[0].startswith("actual,")):
            raise ValidationError("not a confusion matrix file", 1)
        names = tuple(text[0].split(",")[1:])
        # the header names each class once, with no spaces around it
        for k, name in enumerate(names):
            if not name:
                raise ValidationError(f"class {k} has no name", 1)
            if name != name.strip():
                raise ValidationError(f"class {name!r} has surrounding spaces", 1)
            if name in names[:k]:
                raise ValidationError(f"class {name!r} named twice", 1)
        rows = [line.partition(",") for line in text[1:]]
        counts = keyfile.rows([row[2] for row in rows], len(names),
                              len(names), 2, np.int64)
        # row k starts with the header's k-th class name
        for lineno, (name, (label, _, _)) in enumerate(zip(names, rows), 2):
            if label != name:
                raise ValidationError(f"row named {label!r}, the header's "
                                      f"class there is {name!r}", lineno)
        return ConfusionMatrix(counts, names)


def reference_report():
    """Metrics recomputed from the published four-state matrix."""
    cm = REFERENCE_FOUR_STATE
    lines = ["Four-state confusion matrix (published):", format_matrix(cm)]
    acc, _, _ = metrics(cm)
    lines.append(f"four-state accuracy {100.0 * acc:.2f}%")
    for spec, title in ((COLLAPSE_ANY_DEFECT, "any delamination"),
                        (COLLAPSE_OVER_HALF_LAYER, "over half a layer")):
        two = collapse(cm, spec)
        lines.append("")
        lines.append(f"Two-state collapse, positive = {title}:")
        lines.append(format_matrix(two))
        lines.append(format_metrics(*metrics(two)))
    lines.append("")
    lines.append(REFERENCE_NOTE)
    return "\n".join(lines)
