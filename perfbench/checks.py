"""Correctness checks computed apart from thermoseg.

Each check takes plain arrays or file paths and returns (ok, detail). None
of them compares against a stored copy of earlier output: they either redo
the computation another way (numpy.polynomial fits, a PGM parser, the
plate series) or test a property the method must have (accuracy targets,
confusion totals, augmentation bounds).

The workloads also feed every check a deliberately damaged output (flipped
labels, a shifted coefficient, a wrong matrix cell) and require it to be
rejected, on every measured pass.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

# ---------------------------------------------------------------------------
# the four-grade part, described independently of synthgen
# ---------------------------------------------------------------------------

POLYMER_DIFFUSIVITY = 5.8e-8       # m^2/s
GAPS_MM = (0.0, 0.1, 0.2, 0.3)
DEFECT_DEPTH_MM = 5.0
BASE_DEPTH_MM = 20.0
AMPLITUDE = 100.0
GAP_HALF_CONTRAST_MM = 0.1


def quadrant_truth(width, height):
    """Grade per pixel of the quadrant part: 0 1 over 2 3."""
    truth = np.empty((height, width), dtype=np.int64)
    xm, ym = width // 2, height // 2
    truth[:ym, :xm] = 0
    truth[:ym, xm:] = 1
    truth[ym:, :xm] = 2
    truth[ym:, xm:] = 3
    return truth


def plate_curve(grade, t):
    """Noise-free surface temperature of one grade (image-source series)."""
    gap = GAPS_MM[grade]
    if gap == 0.0:
        depth, contrast = BASE_DEPTH_MM, 1.0
    else:
        depth, contrast = DEFECT_DEPTH_MM, gap / (gap + GAP_HALF_CONTRAST_MM)
    expo = -(depth * 1e-3) ** 2 / (POLYMER_DIFFUSIVITY * t)
    n = np.arange(1, 200)[:, None]
    series = np.exp(n * n * expo[None, :]).sum(axis=0)
    return AMPLITUDE / np.sqrt(t) * (1.0 + 2.0 * contrast * series)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_render(series, grades, t, sigma):
    """Sampled pixel histories minus the exact curve are N(0, sigma)."""
    worst = []
    for grade in np.unique(grades):
        resid = series[:, grades == grade] - plate_curve(int(grade), t)[:, None]
        mean = float(resid.mean())
        ratio = float(resid.std()) / sigma
        worst.append(f"grade {grade}: mean {mean:+.4f} std/sigma {ratio:.4f}")
        if abs(mean) > 0.04 * sigma or abs(ratio - 1.0) > 0.04:
            return False, "; ".join(worst)
    return True, "; ".join(worst)


def check_fit(series, t, saturation, degree, feats, valid, min_windows=1,
              log_base=10.0):
    """numpy.polynomial fits of log T on log t over each unsaturated suffix.

    series (frames, n) are the sampled pixel histories, feats (n, 3(d+1))
    the padded feature rows the program produced for them. The fitted
    curves must agree on every fitted frame, the derivative blocks must be
    the term-wise derivatives, and a pixel is valid exactly when its
    suffix has enough positive frames. The sample must span at least
    `min_windows` distinct fit windows.
    """
    m = degree + 1
    u_all = np.log(t) / math.log(log_base)
    worst = 0.0
    windows = set()
    for j in range(series.shape[1]):
        y = series[:, j]
        hot = np.nonzero(y >= saturation)[0]
        start = int(hot[-1]) + 1 if hot.size else 0
        fittable = y.shape[0] - start >= m and bool(np.all(y[start:] > 0))
        if bool(valid[j]) != fittable:
            return False, f"pixel {j}: valid {bool(valid[j])}, expected {fittable}"
        if not fittable:
            continue
        windows.add(start)
        u = u_all[start:]
        oracle = Polynomial.fit(u, np.log(y[start:]) / math.log(log_base),
                                degree)
        coef = feats[j, :m]
        worst = max(worst, float(np.max(np.abs(P.polyval(u, coef) - oracle(u)))))
        first, second = P.polyder(coef), P.polyder(coef, 2)
        blocks = np.concatenate([first, [0.0], second, [0.0, 0.0]])
        scale = np.max(np.abs(blocks)) + 1e-300
        if np.max(np.abs(feats[j, m:] - blocks)) > 1e-12 * scale:
            return False, f"pixel {j}: derivative blocks disagree"
    detail = (f"max |curve diff| {worst:.2e} over {series.shape[1]} pixels, "
              f"{len(windows)} fit windows")
    return worst <= 1e-8 and len(windows) >= min_windows, detail


def check_label_map(labels, valid, truth, min_accuracy, min_split_accuracy):
    """Per-pixel accuracy, accuracy on the {0,1} / {2,3} split, and each
    quadrant's majority class. Invalid pixels count as wrong."""
    hit = valid & (labels == truth)
    acc = float(hit.mean())
    split = valid & ((labels >= 2) == (truth >= 2))
    split_acc = float(split.mean())
    majorities = []
    for grade in range(4):
        got = labels[(truth == grade) & valid]
        majorities.append(int(np.bincount(got, minlength=4).argmax())
                          if got.size else -1)
    detail = (f"accuracy {acc:.4f}, over-half-layer split {split_acc:.4f}, "
              f"majorities {majorities}")
    ok = (acc >= min_accuracy and split_acc >= min_split_accuracy
          and majorities == [0, 1, 2, 3])
    return ok, detail


def check_region_report(report, labels, valid, truth):
    """The program's per-region summary matches a recount of the map."""
    for grade in range(4):
        sel = (truth == grade) & valid
        got = labels[sel]
        summary = report.get(grade)
        if summary is None:
            return False, f"region {grade} missing"
        if (summary.pixel_count != int(sel.sum())
                or summary.majority_class != int(np.bincount(got).argmax())
                or abs(summary.fraction_correct - float((got == grade).mean()))
                > 1e-12):
            return False, f"region {grade} summary disagrees with the map"
    return True, "4 regions agree"


def read_pgm(path):
    """Minimal P5 reader kept apart from thermoseg's own."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields = blob.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    width, height = int(fields[1]), int(fields[2])
    raster = blob[len(blob) - width * height:]
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def shades_to_labels(image, class_count):
    """Inverse of the documented shade rule; -1 for any other shade."""
    shades = np.rint(255.0 * np.arange(class_count) / (class_count - 1))
    labels = np.full(image.shape, -1, dtype=np.int64)
    for k, shade in enumerate(shades):
        labels[image == shade] = k
    return labels


def check_segmentation(image, labels, valid, class_count):
    """Shade image decodes back to the label map; invalid pixels at 1."""
    decoded = shades_to_labels(image, class_count)
    if not np.array_equal(decoded[valid], labels[valid]):
        return False, f"{int((decoded[valid] != labels[valid]).sum())} shades wrong"
    if not np.all(image[~valid] == 1):
        return False, "invalid pixels not at shade 1"
    return True, f"{int(valid.sum())} shades decode"


def check_test_scores(pred, labels, min_accuracy, cm_counts,
                      pert_pred, max_drop_pp):
    """Test accuracy, the confusion matrix's total and diagonal, and the
    accuracy lost to the perturbed replay."""
    acc = float(np.mean(pred == labels))
    pert_acc = float(np.mean(pert_pred == labels))
    drop = 100.0 * (acc - pert_acc)
    detail = (f"test accuracy {acc:.4f}, perturbed {pert_acc:.4f} "
              f"({drop:+.2f} pp), matrix total {int(cm_counts.sum())}")
    recount = np.zeros_like(cm_counts)
    np.add.at(recount, (labels, pred), 1)
    ok = (acc >= min_accuracy and drop <= max_drop_pp
          and int(cm_counts.sum()) == labels.shape[0]
          and np.array_equal(recount, cm_counts))
    return ok, detail


def check_augment(originals, rows, clones, amplitude, copies, n_rows):
    """Augmented set has (copies + 1) x rows; each sampled clone is within
    the relative amplitude of its original, elementwise."""
    if n_rows != (copies + 1) * originals.shape[0]:
        return False, f"{n_rows} rows, expected {(copies + 1) * originals.shape[0]}"
    ref = originals[rows]
    bound = amplitude * np.abs(ref) * (1.0 + 1e-12) + 1e-300
    if not np.all(np.abs(clones - ref) <= bound):
        return False, "a clone leaves the augmentation band"
    return True, f"{n_rows} rows"


def check_scaled(raw_sample, scaled_sample):
    """Standardized training features have mean 0 and unit spread; a
    feature that never varies (a padding slot) maps to exactly 0."""
    varying = raw_sample.std(axis=0) > 0
    if np.any(scaled_sample[:, ~varying] != 0.0):
        return False, "a constant feature is not mapped to 0"
    kept = scaled_sample[:, varying]
    mean = np.abs(kept.mean(axis=0)).max()
    std = np.abs(kept.std(axis=0) - 1.0).max()
    return (bool(mean < 0.05 and std < 0.05),
            f"{int(varying.sum())} varying features, max |mean| {mean:.3g}, "
            f"max |std-1| {std:.3g}")


def check_exit(code):
    return code == 0, f"exit {code}"


def check_cli_segmentation(seg_path, mask_path, min_accuracy, reported_pct):
    """Accuracy of the segmentation PGM against the mask PGM, and its
    agreement with the accuracy the eval subcommand printed (2 decimals)."""
    seg = read_pgm(seg_path)
    mask = read_pgm(mask_path)
    usable = (mask != 255) & (seg != 1)
    labels = shades_to_labels(seg, 2)
    acc = float(np.mean(labels[usable] == mask[usable]))
    detail = f"segmentation accuracy {acc:.4f}, eval printed {reported_pct}%"
    if reported_pct is None:
        return False, detail
    return (acc >= min_accuracy
            and abs(100.0 * acc - reported_pct) <= 0.005 + 1e-9), detail


# ---------------------------------------------------------------------------
# damaged inputs each check must reject
# ---------------------------------------------------------------------------

def flip_labels(labels, valid, fraction, class_count, seed=0):
    """Move a fraction of valid pixels to the next class."""
    rng = np.random.default_rng(seed)
    out = labels.copy()
    rows, cols = np.nonzero(valid)
    pick = rng.choice(rows.size, max(1, int(fraction * rows.size)), replace=False)
    out[rows[pick], cols[pick]] = (out[rows[pick], cols[pick]] + 1) % class_count
    return out


def flip_shades(src, dst, fraction):
    """Copy a PGM, moving the first `fraction` of its raster to the
    opposite shade."""
    with open(src, "rb") as fh:
        blob = bytearray(fh.read())
    image = read_pgm(src)
    n = int(fraction * image.size)
    start = len(blob) - image.size
    blob[start:start + n] = bytes(255 - v if v != 1 else 1
                                  for v in blob[start:start + n])
    with open(dst, "wb") as fh:
        fh.write(blob)
    return dst


def perturb_coefficient(feats, valid):
    """Shift the constant term of the first valid pixel by 1e-3 relative."""
    out = feats.copy()
    j = int(np.nonzero(valid)[0][0])
    out[j, 0] += 1e-3 * max(1.0, abs(out[j, 0]))
    return out
