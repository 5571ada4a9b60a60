"""Per-pixel log-log polynomial fits and derivative feature packing.

Each pixel's temperature decay is fitted as a degree-d polynomial in
log10(t), on log10(T), from the pixel's first unsaturated frame (another
base would only rescale what feature scaling removes). The fit is solved
through a QR decomposition on a log-time axis mapped to [-1, 1]; reported
coefficients are mapped back to the raw log-time basis, where they do not
depend on the fit window only for curves exactly polynomial in log t.
Derivative polynomials with respect to log time come from term-wise
calculus on the fit.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, keyfile
from .errors import ValidationError

PACK_TRUNCATED = "concat-truncated"
PACK_PADDED = "concat-padded"
_PACKINGS = (PACK_TRUNCATED, PACK_PADDED)


def feature_length(degree, packing):
    if packing == PACK_PADDED:
        return 3 * (degree + 1)
    if packing == PACK_TRUNCATED:
        return 3 * degree
    raise ValidationError(f"unknown packing {packing!r}")


@dataclass(frozen=True)
class FeatureImage:
    """Per-pixel raw (unscaled) packed feature vectors plus a validity flag.

    rms and reason (the kernel's per-pixel drop code, see
    _kernels.REASONS) are fit diagnostics that do not survive
    serialization.
    """
    degree: int
    packing: str
    values: np.ndarray            # (H, W, L)
    valid: np.ndarray             # (H, W) bool
    rms: Optional[np.ndarray] = None
    reason: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.valid.ndim != 2:
            raise ValidationError("valid must be a 2-D array")
        want = self.valid.shape + (feature_length(self.degree, self.packing),)
        if self.values.shape != want:
            raise ValidationError(f"values shape {self.values.shape} does "
                                  f"not match {want}")

    @property
    def feature_count(self):
        return self.values.shape[2]


def _pack_image(coef, degree, packing):
    """Fit, first- and second-derivative coefficients of an (H, W, d+1)
    stack: concat-truncated keeps each block at its natural length (d+1,
    d, d-1), concat-padded zero-fills every block to d+1 entries."""
    m = degree + 1
    idx = np.arange(m, dtype=np.float64)
    first = (coef * idx)[..., 1:]
    second = (coef * idx * (idx - 1.0))[..., 2:]
    if packing == PACK_TRUNCATED:
        return np.concatenate([coef, first, second], axis=-1)
    height, width = coef.shape[:2]
    values = np.zeros((height, width, 3 * m))
    values[..., :m] = coef
    values[..., m:2 * m - 1] = first
    values[..., 2 * m:3 * m - 2] = second
    return values


def fit_sequence(seq, degree, packing=PACK_PADDED):
    """Fit every pixel of a sequence; failures flag pixels, never abort.

    Saturation handling is per pixel: frames up to the pixel's last
    saturated frame are dropped before fitting.
    """
    if degree < 2:
        raise ValidationError("feature packing needs degree >= 2")
    if packing not in _PACKINGS:
        raise ValidationError(f"unknown packing {packing!r}")
    coef, rms, _, reason = _kernels.fit_image(
        seq.data, seq.timestamps, seq.saturation_value, degree)
    valid = reason == _kernels.FITTED
    values = _pack_image(coef, degree, packing)
    values[~valid] = 0.0
    # copies: field views would keep the fit's whole records alive
    return FeatureImage(degree, packing, values, valid, rms.copy(),
                        reason.copy())


def reason_counts(image):
    """{reason name: pixel count} over _kernels.REASONS for a fitted image."""
    counts = np.bincount(image.reason.ravel(),
                         minlength=len(_kernels.REASONS))
    return dict(zip(_kernels.REASONS, counts.tolist()))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = "thermoseg-features v1"


def write_feature_image(image, path):
    """Header lines then one CSV row per pixel: valid flag + features."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_MAGIC}\n")
        height, width = image.valid.shape
        fh.write(f"width = {width}\n")
        fh.write(f"height = {height}\n")
        fh.write(f"degree = {image.degree}\n")
        fh.write(f"packing = {image.packing}\n")
        # both lines are fixed; the file layout keeps them
        fh.write(f"log_base = {_kernels.LOG_BASE!r}\n")
        fh.write("scaling_pending = 1\n")
        # the flag prints as 1 or 0 at %.17g
        keyfile.write_rows(fh, np.column_stack((
            image.valid.reshape(-1),
            image.values.reshape(-1, image.feature_count))))


def read_feature_image(path):
    with keyfile.reading(path) as text:
        if text[:1] != [f"# {_MAGIC}"]:
            raise ValidationError("not a feature image file", 1)
        keys = keyfile.KeyFile(text[1:7], 2)
        head = keys.section("")
        width, height = head.integer("width", 1), head.integer("height", 1)
        degree = head.integer("degree", 2)
        packing = head.text("packing", choices=_PACKINGS)
        head.text("log_base", choices=(repr(_kernels.LOG_BASE),))
        head.text("scaling_pending", choices=("1",))
        keys.finish()
        length = feature_length(degree, packing)
        table = keyfile.rows(text[7:], height * width, length + 1, 8)
        flags, values = table[:, 0], table[:, 1:]
        bad = np.nonzero((flags != 0) & (flags != 1))[0]
        if bad.size:
            raise ValidationError(f"row {bad[0]} has valid flag "
                                  f"{flags[bad[0]]:g}, not 0 or 1", 8 + bad[0])
        valid = flags == 1
        bad = np.nonzero(valid & ~np.isfinite(values).all(axis=1))[0]
        if bad.size:
            raise ValidationError(f"row {bad[0]} is flagged valid but holds "
                                  f"a non-finite value", 8 + bad[0])
        return FeatureImage(degree, packing,
                            values.reshape(height, width, length),
                            valid.reshape(height, width))
