"""Per-pixel log-log polynomial fits and derivative feature packing.

Each pixel's temperature decay is fitted as a degree-d polynomial in
log(t), on log(T), starting at the pixel's first unsaturated frame. The
fit is solved through an orthogonal decomposition (QR / SVD style, never
normal equations) on a log-time axis affinely mapped to [-1, 1]; reported
coefficients are mapped back to the raw log-time basis so they do not
depend on the frame window. First and second derivative polynomials with
respect to log time come straight from term-wise calculus on the fit.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import ComputeError, ValidationError
from .ingest import check_timestamps, first_unsaturated_frame

PACK_TRUNCATED = "concat-truncated"
PACK_PADDED = "concat-padded"
_PACKINGS = (PACK_TRUNCATED, PACK_PADDED)


class FitError(ComputeError):
    pass


class NonPositiveSampleError(FitError):
    """A fitted frame holds a value whose log is undefined."""


class UnderdeterminedFitError(FitError):
    """Fewer usable frames than polynomial coefficients."""


class RankDeficientFitError(FitError):
    """The orthogonalized system lost rank (degenerate time axis)."""


@dataclass(frozen=True)
class TsrFit:
    degree: int
    coefficients: np.ndarray      # a_0..a_d, log-units
    fit_domain: tuple             # (log t_min, log t_max)
    rms_residual: float
    log_base: float = 10.0

    def __post_init__(self):
        if self.coefficients.shape != (self.degree + 1,):
            raise ValidationError("coefficient count must equal degree + 1")
        if self.rms_residual < 0:
            raise ValidationError("rms residual must be >= 0")

    def value(self, log_t):
        return np.polyval(self.coefficients[::-1], log_t)


def fit_pixel(series, timestamps, degree, first_frame=0, log_base=10.0):
    """Least-squares polynomial fit of log(T) against log(t).

    Only frames >= first_frame enter the fit. Raises rather than returning
    flags; the batch wrapper fit_sequence does the flagging.
    """
    series = np.asarray(series, dtype=np.float64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if series.shape != timestamps.shape or series.ndim != 1:
        raise ValidationError("series and timestamps must be equal-length 1-D")
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    if not 0 <= first_frame < series.shape[0]:
        raise ValidationError(f"first_frame {first_frame} out of range")
    check_timestamps(timestamps, ValidationError)

    t = timestamps[first_frame:]
    y_raw = series[first_frame:]
    m = degree + 1
    if t.shape[0] < m:
        raise UnderdeterminedFitError(
            f"{t.shape[0]} frames cannot determine {m} coefficients")
    if np.any(y_raw <= 0.0):
        raise NonPositiveSampleError("series contains values <= 0")

    ln_base = math.log(log_base)
    u = np.log(t) / ln_base
    y = np.log(y_raw) / ln_base
    umin, umax = u[0], u[-1]
    if umax == umin:
        raise RankDeficientFitError("degenerate log-time axis")
    scale = 2.0 / (umax - umin)
    shift = -(umax + umin) / (umax - umin)
    vand = np.vander(scale * u + shift, m, increasing=True)
    sol, _, rank, _ = np.linalg.lstsq(vand, y, rcond=None)
    if rank < m:
        raise RankDeficientFitError(f"rank {rank} < {m} after orthogonalization")
    resid = vand @ sol - y
    rms = math.sqrt(float(resid @ resid) / u.shape[0])
    coeffs = _kernels._affine_basis_matrix(degree, scale, shift) @ sol
    return TsrFit(degree, coeffs, (float(umin), float(umax)), rms, log_base)


def derivatives(fit):
    """First and second derivative polynomials with respect to log time."""
    if fit.degree < 2:
        raise ValidationError("derivatives need degree >= 2")
    return derivative_coefficients(fit.coefficients)


def derivative_coefficients(coeffs):
    a = np.asarray(coeffs, dtype=np.float64)
    idx = np.arange(a.shape[0], dtype=np.float64)
    first = (a * idx)[1:]
    second = (a * idx * (idx - 1.0))[2:]
    return first, second


def feature_length(degree, packing):
    if packing == PACK_PADDED:
        return 3 * (degree + 1)
    if packing == PACK_TRUNCATED:
        return 3 * degree
    raise ValidationError(f"unknown packing {packing!r}")


def pack_features(fit, packing=PACK_PADDED):
    """Concatenate fit, first- and second-derivative coefficients.

    concat-truncated keeps each block at its natural length (d+1, d, d-1);
    concat-padded zero-fills every block to d+1 entries.
    """
    first, second = derivatives(fit)
    if packing == PACK_TRUNCATED:
        values = np.concatenate([fit.coefficients, first, second])
    elif packing == PACK_PADDED:
        m = fit.degree + 1
        values = np.zeros(3 * m)
        values[:m] = fit.coefficients
        values[m:m + first.shape[0]] = first
        values[2 * m:2 * m + second.shape[0]] = second
    else:
        raise ValidationError(f"unknown packing {packing!r}")
    return values


@dataclass(frozen=True)
class FeatureImage:
    """Per-pixel packed feature vectors plus a validity flag.

    scaling_pending distinguishes raw fit output from standardized
    features; rms, start and reason (the kernel's per-pixel drop code,
    see _kernels.REASONS) are fit diagnostics that do not survive
    serialization.
    """
    width: int
    height: int
    degree: int
    packing: str
    values: np.ndarray            # (H, W, L)
    valid: np.ndarray             # (H, W) bool
    log_base: float = 10.0
    scaling_pending: bool = True
    rms: Optional[np.ndarray] = None
    start: Optional[np.ndarray] = None
    reason: Optional[np.ndarray] = None

    def __post_init__(self):
        length = feature_length(self.degree, self.packing)
        if self.values.shape != (self.height, self.width, length):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"({self.height}, {self.width}, {length})")
        if self.valid.shape != (self.height, self.width):
            raise ValidationError("valid mask shape mismatch")

    @property
    def feature_count(self):
        return self.values.shape[2]


def _pack_image(coef, degree, packing):
    """Vectorised pack_features over an (H, W, d+1) coefficient stack."""
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


def fit_sequence(seq, degree, packing=PACK_PADDED, log_base=10.0):
    """Fit every pixel of a sequence; failures flag pixels, never abort.

    Saturation handling is per pixel: frames up to the pixel's last
    saturated frame are dropped before fitting.
    """
    if degree < 2:
        raise ValidationError("feature packing needs degree >= 2")
    if packing not in _PACKINGS:
        raise ValidationError(f"unknown packing {packing!r}")
    ln_base = math.log(log_base)
    log_t = np.log(seq.timestamps) / ln_base
    coef, rms, start, reason = _kernels.fit_image(
        seq.data, log_t, seq.saturation_value, degree, 1.0 / ln_base)
    valid = reason == _kernels.FITTED
    values = _pack_image(coef, degree, packing)
    values[~valid] = 0.0
    return FeatureImage(seq.width, seq.height, degree, packing, values,
                        valid, log_base, True, rms, start, reason)


def reason_counts(image):
    """{reason name: pixel count} over _kernels.REASONS for a fitted image."""
    counts = np.bincount(image.reason.ravel(),
                         minlength=len(_kernels.REASONS))
    return dict(zip(_kernels.REASONS, counts.tolist()))


def fit_one(seq, pixel, degree, log_base=10.0):
    """Reference single-pixel fit honouring the pixel's saturation window."""
    start = first_unsaturated_frame(seq, pixel)
    row, col = pixel
    return fit_pixel(seq.data[:, row, col], seq.timestamps, degree, start,
                     log_base)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = "thermoseg-features v1"


def write_feature_image(image, path):
    """Header lines then one CSV row per pixel: valid flag + features."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_MAGIC}\n")
        fh.write(f"width = {image.width}\n")
        fh.write(f"height = {image.height}\n")
        fh.write(f"degree = {image.degree}\n")
        fh.write(f"packing = {image.packing}\n")
        fh.write(f"log_base = {repr(float(image.log_base))}\n")
        fh.write(f"scaling_pending = {int(image.scaling_pending)}\n")
        flat = image.values.reshape(-1, image.feature_count)
        flags = image.valid.reshape(-1)
        for i in range(flat.shape[0]):
            row = ",".join("%.17g" % v for v in flat[i])
            fh.write(f"{int(flags[i])},{row}\n")


def read_feature_image(path):
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read feature file {path}: {exc}") from exc
    with fh:
        magic = fh.readline().strip()
        if magic != f"# {_MAGIC}":
            raise ValidationError(f"{path}: not a feature image file")
        header = {}
        for _ in range(6):
            line = fh.readline()
            if "=" not in line:
                raise ValidationError(f"{path}: truncated header")
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
        try:
            width = int(header["width"])
            height = int(header["height"])
            degree = int(header["degree"])
            packing = header["packing"]
            log_base = float(header["log_base"])
            pending = bool(int(header["scaling_pending"]))
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{path}: bad header: {exc}") from exc
        length = feature_length(degree, packing)
        values = np.empty((height * width, length))
        flags = np.empty(height * width, dtype=bool)
        for i in range(height * width):
            line = fh.readline()
            if not line:
                raise ValidationError(f"{path}: truncated at row {i}")
            parts = line.rstrip("\n").split(",")
            if len(parts) != length + 1:
                raise ValidationError(f"{path}: row {i} has {len(parts)} fields")
            try:
                flags[i] = bool(int(parts[0]))
                values[i] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValidationError(f"{path}: row {i}: {exc}") from exc
    return FeatureImage(width, height, degree, packing,
                        values.reshape(height, width, length),
                        flags.reshape(height, width), log_base, pending)
