"""Scalar reference implementations the tests check the package against.

No command runs these. The single-pixel fit solves each window with
numpy.polynomial on the raw log-time axis, apart from the package's
kernel (its QR on a [-1, 1] axis and its raw-basis map), so that the
kernel is compared with an independent solution. `forward_layers` is the
batch-major forward pass `nn.forward` is checked against, and `backward`
exposes the gradient of the training step that `nn.train` runs.
`augment`, `scaler_stats` and `scaled` are the whole-matrix formulas the
package's preallocated augmentation, block-wise scaler statistics and
in-place scaling must reproduce bitwise.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from thermoseg import nn, tsr
from thermoseg.errors import ComputeError, ValidationError
from thermoseg.ingest import check_timestamps


class FitError(ComputeError):
    pass


class NonPositiveSampleError(FitError):
    """A fitted frame holds a value whose log is undefined."""


class UnderdeterminedFitError(FitError):
    """Fewer usable frames than polynomial coefficients."""


class RankDeficientFitError(FitError):
    """The least-squares system lost rank (degenerate time axis)."""


class SaturatedPixelError(ComputeError):
    """A pixel has no unsaturated suffix to fit."""


@dataclass(frozen=True)
class TsrFit:
    degree: int
    coefficients: np.ndarray      # a_0..a_d, log10 units
    fit_domain: tuple             # (log10 t_min, log10 t_max)
    rms_residual: float

    def __post_init__(self):
        if self.coefficients.shape != (self.degree + 1,):
            raise ValidationError("coefficient count must equal degree + 1")
        if self.rms_residual < 0:
            raise ValidationError("rms residual must be >= 0")

    def value(self, log_t):
        return np.polyval(self.coefficients[::-1], log_t)


def fit_pixel(series, timestamps, degree, first_frame=0):
    """Least-squares polynomial fit of log10(T) against log10(t).

    Only frames >= first_frame enter the fit. Raises rather than returning
    flags.
    """
    series = np.asarray(series, dtype=np.float64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if series.shape != timestamps.shape or series.ndim != 1:
        raise ValidationError("series and timestamps must be equal-length 1-D")
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    if not 0 <= first_frame < series.shape[0]:
        raise ValidationError(f"first_frame {first_frame} out of range")
    check_timestamps(timestamps)

    t = timestamps[first_frame:]
    y_raw = series[first_frame:]
    m = degree + 1
    if t.shape[0] < m:
        raise UnderdeterminedFitError(
            f"{t.shape[0]} frames cannot determine {m} coefficients")
    if np.any(y_raw <= 0.0):
        raise NonPositiveSampleError("series contains values <= 0")

    ln_base = math.log(10.0)
    u = np.log(t) / ln_base
    y = np.log(y_raw) / ln_base
    if u[-1] == u[0]:
        raise RankDeficientFitError("degenerate log-time axis")
    poly, (_, rank, _, _) = Polynomial.fit(u, y, degree, full=True)
    if rank < m:
        raise RankDeficientFitError(f"rank {rank} < {m}")
    resid = poly(u) - y
    rms = math.sqrt(float(resid @ resid) / u.shape[0])
    return TsrFit(degree, poly.convert().coef, (float(u[0]), float(u[-1])),
                  rms)


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


def pack_features(fit, packing=tsr.PACK_PADDED):
    """Concatenate fit, first- and second-derivative coefficients.

    concat-truncated keeps each block at its natural length (d+1, d, d-1);
    concat-padded zero-fills every block to d+1 entries.
    """
    first, second = derivatives(fit)
    if packing == tsr.PACK_TRUNCATED:
        values = np.concatenate([fit.coefficients, first, second])
    elif packing == tsr.PACK_PADDED:
        m = fit.degree + 1
        values = np.zeros(3 * m)
        values[:m] = fit.coefficients
        values[m:m + first.shape[0]] = first
        values[2 * m:2 * m + second.shape[0]] = second
    else:
        raise ValidationError(f"unknown packing {packing!r}")
    return values


def first_unsaturated_frame(seq, pixel):
    """Smallest frame index from which (row, col) stays strictly below the
    saturation value for every later frame."""
    row, col = pixel
    frames, height, width = seq.data.shape
    if not (0 <= row < height and 0 <= col < width):
        raise ValidationError(f"pixel {pixel} outside {width}x{height}")
    values = seq.data[:, row, col]
    saturated = np.nonzero(values >= seq.saturation_value)[0]
    start = 0 if saturated.size == 0 else int(saturated[-1]) + 1
    if start >= frames:
        raise SaturatedPixelError(
            f"pixel {pixel} is saturated through the final frame")
    return start


def fit_one(seq, pixel, degree):
    """Single-pixel fit honouring the pixel's saturation window."""
    start = first_unsaturated_frame(seq, pixel)
    row, col = pixel
    return fit_pixel(seq.data[:, row, col], seq.timestamps, degree, start)


def _softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward_layers(model, x):
    """All layer outputs of a (B, F) batch, input first, batch-major and
    allocating: the reference for the in-place pass `nn.forward` runs."""
    acts = [x]
    for w, b, kind in zip(model.weights, model.biases, model.activations):
        z = acts[-1] @ w + b
        if kind == "relu":
            acts.append(np.maximum(z, 0.0))
        elif kind == "tanh":
            acts.append(np.tanh(z))
        else:
            acts.append(_softmax(z))
    return acts


def param_count(model):
    return sum(w.size + b.size for w, b in zip(model.weights, model.biases))


def backward(model, batch_x, batch_labels):
    """Gradients of the mean batch loss for every weight and bias.

    Runs the step code that `nn.train` runs and returns per-layer copies,
    (weight_grads, bias_grads) matching model.weights/biases.
    """
    x = np.asarray(batch_x, dtype=np.float64)
    labels = np.asarray(batch_labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("batch must be a non-empty 2-D array")
    if x.shape[1] != model.input_size:
        raise ValidationError(
            f"batch width {x.shape[1]} does not match model input "
            f"{model.input_size}")
    if (labels.shape != (x.shape[0],) or labels.min() < 0
            or labels.max() >= model.output_size):
        raise ValidationError(
            f"need one label in [0, {model.output_size}) per batch row")
    n = x.shape[0]
    step = nn._TrainStep(model, n)
    step.gradients(*nn._Batches(x, labels, n, 0, False).gather(
        np.arange(n), 0))
    return ([g.copy() for g in step.grad_w], [g.copy() for g in step.grad_b])


def augment(train, relative_amplitude, copies, seed):
    """(vectors, labels) of `features.augment` from one (copies, N, F)
    draw of factors and a concatenation."""
    rng = np.random.default_rng(seed)
    n, f = train.vectors.shape
    factors = 1.0 + rng.uniform(-relative_amplitude, relative_amplitude,
                                size=(copies, n, f))
    clones = (train.vectors[None, :, :] * factors).reshape(copies * n, f)
    return (np.concatenate([train.vectors, clones], axis=0),
            np.concatenate([train.labels] * (copies + 1)))


def scaler_stats(vectors):
    """Per-feature mean and population std by numpy's whole-matrix std."""
    return vectors.mean(axis=0), vectors.std(axis=0, ddof=0)


def scaled(vectors, mean, std):
    """(x - mean) / std as a new matrix; constant features become 0."""
    out = (vectors - mean) / np.where(std == 0.0, 1.0, std)
    out[:, std == 0.0] = 0.0
    return out
