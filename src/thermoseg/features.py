"""Labeled datasets: assembly from feature images, scaling, noise, splits.

A dataset is vectors and labels only. Its rows follow `assemble`'s order,
the row-major `np.nonzero` order of the usable pixels, so a caller that
needs the source pixel of a row recomputes it from the masks.

Scaling statistics use the population (1/N) convention and are fitted on
training rows only; applying them maps constant features to 0 instead of
dividing by zero. `scale` standardizes the matrix it is given in place, so
the training pipeline scales its augmented matrix without a second copy;
`apply_scaler` scales a copy. Augmentation and perturbation add bounded
multiplicative uniform noise per element. `augment` writes the originals
and every noisy copy into one preallocated matrix, drawing the noise one
copy at a time. Splitting happens before augmentation in the pipeline so
near-duplicate rows cannot leak into validation or test.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import INVALID_LABEL


@dataclass(frozen=True)
class Dataset:
    vectors: np.ndarray           # (N, F)
    labels: np.ndarray            # (N,) int
    class_count: int

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise ValidationError("vectors must be a non-empty N x F array")
        n = self.vectors.shape[0]
        if self.labels.shape != (n,):
            raise ValidationError("labels must be one per row")
        if self.class_count < 1:
            raise ValidationError("class_count must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValidationError("labels must lie in [0, class_count)")

    @property
    def size(self):
        return self.vectors.shape[0]

    @property
    def feature_count(self):
        return self.vectors.shape[1]

    def take(self, index):
        return Dataset(self.vectors[index], self.labels[index],
                       self.class_count)


@dataclass(frozen=True)
class ScalingStats:
    mean: np.ndarray
    std: np.ndarray

    @property
    def constant(self):
        """Mask of features with zero spread in the training data."""
        return self.std == 0.0


def check_seed(seed, what):
    # np.random.default_rng rejects a negative seed with a bare ValueError
    if seed < 0:
        raise ValidationError(f"{what} seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    validation_fraction_of_train: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must lie in (0, 1)")
        if not 0.0 < self.validation_fraction_of_train < 1.0:
            raise ValidationError("validation fraction must lie in (0, 1)")
        check_seed(self.seed, "split")


def assemble(image, mask):
    """One dataset row per pixel that is mask-valid and successfully fitted.

    Every class present among the mask's valid pixels must contribute at
    least one row; a class wiped out by fit failures is an error, not a
    silent shrink.
    """
    (h, w), (mask_h, mask_w) = image.valid.shape, mask.labels.shape
    if (h, w) != (mask_h, mask_w):
        raise ValidationError(f"feature image {w}x{h} does not match "
                              f"mask {mask_w}x{mask_h}")
    usable = mask.valid & image.valid & (mask.labels != INVALID_LABEL)
    present = np.unique(mask.labels[mask.valid & (mask.labels != INVALID_LABEL)])
    if present.size == 0:
        raise ValidationError("mask has no valid labeled pixels")
    rows, cols = np.nonzero(usable)
    if rows.size == 0:
        raise ValidationError("no pixel is both labeled and fitted")
    labels = mask.labels[rows, cols].astype(np.int64)
    survived = np.unique(labels)
    missing = np.setdiff1d(present, survived)
    if missing.size:
        raise ValidationError(f"classes {missing.tolist()} lost every pixel "
                              f"to fit failures")
    return Dataset(image.values[rows, cols], labels, int(labels.max()) + 1)


# rows per block of the scaler's spread pass
BLOCK_ROWS = 4096


def fit_scaler(train):
    """Per-feature mean and population standard deviation of train rows.

    The squared deviations are summed BLOCK_ROWS rows at a time in one
    reused buffer whose row 0 carries the running sum. An axis-0 sum
    adds rows in order, so this is bitwise `np.std(axis=0)` (for two or
    more features; numpy sums a single column pairwise) without its
    matrix-sized `x - mean`.
    """
    if train.size < 2:
        raise ValidationError("scaler needs at least 2 training rows")
    x, n = train.vectors, train.size
    mean = x.mean(axis=0)
    buf = np.zeros((min(BLOCK_ROWS, n) + 1, x.shape[1]))
    for i in range(0, n, BLOCK_ROWS):
        b = min(BLOCK_ROWS, n - i)
        block = buf[1:b + 1]
        np.subtract(x[i:i + b], mean, out=block)
        np.multiply(block, block, out=block)
        np.add.reduce(buf[:b + 1], axis=0, out=buf[0])
    return ScalingStats(mean, np.sqrt(buf[0] / n))


def scale(vectors, stats):
    """Standardize float N x F rows in place, (x - mean) / std per
    feature, and return them; constant features collapse to 0."""
    if stats.mean.shape[0] != vectors.shape[1]:
        raise ValidationError(
            f"stats cover {stats.mean.shape[0]} features, vectors have "
            f"{vectors.shape[1]}")
    denom = np.where(stats.std == 0.0, 1.0, stats.std)
    np.subtract(vectors, stats.mean, out=vectors)
    np.divide(vectors, denom, out=vectors)
    vectors[:, stats.constant] = 0.0
    return vectors


def apply_scaler(ds, stats):
    """The dataset with a scaled copy of its vectors; labels are shared."""
    return Dataset(scale(np.array(ds.vectors, dtype=np.float64), stats),
                   ds.labels, ds.class_count)


def _check_amplitude(relative_amplitude):
    # Generator.uniform raises OverflowError when its range 2a is not finite
    if not (np.isfinite(2.0 * relative_amplitude) and relative_amplitude >= 0):
        raise ValidationError(f"relative amplitude must be >= 0 with a finite "
                              f"range 2a, got {relative_amplitude}")


def augment(train, relative_amplitude, copies, seed):
    """Append `copies` noisy clones of every row, keeping the originals.

    Clone elements are x * (1 + u) with u uniform in [-a, +a], drawn
    independently per element, so each clone deviates at most a*|x|.
    The result is one new ((copies + 1) N, F) matrix: the originals, then
    each copy, whose factors are drawn as one (N, F) block. Drawing them
    a copy at a time gives the same stream as one (copies, N, F) draw.
    """
    _check_amplitude(relative_amplitude)
    if copies < 0:
        raise ValidationError("copies must be >= 0")
    check_seed(seed, "augment")
    n, f = train.vectors.shape
    rows = (copies + 1) * n
    if rows * f * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"augment copies {copies} give {rows} rows, "
                              f"more than an array can hold")
    vectors = np.empty((rows, f))
    vectors[:n] = train.vectors
    rng = np.random.default_rng(seed)
    for k in range(1, copies + 1):
        block = rng.uniform(-relative_amplitude, relative_amplitude,
                            size=(n, f))
        block += 1.0
        np.multiply(train.vectors, block, out=vectors[k * n:(k + 1) * n])
    return Dataset(vectors, np.tile(train.labels, copies + 1),
                   train.class_count)


def perturb(ds, relative_amplitude, seed):
    """Replace every element with x * (1 + u), u uniform in [-a, +a]."""
    _check_amplitude(relative_amplitude)
    check_seed(seed, "perturb")
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-relative_amplitude, relative_amplitude,
                                size=ds.vectors.shape)
    return Dataset(ds.vectors * factors, ds.labels.copy(), ds.class_count)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def split(ds, spec):
    """Seeded random partition into (train, validation, test).

    Test takes round((1 - train_fraction) * N) rows; validation then takes
    round(fraction * remaining) out of the provisional training rows. No
    stratification.
    """
    n = ds.size
    test_n = _round_half_up((1.0 - spec.train_fraction) * n)
    train_raw = n - test_n
    val_n = _round_half_up(spec.validation_fraction_of_train * train_raw)
    train_n = train_raw - val_n
    if min(train_n, val_n, test_n) < 1:
        raise ValidationError(
            f"split of {n} rows leaves an empty part "
            f"({train_n}/{val_n}/{test_n})")
    order = np.random.default_rng(spec.seed).permutation(n)
    test_idx = order[:test_n]
    val_idx = order[test_n:test_n + val_n]
    train_idx = order[test_n + val_n:]
    return ds.take(train_idx), ds.take(val_idx), ds.take(test_idx)

