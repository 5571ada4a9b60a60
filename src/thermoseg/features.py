"""Labeled datasets: assembly from feature images, scaling, noise, splits.

Scaling statistics use the population (1/N) convention and are fitted on
training rows only; applying them maps constant features to 0 instead of
dividing by zero. Augmentation and perturbation add bounded multiplicative
uniform noise per element. Splitting happens before augmentation in the
pipeline so near-duplicate rows cannot leak into validation or test.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import INVALID_LABEL


class DatasetError(ValidationError):
    pass


@dataclass(frozen=True)
class Dataset:
    vectors: np.ndarray           # (N, F)
    labels: np.ndarray            # (N,) int
    class_count: int
    provenance: np.ndarray        # (N, 2) source pixel (row, col), -1 unknown

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise DatasetError("vectors must be a non-empty N x F array")
        n = self.vectors.shape[0]
        if self.labels.shape != (n,):
            raise DatasetError("labels must be one per row")
        if self.provenance.shape != (n, 2):
            raise DatasetError("provenance must be one (row, col) per row")
        if self.class_count < 1:
            raise DatasetError("class_count must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DatasetError("labels must lie in [0, class_count)")

    @property
    def size(self):
        return self.vectors.shape[0]

    @property
    def feature_count(self):
        return self.vectors.shape[1]

    def take(self, index):
        return Dataset(self.vectors[index], self.labels[index],
                       self.class_count, self.provenance[index])


@dataclass(frozen=True)
class ScalingStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DatasetError("mean and std must be equal-length vectors")
        if np.any(self.std < 0):
            raise DatasetError("std must be >= 0")

    @property
    def constant(self):
        """Mask of features with zero spread in the training data."""
        return self.std == 0.0


def _check_seed(seed, what):
    # np.random.default_rng rejects a negative seed with a bare ValueError
    if seed < 0:
        raise DatasetError(f"{what} seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    validation_fraction_of_train: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DatasetError("train_fraction must lie in (0, 1)")
        if not 0.0 < self.validation_fraction_of_train < 1.0:
            raise DatasetError("validation fraction must lie in (0, 1)")
        _check_seed(self.seed, "split")


def assemble(image, mask):
    """One dataset row per pixel that is mask-valid and successfully fitted.

    Every class present among the mask's valid pixels must contribute at
    least one row; a class wiped out by fit failures is an error, not a
    silent shrink.
    """
    if (image.width, image.height) != (mask.width, mask.height):
        raise DatasetError(
            f"feature image {image.width}x{image.height} does not match "
            f"mask {mask.width}x{mask.height}")
    usable = mask.valid & image.valid & (mask.labels != INVALID_LABEL)
    present = np.unique(mask.labels[mask.valid & (mask.labels != INVALID_LABEL)])
    if present.size == 0:
        raise DatasetError("mask has no valid labeled pixels")
    rows, cols = np.nonzero(usable)
    if rows.size == 0:
        raise DatasetError("no pixel is both labeled and fitted")
    labels = mask.labels[rows, cols].astype(np.int64)
    survived = np.unique(labels)
    missing = np.setdiff1d(present, survived)
    if missing.size:
        raise DatasetError(f"classes {missing.tolist()} lost every pixel "
                           f"to fit failures")
    vectors = image.values[rows, cols].copy()
    provenance = np.stack([rows, cols], axis=1).astype(np.int64)
    return Dataset(vectors, labels, int(labels.max()) + 1, provenance)


def fit_scaler(train):
    """Per-feature mean and population standard deviation of train rows."""
    if train.size < 2:
        raise DatasetError("scaler needs at least 2 training rows")
    return ScalingStats(train.vectors.mean(axis=0),
                        train.vectors.std(axis=0, ddof=0))


def scale(vectors, stats):
    """(x - mean) / std per feature of N x F rows; constant features
    collapse to 0."""
    if stats.mean.shape[0] != vectors.shape[1]:
        raise DatasetError(
            f"stats cover {stats.mean.shape[0]} features, vectors have "
            f"{vectors.shape[1]}")
    denom = np.where(stats.std == 0.0, 1.0, stats.std)
    scaled = (vectors - stats.mean) / denom
    scaled[:, stats.constant] = 0.0
    return scaled


def apply_scaler(ds, stats):
    """A copy of the dataset with its vectors scaled by `scale`."""
    return Dataset(scale(ds.vectors, stats), ds.labels.copy(),
                   ds.class_count, ds.provenance.copy())


def augment(train, relative_amplitude, copies, seed):
    """Append `copies` noisy clones of every row, keeping the originals.

    Clone elements are x * (1 + u) with u uniform in [-a, +a], drawn
    independently per element, so each clone deviates at most a*|x|.
    """
    if relative_amplitude < 0:
        raise DatasetError("relative amplitude must be >= 0")
    if copies < 0:
        raise DatasetError("copies must be >= 0")
    _check_seed(seed, "augment")
    if copies == 0:
        return train.take(slice(None))
    rng = np.random.default_rng(seed)
    n, f = train.vectors.shape
    factors = 1.0 + rng.uniform(-relative_amplitude, relative_amplitude,
                                size=(copies, n, f))
    clones = (train.vectors[None, :, :] * factors).reshape(copies * n, f)
    vectors = np.concatenate([train.vectors, clones], axis=0)
    labels = np.concatenate([train.labels] + [train.labels] * copies)
    provenance = np.concatenate([train.provenance] + [train.provenance] * copies)
    return Dataset(vectors, labels, train.class_count, provenance)


def perturb(ds, relative_amplitude, seed):
    """Replace every element with x * (1 + u), u uniform in [-a, +a]."""
    if relative_amplitude < 0:
        raise DatasetError("relative amplitude must be >= 0")
    _check_seed(seed, "perturb")
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-relative_amplitude, relative_amplitude,
                                size=ds.vectors.shape)
    return Dataset(ds.vectors * factors, ds.labels.copy(), ds.class_count,
                   ds.provenance.copy())


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
        raise DatasetError(
            f"split of {n} rows leaves an empty part "
            f"({train_n}/{val_n}/{test_n})")
    order = np.random.default_rng(spec.seed).permutation(n)
    test_idx = order[:test_n]
    val_idx = order[test_n:test_n + val_n]
    train_idx = order[test_n + val_n:]
    return ds.take(train_idx), ds.take(val_idx), ds.take(test_idx)

