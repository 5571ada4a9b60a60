"""Dataset assembly, scaling, augmentation, splitting, serialization."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from thermoseg import features, nn, repro, tsr
from thermoseg.errors import ValidationError
from thermoseg.ingest import INVALID_LABEL, LabelMask


def _toy_dataset(n=12, f=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, f))
    labels = rng.integers(0, classes, n)
    labels[:classes] = np.arange(classes)       # guarantee presence
    return features.Dataset(vectors, labels, classes)


def _image_and_mask(height=6, width=8, classes=2):
    rng = np.random.default_rng(9)
    values = rng.normal(size=(height, width, 9))
    valid = np.ones((height, width), dtype=bool)
    image = tsr.FeatureImage(2, tsr.PACK_PADDED, values, valid)
    labels = (np.arange(height * width).reshape(height, width) % classes)
    labels = labels.astype(np.int64)
    mask = LabelMask(labels, np.ones((height, width), bool))
    return image, mask


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_counts_and_provenance():
    image, mask = _image_and_mask()
    ds = features.assemble(image, mask)
    assert ds.size == 48
    assert ds.feature_count == 9
    assert ds.class_count == 2
    # rows follow the documented np.nonzero order of the usable pixels
    rows, cols = np.nonzero(np.ones(mask.labels.shape, dtype=bool))
    npt.assert_array_equal(ds.vectors, image.values[rows, cols])
    npt.assert_array_equal(ds.labels, mask.labels[rows, cols])


def test_assemble_skips_invalid_pixels():
    image, mask = _image_and_mask()
    image.valid[0, 0] = False
    mask.valid[1, 1] = False
    mask.labels[2, 2] = INVALID_LABEL
    ds = features.assemble(image, mask)
    assert ds.size == 45
    usable = np.ones(mask.labels.shape, dtype=bool)
    usable[0, 0] = usable[1, 1] = usable[2, 2] = False
    rows, cols = np.nonzero(usable)
    npt.assert_array_equal(ds.vectors, image.values[rows, cols])


def test_assemble_errors():
    image, mask = _image_and_mask()
    narrow = LabelMask(mask.labels[:, :-1], mask.valid[:, :-1])
    with pytest.raises(ValidationError,
                       match="feature image 8x6 does not match mask 7x6"):
        features.assemble(image, narrow)

    # class 1 loses every pixel to fit failures
    image2, mask2 = _image_and_mask()
    image2.valid[mask2.labels == 1] = False
    with pytest.raises(ValidationError):
        features.assemble(image2, mask2)

    image3, mask3 = _image_and_mask()
    mask3.valid[:] = False
    with pytest.raises(ValidationError):
        features.assemble(image3, mask3)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scaler_hand_case():
    # mean of 1,2,3 is 2; population std is sqrt(2/3)
    vectors = np.array([[1.0], [2.0], [3.0]])
    ds = features.Dataset(vectors, np.array([0, 0, 1]), 2)
    stats = features.fit_scaler(ds)
    npt.assert_allclose(stats.mean, [2.0])
    npt.assert_allclose(stats.std, [math.sqrt(2.0 / 3.0)])
    scaled = features.apply_scaler(ds, stats)
    root_3_2 = math.sqrt(3.0 / 2.0)
    npt.assert_allclose(scaled.vectors[:, 0], [-root_3_2, 0.0, root_3_2],
                        rtol=1e-15)


def test_scaled_data_is_standardized():
    ds = _toy_dataset(n=200, f=6, seed=3)
    stats = features.fit_scaler(ds)
    scaled = features.apply_scaler(ds, stats)
    npt.assert_allclose(scaled.vectors.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(scaled.vectors.std(axis=0), 1.0, atol=1e-12)
    # standardizing a standardized set changes nothing
    again = features.apply_scaler(scaled, features.fit_scaler(scaled))
    npt.assert_allclose(again.vectors, scaled.vectors, atol=1e-12)


def test_constant_feature_maps_to_zero():
    vectors = np.array([[1.0, 7.0], [2.0, 7.0], [4.0, 7.0]])
    ds = features.Dataset(vectors, np.array([0, 1, 0]), 2)
    stats = features.fit_scaler(ds)
    assert stats.constant.tolist() == [False, True]
    scaled = features.apply_scaler(ds, stats)
    npt.assert_array_equal(scaled.vectors[:, 1], 0.0)
    assert np.all(np.isfinite(scaled.vectors))


def test_scaler_validation():
    ds = _toy_dataset()
    with pytest.raises(ValidationError):
        features.fit_scaler(ds.take(np.array([0])))
    stats = features.fit_scaler(ds)
    wrong = features.ScalingStats(stats.mean[:-1], stats.std[:-1])
    with pytest.raises(ValidationError):
        features.apply_scaler(ds, wrong)


def test_no_memory_shared_across_split():
    # scaling statistics must depend on training rows alone
    ds = _toy_dataset(n=60, f=3, seed=11)
    spec = features.SplitSpec(0.8, 0.1, 4)
    train, val, test = features.split(ds, spec)
    before = features.fit_scaler(train)
    val.vectors[:] = 1e9
    test.vectors[:] = -1e9
    after = features.fit_scaler(train)
    npt.assert_array_equal(after.mean, before.mean)
    npt.assert_array_equal(after.std, before.std)


# ---------------------------------------------------------------------------
# augmentation and perturbation
# ---------------------------------------------------------------------------

def test_augment_shape_and_bounds():
    ds = _toy_dataset(n=30, f=5, seed=1)
    out = features.augment(ds, 0.05, 4, seed=7)
    assert out.size == 5 * 30
    npt.assert_array_equal(out.vectors[:30], ds.vectors)
    npt.assert_array_equal(out.labels, np.tile(ds.labels, 5))
    clones = out.vectors[30:].reshape(4, 30, 5)
    deviation = np.abs(clones - ds.vectors[None])
    assert np.all(deviation <= 0.05 * np.abs(ds.vectors[None]) + 1e-15)
    assert deviation.max() > 0.0


def test_augment_zero_amplitude_copies_rows():
    ds = _toy_dataset(n=8, seed=2)
    out = features.augment(ds, 0.0, 3, seed=1)
    assert out.size == 32
    npt.assert_array_equal(out.vectors, np.tile(ds.vectors, (4, 1)))


def test_augment_zero_copies_is_identity():
    ds = _toy_dataset(n=8, seed=2)
    out = features.augment(ds, 0.1, 0, seed=1)
    npt.assert_array_equal(out.vectors, ds.vectors)
    npt.assert_array_equal(out.labels, ds.labels)
    # the training pipeline scales this result in place
    assert not np.shares_memory(out.vectors, ds.vectors)
    assert not np.shares_memory(out.labels, ds.labels)


def test_augment_validation():
    ds = _toy_dataset()
    with pytest.raises(ValidationError):
        features.augment(ds, -0.1, 2, 0)
    with pytest.raises(ValidationError):
        features.augment(ds, 0.1, -1, 0)
    # checked even when no copy draws from the seed
    for copies in (0, 2):
        with pytest.raises(ValidationError, match="augment seed"):
            features.augment(ds, 0.1, copies, -3)
    with pytest.raises(ValidationError, match="perturb seed"):
        features.perturb(ds, 0.1, -1)
    # Generator.uniform would raise OverflowError on these
    for amplitude in (math.nan, math.inf, 1e308):
        with pytest.raises(ValidationError, match="amplitude"):
            features.augment(ds, amplitude, 2, 0)
        with pytest.raises(ValidationError, match="amplitude"):
            features.perturb(ds, amplitude, 0)
    # rejected by arithmetic alone: no array of this size is attempted
    with pytest.raises(ValidationError, match="copies 99999999999"):
        features.augment(ds, 0.1, 99999999999999999999, 0)


def _prep_dataset(n, f, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, f)) * rng.uniform(0.1, 1e3, f) \
        + rng.normal(scale=1e4, size=f)
    vectors[:, 1] = 0.0          # stays constant through augmentation
    vectors[:, 2] = 4.25         # constant until augmented
    return features.Dataset(vectors, rng.integers(0, 3, n), 3)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("copies", [0, 1, 3])
def test_prep_matches_whole_matrix_oracle_bitwise(copies):
    # a row count that no copy count turns into a multiple of the block
    n = features.BLOCK_ROWS + 37
    ds = _prep_dataset(n, 6, seed=copies)
    out = features.augment(ds, 0.05, copies, seed=17)
    vectors, labels = oracle.augment(ds, 0.05, copies, seed=17)
    assert out.size % features.BLOCK_ROWS != 0
    assert _same_bits(out.vectors, vectors)
    assert _same_bits(out.labels, labels)
    for data in (ds, out):
        stats = features.fit_scaler(data)
        mean, std = oracle.scaler_stats(data.vectors)
        assert _same_bits(stats.mean, mean) and _same_bits(stats.std, std)
        assert stats.constant[1] and stats.constant[2] == (data.size == n)
        scaled = features.apply_scaler(data, stats)
        assert _same_bits(scaled.vectors, oracle.scaled(data.vectors, mean,
                                                        std))
        assert scaled.labels is data.labels


def test_prep_peak_memory():
    # an augmented matrix of 88,000 x 15 floats, 10.6 MB
    n, f, copies = 8000, 15, 10
    ds = _prep_dataset(n, f, seed=4)
    slack = 256 * 1024
    tracemalloc.start()
    try:
        out = features.augment(ds, 0.05, copies, seed=1)
        augment_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        stats = features.fit_scaler(out)
        fit_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        features.apply_scaler(out, stats)
        scale_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    matrix = out.vectors.nbytes
    # the output (vectors and labels) and one (n, F) block of factors
    assert augment_peak <= matrix + out.labels.nbytes + n * f * 8 + slack
    assert fit_peak <= matrix / 10
    assert scale_peak <= matrix + slack


@pytest.mark.parametrize("copies", [0, 4])
def test_train_classifier_leaves_input_untouched(copies):
    ds = _toy_dataset(n=200, f=5, seed=9)
    vectors, labels = ds.vectors.tobytes(), ds.labels.tobytes()
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-2,
                            batch_size=32, max_steps=20, seed=2)
    _, _, train, _, _ = repro.train_classifier(
        ds, features.SplitSpec(0.8, 0.1, 3), (4,), "tanh", config, 1,
        (0.05, copies, 5))
    assert ds.vectors.tobytes() == vectors and ds.labels.tobytes() == labels
    # the returned training rows are the scaled ones
    npt.assert_allclose(train.vectors.mean(axis=0), 0.0, atol=1e-12)


def test_perturb_bounds_and_determinism():
    ds = _toy_dataset(n=50, f=6, seed=5)
    a = features.perturb(ds, 0.03, seed=21)
    b = features.perturb(ds, 0.03, seed=21)
    c = features.perturb(ds, 0.03, seed=22)
    npt.assert_array_equal(a.vectors, b.vectors)
    assert np.any(a.vectors != c.vectors)
    deviation = np.abs(a.vectors - ds.vectors)
    assert np.all(deviation <= 0.03 * np.abs(ds.vectors) + 1e-15)
    same = features.perturb(ds, 0.0, seed=21)
    npt.assert_array_equal(same.vectors, ds.vectors)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_sizes_large():
    ds = _toy_dataset(n=1000, f=2, seed=8)
    train, val, test = features.split(ds, features.SplitSpec(0.8, 0.1, 0))
    assert (train.size, val.size, test.size) == (720, 80, 200)


def test_split_sizes_small():
    ds = _toy_dataset(n=10, f=2, seed=8)
    train, val, test = features.split(ds, features.SplitSpec(0.8, 0.1, 0))
    assert (train.size, val.size, test.size) == (7, 1, 2)


def test_split_is_a_partition():
    ds = _toy_dataset(n=73, f=3, seed=12)
    train, val, test = features.split(ds, features.SplitSpec(0.8, 0.1, 3))
    stacked = np.concatenate([train.vectors, val.vectors, test.vectors])
    npt.assert_array_equal(np.sort(stacked, axis=0),
                           np.sort(ds.vectors, axis=0))
    # tag each row with its index through a feature column
    ds.vectors[:, 0] = np.arange(73)
    train, val, test = features.split(ds, features.SplitSpec(0.8, 0.1, 3))
    kept = np.concatenate([train.vectors[:, 0], val.vectors[:, 0],
                           test.vectors[:, 0]])
    assert sorted(kept.tolist()) == list(range(73))


def test_split_determinism_and_seed_sensitivity():
    ds = _toy_dataset(n=120, f=2, seed=6)
    a1, _, _ = features.split(ds, features.SplitSpec(0.8, 0.1, 5))
    a2, _, _ = features.split(ds, features.SplitSpec(0.8, 0.1, 5))
    b1, _, _ = features.split(ds, features.SplitSpec(0.8, 0.1, 6))
    npt.assert_array_equal(a1.vectors, a2.vectors)
    assert np.any(a1.vectors != b1.vectors)


def test_split_rejects_empty_parts():
    ds = _toy_dataset(n=3, f=2, classes=2, seed=1)
    with pytest.raises(ValidationError):
        features.split(ds, features.SplitSpec(0.8, 0.1, 0))


def test_split_spec_validation():
    with pytest.raises(ValidationError):
        features.SplitSpec(0.0, 0.1, 0)
    with pytest.raises(ValidationError):
        features.SplitSpec(0.8, 1.0, 0)
    with pytest.raises(ValidationError, match="split seed"):
        features.SplitSpec(0.8, 0.1, -3)


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------

def test_dataset_validation():
    good = _toy_dataset()
    with pytest.raises(ValidationError):
        features.Dataset(good.vectors, good.labels[:-1], good.class_count)
    with pytest.raises(ValidationError):
        features.Dataset(good.vectors, good.labels, 1)
    with pytest.raises(ValidationError):
        features.Dataset(np.empty((0, 3)), np.empty(0, dtype=int), 2)

