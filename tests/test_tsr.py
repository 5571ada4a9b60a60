"""Log-log polynomial fitting, derivative packing, and serialization."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from thermoseg import _kernels, synthgen, tsr
from thermoseg.errors import ValidationError
from thermoseg.ingest import FrameSequence


def _sequence_from_stack(stack, timestamps, saturation=np.inf):
    stack = np.asarray(stack, dtype=np.float64)
    return FrameSequence(np.asarray(timestamps, dtype=np.float64), stack,
                         float(saturation))


def _start_frames(seq, degree):
    """The first fitted frame of each pixel, as fit_image gives it."""
    return _kernels.fit_image(seq.data, seq.timestamps,
                              seq.saturation_value, degree)[2]


def _fit_series(series, t, degree, first_frame=0):
    """(raw-basis coefficients, rms) of one pixel history through
    fit_sequence; frames before first_frame are saturated."""
    stack = np.array(series, dtype=np.float64)[:, None, None]
    stack[:first_frame] = np.inf
    seq = _sequence_from_stack(stack, t, np.inf)
    image = tsr.fit_sequence(seq, degree)
    assert image.valid[0, 0]
    assert _start_frames(seq, degree)[0, 0] == first_frame
    return image.values[0, 0, :degree + 1], float(image.rms[0, 0])


# ---------------------------------------------------------------------------
# single-pixel fits through the image kernel
# ---------------------------------------------------------------------------

def test_power_law_recovered_exactly():
    # log10(A t^b) = log10 A + b log10 t: a degree-3 fit must put the
    # whole signal in the first two coefficients.
    t = np.linspace(0.5, 120.0, 200)
    amplitude, exponent = 380.0, -0.5
    series = amplitude * t ** exponent
    coef, rms = _fit_series(series, t, degree=3)
    expected = np.zeros(4)
    expected[0] = math.log10(amplitude)
    expected[1] = exponent
    npt.assert_allclose(coef, expected, atol=1e-9)
    assert rms < 1e-12


def test_power_law_recovery_loop():
    rng = np.random.default_rng(1213)
    for _ in range(25):
        amplitude = float(rng.uniform(5.0, 900.0))
        exponent = float(rng.uniform(-1.4, -0.1))
        degree = int(rng.integers(2, 7))
        n = int(rng.integers(degree + 5, 300))
        t0 = float(rng.uniform(0.05, 2.0))
        t = t0 + np.sort(rng.uniform(0.0, 200.0, n))
        coef, _ = _fit_series(amplitude * t ** exponent, t, degree)
        expected = np.zeros(degree + 1)
        expected[0] = math.log10(amplitude)
        expected[1] = exponent
        npt.assert_allclose(coef, expected, atol=1e-8)


def test_constant_series_recovery():
    t = np.linspace(1.0, 30.0, 60)
    coef, _ = _fit_series(np.full(60, 40.0), t, degree=4)
    expected = np.zeros(5)
    expected[0] = math.log10(40.0)
    npt.assert_allclose(coef, expected, atol=1e-10)


def test_fit_matches_polyfit_oracle():
    # np.polyfit solves the same least-squares problem on the raw basis.
    rng = np.random.default_rng(77)
    for _ in range(20):
        degree = int(rng.integers(2, 6))
        n = int(rng.integers(30, 200))
        t = np.sort(rng.uniform(0.3, 250.0, n))
        t += np.arange(n) * 1e-9          # enforce strict increase
        series = rng.uniform(10.0, 400.0, n)
        coef, _ = _fit_series(series, t, degree)
        reference = np.polyfit(np.log10(t), np.log10(series), degree)
        npt.assert_allclose(coef, reference[::-1], rtol=1e-7, atol=1e-9)


def test_fit_is_linear_in_log_space():
    # log(T1 * T2) = log T1 + log T2, and least squares is linear in the
    # observations, so coefficients add.
    rng = np.random.default_rng(2024)
    t = np.linspace(0.8, 90.0, 140)
    for _ in range(10):
        s1 = rng.uniform(5.0, 50.0, t.shape[0])
        s2 = rng.uniform(2.0, 20.0, t.shape[0])
        c1, _ = _fit_series(s1, t, 4)
        c2, _ = _fit_series(s2, t, 4)
        c12, _ = _fit_series(s1 * s2, t, 4)
        npt.assert_allclose(c12, c1 + c2, rtol=1e-8, atol=1e-10)


def test_refit_of_projection_is_idempotent():
    rng = np.random.default_rng(5)
    t = np.linspace(1.0, 200.0, 90)
    series = rng.uniform(20.0, 120.0, 90)
    coef, _ = _fit_series(series, t, 3)
    projected = 10.0 ** np.polyval(coef[::-1], np.log10(t))
    recoef, rms = _fit_series(projected, t, 3)
    npt.assert_allclose(recoef, coef, rtol=1e-9, atol=1e-11)
    assert rms < 1e-10


def test_window_independent_coefficients():
    # Skipped leading frames change the internal affine map but must not
    # change the reported raw-basis coefficients of an exact signal.
    t = np.linspace(0.4, 60.0, 120)
    series = 210.0 * t ** -0.5
    full, _ = _fit_series(series, t, 4)
    windowed, _ = _fit_series(series, t, 4, first_frame=37)
    npt.assert_allclose(windowed, full, atol=1e-9)


def test_rms_tracks_relative_noise():
    # T = C + eps gives log10 T ~ log10 C + eps / (C ln 10); the residual
    # rms should land near sigma / (C ln 10).
    rng = np.random.default_rng(909)
    base, sigma = 200.0, 2.0
    t = np.linspace(1.0, 400.0, 4000)
    series = base + rng.normal(0.0, sigma, t.shape[0])
    _, rms = _fit_series(series, t, 3)
    expected = sigma / (base * math.log(10.0))
    npt.assert_allclose(rms, expected, rtol=0.1)


# ---------------------------------------------------------------------------
# the scalar oracle (tests/oracle.py): argument checks, derivatives, packing
# ---------------------------------------------------------------------------

def test_fit_pixel_validation():
    t = np.linspace(1.0, 10.0, 12)
    good = np.full(12, 5.0)
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good[:-1], t, 2)
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good, t, -1)
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good, t, 2, first_frame=12)
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good, t - 5.0, 2)          # nonpositive time
    bad_t = t.copy()
    bad_t[4] = bad_t[3]
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good, bad_t, 2)
    bad_t[4] = np.nan
    with pytest.raises(ValidationError):
        oracle.fit_pixel(good, bad_t, 2)
    with pytest.raises(oracle.UnderdeterminedFitError):
        oracle.fit_pixel(good[:3], t[:3], 4)
    with pytest.raises(oracle.NonPositiveSampleError):
        series = good.copy()
        series[6] = 0.0
        oracle.fit_pixel(series, t, 2)


def test_derivative_coefficients_hand_case():
    first, second = oracle.derivative_coefficients([1.0, 2.0, 3.0, 4.0])
    npt.assert_array_equal(first, [2.0, 6.0, 12.0])
    npt.assert_array_equal(second, [6.0, 24.0])


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(15):
        degree = int(rng.integers(2, 7))
        coeffs = rng.uniform(-2.0, 2.0, degree + 1)
        fit = oracle.TsrFit(degree, coeffs, (0.0, 1.0), 0.0)
        first, second = oracle.derivatives(fit)
        x = rng.uniform(-0.8, 0.8, 6)
        h = 1e-6
        d1 = (fit.value(x + h) - fit.value(x - h)) / (2 * h)
        d2 = (fit.value(x + h) - 2 * fit.value(x) + fit.value(x - h)) / h ** 2
        npt.assert_allclose(np.polyval(first[::-1], x), d1,
                            rtol=1e-7, atol=1e-7)
        npt.assert_allclose(np.polyval(second[::-1], x), d2,
                            rtol=1e-3, atol=1e-3)


def test_derivatives_reject_low_degree():
    fit = oracle.fit_pixel(np.full(9, 3.0), np.linspace(1, 5, 9), 1)
    with pytest.raises(ValidationError):
        oracle.derivatives(fit)


def test_feature_lengths():
    assert tsr.feature_length(4, tsr.PACK_PADDED) == 15
    assert tsr.feature_length(4, tsr.PACK_TRUNCATED) == 12
    assert tsr.feature_length(8, tsr.PACK_PADDED) == 27
    assert tsr.feature_length(8, tsr.PACK_TRUNCATED) == 24
    with pytest.raises(ValidationError):
        tsr.feature_length(4, "concat-mystery")


def test_pack_features_layout():
    coeffs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    fit = oracle.TsrFit(4, coeffs, (0.0, 1.0), 0.0)
    first, second = oracle.derivatives(fit)

    trunc = oracle.pack_features(fit, tsr.PACK_TRUNCATED)
    assert trunc.shape == (12,)
    npt.assert_array_equal(trunc, np.concatenate([coeffs, first, second]))

    padded = oracle.pack_features(fit, tsr.PACK_PADDED)
    assert padded.shape == (15,)
    npt.assert_array_equal(padded[:5], coeffs)
    npt.assert_array_equal(padded[5:9], first)
    assert padded[9] == 0.0
    npt.assert_array_equal(padded[10:13], second)
    npt.assert_array_equal(padded[13:], 0.0)


def test_pack_image_matches_scalar_pack():
    rng = np.random.default_rng(123)
    coef = rng.normal(size=(3, 4, 5))
    for packing in (tsr.PACK_PADDED, tsr.PACK_TRUNCATED):
        stacked = tsr._pack_image(coef, 4, packing)
        for r in range(3):
            for c in range(4):
                fit = oracle.TsrFit(4, coef[r, c], (0.0, 1.0), 0.0)
                one = oracle.pack_features(fit, packing)
                npt.assert_array_equal(stacked[r, c], one)


# ---------------------------------------------------------------------------
# whole-image fits
# ---------------------------------------------------------------------------

def test_fit_sequence_against_fit_one():
    profile = synthgen.adiabatic_plate(300.0, 2e-3, 1e-7)
    t = (np.arange(80) + 1.0) / 2.0
    base = synthgen.eval_profile(profile, t)
    stack = np.broadcast_to(base[:, None, None], (80, 5, 6)).copy()
    stack[:, 2, 3] *= 1.8
    seq = _sequence_from_stack(stack, t)
    image = tsr.fit_sequence(seq, degree=4)
    assert image.valid.all()
    assert image.feature_count == 15
    for pixel in ((0, 0), (2, 3), (4, 5)):
        fit = oracle.fit_one(seq, pixel, 4)
        packed = oracle.pack_features(fit, tsr.PACK_PADDED)
        npt.assert_allclose(image.values[pixel], packed,
                            rtol=1e-9, atol=1e-10)

    # noisy pixels over four fit windows (three saturated prefixes), plus
    # one pixel with a non-positive sample
    rng = np.random.default_rng(29)
    t = (np.arange(120) + 1.0) / 2.0
    base = synthgen.eval_profile(profile, t)
    stack = (base[:, None, None] * rng.uniform(0.7, 1.3, (1, 4, 5))
             + rng.normal(0.0, 0.5, (120, 4, 5)))
    for (row, col), prefix in (((0, 1), 3), ((1, 2), 8), ((1, 3), 8),
                               ((3, 0), 17)):
        stack[:prefix, row, col] = 1000.0
    stack[60, 2, 2] = -1.0
    seq = _sequence_from_stack(stack, t, saturation=1000.0)
    image = tsr.fit_sequence(seq, degree=4)
    assert set(np.unique(_start_frames(seq, 4))) == {0, 3, 8, 17}
    assert not image.valid[2, 2]
    assert image.valid.sum() == 19
    for pixel in zip(*np.nonzero(image.valid)):
        fit = oracle.fit_one(seq, pixel, 4)
        npt.assert_allclose(image.values[pixel], oracle.pack_features(fit),
                            rtol=1e-10)
        npt.assert_allclose(image.rms[pixel], fit.rms_residual, rtol=1e-10)


def test_fit_sequence_flags_bad_pixels():
    t = (np.arange(30) + 1.0)
    stack = np.full((30, 3, 3), 50.0)
    stack[:, 0, 0] = 99.0          # saturated forever
    stack[5, 1, 1] = -2.0          # log undefined
    seq = _sequence_from_stack(stack, t, saturation=99.0)
    image = tsr.fit_sequence(seq, degree=2)
    assert not image.valid[0, 0]
    assert not image.valid[1, 1]
    assert image.valid[2, 2]
    npt.assert_array_equal(image.values[0, 0], 0.0)
    npt.assert_array_equal(image.values[1, 1], 0.0)


def _one_pixel_of_each_kind():
    # the last three timestamps share one log value in float64
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1e15, 1e15 + 0.125, 1e15 + 0.25])
    stack = np.full((8, 1, 6), 50.0)
    stack[:, 0, 1] = 99.0          # saturated in the last frame
    stack[:6, 0, 2] = 99.0         # two frames left for three coefficients
    stack[2, 0, 3] = 0.0           # log undefined
    stack[:5, 0, 4] = 99.0         # window of one log-time value
    stack[:4, 0, 5] = 99.0         # window of two log-time values: rank 2
    return _sequence_from_stack(stack, t, saturation=99.0)


def test_fit_sequence_reason_codes():
    seq = _one_pixel_of_each_kind()
    image = tsr.fit_sequence(seq, degree=2)
    npt.assert_array_equal(image.reason[0], [0, 1, 2, 3, 4, 4])
    npt.assert_array_equal(image.valid, image.reason == 0)
    assert tsr.reason_counts(image) == {
        "fitted": 1, "saturated": 1, "too-few-frames": 1, "non-positive": 1,
        "degenerate-window": 2}
    # the scalar oracle refuses every dropped pixel for the same reason
    with pytest.raises(oracle.SaturatedPixelError):
        oracle.fit_one(seq, (0, 1), 2)
    for col, error in ((2, oracle.UnderdeterminedFitError),
                       (3, oracle.NonPositiveSampleError),
                       (4, oracle.RankDeficientFitError),
                       (5, oracle.RankDeficientFitError)):
        with pytest.raises(error):
            oracle.fit_one(seq, (0, col), 2)
    npt.assert_allclose(image.values[0, 0],
                        oracle.pack_features(oracle.fit_one(seq, (0, 0), 2)),
                        atol=1e-12)


def test_fitted_diagnostics_own_their_data():
    # field views of the fit's per-pixel records would keep all of them
    image = tsr.fit_sequence(_one_pixel_of_each_kind(), degree=2)
    assert image.rms.base is None and image.reason.base is None
    assert (image.rms.dtype, image.reason.dtype) == (np.float64, np.uint8)


def test_fit_sequence_saturated_prefix_matches_windowed_fit():
    t = (np.arange(50) + 1.0) / 4.0
    series = 400.0 * t ** -0.5
    stack = np.broadcast_to(series[:, None, None], (50, 2, 2)).copy()
    stack[:7, 0, 1] = 600.0
    seq = _sequence_from_stack(stack, t, saturation=600.0)
    image = tsr.fit_sequence(seq, degree=3)
    assert image.valid.all()
    assert _start_frames(seq, 3)[0, 1] == 7
    direct = oracle.fit_pixel(stack[:, 0, 1], t, 3, first_frame=7)
    npt.assert_allclose(direct.fit_domain,
                        (math.log10(t[7]), math.log10(t[-1])), rtol=1e-15)
    packed = oracle.pack_features(direct, tsr.PACK_PADDED)
    npt.assert_allclose(image.values[0, 1], packed,
                        rtol=1e-9, atol=1e-10)


def test_fit_sequence_validation():
    t = np.arange(1.0, 13.0)
    seq = _sequence_from_stack(np.full((12, 2, 2), 9.0), t)
    with pytest.raises(ValidationError):
        tsr.fit_sequence(seq, degree=1)
    with pytest.raises(ValidationError):
        tsr.fit_sequence(seq, degree=3, packing="stack")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _small_image():
    t = (np.arange(40) + 1.0) / 2.0
    rng = np.random.default_rng(4)
    stack = rng.uniform(20.0, 200.0, (40, 4, 5))
    stack[:, 3, 4] = 500.0
    seq = _sequence_from_stack(stack, t, saturation=500.0)
    return tsr.fit_sequence(seq, degree=3)


def test_feature_image_shape_mismatch():
    image = _small_image()
    with pytest.raises(ValidationError, match="2-D"):
        tsr.FeatureImage(3, tsr.PACK_PADDED, image.values[0], image.valid[0])
    for values in (image.values[:, :-1], image.values[..., :-1]):
        with pytest.raises(ValidationError, match="does not match"):
            tsr.FeatureImage(3, tsr.PACK_PADDED, values, image.valid)


def test_feature_image_round_trip(tmp_path):
    image = _small_image()
    path = tmp_path / "features.csv"
    tsr.write_feature_image(image, str(path))
    back = tsr.read_feature_image(str(path))
    assert back.valid.shape == image.valid.shape
    assert back.degree == image.degree
    assert back.packing == image.packing
    lines = path.read_text().splitlines()
    assert lines[5:7] == ["log_base = 10.0", "scaling_pending = 1"]
    # one row per pixel: the flag as 1 or 0, then each value at %.17g
    assert lines[7:] == [
        f"{int(flag)}," + ",".join("%.17g" % v for v in row)
        for flag, row in zip(image.valid.reshape(-1),
                             image.values.reshape(-1, image.feature_count))]
    assert not image.valid.all()
    npt.assert_array_equal(back.valid, image.valid)
    npt.assert_array_equal(back.values, image.values)


def test_read_feature_image_errors(tmp_path):
    image = _small_image()
    path = tmp_path / "features.csv"
    tsr.write_feature_image(image, str(path))
    text = path.read_text().splitlines(keepends=True)

    bad = tmp_path / "magic.csv"
    bad.write_text("# something else\n" + "".join(text[1:]))
    with pytest.raises(ValidationError):
        tsr.read_feature_image(str(bad))

    short = tmp_path / "short.csv"
    short.write_text("".join(text[:-3]))
    with pytest.raises(ValidationError):
        tsr.read_feature_image(str(short))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("".join(text[:-1]) + text[-1].rsplit(",", 1)[0] + "\n")
    with pytest.raises(ValidationError):
        tsr.read_feature_image(str(ragged))

    with pytest.raises(FileNotFoundError, match="absent.csv"):
        tsr.read_feature_image(str(tmp_path / "absent.csv"))

    # the fit base, the scaling flag and the packing are fixed or known
    for line, value in ((5, "log_base = 2.0\n"), (5, "log_base = nan\n"),
                        (6, "scaling_pending = 0\n"),
                        (4, "packing = concat-mystery\n")):
        header = tmp_path / "header.csv"
        header.write_text("".join(text[:line] + [value] + text[line + 1:]))
        with pytest.raises(ValidationError):
            tsr.read_feature_image(str(header))

    # a pixel flagged valid must hold finite features
    row = next(i for i, ln in enumerate(text) if ln.startswith("1,"))
    nonfinite = tmp_path / "nan.csv"
    flag, _, rest = text[row].split(",", 2)
    nonfinite.write_text("".join(text[:row] + [f"{flag},nan,{rest}"]
                                 + text[row + 1:]))
    with pytest.raises(ValidationError, match=f"row {row - 7}"):
        tsr.read_feature_image(str(nonfinite))

    # the valid flag is 0 or 1; a 7 once read as valid
    for bad_flag in ("7", "0.5", "-1", "nan"):
        flagged = tmp_path / "flag.csv"
        flagged.write_text("".join(
            text[:row] + [bad_flag + "," + text[row].partition(",")[2]]
            + text[row + 1:]))
        with pytest.raises(ValidationError,
                           match=f"row {row - 7} has valid flag {bad_flag}"):
            tsr.read_feature_image(str(flagged))
