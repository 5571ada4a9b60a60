import numpy as np
import numpy.testing as npt

from thermoseg import _kernels


def test_render_deterministic_and_clamped():
    base = np.array([[10.0, 5.0, 2.0], [20.0, 9.0, 4.0]])
    region = np.array([[0, 1], [1, 0]], dtype=np.int64)
    a = _kernels.render_frames(base, region, 1.5, 42, 0.0, 8.0)
    b = _kernels.render_frames(base, region, 1.5, 42, 0.0, 8.0)
    npt.assert_array_equal(a, b)
    assert a.shape == (3, 2, 2)
    assert a.min() >= 0.0 and a.max() <= 8.0


def test_render_noiseless_equals_base():
    base = np.array([[3.0, 2.0, 1.0]])
    region = np.zeros((4, 5), dtype=np.int64)
    out = _kernels.render_frames(base, region, 0.0, 7, 0.0, np.inf)
    for f in range(3):
        npt.assert_array_equal(out[f], np.full((4, 5), base[0, f]))


def test_render_seed_changes_output():
    base = np.full((1, 6), 100.0)
    region = np.zeros((3, 3), dtype=np.int64)
    a = _kernels.render_frames(base, region, 1.0, 1, -np.inf, np.inf)
    b = _kernels.render_frames(base, region, 1.0, 2, -np.inf, np.inf)
    assert np.abs(a - b).max() > 0


def test_render_noise_statistics():
    # 20k samples of unit noise: mean ~ 0, std ~ 1
    base = np.zeros((1, 200))
    region = np.zeros((10, 10), dtype=np.int64)
    out = _kernels.render_frames(base, region, 1.0, 99, -np.inf, np.inf)
    assert abs(out.mean()) < 0.05
    assert abs(out.std() - 1.0) < 0.05


def _poly_series(coeffs, log_t):
    return 10.0 ** np.polyval(coeffs[::-1], log_t)


def test_fit_recovers_exact_polynomial():
    rng = np.random.default_rng(11)
    t = np.linspace(0.5, 120.0, 200)
    log_t = np.log10(t)
    for _ in range(20):
        degree = int(rng.integers(1, 6))
        coeffs = rng.uniform(-1, 1, degree + 1)
        series = _poly_series(coeffs, log_t)
        data = np.tile(series[:, None, None], (1, 2, 2))
        coef, rms, start, valid = _kernels.fit_image(
            data, log_t, np.inf, degree, 1.0 / np.log(10.0))
        assert valid.all()
        assert start.max() == 0
        npt.assert_allclose(coef[0, 0], coeffs, atol=1e-9)
        assert rms.max() < 1e-10


def test_fit_skips_saturated_prefix():
    t = np.linspace(0.5, 60.0, 120)
    log_t = np.log10(t)
    series = _poly_series(np.array([1.0, -0.5]), log_t)
    data = np.tile(series[:, None, None], (1, 1, 2))
    data[:7, 0, 0] = 300.0  # saturated prefix on one pixel only
    coef, rms, start, valid = _kernels.fit_image(
        data, log_t, 300.0, 2, 1.0 / np.log(10.0))
    assert valid.all()
    assert start[0, 0] == 7 and start[0, 1] == 0
    npt.assert_allclose(coef[0, 0], [1.0, -0.5, 0.0], atol=1e-9)
    npt.assert_allclose(coef[0, 1], [1.0, -0.5, 0.0], atol=1e-9)


def test_fit_flags_short_and_nonpositive_pixels():
    t = np.array([1.0, 2.0, 4.0, 8.0])
    log_t = np.log10(t)
    data = np.ones((4, 1, 3))
    data[:, 0, 1] = [50.0, 50.0, 50.0, 2.0]   # saturated until frame 3
    data[2, 0, 2] = -1.0                      # log undefined
    coef, rms, start, valid = _kernels.fit_image(
        data, log_t, 50.0, 2, 1.0 / np.log(10.0))
    assert valid[0, 0]
    assert not valid[0, 1]
    assert not valid[0, 2]
    npt.assert_array_equal(coef[0, 1], 0.0)


def test_affine_basis_matrix_identity():
    mat = _kernels._affine_basis_matrix(3, 1.0, 0.0)
    npt.assert_array_equal(mat, np.eye(4))


def test_affine_basis_matrix_composition():
    # coefficients of p(s*u + h) evaluated directly vs through the matrix
    rng = np.random.default_rng(8)
    for _ in range(25):
        degree = int(rng.integers(1, 7))
        coeffs = rng.uniform(-2, 2, degree + 1)
        scale, shift = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
        mat = _kernels._affine_basis_matrix(degree, scale, shift)
        raw = mat @ coeffs
        u = rng.uniform(-5, 5, 12)
        want = np.polyval(coeffs[::-1], scale * u + shift)
        got = np.polyval(raw[::-1], u)
        npt.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
