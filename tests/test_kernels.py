import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from thermoseg import _kernels
from thermoseg.errors import ComputeError


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


# The whole-frame renderer that spans replaced, kept as an oracle: the
# span kernel must reproduce it bit for bit. Only the cos and sin of its
# Box-Muller angle now come from the kernel's _cos_sin, tested below.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_ROW_K = np.uint64(0xC2B2AE3D27D4EB4F)
_COL_K = np.uint64(0x165667B19E3779F9)
_U53 = 1.0 / 9007199254740992.0


def _splitmix64(z):
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def _pixel_states(seed, height, width):
    rows = np.arange(height, dtype=np.uint64)[:, None]
    cols = np.arange(width, dtype=np.uint64)[None, :]
    base = (np.uint64(seed) * _SM_GAMMA) ^ (rows * _ROW_K) ^ (cols * _COL_K)
    return _splitmix64(base)


def _cos_sin(k):
    """(cos, sin) of 2*pi*k*2**-53 for uint64 or int64 k below 2**53."""
    out = np.empty((2,) + k.shape)
    _kernels._cos_sin(k.view(np.int64), out, np.empty((4,) + k.shape))
    return out


def _whole_frame_render(base, region_map, sigma, seed, lo, hi):
    base = np.ascontiguousarray(base, dtype=np.float64)
    region_map = np.ascontiguousarray(region_map, dtype=np.int64)
    frame_count = base.shape[1]
    out = np.empty((frame_count,) + region_map.shape, dtype=np.float64)
    sigma = float(sigma)
    if sigma > 0.0:
        with np.errstate(over="ignore"):
            state = _pixel_states(int(seed), *region_map.shape)
            for f in range(0, frame_count, 2):
                state = state + _SM_GAMMA
                z1 = _splitmix64(state)
                state = state + _SM_GAMMA
                z2 = _splitmix64(state)
                u1 = ((z1 >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _U53
                rad = np.sqrt(-2.0 * np.log(u1))
                cos, sin = _cos_sin(z2 >> np.uint64(11))
                out[f] = base[region_map, f] + sigma * (rad * cos)
                if f + 1 < frame_count:
                    out[f + 1] = base[region_map, f + 1] + sigma * (rad * sin)
    else:
        for f in range(frame_count):
            out[f] = base[region_map, f]
    np.clip(out, float(lo), float(hi), out=out)
    return out


def _render_case(height, width, frames, regions, seed):
    """Decaying series per region around 100 and a scattered region map."""
    rng = np.random.default_rng(seed)
    t = np.arange(frames) + 1.0
    base = 100.0 * rng.uniform(0.8, 1.2, (regions, 1)) * t ** -0.01
    region_map = rng.integers(0, regions, (height, width))
    return base, region_map


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# (height, width, frames, regions, sigma, seed, lo, hi)
RENDER_CASES = [
    (5, 7, 6, 1, 1.5, 3, 0.0, math.inf),          # even frame count
    (6, 5, 7, 3, 1.5, 4, 0.0, math.inf),          # odd frame count
    (4, 9, 5, 2, 0.0, 5, 0.0, math.inf),          # no noise
    (5, 9, 4, 6, 0.0, 8, 95.0, 105.0),            # no noise, bounds bind
    (7, 6, 9, 4, 3.0, 2 ** 64 - 1, 99.0, 101.0),  # both bounds bind
    (6, 8, 4, 5, 0.7, 6, -math.inf, math.inf),
    (97, 89, 3, 4, 2.0, 7, 98.0, 102.0),          # above 2 * MIN_SPAN
]


@pytest.mark.parametrize("case", RENDER_CASES)
def test_render_matches_whole_frame_oracle(case):
    height, width, frames, regions, sigma, seed, lo, hi = case
    base, region_map = _render_case(height, width, frames, regions, seed % 97)
    want = _whole_frame_render(base, region_map, sigma, seed, lo, hi)
    if math.isfinite(hi):
        # a finite clamp must bind on both sides for the case to test it
        assert (want == lo).any() and (want == hi).any()
    _assert_bitwise(_kernels.render_frames(base, region_map, sigma, seed,
                                           lo, hi), want)


@pytest.mark.parametrize("spans", [1, 2, 3, 7])
def test_render_is_independent_of_span_count(monkeypatch, spans):
    base, region_map = _render_case(31, 29, 5, 3, 9)
    want = _whole_frame_render(base, region_map, 1.0, 11, 99.0, 101.0)
    monkeypatch.setattr(_kernels, "worker_count", lambda size, least: spans)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.render_frames(base, region_map, 1.0, 11, 99.0, 101.0)
    _assert_bitwise(got, want)


def test_render_span_splits_reassemble_whole_render():
    base, region_map = _render_case(13, 17, 7, 3, 12)
    want = _kernels.render_frames(base, region_map, 2.0, 21, 97.0, 103.0)
    pixels = region_map.size
    base_t = np.ascontiguousarray(base.T)
    idx = region_map.ravel()
    states = _kernels._pixel_states(21, *region_map.shape).ravel()
    kept = states.copy()
    rng = np.random.default_rng(0)
    for _ in range(5):
        inner = np.sort(rng.choice(np.arange(1, pixels), 4, replace=False))
        edges = [0, *inner.tolist(), pixels]
        out = np.full((7, pixels), np.nan)
        for a, b in zip(edges[:-1], edges[1:]):
            _kernels._render_span(out[:, a:b], base_t, idx[a:b], states[a:b],
                                  2.0, 97.0, 103.0)
        _assert_bitwise(out.reshape(want.shape), want)
    npt.assert_array_equal(states, kept)


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_render_is_independent_of_group_size(monkeypatch, pairs):
    base, region_map = _render_case(23, 19, 7, 3, 10)
    want = _whole_frame_render(base, region_map, 1.5, 13, 98.0, 102.0)
    monkeypatch.setattr(_kernels, "PAIRS_PER_CALL", pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.render_frames(base, region_map, 1.5, 13, 98.0, 102.0)
    _assert_bitwise(got, want)


def _random_angles(count):
    return np.random.default_rng(17).integers(0, 2 ** 53, count,
                                              dtype=np.int64)


def test_cos_sin_matches_libm():
    k = _random_angles(10 ** 5)
    cos, sin = _cos_sin(k)
    angle = 2.0 * math.pi * (k * 2.0 ** -53)
    assert np.abs(cos - np.cos(angle)).max() <= 1e-15
    assert np.abs(sin - np.sin(angle)).max() <= 1e-15


def test_cos_sin_quarter_turns_are_exact():
    k = np.array([0, 2 ** 51, 2 ** 52, 3 * 2 ** 51, 2 ** 53 - 1])
    cos, sin = _cos_sin(k)
    npt.assert_array_equal(cos[:4], [1.0, 0.0, -1.0, 0.0])
    npt.assert_array_equal(sin[:4], [0.0, 1.0, 0.0, -1.0])
    # one step below a full turn
    assert cos[4] == 1.0
    assert sin[4] == pytest.approx(-2.0 * math.pi * 2.0 ** -53, rel=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is not x87 extended precision")
def test_cos_sin_against_extended_precision():
    # reduce to a quadrant and a remainder exactly, in integers, and take
    # the long double cos and sin of remainder * pi/2
    k = _random_angles(10 ** 5)
    cos, sin = _cos_sin(k)
    quadrant = (k + 2 ** 50) >> 51
    half_pi = 2 * np.arctan(np.longdouble(1))
    x = (k - (quadrant << 51)).astype(np.longdouble) / 2 ** 51 * half_pi
    c, s = np.cos(x), np.sin(x)
    want = {0: (c, s), 1: (-s, c), 2: (-c, -s), 3: (s, -c)}
    for q, (want_cos, want_sin) in want.items():
        hit = quadrant % 4 == q
        assert hit.any()
        assert np.abs(cos[hit] - want_cos[hit]).max() <= 2.5e-16
        assert np.abs(sin[hit] - want_sin[hit]).max() <= 2.5e-16


def test_span_count_follows_pixels_and_cores():
    cores, least = _kernels.core_count(), _kernels.MIN_SPAN
    assert _kernels.worker_count(1, least) == 1
    assert _kernels.worker_count(2 * least - 1, least) == 1
    assert _kernels.worker_count(2 * least, least) == min(cores, 2)
    assert _kernels.worker_count(10 ** 9, least) == cores


def test_pixel_states_are_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _kernels._pixel_states(2 ** 63 + 5, 3, 4)


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
        coef, rms, start, reason = _kernels.fit_image(data, t, np.inf,
                                                      degree)
        assert (reason == _kernels.FITTED).all()
        assert start.max() == 0
        npt.assert_allclose(coef[0, 0], coeffs, atol=1e-9)
        assert rms.max() < 1e-10


def test_fit_skips_saturated_prefix():
    t = np.linspace(0.5, 60.0, 120)
    log_t = np.log10(t)
    series = _poly_series(np.array([1.0, -0.5]), log_t)
    data = np.tile(series[:, None, None], (1, 1, 2))
    data[:7, 0, 0] = 300.0  # saturated prefix on one pixel only
    coef, rms, start, reason = _kernels.fit_image(data, t, 300.0, 2)
    assert (reason == _kernels.FITTED).all()
    assert start[0, 0] == 7 and start[0, 1] == 0
    npt.assert_allclose(coef[0, 0], [1.0, -0.5, 0.0], atol=1e-9)
    npt.assert_allclose(coef[0, 1], [1.0, -0.5, 0.0], atol=1e-9)


def test_fit_flags_short_and_nonpositive_pixels():
    t = np.array([1.0, 2.0, 4.0, 8.0])
    data = np.ones((4, 1, 3))
    data[:, 0, 1] = [50.0, 50.0, 50.0, 2.0]   # saturated until frame 3
    data[2, 0, 2] = -1.0                      # log undefined
    coef, rms, start, reason = _kernels.fit_image(data, t, 50.0, 2)
    npt.assert_array_equal(reason[0], [_kernels.FITTED,
                                       _kernels.TOO_FEW_FRAMES,
                                       _kernels.NON_POSITIVE])
    npt.assert_array_equal(coef[0, 1:], 0.0)
    npt.assert_array_equal(rms[0, 1:], 0.0)


def _mixed_window_cube(height, width, frames, seed):
    """Noisy decays whose pixel kind cycles with period 7 along the flat
    pixel index, so every run of 7 pixels holds every kind."""
    rng = np.random.default_rng(seed)
    t = (np.arange(frames) + 1.0) / 2.0
    data = (300.0 * t[:, None] ** -0.5 * rng.uniform(0.7, 1.3, height * width)
            + rng.normal(0.0, 0.5, (frames, height * width)))
    kind = np.arange(height * width) % 7
    for k, prefix in ((1, 3), (2, 8), (3, 17), (5, frames - 2)):
        data[:prefix, kind == k] = 1000.0
    data[40, kind == 4] = -1.0
    data[-1, kind == 6] = 1000.0
    return data.reshape(frames, height, width), t, kind.reshape(height, width)


def test_fit_block_boundaries(monkeypatch):
    # 581 pixels over at least two blocks; each block boundary falls
    # between two pixels of different kinds
    data, t, kind = _mixed_window_cube(7, 83, 60, 31)
    assert 2 * _kernels.CHUNK <= kind.size and kind.size % _kernels.CHUNK
    args = (t, 1000.0, 4)
    coef, rms, start, reason = _kernels.fit_image(data, *args)

    want_start = np.choose(kind, [0, 3, 8, 17, 0, 58, 60])
    want_reason = np.choose(kind, [0, 0, 0, 0, _kernels.NON_POSITIVE,
                                   _kernels.TOO_FEW_FRAMES,
                                   _kernels.SATURATED])
    npt.assert_array_equal(start, want_start)
    npt.assert_array_equal(reason, want_reason)
    for row, col in zip(*np.nonzero(reason == _kernels.FITTED)):
        fit = oracle.fit_pixel(data[:, row, col], t, 4, start[row, col])
        # lstsq and QR round apart, so a near-zero coefficient gets an
        # absolute floor scaled to the largest one
        npt.assert_allclose(coef[row, col], fit.coefficients, rtol=1e-10,
                            atol=1e-12 * np.abs(fit.coefficients).max())
        npt.assert_allclose(rms[row, col], fit.rms_residual, rtol=1e-10)

    for chunk in (1, data.shape[1] * data.shape[2]):
        monkeypatch.setattr(_kernels, "CHUNK", chunk)
        c2, r2, s2, why2 = _kernels.fit_image(data, *args)
        npt.assert_array_equal(s2, start)
        npt.assert_array_equal(why2, reason)
        assert c2.tobytes() == coef.tobytes()
        assert r2.tobytes() == rms.tobytes()


def _edge_cube():
    """Noisy decays over 900 frames, enough for BLAS to pick its reduction
    by shape. The left edge of the top half saturates in its first frames
    and one pixel in a negative sample, so the top blocks gather their
    pixels by start frame and the bottom ones are fitted from the view."""
    rng = np.random.default_rng(17)
    t = (np.arange(900) + 1.0) / 2.0
    data = (300.0 * t[:, None, None] ** -0.5 * rng.uniform(0.7, 1.3, (24, 50))
            + rng.normal(0.0, 0.5, (900, 24, 50)))
    data[:9, :12, :7] = 1000.0
    data[:30, 5, 20] = 1000.0
    data[400, 3, 30] = -1.0
    return data, (t, 1000.0, 4)


@pytest.mark.parametrize("width", [1, 7, 255, 256, 411])
def test_fit_of_any_column_subset_is_bitwise_the_whole_fit(width):
    data, args = _edge_cube()
    coef, rms, _, reason = _kernels.fit_image(data, *args)
    assert set(np.unique(reason)) == {_kernels.FITTED, _kernels.NON_POSITIVE}
    flat = data.reshape(data.shape[0], 1, -1)
    pixels = flat.shape[2]
    for lo in sorted({0, 3, 150, 280, 500, 700, pixels - width}):
        hi = lo + width
        c2, r2, _, why2 = _kernels.fit_image(flat[:, :, lo:hi], *args)
        npt.assert_array_equal(why2.ravel(), reason.ravel()[lo:hi])
        assert c2.tobytes() == coef.reshape(pixels, -1)[lo:hi].tobytes()
        assert r2.tobytes() == rms.ravel()[lo:hi].tobytes()


# the fit's bytes, printed by a child process
_FIT_BYTES = """
import sys
sys.path.insert(0, sys.argv[1])
from test_kernels import _edge_cube, _kernels
data, args = _edge_cube()
out = _kernels.fit_image(data, *args)
sys.stdout.buffer.write(b"".join(a.tobytes() for a in out))
"""


def test_fit_bytes_do_not_depend_on_blas_threads():
    # two BLAS threads are enough to split a product differently
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _FIT_BYTES, os.path.dirname(__file__)],
            env=env, capture_output=True, check=True)
        fits.append(done.stdout)
    assert len(fits[0]) == 24 * 50 * (5 * 8 + 8 + 8 + 1)
    assert fits[0] == fits[1]


def test_fit_memory_stays_below_half_the_cube():
    # a 29.5 MB cube: the fit's own allocations stay block-sized
    data = np.random.default_rng(5).uniform(1.0, 2.0, (1200, 48, 64))
    t = np.arange(1200) + 1.0
    tracemalloc.start()
    try:
        _kernels.fit_image(data, t, np.inf, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * data.nbytes


# the serial fit that fit_image's workers replace, kept verbatim to check
# that they give the same bits
CHUNK = _kernels.CHUNK
FITTED, SATURATED, TOO_FEW_FRAMES, NON_POSITIVE, DEGENERATE_WINDOW = range(5)
_window = _kernels._window


def _serial_fit(data, log_t, saturation, degree, inv_ln_base):
    data = np.ascontiguousarray(data, dtype=np.float64)
    log_t = np.ascontiguousarray(log_t, dtype=np.float64)
    frame_count, height, width = data.shape
    m = degree + 1
    pixels = height * width
    flat = data.reshape(frame_count, pixels)

    coef = np.zeros((pixels, m))
    rms = np.zeros(pixels)
    start = np.zeros(pixels, dtype=np.int64)
    reason = np.zeros(pixels, dtype=np.uint8)
    # blocks of CHUNK to 2*CHUNK - 1 pixels: no narrow tail block, whose
    # smaller BLAS products could round differently from the rest
    count = max(1, pixels // CHUNK)
    edges = [pixels * i // count for i in range(count + 1)]
    widest = -(-pixels // count)
    log_buf = np.empty(frame_count * widest)
    resid_buf = np.empty(frame_count * widest)
    windows = {}

    def solve(s, cols, src):
        """Fit pixels cols, whose frames from s on are the columns of src."""
        if s not in windows:
            # keep at most CHUNK windows: a noisy ceiling can give every
            # pixel its own start frame
            if len(windows) == CHUNK:
                del windows[next(iter(windows))]
            windows[s] = _window(log_t, s, degree)
        if windows[s] is None:
            reason[cols] = DEGENERATE_WINDOW
            return
        positive = (src > 0.0).all(axis=0)
        if not positive.all():
            reason[cols[~positive]] = NON_POSITIVE
            cols, src = cols[positive], src[:, positive]
            if cols.shape[0] == 0:
                return
        if cols.shape[0] == 1:
            cols, src = cols[[0, 0]], src[:, [0, 0]]
        q, r, basis = windows[s]
        y = log_buf[:src.size].reshape(src.shape)
        np.log(src, out=y)
        y *= inv_ln_base
        qty = np.einsum("fm,fn->mn", q, y)
        # R is upper triangular, so LU pivots nowhere: back substitution
        sol = np.linalg.solve(r, qty)
        resid = np.einsum("fm,mn->fn", q, qty,
                          out=resid_buf[:y.size].reshape(y.shape))
        resid -= y
        np.square(resid, out=resid)
        coef[cols] = (basis @ sol).T
        rms[cols] = np.sqrt(np.mean(resid, axis=0))

    # pixels of blocks that mix windows or drop pixels wait here, by start
    # frame, and are gathered from the cube CHUNK at a time
    pending = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = flat[:, lo:hi]
        b_start = start[lo:hi]
        b_reason = reason[lo:hi]
        sat = block >= saturation
        hit = sat.any(axis=0)
        if hit.any():
            b_start[hit] = frame_count - np.argmax(sat[::-1, hit], axis=0)
        b_reason[b_start > frame_count - m] = TOO_FEW_FRAMES
        b_reason[b_start == frame_count] = SATURATED
        cols = lo + np.nonzero(b_reason == FITTED)[0]
        if cols.shape[0] == hi - lo and (b_start == b_start[0]).all():
            # one window and nothing dropped: read the cube view, no copy
            solve(b_start[0], cols, block[b_start[0]:])
            continue
        for s in np.unique(start[cols]):
            queue = np.concatenate([pending.get(s, cols[:0]),
                                    cols[start[cols] == s]])
            while queue.shape[0] >= CHUNK:
                solve(s, queue[:CHUNK], flat[s:, queue[:CHUNK]])
                queue = queue[CHUNK:]
            pending[s] = queue
    for s, queue in pending.items():
        if queue.shape[0]:
            solve(s, queue, flat[s:, queue])

    return (coef.reshape(height, width, m), rms.reshape(height, width),
            start.reshape(height, width), reason.reshape(height, width))


def _uniform_cube():
    """Positive noisy decays sharing one window, over several blocks."""
    rng = np.random.default_rng(41)
    t = np.arange(80) + 1.0
    data = 200.0 * t[:, None] ** -0.5 + rng.normal(0.0, 0.5, (80, 1500))
    return data.reshape(80, 30, 50), t, np.inf


def _mixed_cube():
    """Every pixel kind of _mixed_window_cube, each on more than CHUNK
    pixels, so the oracle's queue fills whole gathers and leaves tails."""
    data, t, kind = _mixed_window_cube(40, 90, 60, 5)
    assert (np.bincount(kind.ravel()) > CHUNK).all()
    return data, t, 1000.0


def _bad_sample_cube():
    """A block holding 0, -1, NaN and +-inf samples, and a last block in
    which every pixel has a non-positive sample."""
    rng = np.random.default_rng(43)
    t = np.arange(50) + 1.0
    data = rng.uniform(1.0, 2.0, (50, 20, 40))
    for row, value in enumerate((0.0, -1.0, np.nan, np.inf, -np.inf)):
        data[10 + row, row, 3 * row + 1] = value
    # the blocks are pixels 0-265, 266-532 and 533-799
    data[25, 10:, :] = -1.0
    return data, t, 5.0


def _spread_cube():
    """Start frames drawn from the first 40 frames, so each block holds
    dozens of start-frame groups, some of one pixel, which is solved as
    two equal columns."""
    rng = np.random.default_rng(47)
    t = np.arange(120) + 1.0
    data = 200.0 * t[:, None] ** -0.5 + rng.normal(0.0, 0.5, (120, 1500))
    prefix = rng.integers(0, 40, 1500)
    data[np.arange(120)[:, None] < prefix] = 1000.0
    sizes = [np.unique(prefix[a:a + CHUNK], return_counts=True)[1]
             for a in range(0, 1500, CHUNK)]
    assert min(map(len, sizes)) > 30 and (np.concatenate(sizes) == 1).any()
    return data.reshape(120, 30, 50), t, 1000.0


FIT_CUBES = {"uniform": _uniform_cube, "mixed": _mixed_cube,
             "bad-samples": _bad_sample_cube, "spread": _spread_cube}


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("cube", sorted(FIT_CUBES))
def test_fit_matches_serial_oracle(monkeypatch, cube, workers):
    data, t, saturation = FIT_CUBES[cube]()
    args = (data, t, saturation, 4)
    # the serial fit takes fit_image's log-time axis and log base
    ln_base = math.log(_kernels.LOG_BASE)
    want = _serial_fit(data, np.log(t) / ln_base, saturation, 4,
                       1.0 / ln_base)
    monkeypatch.setattr(_kernels, "worker_count",
                        lambda size, least: workers)
    # the workers are forked processes, each with its own buffers and its
    # own copy of the records, so no two of them share a buffer or a pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.fit_image(*args)
    _assert_no_child()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    reasons = np.bincount(want[3].ravel(), minlength=5)
    if cube == "bad-samples":
        # inf saturates; the other four bad samples and the -1 rows drop
        assert reasons[NON_POSITIVE] == 4 + 10 * 40
        assert (want[3].ravel()[533:] == NON_POSITIVE).all()
        assert reasons[FITTED] > 0
    else:
        assert reasons[FITTED] > 2 * CHUNK


def test_two_worker_fit_leaves_no_process(monkeypatch):
    data, t, saturation = _mixed_cube()
    args = (data, t, saturation, 4)
    monkeypatch.setattr(_kernels, "core_count", lambda: 2)
    monkeypatch.setattr(_kernels, "MIN_SPAN", CHUNK)
    assert _kernels.worker_count(data[0].size, _kernels.MIN_SPAN) == 2
    started, fork = [], os.fork

    def counted():
        started.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    forked = _kernels.fit_image(*args)
    assert started == [os.getpid()] * 2
    _assert_no_child()
    # without os.fork the same two shares run inline, to the same bytes
    monkeypatch.delattr(os, "fork")
    inline = _kernels.fit_image(*args)
    assert len(started) == 2
    for f, i in zip(forked, inline):
        assert f.tobytes() == i.tobytes()


def test_small_fit_starts_no_pool(monkeypatch):
    def refuse():
        raise AssertionError("a worker process was started")
    monkeypatch.setattr(os, "fork", refuse)
    data, t, saturation = _uniform_cube()
    assert data[0].size < 2 * _kernels.MIN_SPAN
    coef, _, _, reason = _kernels.fit_image(data, t, saturation, 4)
    assert (reason == FITTED).all() and np.isfinite(coef).all()


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pool_func(out, fails=None):
    """A run_pool func that fills rows lo to hi of out with their indices
    plus 1, or fails as fails[lo] says: "kill" SIGKILLs its process,
    "late" raises after the later shares have had time to fail, and any
    other text raises at once."""
    def func(lo, hi):
        how = (fails or {}).get(lo)
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if how == "late":
            time.sleep(0.2)
        if how:
            raise ValueError(f"the share from row {lo} failed")
        out[lo:hi] = np.arange(lo, hi)[:, None] + 1.0
    return func


def test_run_pool_fills_out_from_forked_shares():
    for count in (1, 3, 9):
        out = np.zeros((7, 2))
        _kernels.run_pool(count, _pool_func(out), out)
        npt.assert_array_equal(out, np.arange(1.0, 8.0)[:, None] + [0, 0])
        _assert_no_child()
    assert _kernels._even_split(7, 3) == [(0, 2), (2, 4), (4, 7)]


def test_run_pool_dead_share_is_one_compute_error():
    out = np.zeros((6, 2))
    with pytest.raises(ComputeError) as caught:
        _kernels.run_pool(3, _pool_func(out, {2: "kill"}), out)
    assert str(caught.value) == (
        "worker process 2 of 3 died before it sent its share")
    _assert_no_child()


@pytest.mark.parametrize("earlier, error", [
    ("kill", "worker process 2 of 3 died before it sent its share"),
    ("late", "the share from row 2 failed")])
def test_run_pool_raises_the_earlier_share_failure(earlier, error):
    # the later share fails first in time, yet the earlier share's error
    # is the one raised
    out = np.zeros((6, 2))
    with pytest.raises((ComputeError, ValueError)) as caught:
        _kernels.run_pool(3, _pool_func(out, {2: earlier, 4: "now"}), out)
    assert str(caught.value) == error
    _assert_no_child()


def test_run_pool_keeps_shares_before_a_failure():
    out, want = np.zeros((8, 3)), np.zeros((8, 3))
    with pytest.raises(ValueError, match="row 4 failed"):
        _kernels.run_pool(2, _pool_func(out, {4: "now"}), out)
    _assert_no_child()
    # the earlier share's rows are those its func alone fills; the failed
    # share sent none back
    _kernels.run_pool(2, _pool_func(want), want)
    _assert_no_child()
    npt.assert_array_equal(out[:4], want[:4])
    assert not out[4:].any()


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
