"""Hot numeric kernels: noisy frame rendering and per-pixel log-log fits.

Both operations dominate runtime at video scale and are vectorised in
numpy:

* render_frames adds per-pixel Gaussian noise to each region's series,
  two frames per Box-Muller draw. Noise streams come from a counter-style
  splitmix64 generator keyed on (seed, row, col), so any single pixel can
  be regenerated without rendering the rest of the frame.
* fit_image groups pixels by their first unsaturated frame. Each distinct
  window gets one thin QR of its Vandermonde matrix on a log-time axis
  mapped to [-1, 1]; every pixel sharing the window is then solved with
  one Q^T product and a triangular solve, in blocks of CHUNK pixels so a
  large frame cube never gains a full-size log copy.
"""

import math

import numpy as np

# splitmix64 constants
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_ROW_K = np.uint64(0xC2B2AE3D27D4EB4F)
_COL_K = np.uint64(0x165667B19E3779F9)
_U53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 2.0 * math.pi

# pixels per log/solve block in fit_image
CHUNK = 4096


def _splitmix64(z):
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def _pixel_states(seed, height, width):
    """Initial splitmix64 state per pixel, keyed on (seed, row, col)."""
    rows = np.arange(height, dtype=np.uint64)[:, None]
    cols = np.arange(width, dtype=np.uint64)[None, :]
    base = (np.uint64(seed) * _SM_GAMMA) ^ (rows * _ROW_K) ^ (cols * _COL_K)
    return _splitmix64(base)


def render_frames(base, region_map, sigma, seed, lo, hi):
    """Per-pixel series + seeded Gaussian noise, clamped to [lo, hi].

    base: (regions, frames) float64 profile series; region_map: (H, W) int
    region index per pixel. Returns a (frames, H, W) float64 stack.
    """
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
                u2 = (z2 >> np.uint64(11)).astype(np.float64) * _U53
                rad = np.sqrt(-2.0 * np.log(u1))
                ang = _TWO_PI * u2
                out[f] = base[region_map, f] + sigma * (rad * np.cos(ang))
                if f + 1 < frame_count:
                    out[f + 1] = base[region_map, f + 1] + sigma * (rad * np.sin(ang))
    else:
        for f in range(frame_count):
            out[f] = base[region_map, f]
    np.clip(out, float(lo), float(hi), out=out)
    return out


def _affine_basis_matrix(degree, scale, shift):
    """Columns give the raw-basis coefficients of (scale*u + shift)**j."""
    m = degree + 1
    mat = np.zeros((m, m))
    mat[0, 0] = 1.0
    for j in range(1, m):
        mat[1:j + 1, j] = mat[:j, j - 1] * scale
        mat[:j + 1, j] += mat[:j + 1, j - 1] * shift
    return mat


def _start_indices(flat, saturation):
    """Per-pixel index of the first frame after the last saturated one."""
    frame_count = flat.shape[0]
    sat = flat >= saturation
    any_sat = sat.any(axis=0)
    last = np.where(any_sat, frame_count - 1 - np.argmax(sat[::-1, :], axis=0), -1)
    return (last + 1).astype(np.int64)


def fit_image(data, log_t, saturation, degree, inv_ln_base):
    """Least-squares log-log polynomial fit of every pixel history.

    data: (frames, H, W); log_t: (frames,) log timestamps in the working
    base; inv_ln_base converts natural logs of the data to that base.
    Returns (coef (H,W,degree+1) in the raw log-time basis, rms (H,W),
    start (H,W) first fitted frame, valid (H,W) bool).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    log_t = np.ascontiguousarray(log_t, dtype=np.float64)
    frame_count, height, width = data.shape
    m = degree + 1
    flat = data.reshape(frame_count, height * width)

    coef = np.zeros((flat.shape[1], m))
    rms = np.zeros(flat.shape[1])
    start = _start_indices(flat, saturation)
    valid = start <= frame_count - m

    for s in np.unique(start[valid]):
        cols = np.nonzero(valid & (start == s))[0]
        u = log_t[s:]
        umin, umax = u[0], u[-1]
        if umax == umin:
            valid[cols] = False
            continue
        scale = 2.0 / (umax - umin)
        shift = -(umax + umin) / (umax - umin)
        q, r = np.linalg.qr(np.vander(scale * u + shift, m, increasing=True))
        diag = np.abs(np.diag(r))
        if diag.min() <= 1e-12 * diag.max():
            valid[cols] = False
            continue
        basis = _affine_basis_matrix(degree, scale, shift)
        for lo in range(0, cols.shape[0], CHUNK):
            sub_cols = cols[lo:lo + CHUNK]
            y = flat[s:, sub_cols]
            positive = (y > 0.0).all(axis=0)
            valid[sub_cols[~positive]] = False
            sub_cols = sub_cols[positive]
            if sub_cols.shape[0] == 0:
                continue
            # y is a private copy, so the log can overwrite it in place
            y = y[:, positive]
            np.log(y, out=y)
            y *= inv_ln_base
            qty = q.T @ y
            # R is upper triangular, so LU pivots nowhere: back substitution
            sol = np.linalg.solve(r, qty)
            resid = q @ qty
            resid -= y
            coef[sub_cols] = (basis @ sol).T
            np.square(resid, out=resid)
            rms[sub_cols] = np.sqrt(np.mean(resid, axis=0))

    return (coef.reshape(height, width, m), rms.reshape(height, width),
            start.reshape(height, width), valid.reshape(height, width))
