"""Hot numeric kernels: noisy frame rendering and per-pixel log-log fits.

Both dominate runtime at video scale and are vectorised in numpy:

* render_frames adds per-pixel Gaussian noise, keyed on (seed, row, col),
  to each region's series, on one thread per contiguous pixel span
  (worker_count; one span starts no thread). _cos_sin stands in for
  libm's cos and sin, which took most of the render. The output is
  bitwise the same for any span count (see _render_span).
* fit_image fits blocks of CHUNK adjacent pixels, one group per start
  frame, each by its window's cached thin QR on a log-time axis mapped to
  [-1, 1] (see _FitWorker), into one record per pixel with a reason code.
  Each worker fills the records of an even contiguous run of pixels as
  one run_pool share; a pixel's bits depend on neither the pixels solved
  with it, the worker count nor the BLAS thread count.

run_pool runs the fit and the frame files, feed the training batches;
both start their processes through _fork. A run_pool share is forked
with the caller's arrays, fills its slice of the output in place and
sends the slice's bytes back over a pipe, which the parent reads
straight into the output. A forked render would need an output mapping
shared with the parent, which was no faster. feed runs one forked
process ahead of the training step, into a ring mapped before the fork,
with one-byte "ready" and "free" tokens on two pipes: a batch is
rewritten every sub-millisecond step, so a fork per batch would cost
more than the step. Both run inline on one core or without os.fork; no
process outlives either call.
"""

import contextlib
import math
import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ComputeError

# splitmix64 constants
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_ROW_K = np.uint64(0xC2B2AE3D27D4EB4F)
_COL_K = np.uint64(0x165667B19E3779F9)
_U53 = 1.0 / 9007199254740992.0  # 2**-53
# the largest Box-Muller radius, drawn from the smallest uniform, 2**-53
MAX_RADIUS = float(np.sqrt(-2.0 * np.log(_U53)))

# minimax coefficients of fdlibm's __kernel_cos (C1..C6, top row) and
# __kernel_sin (S1..S6) on [-pi/4, pi/4], highest first, for Horner's rule
_COS_SIN_POLY = np.array([
    [-1.13596475577881948265e-11, 1.58969099521155010221e-10],
    [2.08757232129817482790e-09, -2.50507602534068634195e-08],
    [-2.75573143513906633035e-07, 2.75573137070700676789e-06],
    [2.48015872894767294178e-05, -1.98412698298579493134e-04],
    [-1.38888888888741095749e-03, 8.33333333332248946124e-03],
    [4.16666666666666019037e-02, -1.66666666666666324348e-01],
])[:, :, None]
# added to (quadrant << 62) before masking the sign bit: cos is negative
# in quadrants 1 and 2, sin in 2 and 3
_QUADRANT_SIGN = np.array([[2 ** 62], [0]], dtype=np.int64)
_SIGN_BIT = np.int64(-2 ** 63)

# fit_image fits log T on log t in this base; the feature header records it
LOG_BASE = 10.0

# pixels per block in fit_image: a (frames, CHUNK) slab stays in cache
CHUNK = 256

# frame pairs per numpy call in _render_span: calls on one pair of a span
# are so short that two span threads hand the GIL back and forth; 2 and 3
# pairs render as fast, and 8 fall out of cache
PAIRS_PER_CALL = 2

# fewest pixels per render span or fit worker: below it a thread or a
# process costs more than it saves
MIN_SPAN = 4096

# fit_image reason codes (indexes into REASONS): why a pixel was dropped
FITTED = 0
SATURATED = 1           # saturated in the last frame
TOO_FEW_FRAMES = 2      # fewer unsaturated frames than coefficients
NON_POSITIVE = 3        # a fitted sample <= 0 (or NaN): log undefined
DEGENERATE_WINDOW = 4   # constant or rank-deficient log-time window
REASONS = ("fitted", "saturated", "too-few-frames", "non-positive",
           "degenerate-window")


def _mix_into(z, state, tmp):
    """z = splitmix64(state), in place over reused buffers."""
    np.right_shift(state, np.uint64(30), out=z)
    z ^= state
    z *= _SM_M1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _SM_M2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _pixel_states(seed, height, width):
    """Initial splitmix64 state per pixel, keyed on (seed, row, col)."""
    rows = np.arange(height, dtype=np.uint64)[:, None]
    cols = np.arange(width, dtype=np.uint64)[None, :]
    # the scalar seed product wraps on purpose; errstate is per thread, so
    # it sits here rather than in a caller
    with np.errstate(over="ignore"):
        base = (np.uint64(seed) * _SM_GAMMA) ^ (rows * _ROW_K) ^ (cols * _COL_K)
    state = np.empty_like(base)
    _mix_into(state, base, np.empty_like(base))
    return state


def _cos_sin(k, out, work):
    """cos and sin of 2*pi*k*2**-53 into out[0] and out[1], in place.

    k: int64 array of integers in [0, 2**53); out: contiguous float64
    (2,) + k.shape; work: contiguous float64 (4,) + k.shape scratch. The
    angle is split into q = rint(4u) quarter turns and an exact remainder
    r = 4u - q in [-1/2, 1/2], so only x = r*pi/2 is rounded before fdlibm's
    minimax polynomials run on it; the quadrant then swaps cos and sin and
    sets their signs by XOR on the float bits, which is cheaper than a
    masked copy.
    """
    n = k.size
    cs, rows = out.reshape(2, n), work.reshape(4, n)
    x, z, e, q = rows
    q = q.view(np.int64)
    np.multiply(k.reshape(n), 2.0 ** -51, out=x)
    np.rint(x, out=z)
    x -= z
    np.copyto(q, z, casting="unsafe")
    x *= 0.5 * math.pi
    np.multiply(x, x, out=z)
    # both polynomials at once: cs = (C1 + z*(C2 + ...), S1 + z*(S2 + ...))
    np.multiply(z, _COS_SIN_POLY[0], out=cs)
    for coef in _COS_SIN_POLY[1:]:
        cs += coef
        cs *= z
    c, s = cs
    # sin x = x + x*z*(S1 + ...)
    s *= x
    s += x
    # cos x = w + (((1 - w) - z/2) + z*z*(C1 + ...)) with w = 1 - z/2, as
    # fdlibm adds back the rounding error of w
    c *= z
    z *= 0.5
    np.subtract(1.0, z, out=x)
    np.subtract(1.0, x, out=e)
    e -= z
    c += e
    c += x
    # odd quadrants swap cos and sin: XOR both with (c ^ s) where q is odd
    bits, swap, odd = cs.view(np.int64), z.view(np.int64), x.view(np.int64)
    np.left_shift(q, 63, out=odd)
    np.right_shift(odd, 63, out=odd)
    np.bitwise_xor(bits[0], bits[1], out=swap)
    swap &= odd
    bits ^= swap
    # q << 62 puts bit 1 of q in the sign bit; the signs take z's and e's rows
    signs = rows[1:3].view(np.int64)
    q <<= 62
    np.add(q, _QUADRANT_SIGN, out=signs)
    signs &= _SIGN_BIT
    bits ^= signs


def _render_span(flat_cols, base_t, idx, state, sigma, lo, hi):
    """Render a span of pixel columns of the (frames, pixels) output in place.

    flat_cols: (frames, n) view of the output; base_t: (frames, regions)
    profile series; idx: (n,) region index per pixel; state: (n,) initial
    splitmix64 states of the span's pixels (not modified). Frames f and f+1
    (f even) share one Box-Muller draw, whose radius comes from state +
    (f+1)*gamma and angle from state + (f+2)*gamma; each numpy call makes
    the draws of PAIRS_PER_CALL pairs, and the last group's draws past the
    last frame are dropped. Each frame row is then filled, noised and
    clamped while it is in cache, in the same operation order as rendering
    the whole frame at once, so a pixel's values depend on neither the
    span that holds it nor the group size. A sigma of 0 adds +-0.0 to each
    positive value, which leaves it as it is.
    """
    frame_count, n = flat_cols.shape
    pairs = PAIRS_PER_CALL
    # draw numbers of a group's radii (row 0) and angles (row 1), from 1
    draws = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(
        pairs, 2).T[:, :, None]
    shape = (2, pairs, n)
    states, z = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    rad, work = np.empty(shape[1:]), np.empty((4, pairs, n))
    # the states are spent once mixed, so their buffer takes the noise
    noise = states.view(np.float64)
    for f in range(0, frame_count, 2 * pairs):
        # uint64 arrays wrap silently
        np.add(state, (draws + np.uint64(f)) * _SM_GAMMA, out=states)
        # the states are read only before the scratch is first written
        _mix_into(z, states, states)
        z >>= np.uint64(11)
        z[0] += np.uint64(1)
        # below 2**53, so the int64 view converts exactly (and faster)
        np.copyto(rad, z[0].view(np.int64))
        rad *= _U53
        np.log(rad, out=rad)
        rad *= -2.0
        np.sqrt(rad, out=rad)
        _cos_sin(z[1].view(np.int64), noise, work)
        noise *= rad
        noise *= sigma
        for g in range(f, min(f + 2 * pairs, frame_count)):
            row = flat_cols[g]
            np.take(base_t[g], idx, out=row, mode="clip")
            row += noise[(g - f) % 2, (g - f) // 2]
            np.clip(row, lo, hi, out=row)


def core_count():
    """The cores this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def worker_count(size, least):
    """Workers for a job of `size` units: one per available core, but none
    with fewer than `least` units."""
    return max(1, min(core_count(), size // least))


def _even_split(size, count):
    """(lo, hi) of each of `count` even contiguous runs of range(size)."""
    edges = [size * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _fork(child, *args):
    """The pid of a forked process that runs child(*args). The process
    ends without unwinding: no traceback, no parent buffer flushed twice."""
    pid = os.fork()
    if pid == 0:
        try:
            child(*args)
        finally:
            os._exit(0)
    return pid


def _send(sink, func, out, lo, hi):
    """Run one forked share: a 0 byte then the bytes of out[lo:hi] once
    func(lo, hi) has filled it, or a 1 byte then func's pickled error."""
    try:
        func(lo, hi)
        status, body = b"\0", out[lo:hi]
    except Exception as exc:
        status, body = b"\1", pickle.dumps(exc)
    with sink:
        sink.write(status)
        sink.write(body)


def run_pool(count, func, out):
    """Fill the C-contiguous array `out` in place: func(lo, hi) fills
    out[lo:hi] for each of min(count, len(out)) even contiguous shares of
    its first axis.

    One share, or a platform without fork, runs inline. Otherwise each
    share runs on its own forked process, which sends its out[lo:hi] back
    over a pipe; the parent reads the pipes in share order straight into
    out. The first share to fail, in share order, raises its error here,
    and a share whose process died raises one ComputeError line. No
    process outlives the call.
    """
    shares = _even_split(len(out), max(1, min(count, len(out))))
    if len(shares) == 1 or not hasattr(os, "fork"):
        for lo, hi in shares:
            func(lo, hi)
        return
    # forking is safe here: no other thread of this program runs, since
    # the render's threads join before it returns
    pids, pipes = [], []
    try:
        for lo, hi in shares:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:
                pids.append(_fork(_send, sink, func, out, lo, hi))
        for k, ((lo, hi), pipe) in enumerate(zip(shares, pipes), 1):
            part, status = out[lo:hi], pipe.read(1)
            if status == b"\1":
                raise pickle.load(pipe)
            if status != b"\0" or pipe.readinto(part) != part.nbytes:
                raise ComputeError(f"worker process {k} of {len(shares)} "
                                   f"died before it sent its share")
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def feeds_inline():
    """Whether feed runs inline: on one core, or without os.fork."""
    return core_count() <= 1 or not hasattr(os, "fork")


def feed(slots, fill, steps):
    """Yield slot k % slots of each step k < steps once fill(k, slot) has
    written it: inline just before, or on one forked process that runs up
    to `slots` steps ahead and refills a slot only once the caller asks
    for the next one. A dead feeder raises a one-line ComputeError, and
    closing the generator ends the feeder."""
    if feeds_inline():
        for k in range(steps):
            fill(k, k % slots)
            yield k % slots
        return
    (ready_r, ready_w), (free_r, free_w) = os.pipe(), os.pipe()

    def feeder():
        os.close(free_w)
        for k in range(steps):
            if k >= slots and not os.read(free_r, 1):   # parent gone
                break
            fill(k, k % slots)
            os.write(ready_w, b"\0")

    pid = _fork(feeder)
    os.close(ready_w)
    os.close(free_r)
    try:
        for k in range(steps):
            if not os.read(ready_r, 1):
                raise ComputeError(
                    f"the batch feeder process died before step {k + 1}")
            yield k % slots
            # free a slot only for a step still to fill, after which the
            # feeder exits; if it died, the next read says so
            if k + slots < steps:
                with contextlib.suppress(BrokenPipeError):
                    os.write(free_w, b"\0")
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def render_frames(base, region_map, sigma, seed, lo, hi):
    """Per-pixel series + seeded Gaussian noise, clamped to [lo, hi].

    base: (regions, frames) float64 profile series; region_map: (H, W) int
    region index per pixel, each in [0, regions). Returns a (frames, H, W)
    float64 stack, bitwise the same for any span count.
    """
    base_t = np.ascontiguousarray(np.asarray(base, dtype=np.float64).T)
    idx = np.ascontiguousarray(region_map, dtype=np.int64).ravel()
    frame_count = base_t.shape[0]
    out = np.empty((frame_count,) + np.shape(region_map), dtype=np.float64)
    flat = out.reshape(frame_count, idx.shape[0])
    states = _pixel_states(int(seed), *out.shape[1:]).ravel()
    args = (float(sigma), float(lo), float(hi))
    spans = [(flat[:, a:b], base_t, idx[a:b], states[a:b], *args)
             for a, b in _even_split(idx.shape[0],
                                     worker_count(idx.shape[0], MIN_SPAN))]
    if len(spans) == 1:
        _render_span(*spans[0])
    else:
        # numpy releases the GIL inside each call, so spans share the cores
        with ThreadPoolExecutor(len(spans)) as pool:
            list(pool.map(lambda span: _render_span(*span), spans))
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


def _window(log_t, s, degree):
    """(Q, R, raw-basis map) of the fit window from frame s, or None.

    None marks a degenerate log-time axis or a rank-deficient Vandermonde
    matrix (min |R_kk| <= 1e-12 max |R_kk|).
    """
    u = log_t[s:]
    umin, umax = u[0], u[-1]
    if umax == umin:
        return None
    scale = 2.0 / (umax - umin)
    shift = -(umax + umin) / (umax - umin)
    q, r = np.linalg.qr(np.vander(scale * u + shift, degree + 1,
                                  increasing=True))
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * diag.max():
        return None
    return q, r, _affine_basis_matrix(degree, scale, shift)


class _FitWorker:
    """One fit worker over the (frames, pixels) view `flat`: its window
    cache and buffers, and `out`, its pixels' records (coef, rms, start,
    reason), which it fills in place. It solves each block's start-frame
    groups where it finds them, so only the window cache spans blocks."""

    def __init__(self, flat, log_t, saturation, degree, out):
        self.flat, self.log_t, self.saturation = flat, log_t, saturation
        self.degree, self.inv_ln_base = degree, 1.0 / math.log(LOG_BASE)
        self.coef, self.rms = out["coef"], out["rms"]
        self.start, self.reason = out["start"], out["reason"]
        # a one-pixel solve runs on two columns
        self.log_buf = np.empty(flat.shape[0] * max(CHUNK, 2))
        self.resid_buf = np.empty(flat.shape[0] * max(CHUNK, 2))
        self.windows = {}

    def run(self):
        """Fit every pixel in blocks of CHUNK into the zeroed records. A
        block finds its start frames and reasons, then solves the
        fitted pixels of each start frame as one group: a group of the whole
        block reads the cube view, any other a gather of its columns."""
        (frame_count, pixels), m = self.flat.shape, self.degree + 1
        for a in range(0, pixels, CHUNK):
            b = min(a + CHUNK, pixels)
            block, b_start, b_reason = (self.flat[:, a:b], self.start[a:b],
                                        self.reason[a:b])
            sat = block >= self.saturation
            hit = sat.any(axis=0)
            if hit.any():
                b_start[hit] = frame_count - np.argmax(sat[::-1, hit], axis=0)
            b_reason[b_start > frame_count - m] = TOO_FEW_FRAMES
            b_reason[b_start == frame_count] = SATURATED
            fitted = b_reason == FITTED
            for s in np.unique(b_start[fitted]):
                cols = a + np.nonzero(fitted & (b_start == s))[0]
                self.solve(s, cols, block[s:] if cols.shape[0] == b - a
                           else self.flat[s:, cols])

    def solve(self, s, cols, src):
        """Fit pixels cols, whose frames from s on are the columns of src."""
        windows = self.windows
        if s not in windows:
            # keep at most CHUNK windows: a noisy ceiling can give every
            # pixel its own start frame
            if len(windows) == CHUNK:
                del windows[next(iter(windows))]
            windows[s] = _window(self.log_t, s, self.degree)
        if windows[s] is None:
            self.reason[cols] = DEGENERATE_WINDOW
            return
        if cols.shape[0] == 1:
            # numpy drops a length-1 axis, so the products, the solve and
            # the mean of one column would sum in another order than those
            # of a wider solve: fit the column twice
            cols, src = cols[[0, 0]], src[:, [0, 0]]
        q, r, basis = windows[s]
        y, qty = self._project(q, src)
        # q[:, 0] is a nonzero constant, so a column of qty is finite exactly
        # when its samples are all positive and finite
        if not np.isfinite(qty).all():
            positive = (src > 0.0).all(axis=0)
            if not positive.all():
                self.reason[cols[~positive]] = NON_POSITIVE
                if positive.any():
                    self.solve(s, cols[positive], src[:, positive])
                return
        # R is upper triangular, so LU pivots nowhere: back substitution
        sol = np.linalg.solve(r, qty)
        resid = np.einsum("fm,mn->fn", q, qty,
                          out=self.resid_buf[:y.size].reshape(y.shape))
        resid -= y
        np.square(resid, out=resid)
        self.coef[cols] = (basis @ sol).T
        self.rms[cols] = np.sqrt(np.mean(resid, axis=0))

    def _project(self, q, src):
        """(log of src in the working base, its Q^T product)."""
        y = self.log_buf[:src.size].reshape(src.shape)
        # a sample <= 0 or NaN makes its column non-finite, which solve
        # checks
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(src, out=y)
            y *= self.inv_ln_base
            return y, np.einsum("fm,fn->mn", q, y)


def fit_image(data, timestamps, saturation, degree):
    """Least-squares log-log polynomial fit of every pixel history, in
    base LOG_BASE.

    data: (frames, H, W); timestamps: (frames,) positive seconds;
    saturation: the sensor ceiling, at or above which a sample is
    saturated; degree: the polynomial degree.
    Returns (coef (H,W,degree+1) in the raw log-time basis, rms (H,W),
    start (H,W) first fitted frame, reason (H,W) uint8), where reason is
    FITTED for every fitted pixel and names why any other pixel was
    dropped; a dropped pixel keeps zero coef and rms. A pixel's output is
    bitwise the same for any worker count, BLAS thread count or pixels
    fitted with it.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    log_t = np.log(timestamps) / math.log(LOG_BASE)
    frame_count, height, width = data.shape
    pixels, m = height * width, degree + 1
    flat = data.reshape(frame_count, pixels)

    # one zeroed record per pixel; each worker fills an even contiguous
    # run of them, as a render span
    out = np.zeros(pixels, np.dtype([
        ("coef", np.float64, (m,)), ("rms", np.float64),
        ("start", np.int64), ("reason", np.uint8)], align=True))

    def fit(lo, hi):
        _FitWorker(flat[:, lo:hi], log_t, saturation, degree,
                   out[lo:hi]).run()

    run_pool(worker_count(pixels, MIN_SPAN), fit, out)
    return (out["coef"].reshape(height, width, m),
            out["rms"].reshape(height, width),
            out["start"].reshape(height, width),
            out["reason"].reshape(height, width))
