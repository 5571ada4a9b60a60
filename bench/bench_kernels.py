"""Micro-benchmark for the hot kernels: frame rendering, pixel fits,
frame-file I/O, training-set preparation and the training step.

Times the round trip of a noisy 96x72x400 recording (the CLI benchmark's)
through write_sequence and load_sequence, on one worker process per core
and on one process; the public render_frames and fit_image on a noisy
four-quadrant scene; fit_image at degree 8 on the CLI benchmark's
recording shape with start frames spread over the first 10 frames, a
case no workload has, where each block splits into many small groups;
the render's cos and sin kernel against numpy's np.cos plus np.sin on
the frame pairs of one numpy call at one render span's width; the x50
augment, fit_scaler and apply_scaler of a training split the size of the
four-class benchmark's (25,195 rows of 15 features); and one Adam step
of the 15/10/20/4 tanh net at batch 2048 (the four-class experiment's),
over two epochs of a matrix as large as the full-scale four-class run's
(1,284,945 rows), so the step pays for its random row gathers and epoch
permutations, with the batches fed by the forked feeder process and
inline. It prints the best of several runs of each, and writes them with
the frame I/O worker count, the render's span count and frame pairs per
call, the fit's worker count, the fit's tracemalloc peak on one worker
and the preparation's to BENCH_kernels.json beside this script. The
render (threads) and the fit (forked processes) both take one worker per
core.

Run: OPENBLAS_NUM_THREADS=1 python3 bench/bench_kernels.py
"""
import argparse
import json
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np

from thermoseg import _kernels, features, ingest, nn, synthgen


def time_calls(func, repeats, *args):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


# the augmented training rows of the full-scale four-class run
TRAIN_ROWS = 1284945


def train_step_ms(repeats):
    """Per-step times of two epochs of Adam steps through nn.train over a
    TRAIN_ROWS x 15 matrix, best of `repeats`, with the batches fed by the
    forked feeder process and inline; the one loss check at the last step
    is included."""
    rng = np.random.default_rng(7)
    ds = features.Dataset(rng.normal(size=(TRAIN_ROWS, 15)),
                          rng.integers(0, 4, TRAIN_ROWS), 4)
    val = ds.take(np.arange(256))
    model = nn.init_model((15, 10, 20, 4), ("tanh", "tanh", "softmax"), 0,
                          features.ScalingStats(np.zeros(15), np.ones(15)))
    steps = 2 * -(-TRAIN_ROWS // 2048)
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-3,
                            batch_size=2048, max_steps=steps,
                            trace_every=steps, seed=1)
    fed = time_calls(nn.train, repeats, model, ds, val, config) / steps
    cores = _kernels.core_count
    _kernels.core_count = lambda: 1
    try:
        inline = time_calls(nn.train, repeats, model, ds, val, config) / steps
    finally:
        _kernels.core_count = cores
    return steps, fed, inline


PREP_ROWS, PREP_COPIES = 25195, 50

FRAME_IO_SHAPE = (96, 72, 400)       # width, height, frames


def frame_io_ms(seq, repeats, min_worker_values):
    """Best write_sequence and load_sequence times of seq, in ms, with
    ingest.MIN_WORKER_VALUES set to min_worker_values."""
    default = ingest.MIN_WORKER_VALUES
    ingest.MIN_WORKER_VALUES = min_worker_values
    try:
        with tempfile.TemporaryDirectory() as out:
            write = time_calls(ingest.write_sequence, repeats, seq, out)
            manifest = os.path.join(out, "manifest.txt")
            return write, time_calls(ingest.load_sequence, repeats, manifest)
    finally:
        ingest.MIN_WORKER_VALUES = default


def frame_io(repeats):
    """Frame-file round trip of a noisy recording: times on the per-core
    workers and on one process, and the worker count."""
    width, height, frames = FRAME_IO_SHAPE
    rng = np.random.default_rng(11)
    seq = ingest.FrameSequence(
        (np.arange(frames) + 1.0) / (frames / 240.0),
        rng.uniform(1.0, 254.0, (frames, height, width)), 254.0)
    workers = min(frames, _kernels.worker_count(seq.data.size,
                                                ingest.MIN_WORKER_VALUES))
    write, load = frame_io_ms(seq, repeats, ingest.MIN_WORKER_VALUES)
    one_write, one_load = frame_io_ms(seq, repeats, seq.data.size + 1)
    print(f"frame write: {write:8.1f} ms ({workers} workers), "
          f"{one_write:.1f} ms on one")
    print(f"frame load:  {load:8.1f} ms ({workers} workers), "
          f"{one_load:.1f} ms on one")
    return {"shape": dict(zip(("width", "height", "frames"), FRAME_IO_SHAPE)),
            "workers": workers, "write_ms": round(write, 1),
            "load_ms": round(load, 1), "one_worker_write_ms":
            round(one_write, 1), "one_worker_load_ms": round(one_load, 1)}


SPREAD_FRAMES, SPREAD_DEGREE = 10, 8


def fit_spread_ms(repeats):
    """Best fit_image time, in ms, of a noisy FRAME_IO_SHAPE recording whose
    pixels saturate in their first 0 to SPREAD_FRAMES - 1 frames, so each
    block of CHUNK pixels splits into about SPREAD_FRAMES start-frame
    groups."""
    width, height, frames = FRAME_IO_SHAPE
    rng = np.random.default_rng(13)
    t = (np.arange(frames) + 1.0) / (frames / 240.0)
    data = (200.0 * t[:, None] ** -0.5
            + rng.normal(0.0, 0.5, (frames, height * width)))
    prefix = rng.integers(0, SPREAD_FRAMES, height * width)
    data[np.arange(frames)[:, None] < prefix] = 1000.0
    return time_calls(_kernels.fit_image, repeats,
                      data.reshape(frames, height, width), t, 1000.0,
                      SPREAD_DEGREE)


def cos_sin(width, repeats):
    """Best times of _kernels._cos_sin and of np.cos plus np.sin on the
    random angles of PAIRS_PER_CALL frame pairs of `width` pixels, in us
    per frame pair."""
    pairs = _kernels.PAIRS_PER_CALL
    k = np.random.default_rng(3).integers(0, 2 ** 53, (pairs, width))
    out, work = np.empty((2, pairs, width)), np.empty((4, pairs, width))
    angle = 2.0 * math.pi * (k * 2.0 ** -53)

    def libm():
        np.cos(angle, out=out[0])
        np.sin(angle, out=out[1])

    kernel_us = time_calls(_kernels._cos_sin, repeats, k, out, work) * (
        1e3 / pairs)
    libm_us = time_calls(libm, repeats) * (1e3 / pairs)
    print(f"cos+sin: {kernel_us:8.1f} us per frame pair ({width} pixels, "
          f"{pairs} pairs per call), {libm_us:.1f} us with np.cos+np.sin")
    return {"width": width, "pairs_per_call": pairs,
            "kernel_us_per_pair": round(kernel_us, 1),
            "numpy_us_per_pair": round(libm_us, 1)}


def prepare(train):
    """x50 augment, then fit the scaler on and scale the augmented rows."""
    augmented = features.augment(train, 0.05, PREP_COPIES, 3)
    return features.apply_scaler(augmented,
                                 features.fit_scaler(augmented))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.add_argument("--frames", type=int, default=400)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args()

    layout, _ = synthgen.four_class_scene(
        args.width, args.height, (0.0, 0.1, 0.2, 0.3), depth_mm=5.0,
        diffusivity=5.8e-8, base_depth_mm=20.0, amplitude=100.0)
    timestamps = (np.arange(args.frames) + 1.0) / (args.frames / 240.0)
    region_map = layout.region_map()
    base = np.stack([synthgen.eval_profile(r.profile, timestamps)
                     for r in layout.regions])

    print(f"canvas {args.width}x{args.height}, {args.frames} frames, "
          f"degree {args.degree}, best of {args.repeats}")
    frame_io_record = frame_io(args.repeats)
    t_render = time_calls(_kernels.render_frames, args.repeats,
                          base, region_map, 1.0, 42, 0.0, math.inf)
    spans = _kernels.worker_count(region_map.size, _kernels.MIN_SPAN)
    print(f"render: {t_render:10.1f} ms ({spans} spans, "
          f"{_kernels.PAIRS_PER_CALL} frame pairs per call)")
    cos_sin_record = cos_sin(-(-region_map.size // spans), 20 * args.repeats)

    data = _kernels.render_frames(base, region_map, 1.0, 42, 0.0, math.inf)
    fit_args = (data, timestamps, math.inf, args.degree)
    t_fit = time_calls(_kernels.fit_image, args.repeats, *fit_args)
    print(f"fit:    {t_fit:10.1f} ms ({spans} workers)")
    t_spread = fit_spread_ms(10 * args.repeats)
    print(f"fit spread: {t_spread:6.1f} ms (96x72x400, degree "
          f"{SPREAD_DEGREE}, start frames 0-{SPREAD_FRAMES - 1})")

    # on one worker, which runs inline, every fit buffer is the parent's,
    # where tracemalloc sees it; forked workers' buffers are not
    default = _kernels.MIN_SPAN
    _kernels.MIN_SPAN = region_map.size + 1
    tracemalloc.start()
    try:
        _kernels.fit_image(*fit_args)
        fit_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
        _kernels.MIN_SPAN = default
    print(f"fit peak: {fit_peak_mb:8.1f} MB on one worker (cube "
          f"{data.nbytes / 1e6:.1f} MB)")

    rng = np.random.default_rng(5)
    train = features.Dataset(rng.normal(size=(PREP_ROWS, 15)),
                             rng.integers(0, 4, PREP_ROWS), 4)
    t_prep = time_calls(prepare, args.repeats, train)
    tracemalloc.start()
    prepare(train)
    prep_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    augmented_mb = (PREP_COPIES + 1) * train.vectors.nbytes / 1e6
    print(f"prep:   {t_prep:10.1f} ms, peak {prep_peak_mb:.1f} MB "
          f"(augmented matrix {augmented_mb:.1f} MB)")

    feeder = "inline" if _kernels.feeds_inline() else "process"
    steps, t_step, t_inline = train_step_ms(args.repeats)
    print(f"train step: {t_step:6.3f} ms fed by the {feeder} feeder, "
          f"{t_inline:.3f} ms inline (15/10/20/4 tanh, batch 2048, Adam, "
          f"{steps} steps over {TRAIN_ROWS} rows)")

    record = {
        "shape": {"width": args.width, "height": args.height,
                  "frames": args.frames, "degree": args.degree},
        "repeats": args.repeats,
        "frame_io": frame_io_record,
        "render_ms": round(t_render, 1),
        "render_spans": spans,
        "render_pairs_per_call": _kernels.PAIRS_PER_CALL,
        "cos_sin": cos_sin_record,
        "fit_ms": round(t_fit, 1),
        "fit_workers": spans,
        "fit_one_worker_tracemalloc_peak_mb": round(fit_peak_mb, 2),
        "fit_spread": {"shape": dict(zip(("width", "height", "frames"),
                                         FRAME_IO_SHAPE)),
                       "degree": SPREAD_DEGREE,
                       "start_frames": SPREAD_FRAMES},
        "fit_spread_ms": round(t_spread, 1),
        "cube_mb": round(data.nbytes / 1e6, 2),
        "prep": {"rows": PREP_ROWS, "features": 15, "copies": PREP_COPIES,
                 "steps": ["augment", "fit_scaler", "apply_scaler"]},
        "prep_ms": round(t_prep, 1),
        "prep_tracemalloc_peak_mb": round(prep_peak_mb, 2),
        "augmented_mb": round(augmented_mb, 2),
        "train_step": {"layers": [15, 10, 20, 4], "batch": 2048,
                       "optimizer": "adam", "rows": TRAIN_ROWS,
                       "steps": steps, "feeder": feeder},
        "train_step_ms": round(t_step, 3),
        "train_step_inline_ms": round(t_inline, 3),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "cpu_count": os.cpu_count(),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_kernels.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
