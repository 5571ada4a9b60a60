"""Micro-benchmark for the two hot kernels: frame rendering and pixel fits.

Times the public render_frames and fit_image on a noisy four-quadrant
scene and prints the best of several runs of each.

Run: python3 bench/bench_kernels.py --width 160 --height 120 --frames 400
"""
import argparse
import math
import time

import numpy as np

from thermoseg import _kernels, synthgen


def time_calls(func, repeats, *args):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


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
    t_render = time_calls(_kernels.render_frames, args.repeats,
                          base, region_map, 1.0, 42, 0.0, math.inf)
    print(f"render: {t_render:10.1f} ms")

    data = _kernels.render_frames(base, region_map, 1.0, 42, 0.0, math.inf)
    t_fit = time_calls(_kernels.fit_image, args.repeats, data,
                       np.log10(timestamps), math.inf, args.degree,
                       1.0 / math.log(10.0))
    print(f"fit:    {t_fit:10.1f} ms")


if __name__ == "__main__":
    main()
