"""Loading, validation and masking of thermographic sequences.

A sequence on disk is one CSV file per frame (rows = image rows, comma
separated columns) plus a manifest sidecar - a flat key = value file
listing the frame files in order together with the timing, dimensions and
sensor ceiling. Label masks are binary PGMs where the pixel value is the
class id and 255 marks invalid pixels.

Frame files are written and parsed on _kernels.run_pool, one forked
worker process per available core. Formatting or parsing a value is a
few hundred nanoseconds of work that holds the GIL, so threads would
take turns rather than share it. Each worker takes an even contiguous
run of frames: a writer inherits the cube and sends nothing back, and a
reader parses its frames into its copy of the cube and sends their bytes
back over a pipe, straight into the parent's cube. Without fork, and for
a recording of fewer than MIN_WORKER_VALUES values per worker, the files
are written and parsed serially and no process starts. Every frame is
formatted and parsed by the same code in any worker, so the files' bytes
and the loaded values are the same for any core count.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels, keyfile
from .errors import ValidationError
from .pgmio import read_pgm, write_pgm

INVALID_LABEL = 255

# fewest frame values per worker process (about 0.4 s of parsing): below
# it a process costs more than it saves
MIN_WORKER_VALUES = 1 << 20


def frame_times(count, fps):
    """`count` frame times at `fps`: the first frame follows the flash by
    one frame interval, so every t is > 0."""
    return (np.arange(count) + 1.0) / fps


def check_timestamps(t):
    """Raise ValidationError unless t is finite, positive and strictly
    increasing. The test is written in positive form so that a NaN, which
    fails every comparison, fails it too.
    """
    if not (np.isfinite(t).all() and t[0] > 0 and (np.diff(t) > 0).all()):
        raise ValidationError(
            "timestamps must be finite, strictly increasing and > 0")


@dataclass(frozen=True)
class FrameSequence:
    """A time-ordered stack of 2-D frames with strictly increasing timestamps.

    data is (frames, height, width) float64; timestamps are seconds since
    the excitation flash, all positive so log-time is defined.
    """
    timestamps: np.ndarray
    data: np.ndarray
    saturation_value: float

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.size == 0:
            raise ValidationError("data must be a non-empty "
                                  "(frames, height, width) stack")
        if self.timestamps.shape != self.data.shape[:1]:
            raise ValidationError("timestamp count must equal frame count")
        check_timestamps(self.timestamps)


@dataclass(frozen=True)
class LabelMask:
    """Per-pixel class labels with a validity flag.

    Pixels loaded as invalid carry the sentinel label 255 and behave as
    their own class when boundaries are trimmed.
    """
    labels: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 2:
            raise ValidationError("labels must be a 2-D array")
        if self.valid.shape != self.labels.shape:
            raise ValidationError("valid shape does not match label shape")


def _read_frame(path, height, width):
    return keyfile.rows(keyfile.lines(path), height, width, path, 1)


def load_sequence(path):
    """Load and validate the frame sequence a manifest describes. A
    manifest is a keyfile without sections. Frame 0 is read, and its size
    checked, before the cube is allocated; the other frames are parsed on
    one worker process per core (see the module docstring), and the first
    bad frame in file order is the one reported."""
    keys = keyfile.read(path)
    head = keys.section("")
    width, height = head.integer("width", 1), head.integer("height", 1)
    saturation = head.number("saturation_value", math.inf)
    head.text("units", None)       # written by older versions, not used
    frames = head.texts("frame")
    stamps = head.numbers("timestamps", None)
    if stamps is None:
        fps = head.number("fps")
        if not fps > 0:
            head.fail("fps", f"must be > 0, got {fps}")
        stamps = frame_times(len(frames), fps)
    keys.finish()
    if not frames:
        raise ValidationError(f"{path}: no frame entries")
    if len(stamps) != len(frames):
        raise ValidationError(f"{path}: {len(frames)} frames but "
                              f"{len(stamps)} timestamps")
    base = os.path.dirname(os.path.abspath(path))
    frames = [os.path.normpath(os.path.join(base, f)) for f in frames]
    first = _read_frame(frames[0], height, width)
    data = np.empty((len(frames), height, width))
    data[0] = first

    def parse(lo, hi):
        for i in range(lo + 1, hi + 1):
            data[i] = _read_frame(frames[i], height, width)

    _kernels.run_pool(_kernels.worker_count(data[1:].size, MIN_WORKER_VALUES),
                      parse, data[1:])
    return FrameSequence(np.array(stamps), data, saturation)


def write_sequence(seq, out_dir):
    """Write frame CSVs plus manifest under out_dir; returns manifest path.

    Frame cells are written at `%.17g` and manifest values with repr, so
    a load round-trips bit exactly. Each worker process (see the module
    docstring) writes one contiguous run of frame files.
    """
    frame_dir = os.path.join(out_dir, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    frames, height, width = seq.data.shape
    names = [f"frame_{i:05d}.csv" for i in range(frames)]

    def write(lo, hi):
        for i in range(lo, hi):
            with open(os.path.join(frame_dir, names[i]), "w",
                      encoding="utf-8") as fh:
                keyfile.write_rows(fh, seq.data[i])

    # the files are the output, so no share sends back a byte
    _kernels.run_pool(_kernels.worker_count(seq.data.size, MIN_WORKER_VALUES),
                      write, np.empty((frames, 0)))
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(f"width = {width}\n")
        fh.write(f"height = {height}\n")
        fh.write(f"saturation_value = {repr(float(seq.saturation_value))}\n")
        fh.write("timestamps = "
                 + " ".join(repr(float(t)) for t in seq.timestamps) + "\n")
        for name in names:
            fh.write(f"frame = frames/{name}\n")
    return manifest_path


def trim_mask(mask, margin):
    """Invalidate pixels within `margin` (Chebyshev) of a class boundary
    or the image edge.

    Labels are left untouched and the criterion depends only on them, so
    trimming is idempotent and never revalidates a pixel.
    """
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    labels = mask.labels
    height, width = labels.shape
    if 2 * margin >= min(height, width):
        # every pixel lies within the margin of an edge
        return LabelMask(labels.copy(), np.zeros(labels.shape, dtype=bool))
    near_boundary = np.zeros((height, width), dtype=bool)
    for dy in range(-margin, margin + 1):
        for dx in range(-margin, margin + 1):
            if dy == 0 and dx == 0:
                continue
            ys0, ys1 = max(0, -dy), min(height, height - dy)
            xs0, xs1 = max(0, -dx), min(width, width - dx)
            shifted = labels[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
            near_boundary[ys0:ys1, xs0:xs1] |= shifted != labels[ys0:ys1, xs0:xs1]
    edge = np.ones((height, width), dtype=bool)
    edge[margin:height - margin, margin:width - margin] = False
    valid = mask.valid & ~near_boundary & ~edge
    return LabelMask(labels.copy(), valid)


def save_mask(mask, path):
    """Write a LabelMask as a PGM; invalid pixels become 255."""
    labels = mask.labels[mask.valid]
    if labels.max(initial=0) >= INVALID_LABEL:
        raise ValidationError("class ids >= 255 cannot be serialized")
    if labels.min(initial=0) < 0:
        raise ValidationError("class ids < 0 cannot be serialized")
    image = np.where(mask.valid, mask.labels, INVALID_LABEL).astype(np.uint8)
    write_pgm(path, image)


def load_mask(path):
    """Read a PGM mask; 255 pixels are invalid and keep the sentinel label."""
    image = read_pgm(path)
    return LabelMask(image.astype(np.int64), image != INVALID_LABEL)
