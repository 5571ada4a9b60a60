"""Binary PGM (P5) reading and writing for masks and segmentation maps."""

import numpy as np

from .errors import ValidationError


def write_pgm(path, image):
    """Write a 2-D uint8 array as a binary P5 PGM with maxval 255."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValidationError(f"PGM image must be a 2-D uint8 array, got "
                              f"{image.dtype} of shape {image.shape}")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_pgm(path):
    """Read a binary P5 PGM into a 2-D uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValidationError(f"{path}: truncated PGM header")
        ch = blob[pos:pos + 1]
        if ch == b"#":
            pos = blob.find(b"\n", pos)
            if pos < 0:
                raise ValidationError(f"{path}: unterminated comment")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end:end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise ValidationError(
            f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad PGM header") from exc
    if width < 1 or height < 1:
        raise ValidationError(
            f"{path}: PGM size {width}x{height}, need at least 1x1")
    if not 1 <= maxval <= 255:
        raise ValidationError(f"{path}: maxval {maxval} outside 1..255 "
                              f"(16-bit PGM is not supported)")
    pos += 1  # single whitespace byte after maxval
    raster = blob[pos:pos + width * height]
    if len(raster) != width * height:
        raise ValidationError(f"{path}: truncated PGM raster")
    if len(blob) > pos + len(raster):
        raise ValidationError(f"{path}: {len(blob) - pos - len(raster)} "
                              f"bytes after the {width}x{height} PGM raster")
    image = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if image.max() > maxval:
        raise ValidationError(f"{path}: PGM sample {image.max()} above maxval "
                              f"{maxval}")
    return image.copy()
