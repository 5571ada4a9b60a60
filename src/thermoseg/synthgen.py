"""Synthetic flash-thermography scenes.

A scene is a set of rectangular regions tiling the canvas, each cooling
along its own temperature-time profile, plus per-pixel Gaussian noise and
a clamp that doubles as sensor saturation. Profiles come in three kinds:

* power-law        A * t**b, the semi-infinite surface response (b = -1/2)
* adiabatic-plate  A * t**(-1/2) * (1 + 2*c*sum_n exp(-n^2 L^2 / (alpha t))),
                   the image-source series for a plate of thickness L and
                   diffusivity alpha; c in [0, 1] scales the reflection at
                   the back interface (1 = free surface, 0 = perfect
                   contact, i.e. no interface at all)
* log-polynomial   base ** p(log_base t) for a literal coefficient set

The plate series is truncated once the next term falls below 1e-12 of the
running bracket value, so the gap-0 case degrades exactly to the power law.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, keyfile
from .errors import ComputeError, ValidationError
from .ingest import FrameSequence, LabelMask, check_timestamps, frame_times

MM = 1e-3

# gap thickness (mm) at which the interface reflects half the heat
GAP_HALF_CONTRAST_MM = 0.1

_SERIES_CAP = 1_000_000


@dataclass(frozen=True)
class TemperatureProfile:
    kind: str
    amplitude: float = 1.0
    exponent: float = -0.5
    thickness: float = 0.0        # m
    diffusivity: float = 0.0      # m^2/s
    contrast: float = 1.0
    coefficients: tuple = ()
    log_base: float = 10.0

    def __post_init__(self):
        if self.kind == "power-law":
            if self.amplitude <= 0:
                raise ValidationError("power-law amplitude must be > 0")
        elif self.kind == "adiabatic-plate":
            if self.amplitude <= 0:
                raise ValidationError("adiabatic-plate amplitude must be > 0")
            if self.thickness <= 0 or self.diffusivity <= 0:
                raise ValidationError(
                    "plate thickness and diffusivity must be > 0")
            if not 0.0 <= self.contrast <= 1.0:
                raise ValidationError("interface contrast must lie in [0, 1]")
        elif self.kind == "polynomial-in-log-time":
            if len(self.coefficients) == 0:
                raise ValidationError("polynomial profile needs coefficients")
            if self.log_base <= 1.0:
                raise ValidationError("log base must exceed 1")
        else:
            raise ValidationError(f"unknown profile kind {self.kind!r}")


def power_law(amplitude, exponent=-0.5):
    return TemperatureProfile("power-law", amplitude, exponent)


def adiabatic_plate(amplitude, thickness, diffusivity, contrast=1.0):
    return TemperatureProfile("adiabatic-plate", amplitude,
                              thickness=thickness, diffusivity=diffusivity,
                              contrast=contrast)


def log_polynomial(coefficients, log_base=10.0):
    return TemperatureProfile("polynomial-in-log-time",
                              coefficients=tuple(float(c) for c in coefficients),
                              log_base=log_base)


def _plate_bracket(t, thickness, diffusivity, contrast):
    """1 + 2*c*sum_n exp(-n^2 L^2/(alpha t)), truncated at 1e-12 relative."""
    expo = -thickness * thickness / (diffusivity * t)
    bracket = np.ones_like(t)
    if contrast == 0.0:
        return bracket
    n = 1
    while True:
        term = 2.0 * contrast * np.exp(n * n * expo)
        if not np.any(term >= 1e-12 * bracket):
            return bracket
        bracket += term
        n += 1
        if n > _SERIES_CAP:
            raise ComputeError("plate series failed to converge")


def eval_profile(profile, t):
    """Profile temperature at time(s) t (seconds, > 0). A profile that
    leaves the float64 range at any of them is a ValidationError."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValidationError("profile times must be > 0")
    # an overflow shows as a non-finite value, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if profile.kind == "power-law":
            out = profile.amplitude * t ** profile.exponent
        elif profile.kind == "adiabatic-plate":
            bracket = _plate_bracket(t, profile.thickness,
                                     profile.diffusivity, profile.contrast)
            out = profile.amplitude / np.sqrt(t) * bracket
        else:
            u = np.log(t) / math.log(profile.log_base)
            coeffs = profile.coefficients[::-1]  # np.polyval: leading first
            out = profile.log_base ** np.polyval(coeffs, u)
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{profile.kind} profile is non-finite in range")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Region:
    rect: tuple  # (x0, y0, width, height)
    class_id: int
    profile: TemperatureProfile


@dataclass(frozen=True)
class RegionLayout:
    width: int
    height: int
    regions: tuple

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError("canvas must be at least 1x1")
        cover = np.zeros((self.height, self.width), dtype=np.int32)
        for region in self.regions:
            x0, y0, w, h = region.rect
            if w < 1 or h < 1:
                raise ValidationError(
                    f"region rect {region.rect} has empty size")
            if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
                raise ValidationError(
                    f"region rect {region.rect} leaves the canvas")
            if region.class_id < 0:
                raise ValidationError("class ids must be >= 0")
            cover[y0:y0 + h, x0:x0 + w] += 1
        if not (cover == 1).all():
            missed = int((cover == 0).sum())
            doubled = int((cover > 1).sum())
            raise ValidationError(
                f"regions must tile the canvas exactly once "
                f"({missed} uncovered, {doubled} multiply covered)")

    def region_map(self):
        """(H, W) array of region list indices."""
        out = np.empty((self.height, self.width), dtype=np.int64)
        for i, region in enumerate(self.regions):
            x0, y0, w, h = region.rect
            out[y0:y0 + h, x0:x0 + w] = i
        return out

    def label_mask(self):
        out = np.empty((self.height, self.width), dtype=np.int64)
        for region in self.regions:
            x0, y0, w, h = region.rect
            out[y0:y0 + h, x0:x0 + w] = region.class_id
        return LabelMask(out, np.ones(out.shape, dtype=bool))


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # a draw is at most MAX_RADIUS sigmas, and must stay finite
        if not 0 <= self.sigma * _kernels.MAX_RADIUS < math.inf:
            limit = np.finfo(np.float64).max / _kernels.MAX_RADIUS
            raise ValidationError(f"noise sigma must lie in [0, {limit:.4g}], "
                                  "where its largest draw stays finite")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("noise seed must lie in [0, 2**64)")


def render_video(layout, timestamps, noise, clamp=(0.0, math.inf)):
    """Render every pixel's cooling series into a FrameSequence.

    Each pixel draws its own Gaussian stream keyed on (seed, row, col), so
    output is independent of render order and stable under re-runs. The
    clamp ceiling becomes the sequence's saturation value when finite.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.ndim != 1 or timestamps.size == 0:
        raise ValidationError("timestamps must be a non-empty 1-D sequence")
    check_timestamps(timestamps)
    lo, hi = float(clamp[0]), float(clamp[1])
    if not lo < hi:
        raise ValidationError("clamp must satisfy lo < hi")
    base = np.empty((len(layout.regions), timestamps.size))
    for i, region in enumerate(layout.regions):
        base[i] = eval_profile(region.profile, timestamps)
    # the largest draw on the largest value must stay finite too
    peak = np.abs(base).max(axis=1)
    top = int(np.argmax(peak))
    reach = float(peak[top]) + noise.sigma * _kernels.MAX_RADIUS
    if not math.isfinite(reach):
        raise ValidationError(f"noise sigma {noise.sigma:.4g} on a "
                              f"{layout.regions[top].profile.kind} profile "
                              f"reaching {peak[top]:.4g} overflows float64")
    data = _kernels.render_frames(base, layout.region_map(), noise.sigma,
                                  noise.seed, lo, hi)
    saturation = hi if math.isfinite(hi) else math.inf
    return FrameSequence(timestamps, data, saturation)


def composite_layout(width, height, inner_rect, inner_profile, outer_profile):
    """Centered-rectangle-in-border layout: the inner rectangle is class 1,
    the border, four rectangles, class 0."""
    x0, y0, w, h = inner_rect
    if w < 1 or h < 1:
        raise ValidationError("inner rect must have positive size")
    if x0 <= 0 or y0 <= 0 or x0 + w >= width or y0 + h >= height:
        raise ValidationError("inner rect must sit strictly inside the canvas")
    regions = (
        Region((0, 0, width, y0), 0, outer_profile),
        Region((0, y0, x0, h), 0, outer_profile),
        Region((x0, y0, w, h), 1, inner_profile),
        Region((x0 + w, y0, width - x0 - w, h), 0, outer_profile),
        Region((0, y0 + h, width, height - y0 - h), 0, outer_profile),
    )
    return RegionLayout(width, height, regions)


def gap_contrast(gap_mm):
    """Interface reflection coefficient for an air gap of the given size.

    Thin-gap thermal-resistance model: contrast g/(g + g_half) rises from 0
    (no gap) towards 1 (wide open gap), passing 1/2 at g_half.
    """
    if gap_mm < 0:
        raise ValidationError("gap thickness must be >= 0")
    return gap_mm / (gap_mm + GAP_HALF_CONTRAST_MM)


def four_class_scene(width, height, gaps_mm, depth_mm, diffusivity,
                     base_depth_mm, amplitude=100.0):
    """Quadrant scene grading delamination severity by air-gap thickness.

    Gap 0 marks sound material: a plate the full sample depth with a free
    back face. Non-zero gaps put a partially reflecting interface at the
    defect depth, with reflection growing monotonically with gap size.
    Returns the layout plus its pixel-true label mask.
    """
    gaps = [float(g) for g in gaps_mm]
    if len(gaps) != 4:
        raise ValidationError("expected exactly 4 gap thicknesses")
    if any(g < 0 for g in gaps):
        raise ValidationError("gap thicknesses must be >= 0")
    if any(a > b for a, b in zip(gaps, gaps[1:])):
        raise ValidationError("gap thicknesses must be non-decreasing")
    if depth_mm <= 0 or base_depth_mm <= 0:
        raise ValidationError("depths must be > 0")
    if width < 2 or height < 2:
        raise ValidationError("canvas too small for four quadrants")

    sound = adiabatic_plate(amplitude, base_depth_mm * MM, diffusivity)
    profiles = [
        sound if g == 0.0 else
        adiabatic_plate(amplitude, depth_mm * MM, diffusivity, gap_contrast(g))
        for g in gaps
    ]
    xm, ym = width // 2, height // 2
    quads = ((0, 0, xm, ym), (xm, 0, width - xm, ym),
             (0, ym, xm, height - ym), (xm, ym, width - xm, height - ym))
    regions = tuple(Region(rect, i, profiles[i]) for i, rect in enumerate(quads))
    layout = RegionLayout(width, height, regions)
    return layout, layout.label_mask()


# ---------------------------------------------------------------------------
# scene description files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scene:
    layout: RegionLayout
    timestamps: np.ndarray
    noise: NoiseSpec
    clamp: tuple = (0.0, math.inf)


def _profile(keys):
    """The profile a region section's keys describe."""
    kind = keys.text("profile", "power-law")
    if kind == "power-law":
        return power_law(keys.number("amplitude", 1.0),
                         keys.number("exponent", -0.5))
    if kind == "adiabatic-plate":
        return adiabatic_plate(keys.number("amplitude", 1.0),
                               keys.number("thickness"),
                               keys.number("diffusivity"),
                               keys.number("contrast", 1.0))
    if kind == "polynomial-in-log-time":
        return log_polynomial(keys.numbers("coefficients"),
                              keys.number("log_base", 10.0))
    keys.fail("profile", f"unknown kind {kind!r}")


def load_scene(path):
    """Parse a scene description (keyfile syntax).

    Sections: [canvas] width/height; [timing] fps+frames or timestamps;
    optional [noise] sigma/seed; optional [clamp] lo/hi; one [region.NAME]
    per region with rect = "x0 y0 w h", class, and profile options.
    """
    with keyfile.reading(path) as text:
        keys = keyfile.KeyFile(text)
        canvas, timing = keys.section("canvas"), keys.section("timing")
        timing.either("fps", "timestamps")
        timing.either("frames", "timestamps")
        width, height = canvas.integer("width", 1), canvas.integer("height", 1)
        stamps = timing.numbers("timestamps", None)
        if stamps is None:
            fps, frames = timing.number("fps"), timing.integer("frames", 1)
            if not fps > 0:
                timing.fail("fps", f"must be > 0, got {fps}")
        else:
            frames = len(stamps)
        # the rendered (frames, H, W) float64 video must be addressable
        if width * height * frames * 8 > np.iinfo(np.intp).max:
            raise ValidationError(f"a {width}x{height} canvas of {frames} "
                                  f"frames is more than an array can hold")
        stamps = (frame_times(frames, fps) if stamps is None
                  else np.array(stamps))
        check_timestamps(stamps)
        noise_keys, bounds = keys.section("noise"), keys.section("clamp")
        noise = NoiseSpec(noise_keys.number("sigma", 0.0),
                          noise_keys.integer("seed", 0, 0))
        clamp = (bounds.number("lo", 0.0), bounds.number("hi", math.inf))
        regions = []
        for section in [keys.section(name) for name in keys.sections
                        if name.startswith("region.")]:
            rect = section.integers("rect", 0)
            if len(rect) != 4:
                section.fail("rect", "needs 4 integers: x0 y0 width height")
            regions.append(Region(rect, section.integer("class", 0),
                                  _profile(section)))
        keys.finish()
        if not regions:
            raise ValidationError("no [region.*] sections")
        return Scene(RegionLayout(width, height, tuple(regions)), stamps,
                     noise, clamp)
