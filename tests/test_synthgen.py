import math

import numpy as np
import numpy.testing as npt
import pytest

from thermoseg import synthgen
from thermoseg.errors import ValidationError
from thermoseg.synthgen import (NoiseSpec, Region, RegionLayout,
                                adiabatic_plate, composite_layout,
                                eval_profile, four_class_scene, load_scene,
                                log_polynomial, power_law, render_video)


def test_power_law_values():
    p = power_law(1.0, -0.5)
    assert eval_profile(p, 4.0) == 0.5
    npt.assert_allclose(eval_profile(p, np.array([1.0, 100.0])), [1.0, 0.1])
    with pytest.raises(ValidationError):
        eval_profile(p, 0.0)
    with pytest.raises(ValidationError):
        eval_profile(p, np.array([1.0, -2.0]))


def test_plate_series_sum_oracle():
    # brute-force partial sum with a fixed large term count
    a, lth, alpha = 2.0, 0.7, 0.3
    p = adiabatic_plate(a, lth, alpha)
    for t in (0.05, 0.4, 2.0, 31.0):
        n = np.arange(1, 4000)
        brute = a / math.sqrt(t) * (1.0 + 2.0 * np.sum(
            np.exp(-n * n * lth * lth / (alpha * t))))
        npt.assert_allclose(eval_profile(p, t), brute, rtol=1e-11)


def test_plate_long_time_plateau():
    # alpha*t >> L^2 approaches A*sqrt(pi*alpha)/L
    p = adiabatic_plate(3.0, 1.0, 1.0)
    plateau = 3.0 * math.sqrt(math.pi)
    npt.assert_allclose(eval_profile(p, 1e4), plateau, rtol=1e-9)


def test_plate_short_time_matches_power_law():
    p = adiabatic_plate(5.0, 1.0, 1.0)
    q = power_law(5.0, -0.5)
    for t in (0.001, 0.01):
        npt.assert_allclose(eval_profile(p, t), eval_profile(q, t),
                            rtol=1e-9)


def test_plate_contrast_scales_series_term():
    base = adiabatic_plate(1.0, 0.5, 1.0, contrast=1.0)
    half = adiabatic_plate(1.0, 0.5, 1.0, contrast=0.5)
    none = adiabatic_plate(1.0, 0.5, 1.0, contrast=0.0)
    t = 2.0
    full_excess = eval_profile(base, t) - eval_profile(none, t)
    half_excess = eval_profile(half, t) - eval_profile(none, t)
    npt.assert_allclose(half_excess, 0.5 * full_excess, rtol=1e-9)
    npt.assert_allclose(eval_profile(none, t), t ** -0.5, rtol=1e-12)


def test_log_polynomial_profile():
    # log10 T = 0.3 - 0.5 log10 t
    p = log_polynomial([0.3, -0.5])
    t = np.array([1.0, 10.0, 100.0])
    npt.assert_allclose(eval_profile(p, t),
                        10.0 ** (0.3 - 0.5 * np.log10(t)), rtol=1e-12)


def test_profile_validation():
    with pytest.raises(ValidationError):
        power_law(0.0)
    with pytest.raises(ValidationError):
        adiabatic_plate(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        adiabatic_plate(1.0, 1.0, 1.0, contrast=1.5)
    with pytest.raises(ValidationError):
        log_polynomial([])
    with pytest.raises(ValidationError):
        synthgen.TemperatureProfile("sinusoid")


def test_layout_must_tile():
    p = power_law(1.0)
    with pytest.raises(ValidationError):   # gap
        RegionLayout(4, 4, (Region((0, 0, 4, 2), 0, p),))
    with pytest.raises(ValidationError):   # overlap
        RegionLayout(4, 4, (Region((0, 0, 4, 4), 0, p),
                            Region((0, 0, 1, 1), 1, p)))
    with pytest.raises(ValidationError):   # outside canvas
        RegionLayout(4, 4, (Region((0, 0, 5, 4), 0, p),))
    layout = RegionLayout(4, 4, (Region((0, 0, 4, 2), 0, p),
                                 Region((0, 2, 4, 2), 1, p)))
    npt.assert_array_equal(layout.region_map()[:, 0], [0, 0, 1, 1])


def test_composite_layout_counts():
    p0, p1 = power_law(1.0), power_law(2.0)
    layout = composite_layout(640, 480, (160, 120, 320, 240), p1, p0)
    mask = layout.label_mask()
    assert (mask.labels == 1).sum() == 320 * 240
    assert (mask.labels == 0).sum() == 640 * 480 - 320 * 240

    small = composite_layout(4, 4, (1, 1, 2, 2), p1, p0)
    counts = np.bincount(small.label_mask().labels.ravel())
    npt.assert_array_equal(counts, [12, 4])

    with pytest.raises(ValidationError):   # inner rect touching the border
        composite_layout(4, 4, (0, 0, 4, 4), p1, p0)
    with pytest.raises(ValidationError):
        composite_layout(10, 10, (5, 5, 5, 5), p1, p0)


def test_render_video_basics():
    p0, p1 = power_law(8.0, -0.5), power_law(2.0, -0.5)
    layout = composite_layout(6, 5, (2, 2, 2, 2), p1, p0)
    ts = np.array([1.0, 4.0, 16.0])
    seq = render_video(layout, ts, NoiseSpec(0.0, 0), (0.0, np.inf))
    assert seq.data.shape == (3, 5, 6)
    npt.assert_allclose(seq.data[0, 0, 0], 8.0)
    npt.assert_allclose(seq.data[1, 2, 2], 1.0)   # inner profile at t=4
    # noiseless: every pixel of a region identical
    inner = seq.data[:, 2:4, 2:4]
    assert (inner == inner[:, :1, :1]).all()


def test_render_video_clamp_saturates():
    layout = RegionLayout(3, 2, (Region((0, 0, 3, 2), 0, power_law(300.0, -0.5)),))
    ts = np.array([1.0, 2.0])
    seq = render_video(layout, ts, NoiseSpec(0.0, 0), (0.0, 254.0))
    assert (seq.data[0] == 254.0).all()
    assert seq.saturation_value == 254.0


def test_render_video_deterministic():
    layout = RegionLayout(4, 4, (Region((0, 0, 4, 4), 0, power_law(9.0)),))
    ts = np.linspace(0.5, 3.0, 6)
    a = render_video(layout, ts, NoiseSpec(0.3, 12), (0.0, np.inf))
    b = render_video(layout, ts, NoiseSpec(0.3, 12), (0.0, np.inf))
    npt.assert_array_equal(a.data, b.data)


def test_render_video_loglog_slope():
    layout = RegionLayout(2, 2, (Region((0, 0, 2, 2), 0, power_law(5.0, -0.5)),))
    ts = np.geomspace(0.5, 50.0, 40)
    seq = render_video(layout, ts, NoiseSpec(0.0, 0), (0.0, np.inf))
    series = np.log10(seq.data[:, 1, 1])
    slopes = np.diff(series) / np.diff(np.log10(ts))
    npt.assert_allclose(slopes, -0.5, atol=1e-12)


def test_four_class_scene_geometry():
    layout, mask = four_class_scene(10, 8, (0.0, 0.1, 0.2, 0.3), 5.0,
                                    5.8e-8, 20.0)
    assert sorted(np.unique(mask.labels)) == [0, 1, 2, 3]
    assert mask.labels[0, 0] == 0 and mask.labels[0, 9] == 1
    assert mask.labels[7, 0] == 2 and mask.labels[7, 9] == 3
    with pytest.raises(ValidationError):
        four_class_scene(10, 8, (0.3, 0.2, 0.1, 0.0), 5.0, 5.8e-8, 20.0)
    with pytest.raises(ValidationError):
        four_class_scene(10, 8, (0.0, -0.1, 0.2, 0.3), 5.0, 5.8e-8, 20.0)
    with pytest.raises(ValidationError):
        four_class_scene(10, 8, (0.0, 0.1, 0.2), 5.0, 5.8e-8, 20.0)


def test_four_class_scene_degenerate_gaps_identical():
    layout, _ = four_class_scene(6, 6, (0.0, 0.0, 0.0, 0.0), 5.0,
                                 5.8e-8, 20.0)
    profiles = [r.profile for r in layout.regions]
    assert all(p == profiles[0] for p in profiles)


def test_four_class_scene_monotone_late_temperature():
    layout, mask = four_class_scene(8, 8, (0.0, 0.1, 0.2, 0.3), 5.0,
                                    5.8e-8, 20.0, amplitude=100.0)
    by_class = {r.class_id: eval_profile(r.profile, 240.0)
                for r in layout.regions}
    temps = [by_class[i] for i in range(4)]
    assert all(a < b for a, b in zip(temps, temps[1:]))


def test_scene_file_round_trip(tmp_path):
    text = """\
[canvas]
width = 6
height = 4

[timing]
fps = 2.0
frames = 10

[noise]
sigma = 0.25
seed = 77

[clamp]
lo = 0
hi = 254

[region.border]
rect = 0 0 6 2
class = 0
profile = power-law
amplitude = 40
exponent = -0.5

[region.lower]
rect = 0 2 6 2
class = 1
profile = adiabatic-plate
amplitude = 40
thickness = 0.005
diffusivity = 5.8e-8
contrast = 0.8
"""
    path = tmp_path / "scene.ini"
    path.write_text(text)
    scene = load_scene(str(path))
    assert scene.layout.width == 6 and scene.layout.height == 4
    assert len(scene.layout.regions) == 2
    assert scene.noise == NoiseSpec(0.25, 77)
    assert scene.clamp == (0.0, 254.0)
    npt.assert_allclose(scene.timestamps, (np.arange(10) + 1) / 2.0)
    seq = render_video(scene.layout, scene.timestamps, scene.noise,
                       scene.clamp)
    assert seq.data.shape == (10, 4, 6)


def test_scene_file_errors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[canvas]\nwidth = 4\nheight = 4\n")
    with pytest.raises(ValidationError):    # no timing/regions
        load_scene(str(path))
    with pytest.raises(FileNotFoundError, match="absent.ini"):
        load_scene(str(tmp_path / "absent.ini"))
    path.write_text("""\
[canvas]
width = 4
height = 4
[timing]
fps = 1
frames = 5
[region.a]
rect = 0 0 4 4
class = 0
profile = warp-core
""")
    with pytest.raises(ValidationError):
        load_scene(str(path))
