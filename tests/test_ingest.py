import os
import pathlib

import numpy as np
import numpy.testing as npt
import pytest

from thermoseg import ingest
from oracle import SaturatedPixelError, first_unsaturated_frame
from thermoseg.errors import ValidationError
from thermoseg.ingest import (FrameSequence, LabelMask, load_mask,
                              load_sequence, save_mask, trim_mask,
                              write_sequence)
from thermoseg.pgmio import read_pgm, write_pgm


def make_sequence(frames=5, height=3, width=4, saturation=np.inf):
    rng = np.random.default_rng(0)
    data = rng.uniform(1.0, 9.0, (frames, height, width))
    ts = np.linspace(0.5, 2.5, frames)
    return FrameSequence(ts, data, saturation)


def test_sequence_validation():
    seq = make_sequence()
    assert seq.data.shape == (5, 3, 4)
    with pytest.raises(ValidationError):
        FrameSequence(np.array([1.0, 2.0]), seq.data, np.inf)
    with pytest.raises(ValidationError):
        FrameSequence(np.array([0.0, 1, 2, 3, 4.0]), seq.data, np.inf)
    with pytest.raises(ValidationError):
        FrameSequence(np.array([1.0, 2, 2, 3, 4.0]), seq.data, np.inf)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            FrameSequence(np.array([1.0, 2, bad, 3, 4.0]), seq.data, np.inf)


def test_sequence_shape_mismatch():
    seq = make_sequence()
    for data in (seq.data[0], seq.data[:, :, :0], seq.data[..., None]):
        with pytest.raises(ValidationError, match="non-empty"):
            FrameSequence(seq.timestamps, data, np.inf)
    for stamps in (seq.timestamps[:, None], seq.timestamps[:4]):
        with pytest.raises(ValidationError, match="timestamp count"):
            FrameSequence(stamps, seq.data, np.inf)


def test_mask_shape_mismatch():
    labels = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(ValidationError, match="2-D"):
        LabelMask(labels[0], np.ones(4, bool))
    for valid in (np.ones((4, 3), bool), np.ones((3, 4, 1), bool)):
        with pytest.raises(ValidationError, match="valid shape"):
            LabelMask(labels, valid)


def test_write_then_load_round_trip(tmp_path):
    seq = make_sequence(frames=4, height=2, width=3, saturation=100.0)
    # values whose shortest exact form needs 17 significant digits, and
    # the smallest subnormal
    seq.data[0, 0] = [0.1 + 0.2, np.nextafter(1.0, 2.0), 5e-324]
    manifest = write_sequence(seq, str(tmp_path))
    back = load_sequence(manifest)
    assert back.data.shape == (4, 2, 3)
    assert back.data.tobytes() == seq.data.tobytes()
    npt.assert_array_equal(back.timestamps, seq.timestamps)
    assert back.saturation_value == 100.0


def test_load_sequence_fps_timestamps(tmp_path):
    frame = tmp_path / "f0.csv"
    frame.write_text("1.0,2.0\n3.0,4.0\n")
    man = tmp_path / "manifest.txt"
    man.write_text("width = 2\nheight = 2\nfps = 4\nframe = f0.csv\n")
    seq = load_sequence(str(man))
    npt.assert_allclose(seq.timestamps, [0.25])
    npt.assert_array_equal(seq.data[0], [[1.0, 2.0], [3.0, 4.0]])


def test_load_sequence_errors(tmp_path):
    man = tmp_path / "manifest.txt"
    man.write_text("width = 2\nheight = 2\nfps = 4\nframe = missing.csv\n")
    with pytest.raises(FileNotFoundError, match="missing.csv"):
        load_sequence(str(man))

    frame = tmp_path / "f0.csv"
    frame.write_text("1.0,2.0,9.0\n3.0,4.0,9.0\n")
    man.write_text("width = 2\nheight = 2\nfps = 4\nframe = f0.csv\n")
    with pytest.raises(ValidationError):      # 3 columns, manifest says 2
        load_sequence(str(man))

    frame.write_text("1.0,abc\n3.0,4.0\n")
    man.write_text("width = 2\nheight = 2\nfps = 4\nframe = f0.csv\n")
    with pytest.raises(ValidationError):      # non-numeric cell
        load_sequence(str(man))

    man.write_text("width = 2\nheight = 2\nframe = f0.csv\n")
    with pytest.raises(ValidationError):      # no timing at all
        load_sequence(str(man))


def test_first_unsaturated_frame():
    seq = make_sequence(saturation=8.0)
    data = seq.data.copy()
    data[:3, 1, 2] = 9.0
    seq2 = FrameSequence(seq.timestamps, np.minimum(data, 12.0), 8.0)
    assert first_unsaturated_frame(seq2, (1, 2)) == 3
    data[:, 0, 0] = 9.0
    seq3 = FrameSequence(seq.timestamps, data, 8.0)
    with pytest.raises(SaturatedPixelError):
        first_unsaturated_frame(seq3, (0, 0))
    with pytest.raises(ValidationError):
        first_unsaturated_frame(seq2, (9, 9))


def brute_force_trim(mask, margin):
    height, width = mask.labels.shape
    valid = np.zeros_like(mask.valid)
    for r in range(height):
        for c in range(width):
            if not mask.valid[r, c]:
                continue
            keep = (r >= margin and c >= margin
                    and r < height - margin and c < width - margin)
            if keep:
                for dr in range(-margin, margin + 1):
                    for dc in range(-margin, margin + 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < height and 0 <= cc < width:
                            if mask.labels[rr, cc] != mask.labels[r, c]:
                                keep = False
            valid[r, c] = keep
    return valid


def test_trim_mask_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        height, width = int(rng.integers(6, 14)), int(rng.integers(6, 14))
        labels = rng.integers(0, 3, (height, width)).astype(np.int64)
        valid = rng.random((height, width)) > 0.1
        mask = LabelMask(labels, valid)
        margin = int(rng.integers(0, 4))
        got = trim_mask(mask, margin)
        npt.assert_array_equal(got.valid, brute_force_trim(mask, margin))
        npt.assert_array_equal(got.labels, labels)


def test_trim_mask_huge_margin_returns_at_once():
    # a margin of max(height, width) already invalidates every pixel
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, (6, 9)).astype(np.int64)
    mask = LabelMask(labels, np.ones((6, 9), bool))
    for margin in range(2, 10):
        npt.assert_array_equal(trim_mask(mask, margin).valid,
                               brute_force_trim(mask, margin))
    got = trim_mask(mask, 10 ** 12)
    npt.assert_array_equal(got.valid, brute_force_trim(mask, 9))
    npt.assert_array_equal(got.labels, labels)


def test_trim_mask_idempotent_and_never_revalidates():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 4, (20, 20)).astype(np.int64)
    valid = rng.random((20, 20)) > 0.2
    mask = LabelMask(labels, valid)
    once = trim_mask(mask, 2)
    twice = trim_mask(once, 2)
    npt.assert_array_equal(once.valid, twice.valid)
    assert not (once.valid & ~mask.valid).any()


def test_trim_quadrants_interior_counts():
    # four quadrants on a 20x16 canvas, margin 3: interiors are 4x2
    labels = np.zeros((16, 20), dtype=np.int64)
    labels[:, 10:] += 1
    labels[8:, :] += 2
    mask = LabelMask(labels, np.ones((16, 20), bool))
    out = trim_mask(mask, 3)
    for cls in range(4):
        assert (out.valid & (labels == cls)).sum() == 4 * 2


def test_mask_pgm_round_trip(tmp_path):
    labels = np.array([[0, 1, 2], [3, 1, 0]], dtype=np.int64)
    valid = np.array([[True, True, False], [True, False, True]])
    mask = LabelMask(labels, valid)
    path = str(tmp_path / "mask.pgm")
    save_mask(mask, path)
    back = load_mask(path)
    npt.assert_array_equal(back.valid, valid)
    npt.assert_array_equal(back.labels[valid], labels[valid])
    assert (back.labels[~valid] == ingest.INVALID_LABEL).all()


def test_save_mask_refuses_valid_labels_outside_a_byte(tmp_path):
    # one invalid pixel must not let a valid label wrap into the byte:
    # 300 would load back as class 44 and -1 as an invalid pixel
    valid = np.array([[True, True, False]])
    path = str(tmp_path / "mask.pgm")
    for label, message in ((300, "class ids >= 255"),
                           (255, "class ids >= 255"),
                           (-1, "class ids < 0")):
        labels = np.array([[0, label, 1]], dtype=np.int64)
        with pytest.raises(ValidationError, match=message):
            save_mask(LabelMask(labels, valid), path)
    # an invalid pixel's label is not written, so it may be anything
    save_mask(LabelMask(np.array([[0, 254, -7]]), valid), path)
    npt.assert_array_equal(load_mask(path).labels, [[0, 254, 255]])


def test_write_pgm_takes_only_2d_uint8(tmp_path):
    path = str(tmp_path / "x.pgm")
    for image in (np.zeros((2, 3), dtype=np.int64), np.zeros(6, np.uint8),
                  np.zeros((2, 3, 1), np.uint8)):
        with pytest.raises(ValidationError, match="2-D uint8"):
            write_pgm(path, image)
    write_pgm(path, np.arange(6, dtype=np.uint8).reshape(2, 3))
    npt.assert_array_equal(read_pgm(path),
                           np.arange(6, dtype=np.uint8).reshape(2, 3))


# ---------------------------------------------------------------------------
# frame files on worker processes
# ---------------------------------------------------------------------------

@pytest.fixture
def workers(monkeypatch):
    """Set the frame-file worker count: 1 or 2 whatever the core count,
    with a threshold so low that the small test recordings reach it."""
    def use(count):
        monkeypatch.setattr(ingest._kernels, "core_count", lambda: count)
        monkeypatch.setattr(ingest, "MIN_WORKER_VALUES", 8)
    return use


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _frame_files(manifest):
    frames = pathlib.Path(manifest).parent / "frames"
    return {p.name: p.read_bytes() for p in sorted(frames.iterdir())}


def test_two_worker_write_and_load_are_identical(tmp_path, workers):
    seq = make_sequence(frames=23, height=3, width=5, saturation=8.5)
    seq.data[7, 1] = [0.1 + 0.2, np.nextafter(1.0, 2.0), 5e-324, 1e308, 2.0]
    written, loaded = {}, {}
    for count in (1, 2):
        workers(count)
        assert ingest._kernels.worker_count(
            seq.data.size, ingest.MIN_WORKER_VALUES) == count
        manifest = write_sequence(seq, str(tmp_path / str(count)))
        written[count] = _frame_files(manifest)
        loaded[count] = load_sequence(manifest)
        _assert_no_child()
    assert len(written[2]) == 23 and written[2] == written[1]
    for back in loaded.values():
        assert back.data.tobytes() == seq.data.tobytes()
        assert back.timestamps.tobytes() == seq.timestamps.tobytes()


def test_first_bad_frame_in_file_order_is_reported(tmp_path, workers):
    manifest = write_sequence(make_sequence(frames=100, height=3, width=4),
                              str(tmp_path))
    frames = tmp_path / "frames"
    (frames / "frame_00003.csv").write_text("1.0,abc,2.0,3.0\n" * 3)
    (frames / "frame_00090.csv").write_text("1.0,2.0\n" * 3)
    messages = []
    for count in (1, 2):
        workers(count)
        with pytest.raises(ValidationError) as caught:
            load_sequence(manifest)
        messages.append(str(caught.value))
        _assert_no_child()
    assert messages[0] == messages[1]
    assert "frame_00003.csv:1:" in messages[0]
    assert "\n" not in messages[0]


def test_small_recording_starts_no_process(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("a worker process was started")
    monkeypatch.setattr(os, "fork", refuse)
    seq = make_sequence(frames=40, height=12, width=16)
    assert seq.data.size < 2 * ingest.MIN_WORKER_VALUES
    back = load_sequence(write_sequence(seq, str(tmp_path)))
    assert back.data.tobytes() == seq.data.tobytes()
