import os
import struct

import numpy as np
import pytest

from mmdpcn.errors import FormatError, IoError, LengthMismatch
from mmdpcn.frames import (format_float, frame_name, read_frames_dir,
                           read_image, read_labels_csv, read_rten,
                           to_grayscale, write_csv, write_frames,
                           write_labels_csv, write_metrics_csv, write_pgm,
                           write_ppm)

from io_helpers import read_metrics_csv, write_rten


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.0, 1234.5678):
        assert float(format_float(x)) == x


def test_pgm_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(60)
    frame = rng.random((5, 7))
    path = tmp_path / "a.pgm"
    write_pgm(path, frame)
    back = read_image(path)
    assert back.shape == (5, 7)
    assert np.max(np.abs(back - frame)) <= 0.5 / 255 + 1e-12


def test_pgm_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-0.5, 0.5], [1.5, 1.0]]))
    back = read_image(path)
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0


def test_ppm_roundtrip_and_grayscale(tmp_path):
    rng = np.random.default_rng(61)
    frame = rng.random((4, 6, 3))
    path = tmp_path / "a.ppm"
    write_ppm(path, frame)
    back = read_image(path)
    assert back.shape == (4, 6, 3)
    assert np.max(np.abs(back - frame)) <= 0.5 / 255 + 1e-12
    gray = to_grayscale(back)
    expected = back @ np.array([0.299, 0.587, 0.114])
    assert np.allclose(gray, expected)
    # Grayscale input passes through untouched.
    assert np.array_equal(to_grayscale(gray), gray)


def test_pnm_header_comments_and_16bit(tmp_path):
    # Hand-built header with comments and a 2-byte big-endian payload.
    payload = struct.pack(">4H", 0, 16384, 32768, 65535)
    data = b"P5\n# a comment\n2 # trailing\n2\n65535\n" + payload
    path = tmp_path / "wide.pgm"
    path.write_bytes(data)
    img = read_image(path)
    assert img.shape == (2, 2)
    assert np.allclose(img.ravel(),
                       [0.0, 16384 / 65535, 32768 / 65535, 1.0])


def test_pnm_error_cases(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_image(bad_magic)
    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_image(truncated)
    with pytest.raises(IoError):
        read_image(tmp_path / "missing.pgm")
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))
    with pytest.raises(FormatError):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))


def test_rten_roundtrip_exact_f32(tmp_path):
    rng = np.random.default_rng(62)
    arr = rng.standard_normal((3, 4, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.rten"
    write_rten(path, arr)
    back = read_rten(path)
    assert back.shape == (3, 4, 5)
    assert np.array_equal(back, arr)


def test_rten_error_cases(tmp_path):
    path = tmp_path / "bad.rten"
    path.write_bytes(b"NOPE" + struct.pack("<I", 1))
    with pytest.raises(FormatError):
        read_rten(path)
    path.write_bytes(b"RTEN" + struct.pack("<I", 9))
    with pytest.raises(FormatError):
        read_rten(path)
    path.write_bytes(b"RTEN" + struct.pack("<II", 1, 4) + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_rten(path)


def test_frame_names():
    assert frame_name(0) == "frame_00000.pgm"
    assert frame_name(12, color=True) == "frame_00012.ppm"


def test_write_and_read_frames_dir(tmp_path):
    rng = np.random.default_rng(63)
    frames = rng.random((4, 6, 6))
    out = tmp_path / "stack"
    paths = write_frames(out, frames)
    assert len(paths) == 4
    back = read_frames_dir(out)
    assert back.shape == (4, 6, 6)
    assert np.max(np.abs(back - frames)) <= 0.5 / 255 + 1e-12
    # Sorted ingestion: frame order follows the zero-padded names.
    assert sorted(os.path.basename(p) for p in paths) == \
        [os.path.basename(p) for p in paths]


def test_read_frames_dir_color_and_grayscale_flag(tmp_path):
    rng = np.random.default_rng(64)
    frames = rng.random((2, 4, 4, 3))
    out = tmp_path / "color"
    write_frames(out, frames)
    color = read_frames_dir(out)
    assert color.shape == (2, 4, 4, 3)
    gray = read_frames_dir(out, grayscale=True)
    assert gray.shape == (2, 4, 4)


def test_read_frames_dir_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(IoError):
        read_frames_dir(empty)
    with pytest.raises(IoError):
        read_frames_dir(tmp_path / "definitely_missing")
    mixed = tmp_path / "mixed"
    write_frames(mixed, np.zeros((1, 4, 4)))
    write_pgm(mixed / "frame_00001.pgm", np.zeros((5, 5)))
    with pytest.raises(FormatError):
        read_frames_dir(mixed)


def test_labels_csv_roundtrip_and_validation(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, ["diamond", "square", "square"])
    assert read_labels_csv(path) == ["diamond", "square", "square"]
    path.write_text("frame,label\n0,a\n")
    with pytest.raises(FormatError):
        read_labels_csv(path)
    path.write_text("frame_index,label\n1,a\n")
    with pytest.raises(LengthMismatch):
        read_labels_csv(path)


def test_metrics_csv_roundtrip_full_precision(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = [("alpha", 0.1 + 0.2, 1.0 / 3.0), ("beta", -7.25e-19, 0.0)]
    write_metrics_csv(path, rows)
    back = read_metrics_csv(path)
    assert back["alpha"] == (0.1 + 0.2, 1.0 / 3.0)
    assert back["beta"] == (-7.25e-19, 0.0)
    path.write_text("name,value\n")
    with pytest.raises(FormatError):
        read_metrics_csv(path)


def test_write_csv_renders_cells_by_type(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("name", "count", "value"),
              [("a", 7, 0.1 + 0.2), ("b c", np.int64(-2), np.float64(1 / 3)),
               ("d", 0, 1e300)])
    assert path.read_bytes() == (
        b"name,count,value\n"
        b"a,7,0.30000000000000004\n"
        b"b c,-2,0.33333333333333331\n"
        b"d,0,1.0000000000000001e+300\n")
    write_csv(path, ("iteration", "mean_objective"), [])
    assert path.read_bytes() == b"iteration,mean_objective\n"
