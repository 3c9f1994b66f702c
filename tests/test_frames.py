import os
import struct

import numpy as np
import pytest

from mmdpcn.errors import FormatError, IoError, LengthMismatch
from mmdpcn.frames import (format_float, frame_name, read_frames_dir,
                           read_image, read_labels_csv, to_grayscale,
                           write_csv, write_frames, write_image,
                           write_labels_csv, write_metrics_csv)

from helpers import read_metrics_csv


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.0, 1234.5678):
        assert float(format_float(x)) == x


def test_pgm_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(60)
    frame = rng.random((5, 7))
    path = tmp_path / "a.pgm"
    write_image(path, frame)
    back = read_image(path)
    assert back.shape == (5, 7)
    assert np.max(np.abs(back - frame)) <= 0.5 / 255 + 1e-12


def test_pgm_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.pgm"
    write_image(path, np.array([[-0.5, 0.5], [1.5, 1.0]]))
    back = read_image(path)
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0


def test_ppm_roundtrip_and_grayscale(tmp_path):
    rng = np.random.default_rng(61)
    frame = rng.random((4, 6, 3))
    path = tmp_path / "a.ppm"
    write_image(path, frame)
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
    # Neither a graymap (h, w) nor a pixmap (h, w, 3): nothing is written.
    for shape in ((2, 2, 4), (2, 2, 1), (4,), (1, 2, 2, 3)):
        with pytest.raises(FormatError):
            write_image(tmp_path / "x.pnm", np.zeros(shape))
    assert not (tmp_path / "x.pnm").exists()


def test_frame_names():
    assert frame_name(0) == "frame_00000.pgm"
    assert frame_name(12, color=True) == "frame_00012.ppm"


def test_write_and_read_frames_dir(tmp_path, monkeypatch):
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
    assert os.path.basename(paths[-1]) == "frame_00003.pgm"

    # A rerun that would leave some of these files behind, for
    # read_frames_dir to read with its own, is refused before it writes:
    # a shorter stack, or colour frames over gray ones.  A rerun of the
    # same length overwrites.
    for stale in (np.zeros((2, 6, 6)), np.zeros((4, 6, 6, 3))):
        with pytest.raises(IoError, match="stack already holds frame_0000"):
            write_frames(out, stale)
        assert np.array_equal(read_frames_dir(out), back)
    write_frames(out, frames[::-1])
    assert np.array_equal(read_frames_dir(out), back[::-1])

    # Past 100,000 frames every name of the stack takes 6 digits, so the
    # names still sort in frame order.  No file is written.
    monkeypatch.setattr("mmdpcn.frames.write_image", lambda path, frame: None)
    names = [os.path.basename(p)
             for p in write_frames(tmp_path / "long", np.zeros((100_002, 1, 1)))]
    assert names[0] == "frame_000000.pgm"
    assert names[-1] == "frame_100001.pgm"
    assert sorted(names) == names


def test_read_frames_dir_keeps_color(tmp_path):
    # Colour frames stay colour; layer 1 decides whether they collapse.
    rng = np.random.default_rng(64)
    frames = rng.random((2, 4, 4, 3))
    out = tmp_path / "color"
    write_frames(out, frames)
    color = read_frames_dir(out)
    assert color.shape == (2, 4, 4, 3)
    # A graymap among pixmaps of the same size disagrees in shape.
    write_image(out / "frame_00002.pgm", np.zeros((4, 4)))
    with pytest.raises(FormatError, match="disagree in shape"):
        read_frames_dir(out)


def test_read_frames_dir_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(IoError):
        read_frames_dir(empty)
    with pytest.raises(IoError):
        read_frames_dir(tmp_path / "definitely_missing")
    mixed = tmp_path / "mixed"
    write_frames(mixed, np.zeros((1, 4, 4)))
    write_image(mixed / "frame_00001.pgm", np.zeros((5, 5)))
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
    # A label that is not UTF-8 text names the file.
    path.write_bytes(b"frame_index,label\n0,\xff\xfe\n")
    with pytest.raises(FormatError, match="labels.csv"):
        read_labels_csv(path)
    # Labels that would not read back are refused before a byte is written.
    for bad in ("a,b", "a\nb", "a\rb", "a\r\n", "a\u2028b"):
        with pytest.raises(FormatError, match="comma or a line break"):
            write_labels_csv(tmp_path / "bad.csv", ["square", bad])
    assert not (tmp_path / "bad.csv").exists()
    write_labels_csv(path, ["", " a b "])
    assert read_labels_csv(path) == ["", " a b "]


def test_labels_csv_non_integer_index_names_file_and_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("frame_index,label\n0,a\nx1,b\n")
    with pytest.raises(FormatError, match="labels.csv.*'x1,b'"):
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
