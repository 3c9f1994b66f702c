"""File formats: portable graymap/pixmap frames, raw tensors, CSV tables.

Everything here is readable without third-party image libraries.  Pixels
live in [0, 1] as float64 in memory; files store the quantized bytes.
CSV numbers are written with 17 significant digits so a parsed value
round-trips bit-exactly.
"""

import os
import struct

import numpy as np

from .errors import FormatError, IoError, LengthMismatch
from .linalg import as_float_array

_RTEN_MAGIC = b"RTEN"


def format_float(x: float) -> str:
    """Round-trip decimal rendering used in every CSV this package writes."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Portable graymap / pixmap


def _read_pnm_tokens(data: bytes, count: int, start: int):
    """Pull whitespace-separated header tokens, skipping # comments."""
    tokens = []
    i = start
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError("truncated netpbm header")
        ch = data[i:i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i + 1  # single whitespace byte ends the header


def _parse_pnm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if data[:2] != magic:
        raise FormatError(f"expected {magic.decode()} file")
    tokens, offset = _read_pnm_tokens(data, 3, 2)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"bad netpbm header fields: {tokens}") from exc
    if width < 1 or height < 1 or not (1 <= maxval <= 65535):
        raise FormatError(
            f"bad netpbm dimensions {width}x{height} maxval {maxval}")
    wide = maxval > 255
    need = width * height * channels * (2 if wide else 1)
    body = data[offset:offset + need]
    if len(body) < need:
        raise FormatError("truncated netpbm pixel data")
    dtype = ">u2" if wide else np.uint8
    raw = np.frombuffer(body, dtype=dtype).astype(np.float64) / maxval
    shape = (height, width) if channels == 1 else (height, width, 3)
    return raw.reshape(shape)


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _write_file(path, data: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _quantize(frame: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(path, frame):
    arr = as_float_array(frame, "frame")
    if arr.ndim != 2:
        raise FormatError(f"graymap frames must be 2-D, got shape {arr.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    _write_file(path, header + _quantize(arr).tobytes())


def write_ppm(path, frame):
    arr = as_float_array(frame, "frame")
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(
            f"pixmap frames must have shape (h, w, 3), got {arr.shape}")
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    _write_file(path, header + _quantize(arr).tobytes())


def read_image(path) -> np.ndarray:
    """Read either netpbm flavor, dispatching on the magic bytes."""
    data = _read_file(path)
    if data[:2] == b"P5":
        return _parse_pnm(data, b"P5", 1)
    if data[:2] == b"P6":
        return _parse_pnm(data, b"P6", 3)
    raise FormatError(f"{path}: not a binary PGM/PPM file")


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """Rec. 601 luma; grayscale frames pass through unchanged."""
    arr = as_float_array(frame, "frame")
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 3:
        return arr @ np.array([0.299, 0.587, 0.114])
    raise FormatError(f"cannot grayscale a frame of shape {arr.shape}")


# ---------------------------------------------------------------------------
# Raw tensor container: magic, u32 rank, u32 per-axis sizes, f32 payload.
# All integers and floats little-endian; payload in row-major order.


def read_rten(path) -> np.ndarray:
    data = _read_file(path)
    if data[:4] != _RTEN_MAGIC:
        raise FormatError(f"{path}: bad raw-tensor magic")
    if len(data) < 8:
        raise FormatError(f"{path}: truncated raw-tensor header")
    rank = struct.unpack("<I", data[4:8])[0]
    if rank == 0 or rank > 8:
        raise FormatError(f"{path}: implausible tensor rank {rank}")
    end = 8 + 4 * rank
    if len(data) < end:
        raise FormatError(f"{path}: truncated raw-tensor shape")
    shape = struct.unpack(f"<{rank}I", data[8:end])
    count = int(np.prod(shape))
    need = end + 4 * count
    if len(data) != need:
        raise FormatError(
            f"{path}: payload size mismatch ({len(data) - end} bytes for "
            f"{count} values)")
    vals = np.frombuffer(data[end:], dtype="<f4").astype(np.float64)
    return vals.reshape(shape)


# ---------------------------------------------------------------------------
# Frame directories


def frame_name(index: int, color: bool = False) -> str:
    return f"frame_{index:05d}.{'ppm' if color else 'pgm'}"


def write_frames(out_dir, frames):
    """Write a frame stack as numbered netpbm files; returns the paths."""
    arr = as_float_array(frames, "frames")
    color = arr.ndim == 4
    if arr.ndim not in (3, 4):
        raise FormatError(
            f"frame stack must be (t,h,w) or (t,h,w,3), got {arr.shape}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for t in range(arr.shape[0]):
        path = os.path.join(out_dir, frame_name(t, color))
        (write_ppm if color else write_pgm)(path, arr[t])
        paths.append(path)
    return paths


def read_frames_dir(frames_dir, grayscale: bool = False) -> np.ndarray:
    """Read every netpbm file in a directory, sorted by filename.

    All frames must agree in shape; with grayscale=True color frames are
    collapsed at ingestion.
    """
    try:
        names = sorted(n for n in os.listdir(frames_dir)
                       if n.endswith((".pgm", ".ppm")))
    except OSError as exc:
        raise IoError(f"cannot list {frames_dir}: {exc}") from exc
    if not names:
        raise IoError(f"no .pgm/.ppm frames found in {frames_dir}")
    frames = []
    for name in names:
        img = read_image(os.path.join(frames_dir, name))
        if grayscale:
            img = to_grayscale(img)
        frames.append(img)
    shapes = {f.shape for f in frames}
    if len(shapes) > 1:
        raise FormatError(f"frames disagree in shape: {sorted(shapes)}")
    return np.stack(frames)


# ---------------------------------------------------------------------------
# CSV tables


def write_csv(path, header, rows):
    """Write a table: floats as format_float renders them, other cells as str."""
    lines = [",".join(header)]
    lines += [",".join(format_float(c) if isinstance(c, float) else str(c)
                       for c in row) for row in rows]
    _write_file(path, ("\n".join(lines) + "\n").encode())


def write_labels_csv(path, labels):
    write_csv(path, ("frame_index", "label"), enumerate(labels))


def read_labels_csv(path):
    text = _read_file(path).decode()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "frame_index,label":
        raise FormatError(f"{path}: expected 'frame_index,label' header")
    labels = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise FormatError(f"{path}: malformed row {ln!r}")
        if int(cells[0]) != len(labels):
            raise LengthMismatch(
                f"{path}: frame indices must be 0..n-1 in order")
        labels.append(cells[1])
    return labels


def write_metrics_csv(path, rows):
    """rows: iterable of (metric_name, value, stddev)."""
    write_csv(path, ("metric", "value", "stddev"),
              ((name, float(value), float(stddev))
               for name, value, stddev in rows))
