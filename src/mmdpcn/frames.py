"""File formats: portable graymap/pixmap frames and CSV tables.

Everything here is readable without third-party image libraries.  Pixels
live in [0, 1] as float64 in memory; files store the quantized bytes.
write_image picks P5 (graymap) or P6 (pixmap) from the frame's shape, and
read_image picks the parse from the file's magic.
CSV numbers are written with 17 significant digits so a parsed value
round-trips bit-exactly.
"""

import os

import numpy as np

from .errors import FormatError, IoError, LengthMismatch
from .linalg import as_float_array


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


def _parse_pnm(data: bytes, channels: int) -> np.ndarray:
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


def write_image(path, frame):
    """Write a (h, w) frame as P5 or an (h, w, 3) frame as P6."""
    arr = as_float_array(frame, "frame")
    if arr.ndim == 2:
        magic = "P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = "P6"
    else:
        raise FormatError(
            f"frames must have shape (h, w) or (h, w, 3), got {arr.shape}")
    header = f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    _write_file(path, header + _quantize(arr).tobytes())


def read_image(path) -> np.ndarray:
    """Read either netpbm flavor, dispatching on the magic bytes."""
    data = _read_file(path)
    if data[:2] == b"P5":
        return _parse_pnm(data, 1)
    if data[:2] == b"P6":
        return _parse_pnm(data, 3)
    raise FormatError(f"{path}: not a binary PGM/PPM file")


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """Rec. 601 luma of an (h, w, 3) frame or a (t, h, w, 3) stack; (h, w)
    frames pass through unchanged."""
    arr = as_float_array(frame, "frame")
    if arr.ndim == 2:
        return arr
    if arr.ndim in (3, 4) and arr.shape[-1] == 3:
        return arr @ np.array([0.299, 0.587, 0.114])
    raise FormatError(f"cannot grayscale a frame of shape {arr.shape}")


# ---------------------------------------------------------------------------
# Frame directories


def frame_name(index: int, color: bool = False, digits: int = 5) -> str:
    return f"frame_{index:0{digits}d}.{'ppm' if color else 'pgm'}"


def write_frames(out_dir, frames):
    """Write a frame stack as numbered netpbm files; returns the paths.

    Every index in one stack is padded to the same width, at least 5
    digits, so the names sort in frame order (read_frames_dir).  A .pgm
    or .ppm file in out_dir that the stack would not overwrite raises
    IoError before any write, as read_frames_dir would read it too.
    """
    arr = as_float_array(frames, "frames")
    color = arr.ndim == 4
    if arr.ndim not in (3, 4):
        raise FormatError(
            f"frame stack must be (t,h,w) or (t,h,w,3), got {arr.shape}")
    os.makedirs(out_dir, exist_ok=True)
    digits = max(5, len(str(arr.shape[0] - 1)))
    names = [frame_name(t, color, digits) for t in range(arr.shape[0])]
    stale = sorted(n for n in set(os.listdir(out_dir)).difference(names)
                   if n.endswith((".pgm", ".ppm")))
    if stale:
        raise IoError(f"{out_dir} already holds {stale[0]}, which these "
                      f"{len(names)} frames would not overwrite")
    paths = [os.path.join(out_dir, name) for name in names]
    for path, frame in zip(paths, arr):
        write_image(path, frame)
    return paths


def read_frames_dir(frames_dir) -> np.ndarray:
    """Read every netpbm file in a directory, sorted by filename.

    All frames must agree in shape, so a mix of .pgm and .ppm raises
    FormatError; layer 1 decides whether colour collapses (_fit_frames).
    """
    try:
        names = sorted(n for n in os.listdir(frames_dir)
                       if n.endswith((".pgm", ".ppm")))
    except OSError as exc:
        raise IoError(f"cannot list {frames_dir}: {exc}") from exc
    if not names:
        raise IoError(f"no .pgm/.ppm frames found in {frames_dir}")
    frames = [read_image(os.path.join(frames_dir, name)) for name in names]
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
    """Refuse, before writing, a label that read_labels_csv cannot read back."""
    labels = list(labels)
    for label in map(str, labels):
        # read_labels_csv splits rows with str.splitlines and cells at ",".
        if "," in label or "".join(label.splitlines()) != label:
            raise FormatError(
                f"{path}: label {label!r} holds a comma or a line break")
    write_csv(path, ("frame_index", "label"), enumerate(labels))


def read_labels_csv(path):
    try:
        text = _read_file(path).decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "frame_index,label":
        raise FormatError(f"{path}: expected 'frame_index,label' header")
    labels = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise FormatError(f"{path}: malformed row {ln!r}")
        try:
            index = int(cells[0])
        except ValueError:
            raise FormatError(
                f"{path}: frame index is not an integer in row {ln!r}") from None
        if index != len(labels):
            raise LengthMismatch(
                f"{path}: frame indices must be 0..n-1 in order")
        labels.append(cells[1])
    return labels


def write_metrics_csv(path, rows):
    """rows: iterable of (metric_name, value, stddev)."""
    write_csv(path, ("metric", "value", "stddev"),
              ((name, float(value), float(stddev))
               for name, value, stddev in rows))
