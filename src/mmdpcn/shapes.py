"""Synthetic shape videos: one geometric shape per block of frames.

Each block shows a single white shape (diamond, triangle, or square) on a
black background, drifting by at most one pixel per frame within the block.
Labels name the shape per frame.  Everything is driven by one seeded
generator, so a seed pins the dataset bit for bit.
"""

from dataclasses import dataclass

import numpy as np

SHAPE_NAMES = ("diamond", "triangle", "square")


@dataclass(frozen=True)
class ShapesDataset:
    frames: np.ndarray  # (t, size, size) float64 in [0, 1]
    labels: list


def rasterize_shape(name: str, size: int, center, half_extent: int) -> np.ndarray:
    """Binary mask of one shape; center is (row, col)."""
    cy, cx = center
    ys, xs = np.mgrid[0:size, 0:size]
    dy = ys - cy
    dx = xs - cx
    r = half_extent
    if name == "square":
        mask = np.maximum(np.abs(dy), np.abs(dx)) <= r
    elif name == "diamond":
        mask = np.abs(dy) + np.abs(dx) <= r
    elif name == "triangle":
        # Apex at the top, base at the bottom edge of the bounding box.
        mask = (dy >= -r) & (dy <= r) & (2 * np.abs(dx) <= dy + r)
    else:
        raise ValueError(f"unknown shape {name!r}")
    return mask.astype(np.float64)


def generate_shapes(frames_per_shape: int = 100, size: int = 16, seed: int = 0,
                    noise_level: float = 0.02) -> ShapesDataset:
    """Three consecutive single-shape blocks with per-frame drift.

    size must be at least 16 so every shape stays resolvable; noise_level
    is the standard deviation of additive pixel noise (clipped to [0,1]).
    """
    if size < 16:
        raise ValueError("frame size must be at least 16")
    if frames_per_shape < 1:
        raise ValueError("frames_per_shape must be >= 1")
    if not (np.isfinite(noise_level) and noise_level >= 0):
        raise ValueError("noise_level must be finite and nonnegative")

    rng = np.random.default_rng(seed)
    half = size // 4
    lo, hi = half + 1, size - half - 2  # keep a 1-pixel clear border
    frames = np.empty((3 * frames_per_shape, size, size))
    labels = []
    t = 0
    for name in SHAPE_NAMES:
        cy, cx = size // 2, size // 2
        for _ in range(frames_per_shape):
            frame = rasterize_shape(name, size, (cy, cx), half)
            if noise_level > 0:
                frame = frame + noise_level * rng.standard_normal(frame.shape)
            frames[t] = np.clip(frame, 0.0, 1.0)
            labels.append(name)
            t += 1
            cy = int(np.clip(cy + rng.integers(-1, 2), lo, hi))
            cx = int(np.clip(cx + rng.integers(-1, 2), lo, hi))
    return ShapesDataset(frames, labels)
