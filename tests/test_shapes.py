import numpy as np
import pytest

from mmdpcn.shapes import (SHAPE_NAMES, ShapesDataset, generate_shapes,
                           rasterize_shape)


def pixel_count(name: str, r: int) -> int:
    """Independent count of lattice points inside each shape."""
    if name == "square":
        return (2 * r + 1) ** 2
    if name == "diamond":
        return 2 * r * r + 2 * r + 1
    if name == "triangle":
        return sum(2 * ((dy + r) // 2) + 1 for dy in range(-r, r + 1))
    raise AssertionError(name)


def test_square_membership():
    mask = rasterize_shape("square", 9, (4, 4), 2)
    for y in range(9):
        for x in range(9):
            inside = max(abs(y - 4), abs(x - 4)) <= 2
            assert mask[y, x] == float(inside)
    assert mask.sum() == pixel_count("square", 2)


def test_diamond_membership():
    mask = rasterize_shape("diamond", 9, (4, 4), 2)
    for y in range(9):
        for x in range(9):
            inside = abs(y - 4) + abs(x - 4) <= 2
            assert mask[y, x] == float(inside)
    assert mask.sum() == pixel_count("diamond", 2)


def test_triangle_apex_up():
    mask = rasterize_shape("triangle", 11, (5, 5), 3)
    assert mask.sum() == pixel_count("triangle", 3)
    # Single-pixel apex on the top row of the bounding box, widest at the
    # bottom, and rows never narrow going down.
    rows = [int(mask[y].sum()) for y in range(2, 9)]
    assert rows[0] == 1
    assert rows[-1] == max(rows)
    assert all(a <= b for a, b in zip(rows, rows[1:]))
    assert mask[2, 5] == 1.0


def test_masks_are_binary_and_symmetric():
    for name in SHAPE_NAMES:
        mask = rasterize_shape(name, 13, (6, 6), 3)
        assert mask.dtype == np.float64
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert np.array_equal(mask, mask[:, ::-1])


def test_shapes_are_pairwise_distinct():
    masks = [rasterize_shape(n, 16, (8, 8), 4) for n in SHAPE_NAMES]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(masks[i], masks[j])


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        rasterize_shape("hexagon", 16, (8, 8), 4)


def test_generate_blocks_and_labels():
    data = generate_shapes(frames_per_shape=5, size=16, seed=3)
    assert isinstance(data, ShapesDataset)
    assert data.frames.shape == (15, 16, 16)
    assert data.labels == (["diamond"] * 5 + ["triangle"] * 5 + ["square"] * 5)
    assert np.all(data.frames >= 0.0)
    assert np.all(data.frames <= 1.0)


def test_generate_is_seed_deterministic():
    a = generate_shapes(frames_per_shape=4, size=16, seed=11)
    b = generate_shapes(frames_per_shape=4, size=16, seed=11)
    c = generate_shapes(frames_per_shape=4, size=16, seed=12)
    assert np.array_equal(a.frames, b.frames)
    assert a.labels == b.labels
    assert not np.array_equal(a.frames, c.frames)


def test_noiseless_frames_are_translated_masks():
    data = generate_shapes(frames_per_shape=6, size=18, seed=5,
                           noise_level=0.0)
    half = 18 // 4
    for t, frame in enumerate(data.frames):
        assert set(np.unique(frame)) <= {0.0, 1.0}
        assert frame.sum() == pixel_count(data.labels[t], half)


def test_shapes_keep_clear_border():
    data = generate_shapes(frames_per_shape=60, size=16, seed=7,
                           noise_level=0.0)
    assert np.all(data.frames[:, 0, :] == 0)
    assert np.all(data.frames[:, -1, :] == 0)
    assert np.all(data.frames[:, :, 0] == 0)
    assert np.all(data.frames[:, :, -1] == 0)


def test_drift_is_at_most_one_pixel_per_frame():
    data = generate_shapes(frames_per_shape=40, size=16, seed=9,
                           noise_level=0.0)
    ys, xs = np.mgrid[0:16, 0:16]
    for block in range(3):
        # Centroids translate exactly with the shape center.
        frames = data.frames[block * 40:(block + 1) * 40]
        cy = np.array([(f * ys).sum() / f.sum() for f in frames])
        cx = np.array([(f * xs).sum() / f.sum() for f in frames])
        assert np.max(np.abs(np.diff(cy))) <= 1.0 + 1e-9
        assert np.max(np.abs(np.diff(cx))) <= 1.0 + 1e-9


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_shapes(size=15)
    with pytest.raises(ValueError):
        generate_shapes(frames_per_shape=0)
    # NaN passes a lower bound and would write noise-free frames.
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_level"):
            generate_shapes(noise_level=noise)
