"""Evaluation metrics: sparsity, clustering scores, PCA, k-means, MSE.

Clustering quality is scored with the completeness measure (reported as
ACC) plus pair-counting ARI.  Since "accuracy" is often read as best-match
label agreement, that variant is also available under a separate name and
is never substituted for the completeness score.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DimensionMismatch, EmptyVector, \
    InvalidK, LengthMismatch
from .linalg import as_float_array


def sparsity(v, threshold: float) -> float:
    """Percentage of components with magnitude at or below threshold."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    arr = as_float_array(v, "vector")
    if arr.size == 0:
        raise EmptyVector("sparsity of a zero-length vector is undefined")
    return 100.0 * float(np.count_nonzero(np.abs(arr) <= threshold)) / arr.size


def _as_labels(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(
            f"label arrays differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise LengthMismatch("label arrays are empty")
    return a, b


def _contingency(a, b):
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    counts = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(counts, (ia, ib), 1.0)
    return counts


def _entropy(counts) -> float:
    p = counts[counts > 0]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum())


def completeness(labels_true, labels_pred) -> float:
    """1 - H(pred|true)/H(pred); 1.0 when the prediction has no entropy.

    Maximal when each true class lands inside a single predicted cluster,
    which makes the all-in-one-cluster prediction score 1.0 by definition.
    """
    a, b = _as_labels(labels_true, labels_pred)
    cont = _contingency(a, b)
    h_pred = _entropy(cont.sum(axis=0))
    if h_pred == 0.0:
        return 1.0
    n = cont.sum()
    h_cond = 0.0
    for i in range(cont.shape[0]):
        row = cont[i, :]
        h_cond += (row.sum() / n) * _entropy(row)
    return min(1.0, max(0.0, 1.0 - h_cond / h_pred))


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Pair-counting agreement, corrected for chance."""
    a, b = _as_labels(labels_true, labels_pred)
    cont = _contingency(a, b)

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    n = cont.sum()
    sum_ij = pairs(cont)
    sum_a = pairs(cont.sum(axis=1))
    sum_b = pairs(cont.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        # Both partitions are trivial in the same way (all singletons or
        # one block); as partitions they are identical.
        return 1.0
    return float((sum_ij - expected) / denom)


def _max_matching(weights: np.ndarray) -> float:
    """Largest total weight of a one-to-one matching of rows to columns.

    Kuhn-Munkres (Hungarian) assignment on the weights padded with zeros
    to square, by shortest augmenting paths over row and column potentials,
    O(n^3) for n labels.  Index 0 of the column arrays is the root of each
    search; owner[j] is the 1-based row matched to column j, or 0.
    """
    n = max(weights.shape)
    gain = np.zeros((n, n))
    gain[:weights.shape[0], :weights.shape[1]] = weights
    cost = -gain
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=int)
    for row in range(1, n + 1):
        owner[0], col = row, 0
        slack = np.full(n + 1, np.inf)
        via = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while owner[col]:
            used[col] = True
            i = owner[col]
            free = np.flatnonzero(~used)
            reduced = cost[i - 1, free - 1] - u[i] - v[free]
            better = reduced < slack[free]
            slack[free[better]] = reduced[better]
            via[free[better]] = col
            nxt = free[np.argmin(slack[free])]
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            owner[col] = owner[via[col]]
            col = via[col]
    return float(gain[owner[1:] - 1, np.arange(n)].sum())


def matching_accuracy(labels_true, labels_pred) -> float:
    """Best one-to-one cluster/class matching agreement rate.

    The conventional reading of clustering accuracy; reported alongside
    the completeness score, never in place of it.  The matching is a
    Kuhn-Munkres assignment on the contingency table.
    """
    a, b = _as_labels(labels_true, labels_pred)
    cont = _contingency(a, b)
    return _max_matching(cont) / float(cont.sum())


def pca_project(points, dims_out: int):
    """Center and project onto the top principal directions.

    Returns (projected, rank_deficient).  When the centered data has fewer
    nonzero singular values than dims_out the missing coordinates are
    zero-padded and the flag is set.  The sign of each direction is fixed
    by making its largest-magnitude loading positive, so the output does
    not depend on SVD sign ambiguity.
    """
    pts = as_float_array(points, "points")
    if pts.ndim != 2:
        raise DimensionMismatch("points must be a 2-D array (n, dim)")
    n, dim = pts.shape
    if n < 2:
        raise DegenerateData("need at least 2 points for PCA")
    if not (1 <= dims_out <= dim):
        raise DimensionMismatch(
            f"dims_out must lie in [1, {dim}], got {dims_out}")

    centered = pts - pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, dim) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.count_nonzero(svals > tol))

    out = np.zeros((n, dims_out))
    usable = min(rank, dims_out)
    for i in range(usable):
        direction = vt[i]
        pivot = int(np.argmax(np.abs(direction)))
        if direction[pivot] < 0:
            direction = -direction
        out[:, i] = centered @ direction
    return out, rank < dims_out


def _plus_plus_init(pts, k, rng):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center; any choice works.
            centers[i] = pts[rng.integers(n)]
        else:
            centers[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(pts, k, seed, max_iter):
    """k-means++ seeded Lloyd iterations; returns labels and inertia trace."""
    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(pts, k, rng)
    labels = np.full(pts.shape[0], -1)
    inertia = []
    for _ in range(max_iter):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        inertia.append(float(d2[np.arange(pts.shape[0]), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0] == 0:
                # Reseed an emptied cluster at the point farthest from its
                # center; deterministic, keeps exactly k clusters alive.
                worst = int(np.argmax(d2[np.arange(pts.shape[0]), labels]))
                centers[j] = pts[worst]
            else:
                centers[j] = members.mean(axis=0)
    return labels, inertia


def kmeans(points, k: int, seed: int = 0, max_iter: int = 100) -> np.ndarray:
    """Seeded k-means++ and Lloyd's algorithm; deterministic per seed."""
    pts = as_float_array(points, "points")
    if pts.ndim != 2:
        raise DimensionMismatch("points must be a 2-D array (n, dim)")
    if not (1 <= k <= pts.shape[0]):
        raise InvalidK(f"k must lie in [1, {pts.shape[0]}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    labels, _ = _lloyd(pts, k, seed, max_iter)
    return labels


def per_frame_mse(frames, reconstructed) -> np.ndarray:
    """Mean squared pixel error for each frame."""
    a = as_float_array(frames, "frames")
    b = as_float_array(reconstructed, "reconstructed frames")
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    if a.ndim < 1 or a.shape[0] == 0:
        raise DimensionMismatch("need at least one frame")
    diff = (a - b).reshape(a.shape[0], -1)
    return np.mean(diff * diff, axis=1)


@dataclass(frozen=True)
class ClusterReport:
    """Clustering evaluation summary for one inference run."""

    acc: float
    ari: float
    spa: float
    lct_seconds: float
    assignments: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.acc <= 1.0):
            raise ValueError(f"acc must lie in [0,1], got {self.acc}")
        if not (-1.0 <= self.ari <= 1.0 + 1e-12):
            raise ValueError(f"ari must lie in [-1,1], got {self.ari}")
        if not (0.0 <= self.spa <= 100.0):
            raise ValueError(f"spa must lie in [0,100], got {self.spa}")


def evaluate_clustering(causes, labels_true, k: int, seed: int = 0,
                        threshold: float = 0.0,
                        lct_seconds: float = 0.0) -> ClusterReport:
    """PCA to three coordinates, k-means, then the on-disk report fields.

    The causes to cluster are taken one row per frame; sparsity is scored
    on the raw (pre-projection) cause values.
    """
    pts = as_float_array(causes, "causes")
    if pts.ndim != 2:
        raise DimensionMismatch("causes must be a 2-D array (frames, dim)")
    projected, _ = pca_project(pts, min(3, pts.shape[1]))
    assignments = kmeans(projected, k, seed=seed)
    return ClusterReport(
        acc=completeness(labels_true, assignments),
        ari=adjusted_rand_index(labels_true, assignments),
        spa=sparsity(pts.ravel(), threshold),
        lct_seconds=float(lct_seconds),
        assignments=assignments,
    )
