import itertools
import time

import numpy as np
import pytest

from mmdpcn.errors import (DegenerateData, DimensionMismatch, EmptyVector,
                           InvalidK, LengthMismatch)
from mmdpcn.metrics import (ClusterReport, adjusted_rand_index, completeness,
                            evaluate_clustering, kmeans, matching_accuracy,
                            pca_project, per_frame_mse, sparsity,
                            _lloyd)


def test_sparsity_examples():
    assert sparsity(np.zeros(5), 0.0) == 100.0
    assert sparsity(np.array([1.0, 0.0, 0.0, 0.0]), 0.0) == 75.0
    assert sparsity(np.array([0.5, -0.01, 0.2]), 0.05) == pytest.approx(100.0 / 3.0)
    with pytest.raises(EmptyVector):
        sparsity(np.zeros(0), 0.0)
    with pytest.raises(ValueError):
        sparsity(np.ones(3), -0.1)


def test_completeness_examples():
    assert completeness([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert completeness([0, 0, 1, 1], [2, 2, 2, 2]) == 1.0
    assert completeness([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    # Splitting a class across its own clusters is incomplete but not zero.
    assert completeness([0, 0, 1, 1], [0, 1, 2, 3]) == pytest.approx(0.5)
    with pytest.raises(LengthMismatch):
        completeness([0, 1], [0, 1, 2])


def test_ari_examples():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0
    with pytest.raises(LengthMismatch):
        adjusted_rand_index([0], [0, 1])


def test_label_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(50)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        true = rng.integers(0, 3, n)
        pred = rng.integers(0, 4, n)
        base_c = completeness(true, pred)
        base_a = adjusted_rand_index(true, pred)
        perm = rng.permutation(4)
        relabeled = perm[pred]
        assert completeness(true, relabeled) == pytest.approx(base_c)
        assert adjusted_rand_index(true, relabeled) == pytest.approx(base_a)


def test_matching_accuracy():
    assert matching_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert matching_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert matching_accuracy([0, 0, 0, 1], [2, 2, 2, 2]) == 0.75


def permutation_matching_accuracy(true, pred):
    """The exhaustive reference: every injective map of the smaller label set."""
    rows, cols = np.unique(true), np.unique(pred)
    cont = np.array([[np.sum((true == a) & (pred == b)) for b in cols]
                     for a in rows], dtype=float)
    if cont.shape[0] > cont.shape[1]:
        cont = cont.T
    best = max(sum(cont[i, j] for i, j in enumerate(perm)) for perm in
               itertools.permutations(range(cont.shape[1]), cont.shape[0]))
    return best / float(cont.sum())


@pytest.mark.parametrize("n_true", range(1, 8))
def test_matching_accuracy_matches_permutation_search(n_true):
    rng = np.random.default_rng(52 + n_true)
    for n_pred in range(1, 8):
        n = int(rng.integers(n_true + n_pred, 60))
        true = rng.integers(0, n_true, n)
        pred = rng.integers(0, n_pred, n)
        assert matching_accuracy(true, pred) == \
            permutation_matching_accuracy(true, pred)


def test_matching_accuracy_on_twelve_labels_is_fast():
    # 12! permutations would take hours; the assignment takes milliseconds.
    rng = np.random.default_rng(53)
    true = np.repeat(np.arange(12), 20)
    pred = rng.permutation(12)[true]
    pred[::20] = (pred[::20] + 1) % 12
    start = time.perf_counter()
    acc = matching_accuracy(true, pred)
    assert time.perf_counter() - start < 1.0
    assert acc == 228 / 240


def test_pca_preserves_distances_in_exact_subspace():
    rng = np.random.default_rng(51)
    basis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    coords = rng.standard_normal((20, 3)) * np.array([3.0, 2.0, 1.0])
    points = coords @ basis.T
    projected = pca_project(points, 3)
    d_in = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    d_out = np.linalg.norm(projected[:, None] - projected[None, :], axis=2)
    assert np.allclose(d_in, d_out, atol=1e-8)


def test_pca_output_centered_and_contractive():
    rng = np.random.default_rng(52)
    points = rng.standard_normal((15, 6))
    projected = pca_project(points, 3)
    assert np.all(np.abs(projected.mean(axis=0)) < 1e-10)
    # Full rank, so no coordinate is zero padding.
    assert np.all(np.any(projected != 0.0, axis=0))
    d_in = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    d_out = np.linalg.norm(projected[:, None] - projected[None, :], axis=2)
    assert np.all(d_out <= d_in + 1e-10)


def test_pca_first_component_separates_two_clusters():
    rng = np.random.default_rng(53)
    left = rng.standard_normal((10, 4)) * 0.05
    right = rng.standard_normal((10, 4)) * 0.05
    left[:, 2] -= 5.0
    right[:, 2] += 5.0
    projected = pca_project(np.vstack([left, right]), 1)
    side = projected[:, 0] > 0
    # One cluster strictly on each side of zero.
    assert len(set(side[:10])) == 1
    assert len(set(side[10:])) == 1
    assert side[0] != side[10]


def test_pca_rank_deficiency_flagged_and_padded():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    # Rank 1: the second coordinate is zero padding.
    projected = pca_project(points, 2)
    assert not np.allclose(projected[:, 0], 0.0)
    assert np.array_equal(projected[:, 1], np.zeros(3))


def test_pca_determinism_and_errors():
    rng = np.random.default_rng(54)
    points = rng.standard_normal((10, 5))
    a = pca_project(points, 3)
    b = pca_project(points, 3)
    assert np.array_equal(a, b)
    with pytest.raises(DegenerateData):
        pca_project(points[:1], 1)
    with pytest.raises(DimensionMismatch):
        pca_project(points, 6)
    with pytest.raises(DimensionMismatch):
        pca_project(points, 0)


def blobs(rng, n_per=12, sep=10.0):
    centers = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    pts = np.vstack([c + 0.3 * rng.standard_normal((n_per, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(55)
    pts, labels = blobs(rng)
    assignments = kmeans(pts, 3, seed=0)
    assert completeness(labels, assignments) == pytest.approx(1.0)
    assert adjusted_rand_index(labels, assignments) == pytest.approx(1.0)


def test_kmeans_k_equals_point_count():
    rng = np.random.default_rng(56)
    pts = rng.standard_normal((6, 2)) * 5
    assignments = kmeans(pts, 6, seed=0)
    assert len(set(assignments.tolist())) == 6


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(57)
    pts, _ = blobs(rng, sep=3.0)
    a = kmeans(pts, 3, seed=4)
    b = kmeans(pts, 3, seed=4)
    assert np.array_equal(a, b)


def test_kmeans_inertia_nonincreasing():
    rng = np.random.default_rng(58)
    for seed in range(5):
        pts = rng.standard_normal((40, 3))
        _, inertia = _lloyd(pts, 4, seed)
        assert np.all(np.diff(inertia) <= 1e-9)


def test_kmeans_invalid_k():
    pts = np.zeros((3, 2))
    with pytest.raises(InvalidK):
        kmeans(pts, 0)
    with pytest.raises(InvalidK):
        kmeans(pts, 4)


def test_mse_helpers():
    frames = np.ones((3, 4, 4))
    assert np.array_equal(per_frame_mse(frames, frames), np.zeros(3))
    zeros = np.zeros_like(frames)
    per = per_frame_mse(frames, zeros)
    assert per.shape == (3,)
    assert np.allclose(per, 1.0)
    with pytest.raises(DimensionMismatch):
        per_frame_mse(frames, np.zeros((2, 4, 4)))


def test_cluster_report_validation():
    with pytest.raises(ValueError):
        ClusterReport(acc=1.5, ari=0.0, spa=0.0, lct_seconds=0.0,
                      assignments=np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        ClusterReport(acc=0.5, ari=-2.0, spa=0.0, lct_seconds=0.0,
                      assignments=np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        ClusterReport(acc=0.5, ari=0.0, spa=101.0, lct_seconds=0.0,
                      assignments=np.zeros(1, dtype=int))


def test_evaluate_clustering_end_to_end():
    rng = np.random.default_rng(59)
    pts, labels = blobs(rng, n_per=10)
    causes = np.hstack([pts, np.zeros((30, 3))])
    report = evaluate_clustering(causes, labels, k=3, seed=0, threshold=0.0,
                                 lct_seconds=0.25)
    assert report.acc == pytest.approx(1.0)
    assert report.ari == pytest.approx(1.0)
    assert report.spa == pytest.approx(60.0)
    assert report.lct_seconds == 0.25
    assert report.assignments.shape == (30,)
