import numpy as np
import pytest

from mmdpcn.majorize import _solve_on_support, smooth_l1, soft_clip


def support_solve(c, r, rhs):
    """The support solve of one row, with the Gram matrix built here."""
    return _solve_on_support(c.T @ c, r[None], rhs[None])[0]


def test_soft_clip_closed_forms():
    assert np.array_equal(soft_clip(np.zeros(3), 0.1), np.zeros(3))
    assert np.array_equal(soft_clip(np.array([0.5, -0.2]), 0.1),
                          np.array([1.0, -1.0]))
    assert np.allclose(soft_clip(np.array([0.05]), 0.1), [0.5])


def test_soft_clip_rejects_bad_margin():
    with pytest.raises(ValueError):
        soft_clip(np.ones(2), 0.0)


def test_soft_clip_nonexpansive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = float(rng.uniform(0.01, 1.0))
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        lhs = np.max(np.abs(soft_clip(a, m) - soft_clip(b, m)))
        assert lhs <= np.max(np.abs(a - b)) / m + 1e-12


def test_smooth_l1_closed_forms():
    assert smooth_l1(np.zeros(4), 0.1) == 0.0
    # Interior: e^2/(2m); boundary crossing: |e| - m/2.
    assert abs(smooth_l1(np.array([0.05]), 0.1) - 0.0125) < 1e-15
    assert abs(smooth_l1(np.array([1.0]), 0.1) - 0.95) < 1e-15


def test_smooth_l1_sandwich():
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = float(rng.uniform(0.01, 0.5))
        e = rng.standard_normal(int(rng.integers(1, 12))) * 2.0
        l1 = float(np.abs(e).sum())
        val = smooth_l1(e, m)
        assert 0.0 <= l1 - val <= 0.5 * m * e.size + 1e-12


def test_smooth_l1_gradient_is_soft_clip():
    # Central finite differences of the smoothed norm against its
    # advertised gradient, including points inside and outside the margin.
    rng = np.random.default_rng(2)
    h = 1e-7
    for _ in range(50):
        m = float(rng.uniform(0.05, 0.3))
        e = rng.standard_normal(6)
        g = soft_clip(e, m)
        for k in range(e.size):
            ep, em = e.copy(), e.copy()
            ep[k] += h
            em[k] -= h
            fd = (smooth_l1(ep, m) - smooth_l1(em, m)) / (2 * h)
            assert abs(fd - g[k]) < 1e-6


def test_woodbury_scalar_closed_form():
    for rho in (0.2, 1.0, 7.5):
        out = support_solve(np.array([[1.0]]), np.array([rho]), np.array([1.0]))
        assert abs(out[0] - rho / (1.0 + rho)) < 1e-12


def test_woodbury_matches_dense_solve():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 9))
    r = rng.uniform(0.1, 2.0, size=9)
    rhs = rng.standard_normal(9)
    expected = np.linalg.solve(c.T @ c + np.diag(1.0 / r), rhs)
    assert np.allclose(support_solve(c, r, rhs), expected, atol=1e-10)


def test_woodbury_zero_diagonal_components_return_zero():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((5, 8))
    r = rng.uniform(0.1, 1.0, size=8)
    dead = [1, 4, 6]
    r[dead] = 0.0
    rhs = rng.standard_normal(8)
    out = support_solve(c, r, rhs)
    assert np.array_equal(out[dead], np.zeros(3))
    # On the support the answer solves the reduced normal equations.
    live = r > 0
    sub = c[:, live]
    expected = np.linalg.solve(sub.T @ sub + np.diag(1.0 / r[live]), rhs[live])
    assert np.allclose(out[live], expected, atol=1e-10)


def test_woodbury_all_zero_diagonal():
    c = np.ones((3, 4))
    assert np.array_equal(support_solve(c, np.zeros(4), np.ones(4)), np.zeros(4))


def test_woodbury_support_solve_matches_dense_solve():
    # Supports smaller than, equal to and larger than the input dimension,
    # full and empty, with well- and ill-scaled weights: the support solve
    # must match the reduced normal equations and keep dead components zero.
    rng = np.random.default_rng(7)
    p, k = 12, 30
    c = rng.standard_normal((p, k)) / np.sqrt(p)
    rhs = rng.standard_normal(k)
    ill_scaled = np.logspace(-9, 2, k)
    rng.shuffle(ill_scaled)
    for size in (p, p + 1, k, 0):
        for scale in (rng.uniform(0.05, 3.0, size=k), ill_scaled):
            r = np.zeros(k)
            live = rng.choice(k, size=size, replace=False)
            r[live] = scale[live]
            out = support_solve(c, r, rhs)
            dead = r == 0
            assert np.all(out[dead] == 0.0)
            if size == 0:
                continue
            sub = c[:, ~dead]
            expected = np.linalg.solve(sub.T @ sub + np.diag(1.0 / r[~dead]),
                                       rhs[~dead])
            err = np.linalg.norm(out[~dead] - expected) / np.linalg.norm(expected)
            assert err <= 1e-10

