import numpy as np
import pytest

from mmdpcn.majorize import (ReweightDiagonal, SmoothApprox,
                             majorizer_value, reweight, smooth_l1, soft_clip,
                             woodbury_apply)


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


def test_smooth_approx_invariants():
    sa = SmoothApprox.at(np.array([0.5, -0.01, 0.0]), 0.1)
    assert np.max(np.abs(sa.alpha_star)) <= 1.0
    assert np.allclose(sa.alpha_star, [1.0, -0.1, 0.0])


def test_majorizer_hand_values():
    assert abs(majorizer_value(np.array([1.0]), np.array([1.0]), 0.3) - 0.3) < 1e-15
    assert abs(majorizer_value(np.array([0.0]), np.array([1.0]), 0.3) - 0.15) < 1e-15
    assert abs(majorizer_value(np.array([2.0]), np.array([1.0]), 0.3) - 0.75) < 1e-15


def test_majorizer_zero_anchor_is_absorbing():
    v = np.array([0.0, 1.0])
    assert majorizer_value(np.array([0.0, 2.0]), v, 0.3) < np.inf
    assert majorizer_value(np.array([0.1, 2.0]), v, 0.3) == np.inf


def test_majorizer_dominates_l1():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        w = float(rng.uniform(0.05, 2.0))
        v = rng.standard_normal(n)
        v[v == 0] = 0.5
        x = rng.standard_normal(n)
        assert majorizer_value(x, v, w) >= w * np.abs(x).sum() - 1e-12
        # Tight wherever |x| = |v|.
        flip = rng.choice([-1.0, 1.0], size=n)
        assert abs(majorizer_value(v * flip, v, w) - w * np.abs(v).sum()) <= 1e-12


def test_reweight_values_and_absorbing_zero():
    rd = reweight(np.array([0.3]), 0.3)
    assert isinstance(rd, ReweightDiagonal)
    assert np.allclose(rd.r, [1.0])
    rd = reweight(np.array([0.0, 0.6]), 0.3)
    assert np.array_equal(rd.r, [0.0, 2.0])
    # diag(r) * diag(weight/|v|) is the identity on the support.
    rng = np.random.default_rng(4)
    v = rng.standard_normal(7)
    rd = reweight(v, 0.25)
    assert np.allclose(rd.r * (0.25 / np.abs(v)), 1.0)


def test_woodbury_scalar_closed_form():
    for rho in (0.2, 1.0, 7.5):
        out = woodbury_apply(np.array([[1.0]]), np.array([rho]), np.array([1.0]))
        assert abs(out[0] - rho / (1.0 + rho)) < 1e-12


def test_woodbury_matches_dense_solve():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 9))
    r = rng.uniform(0.1, 2.0, size=9)
    rhs = rng.standard_normal(9)
    expected = np.linalg.solve(c.T @ c + np.diag(1.0 / r), rhs)
    assert np.allclose(woodbury_apply(c, r, rhs), expected, atol=1e-10)


def test_woodbury_zero_diagonal_components_return_zero():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((5, 8))
    r = rng.uniform(0.1, 1.0, size=8)
    dead = [1, 4, 6]
    r[dead] = 0.0
    rhs = rng.standard_normal(8)
    out = woodbury_apply(c, r, rhs)
    assert np.array_equal(out[dead], np.zeros(3))
    # On the support the answer solves the reduced normal equations.
    live = r > 0
    sub = c[:, live]
    expected = np.linalg.solve(sub.T @ sub + np.diag(1.0 / r[live]), rhs[live])
    assert np.allclose(out[live], expected, atol=1e-10)


def test_woodbury_all_zero_diagonal():
    c = np.ones((3, 4))
    assert np.array_equal(woodbury_apply(c, np.zeros(4), np.ones(4)), np.zeros(4))


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
            out = woodbury_apply(c, r, rhs)
            dead = r == 0
            assert np.all(out[dead] == 0.0)
            if size == 0:
                continue
            sub = c[:, ~dead]
            expected = np.linalg.solve(sub.T @ sub + np.diag(1.0 / r[~dead]),
                                       rhs[~dead])
            err = np.linalg.norm(out[~dead] - expected) / np.linalg.norm(expected)
            assert err <= 1e-10


def test_woodbury_accepts_reweight_diagonal_and_validates():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((3, 5))
    rhs = rng.standard_normal(5)
    rd = reweight(rng.standard_normal(5), 0.3)
    assert woodbury_apply(c, rd, rhs).shape == (5,)
    with pytest.raises(ValueError):
        woodbury_apply(c, np.ones(4), rhs)
    with pytest.raises(ValueError):
        woodbury_apply(c, -np.ones(5), rhs)
