import warnings

import numpy as np
import pytest

from mmdpcn import states
from mmdpcn.errors import NonFinite
from mmdpcn.majorize import _descend_on_support, _solve_on_support
from mmdpcn.model import HyperParams, LayerDims, LayerModel
from mmdpcn.states import infer_states_batch


def support_solve(c, r, rhs):
    """The support solve of one row, with the Gram matrix built here."""
    return _solve_on_support(c.T @ c, r[None], rhs[None])[0]


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


def test_support_solve_rows_match_the_per_row_formula_bit_for_bit():
    # Rows with different supports, one of them empty, solved together:
    # each row must equal h * solve(I + h G_SS h, h * rhs_S) on its own.
    rng = np.random.default_rng(8)
    p, k = 10, 24
    c = rng.standard_normal((p, k)) / np.sqrt(p)
    gram = c.T @ c
    r = rng.uniform(0.01, 3.0, size=(4, k)) * (rng.random((4, k)) < 0.6)
    r[2] = 0.0
    rhs = rng.standard_normal((4, k))
    out = _solve_on_support(gram, r, rhs)
    for r_i, rhs_i, out_i in zip(r, rhs, out):
        s = r_i.nonzero()[0]
        h = np.sqrt(r_i[s])
        system = np.eye(s.size) + h[:, None] * gram[np.ix_(s, s)] * h
        expected = np.zeros(k)
        if s.size:
            expected[s] = h * np.linalg.solve(system, h * rhs_i[s])
        assert np.array_equal(out_i.view(np.uint64), expected.view(np.uint64))


def per_row_reference(gram, r, rhs):
    """Every row solved through np.linalg.solve, one support at a time."""
    out = np.zeros(rhs.shape)
    for r_i, rhs_i, out_i in zip(r, rhs, out):
        s = np.flatnonzero(r_i)
        if s.size:
            h = np.sqrt(r_i[s])
            system = gram[np.ix_(s, s)] * h[:, None] * h
            system[np.diag_indices(s.size)] += 1.0
            out_i[s] = h * np.linalg.solve(system, h * rhs_i[s])
    return out


@pytest.mark.parametrize("p, k", [(16, 32), (64, 72), (256, 300)])
def test_support_solve_equals_np_linalg_solve_byte_for_byte(p, k):
    # Full, empty, single-component and random supports, with well-scaled
    # and ill-scaled weights: the kernel's direct LAPACK call must give the
    # bits np.linalg.solve gives on the same system.
    rng = np.random.default_rng(k)
    c = rng.standard_normal((p, k))
    c /= np.linalg.norm(c, axis=0)
    gram = c.T @ c
    ill_scaled = np.logspace(-9, 2, k)
    rng.shuffle(ill_scaled)
    live = rng.random((6, k)) < rng.uniform(0.05, 0.9, size=(6, 1))
    live[0] = True
    live[1] = False
    live[2] = False
    live[2, rng.integers(k)] = True
    for weights in (rng.uniform(0.05, 3.0, size=(6, k)),
                    np.tile(ill_scaled, (6, 1))):
        r = np.where(live, weights, 0.0)
        rhs = rng.standard_normal((6, k))
        out = _solve_on_support(gram, r, rhs)
        expected = per_row_reference(gram, r, rhs)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def near_parallel_dictionary(rng, p, k):
    """Columns of norm sqrt(2), nearly parallel: every Gram entry is near 2."""
    c = rng.standard_normal(p)[:, None] + 0.01 * rng.standard_normal((p, k))
    return np.sqrt(2.0) * c / np.linalg.norm(c, axis=0)


def test_overflowing_row_is_non_finite_and_the_others_keep_their_bits():
    rng = np.random.default_rng(9)
    c = near_parallel_dictionary(rng, 8, 12)
    gram = c.T @ c
    assert np.all(np.abs(gram - 2.0) < 0.01)
    r = rng.uniform(0.05, 3.0, size=(3, 12))
    r[1] = 1e308
    rhs = rng.standard_normal((3, 12))
    with np.errstate(over="ignore"):
        out = _solve_on_support(gram, r, rhs)
    assert not np.isfinite(out[1]).any()
    for i in (0, 2):
        alone = _solve_on_support(gram, r[i:i + 1], rhs[i:i + 1])[0]
        assert np.array_equal(out[i].view(np.uint64), alone.view(np.uint64))
    finite = per_row_reference(gram, r[[0, 2]], rhs[[0, 2]])
    assert np.array_equal(out[[0, 2]].view(np.uint64), finite.view(np.uint64))


def test_infer_states_batch_raises_non_finite_on_an_overflowing_solve():
    # A warm start of 1e308 with unit state sparsity gives that row
    # r = |x| / mu = 1e308, so its first support system overflows.
    rng = np.random.default_rng(10)
    p, k = 8, 12
    model = LayerModel(LayerDims(p, k, 3, (1, 2)), np.eye(k), np.zeros((k, 3)),
                       near_parallel_dictionary(rng, p, k))
    hp = HyperParams(state_sparsity=1.0, max_inner_iter=5)
    inits = np.full((2, k), 0.1)
    inits[1] = 1e308
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            infer_states_batch(rng.standard_normal((2, p)), None, model, hp,
                               np.full((2, k), hp.state_sparsity), inits=inits)


def support_quadratic(gram, r, rhs, x):
    """0.5 z^T A z - b^T z per row, with A = I + H G H, b = h rhs, x = h z.

    Each row on its own support, where z = x / h.
    """
    out = []
    for r_i, rhs_i, x_i in zip(r, rhs, x):
        s = np.flatnonzero(r_i)
        h = np.sqrt(r_i[s])
        z = x_i[s] / h
        a = np.eye(s.size) + h[:, None] * gram[np.ix_(s, s)] * h
        out.append(0.5 * z @ a @ z - (h * rhs_i[s]) @ z)
    return np.array(out)


def test_descend_on_support_lowers_the_quadratic_and_keeps_zeros():
    # Supports from 1 component to all 40, well- and ill-scaled weights,
    # started at random points of each support.
    rng = np.random.default_rng(20)
    p, k = 30, 40
    c = rng.standard_normal((p, k))
    c /= np.linalg.norm(c, axis=0)
    gram = c.T @ c
    ill_scaled = np.logspace(-6, 2, k)
    rng.shuffle(ill_scaled)
    live = rng.random((8, k)) < rng.uniform(0.05, 0.9, size=(8, 1))
    live[0] = True
    live[1] = False
    live[1, rng.integers(k)] = True
    for weights in (rng.uniform(0.05, 3.0, size=(8, k)),
                    np.tile(ill_scaled, (8, 1))):
        r = np.where(live, weights, 0.0)
        rhs = rng.standard_normal((8, k))
        x = np.where(live, rng.standard_normal((8, k)), 0.0)
        out = _descend_on_support(gram, r, rhs, x)
        assert np.all(out[~live] == 0.0)
        assert np.all(support_quadratic(gram, r, rhs, out)
                      < support_quadratic(gram, r, rhs, x))


def test_descend_on_support_from_a_solution_raises_no_warning():
    # A zero right-hand side from zero, and an empty support, make the
    # first residual and every CG denominator exactly 0; a start at the LU
    # solution makes them tiny.
    rng = np.random.default_rng(21)
    c = rng.standard_normal((10, 16))
    gram = c.T @ c
    r = rng.uniform(0.1, 2.0, size=(3, 16))
    r[2] = 0.0
    rhs = rng.standard_normal((3, 16))
    rhs[0] = 0.0
    x = _solve_on_support(gram, r, rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _descend_on_support(gram, r, rhs, x)
    assert np.all(out[[0, 2]] == 0.0)
    assert np.allclose(out[1], x[1], rtol=0.0, atol=1e-12)


def test_shapes_sized_solves_never_take_cg_steps(monkeypatch):
    # At shapes2.ini's layer-1 size (p = 64, k = 72) every support is at
    # most k, below the CG threshold, so every row takes the LU solve.
    def refuse(*args):
        raise AssertionError("CG steps on a k = 72 layer")

    monkeypatch.setattr(states, "_descend_on_support", refuse)
    rng = np.random.default_rng(22)
    c = rng.standard_normal((64, 72))
    c /= np.linalg.norm(c, axis=0)
    model = LayerModel(LayerDims(64, 72, 16, (2, 2)), np.eye(72), np.zeros((72, 16)), c)
    hp = HyperParams(state_sparsity=0.25, max_inner_iter=30)
    _, traces = infer_states_batch(rng.standard_normal((4, 64)),
                                   rng.standard_normal((4, 72)), model, hp,
                                   np.full((4, 72), hp.state_sparsity))
    assert all(tr.iterations > 0 for tr in traces)
