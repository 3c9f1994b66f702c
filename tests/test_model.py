import math

import numpy as np
import pytest

from mmdpcn.errors import DimensionMismatch
from mmdpcn.model import (CAUSE_INIT, HyperParams, LayerDims, LayerModel,
                          cause_energy, pool_states, state_energy,
                          state_weights, total_energy)

from helpers import scalar_model


def scalar_hp(**kw):
    base = dict(state_sparsity=0.3, temporal_sparsity=0.0, pool_gain=0.1,
                cause_sparsity=0.3)
    base.update(kw)
    return HyperParams(**base)


def random_model(rng, p=None, k=None, d=None, grid=(1, 1)):
    p = p or int(rng.integers(2, 9))
    k = k or p + int(rng.integers(1, 9))
    d = d or int(rng.integers(1, 6))
    dims = LayerDims(p, k, d, grid)
    return LayerModel(dims,
                      transition=rng.standard_normal((k, k)) / np.sqrt(k),
                      coupling=rng.standard_normal((k, d)),
                      dictionary=rng.standard_normal((p, k)) / np.sqrt(p))


def test_state_energy_hand_value():
    model = scalar_model()
    hp = scalar_hp()
    batch = np.array([[1.0]])
    e = state_energy(batch, [np.array([0.7, 0.0])], None, model, hp)
    assert abs(e - 0.255) < 1e-12


def test_state_energy_temporal_term():
    model = scalar_model()
    hp = scalar_hp(temporal_sparsity=0.2)
    batch = np.array([[1.0]])
    x = [np.array([0.7, 0.0])]
    x_prev = [np.array([0.4, 0.0])]
    base = state_energy(batch, x, None, model, hp)
    with_temporal = state_energy(batch, x, x_prev, model, hp)
    assert abs(with_temporal - base - 0.2 * 0.3) < 1e-12


def test_state_energy_prev_none_drops_temporal():
    model = scalar_model()
    hp = scalar_hp(temporal_sparsity=0.5)
    batch = np.array([[1.0]])
    x = [np.array([0.7, 0.0])]
    assert state_energy(batch, x, None, model, hp) == pytest.approx(0.255)


def test_cause_energy_hand_values():
    model = scalar_model()
    hp = scalar_hp()
    pooled = np.array([1.0, 0.0])
    at_zero = cause_energy(np.array([0.0]), pooled, model, hp)
    assert abs(at_zero - 2.0) < 1e-12
    u_star = math.log(10.0 / 3.0)
    at_star = cause_energy(np.array([u_star]), pooled, model, hp)
    assert abs(at_star - (1.3 + 0.3 * u_star)) < 1e-12
    assert abs(at_star - 1.6612) < 1e-4


def test_total_energy_hand_value():
    model = scalar_model()
    hp = scalar_hp()
    batch = np.array([[1.0]])
    # state_energy's 0.255, plus the pooled 0.1 * 0.7 times 1 + exp(0).
    e = total_energy(batch, [np.array([0.7, 0.0])], None,
                     np.array([0.0]), model, hp)
    assert abs(e - 0.395) < 1e-12


def test_cause_energy_convex_in_cause():
    # Midpoint convexity on random segments: the pooled exponential sum and
    # the l1 term are both convex, so their sum must be.
    rng = np.random.default_rng(1)
    for _ in range(500):
        model = random_model(rng)
        hp = HyperParams()
        pooled = rng.uniform(0.0, 2.0, model.dims.state_dim)
        a = rng.standard_normal(model.dims.cause_dim) * 2
        b = rng.standard_normal(model.dims.cause_dim) * 2
        mid = cause_energy(0.5 * (a + b), pooled, model, hp)
        avg = 0.5 * (cause_energy(a, pooled, model, hp)
                     + cause_energy(b, pooled, model, hp))
        assert mid <= avg + 1e-12


def test_state_energy_convex_in_state():
    rng = np.random.default_rng(2)
    for _ in range(200):
        model = random_model(rng, grid=(1, 2))
        hp = HyperParams(temporal_sparsity=0.2)
        k = model.dims.state_dim
        batch = rng.standard_normal((2, model.dims.input_dim))
        x_prev = rng.standard_normal((2, k))
        a = rng.standard_normal((2, k))
        b = rng.standard_normal((2, k))
        mid = state_energy(batch, 0.5 * (a + b), x_prev, model, hp)
        avg = 0.5 * (state_energy(batch, a, x_prev, model, hp)
                     + state_energy(batch, b, x_prev, model, hp))
        assert mid <= avg + 1e-12


def test_topdown_cause_energy_adds_quadratic_pull():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    hp = HyperParams()
    d = model.dims.cause_dim
    pooled = rng.uniform(0.0, 1.0, model.dims.state_dim)
    u = rng.standard_normal(d)
    u_hat = rng.standard_normal(d)
    plain = cause_energy(u, pooled, model, hp)
    td = cause_energy(u, pooled, model, hp, preference=u_hat)
    assert abs(td - plain - 0.5 * float((u - u_hat) @ (u - u_hat))) < 1e-12


def test_pool_folds_gain_and_sums_magnitudes():
    states = np.array([[0.5, -2.0, 0.0], [-1.5, 1.0, 0.0]])
    pooled = pool_states(states, pool_gain=0.1)
    assert np.allclose(pooled, [0.2, 0.3, 0.0])


def test_no_cause_weighs_states_at_the_cause_init_start():
    rng = np.random.default_rng(18)
    for _ in range(10):
        model = random_model(rng)
        hp = HyperParams()
        start = np.full(model.dims.cause_dim, CAUSE_INIT)
        assert state_weights(model, [None], 3, hp).tobytes() == \
            state_weights(model, [start], 3, hp).tobytes()


def test_pooled_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        cause_energy(np.zeros(1), np.array([-0.1, 0.0]), scalar_model(),
                     scalar_hp())


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(state_sparsity=0.0)
    with pytest.raises(ValueError):
        HyperParams(cause_sparsity=-1.0)
    with pytest.raises(ValueError):
        HyperParams(temporal_sparsity=-0.1)
    with pytest.raises(ValueError):
        HyperParams(pool_gain=0.0)
    with pytest.raises(ValueError):
        HyperParams(clamp_state=-1e-4)
    with pytest.raises(ValueError):
        HyperParams(inner_tol=0.0)
    with pytest.raises(ValueError):
        HyperParams(max_inner_iter=0)
    # Comparisons with NaN are false, so NaN and infinities need their own
    # check.
    for name in ("state_sparsity", "pool_gain", "temporal_sparsity",
                 "inner_tol", "max_inner_iter"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                HyperParams(**{name: value})
    # temporal sparsity of zero is a legal static-image setting
    HyperParams(temporal_sparsity=0.0)


def test_layer_dims_requires_overcomplete_code():
    with pytest.raises(ValueError):
        LayerDims(input_dim=4, state_dim=4, cause_dim=1)
    with pytest.raises(ValueError):
        LayerDims(input_dim=0, state_dim=4, cause_dim=1)
    LayerDims(input_dim=4, state_dim=5, cause_dim=1)


def test_layer_dims_grid_is_a_pair_of_positive_ints():
    dims = LayerDims(4, 5, 1, (1, 3))
    assert dims.patch_count == 3
    assert LayerDims(4, 5, 1).grid == (1, 1)
    for grid, message in ((4, "pair of ints"), ((4,), "pair of ints"),
                          ((2, 2.0), "pair of ints"), ((0, 2), "positive"),
                          ((2, -1), "positive")):
        with pytest.raises(ValueError, match=message):
            LayerDims(4, 5, 1, grid)


def test_layer_model_shape_checks():
    dims = LayerDims(2, 4, 3)
    good = dict(transition=np.eye(4), coupling=np.ones((4, 3)),
                dictionary=np.ones((2, 4)))
    LayerModel(dims, **good)
    for key, bad in [("transition", np.eye(3)),
                     ("coupling", np.ones((3, 3))),
                     ("dictionary", np.ones((2, 5)))]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(DimensionMismatch):
            LayerModel(dims, **kw)


def test_energy_dimension_errors():
    model = scalar_model()
    hp = scalar_hp()
    with pytest.raises(DimensionMismatch):
        state_energy(np.ones((1, 1)), np.ones((2, 2)), None, model, hp)
    with pytest.raises(DimensionMismatch):
        cause_energy(np.ones(2), np.ones(2), model, hp)
    with pytest.raises(DimensionMismatch):
        cause_energy(np.ones(1), np.ones(2), model, hp,
                     preference=np.ones(3))
