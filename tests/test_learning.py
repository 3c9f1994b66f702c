import numpy as np
import pytest

from mmdpcn.learning import (FitReport, LearnConfig, fit_layer, grad_model,
                             infer_frame_variables, init_model, update_model)
from mmdpcn.linalg import column_normalize
from mmdpcn.majorize import smooth_l1
from mmdpcn.model import (CauseVector, HyperParams, LayerDims, LayerModel,
                          PatchBatch, PooledStateMagnitude, total_energy)
from mmdpcn.states import infer_states_batch


def pass_energy(a, b, c, y, x, x_prev, u, pooled, lam, margin):
    """Independent evaluation of the model-dependent part of the objective."""
    resid = y - x @ c.T
    total = 0.5 * float(np.sum(resid * resid))
    if x_prev is not None and lam > 0:
        total += lam * smooth_l1((x - x_prev @ a.T).ravel(), margin)
    total += float(pooled @ (1.0 + np.exp(-(b @ u))))
    return total


def random_learn_instance(rng, with_temporal=True):
    p, k, d, n = 3, 5, 2, 3
    dims = LayerDims(p, k, d, n)
    model = LayerModel(dims,
                       transition=rng.standard_normal((k, k)) / np.sqrt(k),
                       coupling=column_normalize(rng.standard_normal((k, d))),
                       dictionary=column_normalize(rng.standard_normal((p, k))))
    y = rng.standard_normal((n, p))
    x = rng.standard_normal((n, k))
    x_prev = rng.standard_normal((n, k)) if with_temporal else None
    u = rng.standard_normal(d)
    pooled = PooledStateMagnitude(rng.uniform(0.1, 1.0, k))
    hp = HyperParams(temporal_sparsity=0.2 if with_temporal else 0.0)
    return model, y, x, x_prev, u, pooled, hp


def finite_difference(f, mat, h=1e-6):
    out = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        bump = np.zeros_like(mat)
        bump[idx] = h
        out[idx] = (f(mat + bump) - f(mat - bump)) / (2 * h)
    return out


def rel_err(fd, an):
    return np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-8)


def test_gradients_match_finite_differences():
    # Reduced-count version of the keystone check; the acceptance suite
    # runs the full instance count.
    rng = np.random.default_rng(30)
    for i in range(40):
        model, y, x, x_prev, u, pooled, hp = random_learn_instance(
            rng, with_temporal=bool(i % 2))
        da, db, dc = grad_model(PatchBatch(0, y), x, x_prev, u, pooled, model, hp)
        lam, m = hp.temporal_sparsity, hp.smooth_margin
        a0, b0, c0 = model.transition, model.coupling, model.dictionary
        fd_c = finite_difference(
            lambda c: pass_energy(a0, b0, c, y, x, x_prev, u, pooled.values, lam, m), c0)
        assert rel_err(fd_c, dc) <= 1e-4
        fd_b = finite_difference(
            lambda b: pass_energy(a0, b, c0, y, x, x_prev, u, pooled.values, lam, m), b0)
        assert rel_err(fd_b, db) <= 1e-4
        if x_prev is not None:
            fd_a = finite_difference(
                lambda a: pass_energy(a, b0, c0, y, x, x_prev, u, pooled.values, lam, m), a0)
            assert rel_err(fd_a, da) <= 1e-4
        else:
            assert np.array_equal(da, np.zeros_like(a0))


def test_dictionary_gradient_zero_at_perfect_reconstruction():
    rng = np.random.default_rng(31)
    model, _, x, _, u, pooled, hp = random_learn_instance(rng, with_temporal=False)
    y = x @ model.dictionary.T
    _, _, dc = grad_model(PatchBatch(0, y), x, None, u, pooled, model, hp)
    assert np.allclose(dc, 0.0, atol=1e-12)


def test_coupling_gradient_zero_at_zero_pool():
    rng = np.random.default_rng(32)
    model, y, x, _, u, _, hp = random_learn_instance(rng, with_temporal=False)
    pooled = PooledStateMagnitude(np.zeros(model.dims.state_dim))
    _, db, _ = grad_model(PatchBatch(0, y), x, None, u, pooled, model, hp)
    assert np.array_equal(db, np.zeros_like(db))


def test_update_model_normalizes_coupling_and_dictionary():
    rng = np.random.default_rng(33)
    model, y, x, x_prev, u, pooled, hp = random_learn_instance(rng)
    grads = grad_model(PatchBatch(0, y), x, x_prev, u, pooled, model, hp)
    cfg = LearnConfig(lr_a=0.1, lr_b=0.1, lr_c=0.1)
    new = update_model(model, grads, cfg, model)
    assert np.allclose(np.linalg.norm(new.coupling, axis=0), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(new.dictionary, axis=0), 1.0, atol=1e-12)
    # The transition is deliberately left unnormalized: it carries the raw step.
    expected_a = model.transition - 0.1 * grads[0]
    assert np.allclose(new.transition, expected_a, atol=1e-15)


def test_update_model_zero_gradients_is_identity():
    rng = np.random.default_rng(34)
    model, *_ = random_learn_instance(rng)
    zeros = (np.zeros_like(model.transition), np.zeros_like(model.coupling),
             np.zeros_like(model.dictionary))
    new = update_model(model, zeros, LearnConfig(theta_prox=0.0), model)
    assert np.allclose(new.transition, model.transition, atol=1e-12)
    assert np.allclose(new.coupling, model.coupling, atol=1e-12)
    assert np.allclose(new.dictionary, model.dictionary, atol=1e-12)
    # With a proximity pull toward itself the step is still zero.
    new = update_model(model, zeros, LearnConfig(theta_prox=5.0), model)
    assert np.allclose(new.dictionary, model.dictionary, atol=1e-12)


def test_update_model_step_decreases_reconstruction_error():
    rng = np.random.default_rng(35)
    model, y, x, _, u, pooled, hp = random_learn_instance(rng, with_temporal=False)
    grads = grad_model(PatchBatch(0, y), x, None, u, pooled, model, hp)
    cfg = LearnConfig(lr_c=1e-4, theta_prox=0.0)
    new = update_model(model, grads, cfg, model)
    before = 0.5 * np.sum((y - x @ model.dictionary.T) ** 2)
    after = 0.5 * np.sum((y - x @ new.dictionary.T) ** 2)
    assert after < before


def test_update_model_proximity_pulls_toward_previous():
    rng = np.random.default_rng(36)
    model, y, x, x_prev, u, pooled, hp = random_learn_instance(rng)
    prev = LayerModel(model.dims,
                      model.transition + rng.standard_normal(model.transition.shape),
                      column_normalize(rng.standard_normal(model.coupling.shape)),
                      column_normalize(rng.standard_normal(model.dictionary.shape)))
    grads = grad_model(PatchBatch(0, y), x, x_prev, u, pooled, model, hp)
    free = update_model(model, grads, LearnConfig(theta_prox=0.0), prev)
    pulled = update_model(model, grads, LearnConfig(theta_prox=10.0), prev)
    d_free = np.linalg.norm(free.transition - prev.transition)
    d_pulled = np.linalg.norm(pulled.transition - prev.transition)
    assert d_pulled < d_free


def test_fit_layer_zero_frame_keeps_model():
    dims = LayerDims(3, 5, 2, 2)
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = LearnConfig(max_outer_iter=5, seed=7)
    frames = [PatchBatch(0, np.zeros((2, 3)))]
    model, causes, report = fit_layer(frames, dims, hp, cfg)
    reference = init_model(dims, np.random.default_rng(7))
    assert np.allclose(model.transition, reference.transition, atol=1e-12)
    assert np.allclose(model.coupling, reference.coupling, atol=1e-12)
    assert np.allclose(model.dictionary, reference.dictionary, atol=1e-12)
    assert np.array_equal(causes[0].values, np.zeros(2))
    assert report.converged


def test_fit_layer_rejects_bad_frames():
    dims = LayerDims(3, 5, 2, 2)
    with pytest.raises(ValueError):
        fit_layer([], dims, HyperParams(), LearnConfig())
    from mmdpcn.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        fit_layer([PatchBatch(0, np.zeros((2, 4)))], dims, HyperParams(),
                  LearnConfig())


def test_fit_layer_energy_trace_nonincreasing():
    rng = np.random.default_rng(37)
    dims = LayerDims(4, 8, 2, 2)
    truth = column_normalize(rng.standard_normal((4, 8)))
    frames = []
    for t in range(4):
        x = rng.standard_normal((2, 8)) * (rng.random((2, 8)) < 0.3)
        frames.append(PatchBatch(t, x @ truth.T + 0.01 * rng.standard_normal((2, 4))))
    hp = HyperParams(temporal_sparsity=0.05, state_sparsity=0.2)
    cfg = LearnConfig(lr_a=1e-2, lr_b=1e-2, lr_c=1e-2, max_outer_iter=30, seed=1)
    _, _, report = fit_layer(frames, dims, hp, cfg)
    energies = np.asarray(report.energy_per_outer)
    assert energies.size >= 2
    assert np.all(np.diff(energies) <= 1e-6 * np.maximum(1.0, np.abs(energies[:-1])))
    assert isinstance(report, FitReport)


def test_fit_layer_recovers_generative_dictionary():
    # Data from a known sparse generator: the fitted dictionary must
    # reconstruct held-in frames down to about the injected noise power.
    rng = np.random.default_rng(38)
    p, k, noise = 16, 24, 0.05
    truth = column_normalize(rng.standard_normal((p, k)))
    dims = LayerDims(p, k, 3, 4)
    frames = []
    for t in range(12):
        x = rng.standard_normal((4, k)) * (rng.random((4, k)) < 0.2)
        frames.append(PatchBatch(t, x @ truth.T + noise * rng.standard_normal((4, p))))
    hp = HyperParams(state_sparsity=0.05, temporal_sparsity=0.0,
                     inner_tol=1e-6)
    cfg = LearnConfig(lr_a=1e-2, lr_b=1e-2, lr_c=1e-2,
                      max_outer_iter=40, outer_tol=1e-5, seed=2)
    model, _, _ = fit_layer(frames, dims, hp, cfg)

    solve_hp = HyperParams(state_sparsity=0.05, temporal_sparsity=0.0,
                           inner_tol=1e-8, max_inner_iter=300)
    sq_err, count = 0.0, 0
    for batch in frames:
        states, _ = infer_states_batch(batch, None, model, solve_hp)
        recon = states @ model.dictionary.T
        sq_err += float(np.sum((batch.patches - recon) ** 2))
        count += batch.patches.size
    assert sq_err / count <= 2.0 * noise * noise


def test_interleaving_settles():
    rng = np.random.default_rng(39)
    dims = LayerDims(4, 6, 2, 2)
    model = init_model(dims, rng)
    hp = HyperParams(temporal_sparsity=0.0, inner_tol=1e-6)
    batch = PatchBatch(0, 0.5 * rng.standard_normal((2, 4)))
    states, cause, pooled, energy = infer_frame_variables(batch, None, model, hp)

    from dataclasses import replace
    from mmdpcn.causes import infer_cause
    hp_states = replace(hp, max_inner_iter=hp.state_passes)
    hp_causes = replace(hp, max_inner_iter=hp.cause_passes)
    for _ in range(2):
        states, _ = infer_states_batch(batch, None, model, hp_states, inits=states)
        pooled = PooledStateMagnitude.pool(states, hp.pool_gain)
        cause, _ = infer_cause(pooled, model, hp_causes, u_init=cause)
    settled = total_energy(batch, states, None, cause, pooled, model, hp)
    assert abs(settled - energy) < 10 * hp.inner_tol
