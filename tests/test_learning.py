import numpy as np
import pytest

from mmdpcn.errors import DimensionMismatch, NonFinite
from mmdpcn.learning import (_BLOCK_ITERS, _RESTART, _THETA_PROX, FitReport,
                             LearnConfig, _sweep, fit_layer, grad_model,
                             infer_frame_variables, init_model, update_model)
from mmdpcn.linalg import column_normalize
from mmdpcn.model import (CauseVector, HyperParams, LayerDims, LayerModel,
                          pool_states, total_energy)
from mmdpcn.network import decompose_frame
from mmdpcn.shapes import generate_shapes
from mmdpcn.states import infer_states_batch


def pass_energy(a, b, c, y, x, x_prev, u, pooled, lam):
    """Independent evaluation of the model-dependent part of the objective."""
    resid = y - x @ c.T
    total = 0.5 * float(np.sum(resid * resid))
    if x_prev is not None and lam > 0:
        total += lam * float(np.abs(x - x_prev @ a.T).sum())
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
    hp = HyperParams(temporal_sparsity=0.2 if with_temporal else 0.0)
    # grad_model pools the states itself; pass_energy and the explicit
    # formulas take the same pooled magnitudes.
    pooled = pool_states(x, hp.pool_gain)
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
        da, db, dc = grad_model(y, x, x_prev, u, model, hp)
        lam = hp.temporal_sparsity
        a0, b0, c0 = model.transition, model.coupling, model.dictionary
        fd_c = finite_difference(
            lambda c: pass_energy(a0, b0, c, y, x, x_prev, u, pooled, lam), c0)
        assert rel_err(fd_c, dc) <= 1e-4
        fd_b = finite_difference(
            lambda b: pass_energy(a0, b, c0, y, x, x_prev, u, pooled, lam), b0)
        assert rel_err(fd_b, db) <= 1e-4
        if x_prev is not None:
            fd_a = finite_difference(
                lambda a: pass_energy(a, b0, c0, y, x, x_prev, u, pooled, lam), a0)
            assert rel_err(fd_a, da) <= 1e-4
        else:
            assert np.array_equal(da, np.zeros_like(a0))


def test_dictionary_gradient_zero_at_perfect_reconstruction():
    rng = np.random.default_rng(31)
    model, _, x, _, u, _, hp = random_learn_instance(rng, with_temporal=False)
    y = x @ model.dictionary.T
    _, _, dc = grad_model(y, x, None, u, model, hp)
    assert np.allclose(dc, 0.0, atol=1e-12)


def test_coupling_gradient_zero_at_zero_pool():
    # All-zero states pool to zero magnitudes.
    rng = np.random.default_rng(32)
    model, y, x, _, u, _, hp = random_learn_instance(rng, with_temporal=False)
    _, db, _ = grad_model(y, np.zeros_like(x), None, u, model, hp)
    assert np.array_equal(db, np.zeros_like(db))


@pytest.mark.parametrize("with_temporal", [True, False])
def test_grad_model_bits_equal_the_explicit_formulas(with_temporal):
    # The frame's residual and innovation come from model._state_terms,
    # the formation state_energy reads too; the gradients keep their bits.
    rng = np.random.default_rng(38)
    model, y, x, x_prev, u, pooled, hp = random_learn_instance(rng, with_temporal)
    da, db, dc = grad_model(y, x, x_prev, u, model, hp)
    a, b, c = model.transition, model.coupling, model.dictionary
    assert np.array_equal(dc, -((y - x @ c.T).T @ x))
    assert np.array_equal(db, -np.outer(pooled * np.exp(-(b @ u)), u))
    if with_temporal:
        sign = np.sign(x - x_prev @ a.T)
        assert np.array_equal(da, -hp.temporal_sparsity * (sign.T @ x_prev))
    else:
        assert np.array_equal(da, np.zeros_like(a))


def test_grad_model_rejects_a_non_finite_patch():
    rng = np.random.default_rng(39)
    model, y, x, x_prev, u, _, hp = random_learn_instance(rng)
    y[1, 2] = np.nan
    with pytest.raises(NonFinite):
        grad_model(y, x, x_prev, u, model, hp)


def test_grad_model_rejects_the_shapes_state_energy_rejects():
    rng = np.random.default_rng(39)
    model, y, x, x_prev, u, _, hp = random_learn_instance(rng)
    for args in ((y[:, :-1], x, x_prev), (y, x[:, :-1], x_prev),
                 (y, x, x_prev[:, :-1]), (y, x, x_prev[:-1])):
        with pytest.raises(DimensionMismatch):
            grad_model(*args, u, model, hp)
        with pytest.raises(DimensionMismatch):
            total_energy(*args, u, model, hp)
    # And the cause, read by model._cause_values.
    with pytest.raises(DimensionMismatch):
        grad_model(y, x, x_prev, np.ones(u.size + 1), model, hp)
    with pytest.raises(DimensionMismatch):
        total_energy(y, x, x_prev, np.ones(u.size + 1), model, hp)


def test_update_model_normalizes_coupling_and_dictionary():
    rng = np.random.default_rng(33)
    model, y, x, x_prev, u, _, hp = random_learn_instance(rng)
    grads = grad_model(y, x, x_prev, u, model, hp)
    cfg = LearnConfig(lr=0.1)
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
    # The proximity pull toward the model itself is zero too.
    new = update_model(model, zeros, LearnConfig(), model)
    assert np.allclose(new.transition, model.transition, atol=1e-12)
    assert np.allclose(new.coupling, model.coupling, atol=1e-12)
    assert np.allclose(new.dictionary, model.dictionary, atol=1e-12)


def test_update_model_step_decreases_reconstruction_error():
    rng = np.random.default_rng(35)
    model, y, x, _, u, _, hp = random_learn_instance(rng, with_temporal=False)
    grads = grad_model(y, x, None, u, model, hp)
    new = update_model(model, grads, LearnConfig(lr=1e-4), model)
    before = 0.5 * np.sum((y - x @ model.dictionary.T) ** 2)
    after = 0.5 * np.sum((y - x @ new.dictionary.T) ** 2)
    assert after < before


def test_update_model_proximity_pulls_toward_previous():
    rng = np.random.default_rng(36)
    # The pulled step ends closer to the previous model than the plain
    # gradient step theta - lr*grad, which _THETA_PROX = 0 would take.
    assert _THETA_PROX > 0
    model, y, x, x_prev, u, _, hp = random_learn_instance(rng)
    prev = LayerModel(model.dims,
                      model.transition + rng.standard_normal(model.transition.shape),
                      column_normalize(rng.standard_normal(model.coupling.shape)),
                      column_normalize(rng.standard_normal(model.dictionary.shape)))
    grads = grad_model(y, x, x_prev, u, model, hp)
    cfg = LearnConfig(lr=0.1)
    pulled = update_model(model, grads, cfg, prev)
    free = model.transition - cfg.lr * grads[0]
    d_free = np.linalg.norm(free - prev.transition)
    d_pulled = np.linalg.norm(pulled.transition - prev.transition)
    assert d_pulled < d_free


def test_fit_layer_zero_frame_keeps_model():
    dims = LayerDims(3, 5, 2, 2)
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = LearnConfig(max_outer_iter=5)
    frames = [np.zeros((2, 3))]
    model, causes, report = fit_layer(frames, dims, hp, cfg, seed=7)
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
        fit_layer([np.zeros((2, 4))], dims, HyperParams(), LearnConfig())


def test_fit_layer_energy_trace_nonincreasing():
    rng = np.random.default_rng(37)
    dims = LayerDims(4, 8, 2, 2)
    truth = column_normalize(rng.standard_normal((4, 8)))
    frames = []
    for t in range(4):
        x = rng.standard_normal((2, 8)) * (rng.random((2, 8)) < 0.3)
        frames.append(x @ truth.T + 0.01 * rng.standard_normal((2, 4)))
    hp = HyperParams(temporal_sparsity=0.05, state_sparsity=0.2)
    cfg = LearnConfig(lr=1e-2, max_outer_iter=30)
    _, _, report = fit_layer(frames, dims, hp, cfg, seed=1)
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
        frames.append(x @ truth.T + noise * rng.standard_normal((4, p)))
    hp = HyperParams(state_sparsity=0.05, temporal_sparsity=0.0,
                     inner_tol=1e-6)
    cfg = LearnConfig(lr=1e-2, max_outer_iter=40, outer_tol=1e-5)
    model, _, _ = fit_layer(frames, dims, hp, cfg, seed=2)

    solve_hp = HyperParams(state_sparsity=0.05, temporal_sparsity=0.0,
                           inner_tol=1e-8, max_inner_iter=300)
    sq_err, count = 0.0, 0
    for patches in frames:
        states, _ = infer_states_batch(
            patches, None, model, solve_hp,
            np.full(patches.shape[:1] + (k,), solve_hp.state_sparsity))
        recon = states @ model.dictionary.T
        sq_err += float(np.sum((patches - recon) ** 2))
        count += patches.size
    assert sq_err / count <= 2.0 * noise * noise


def test_interleaving_settles():
    rng = np.random.default_rng(39)
    dims = LayerDims(4, 6, 2, 2)
    model = init_model(dims, rng)
    hp = HyperParams(temporal_sparsity=0.0, inner_tol=1e-6)
    batch = 0.5 * rng.standard_normal((2, 4))
    states, cause, energy, _ = infer_frame_variables(batch, None, model, hp)

    from dataclasses import replace
    from mmdpcn.causes import infer_cause
    hp_block = replace(hp, max_inner_iter=_BLOCK_ITERS)
    for _ in range(2):
        # The weight total_energy charges the states under the last cause.
        mu = hp.state_sparsity + hp.pool_gain * (
            1.0 + np.exp(-(model.coupling @ cause.values)))
        states, _ = infer_states_batch(batch, None, model, hp_block,
                                       np.tile(mu, (2, 1)), inits=states)
        cause, _ = infer_cause(pool_states(states, hp.pool_gain), model,
                               hp_block, u_init=cause)
    settled = total_energy(batch, states, None, cause, model, hp)
    assert abs(settled - energy) < 10 * hp.inner_tol


def test_state_and_cause_blocks_never_raise_the_frame_energy(monkeypatch):
    # Each state block descends total_energy at the last cause, the exact
    # l1 of the innovation included on the second frame, whose previous
    # states are the first frame's, and each cause block descends it at the
    # new states.  The first settings are layer 1's before pool_gain was
    # scaled down, where weighting the states by state_sparsity alone
    # raised the energy; they leave no state nonzero, so the second frame
    # runs under layer 1's shipped settings as well, where they live on.
    frames = generate_shapes(frames_per_shape=1, seed=4).frames[:2]
    model = init_model(LayerDims(64, 72, 16, 4), np.random.default_rng(0))
    old = HyperParams(pool_gain=3.0, cause_sparsity=0.08, inner_tol=1e-3,
                      max_inner_iter=30)
    shipped = HyperParams(state_sparsity=0.25, pool_gain=0.03,
                          cause_sparsity=0.0008, inner_tol=1e-3,
                          max_inner_iter=30)
    energies = []

    def spy(*args):
        energies.append(total_energy(*args))
        return energies[-1]

    monkeypatch.setattr("mmdpcn.learning.total_energy", spy)
    for hp in (old, shipped):
        prev_states = None
        for frame in frames:
            energies.clear()
            prev_states, *_ = infer_frame_variables(
                decompose_frame(frame, (2, 2)), prev_states, model, hp)
            assert len(energies) > 2
            for before, after in zip(energies, energies[1:]):
                assert after <= before + 1e-12 * abs(before)
        if hp is shipped:
            assert np.count_nonzero(prev_states) > 0


SHIPPED_L1 = HyperParams(state_sparsity=0.25, temporal_sparsity=0.1,
                         pool_gain=0.03, cause_sparsity=0.0008,
                         inner_tol=1e-3, max_inner_iter=30)


def shapes_patches(seed=1):
    frames = generate_shapes(frames_per_shape=1, seed=seed).frames
    return [decompose_frame(f, (2, 2)) for f in frames]


def fit_with_starts(monkeypatch, frames, dims, hp, cfg):
    """fit_layer, recording per pass each frame's first-block inits, its
    returned states and the pass energy, and the state blocks run."""
    passes = []
    first = []
    blocks = []

    def spy_solve(*args, inits=None, **kwargs):
        blocks.append(1)
        if first:
            passes[-1]["inits"].append(None if inits is None else inits.copy())
            first.clear()
        return infer_states_batch(*args, inits=inits, **kwargs)

    def spy_settle(*args):
        if not passes or len(passes[-1]["states"]) == len(frames):
            passes.append({"inits": [], "states": [], "energy": 0.0})
        first.append(True)
        out = infer_frame_variables(*args)
        passes[-1]["states"].append(out[0])
        passes[-1]["energy"] += out[2]
        return out

    monkeypatch.setattr("mmdpcn.learning.infer_states_batch", spy_solve)
    monkeypatch.setattr("mmdpcn.learning.infer_frame_variables", spy_settle)
    _, _, report = fit_layer(frames, dims, hp, cfg)
    accepted = iter(report.energy_per_outer)
    expected = next(accepted)
    for p in passes:
        p["accepted"] = p["energy"] == expected
        if p["accepted"]:
            expected = next(accepted, None)
    assert len(passes) == report.outer_iterations
    assert report.blocks == len(blocks)
    return passes, report


def restarted(states, hp):
    return np.where(states == 0.0, _RESTART * hp.clamp_state, states)


def test_first_pass_starts_cold_and_later_passes_from_the_accepted_states(
        monkeypatch):
    frames = shapes_patches()
    dims = LayerDims(64, 72, 16, 4)
    passes, report = fit_with_starts(monkeypatch, frames, dims, SHIPPED_L1,
                                     LearnConfig(max_outer_iter=3))
    assert report.rejected_steps == 0 and len(passes) == 3
    assert passes[0]["inits"] == [None] * len(frames)
    zeros = 0
    for before, after in zip(passes, passes[1:]):
        for states, inits in zip(before["states"], after["inits"]):
            assert np.array_equal(inits, restarted(states, SHIPPED_L1))
            assert np.count_nonzero(inits) == inits.size
            zeros += np.count_nonzero(states == 0.0)
    # The restart is exercised: the accepted states have exact zeros.
    assert zeros > 0


def test_a_rejected_pass_is_never_a_start(monkeypatch):
    frames = shapes_patches()
    dims = LayerDims(64, 72, 16, 4)
    passes, report = fit_with_starts(
        monkeypatch, frames, dims, SHIPPED_L1,
        LearnConfig(lr=50.0, max_outer_iter=6))
    assert report.rejected_steps >= 1
    assert passes[0]["accepted"]
    last = passes[0]
    checked = 0
    for before, p in zip(passes, passes[1:]):
        for states, inits in zip(last["states"], p["inits"]):
            assert np.array_equal(inits, restarted(states, SHIPPED_L1))
        if not before["accepted"]:
            checked += 1
            assert not all(np.array_equal(inits, restarted(states, SHIPPED_L1))
                           for states, inits in zip(before["states"],
                                                    p["inits"]))
        if p["accepted"]:
            last = p
    assert checked >= 1


def test_first_accepted_energy_is_that_of_a_cold_sweep():
    frames = shapes_patches(seed=2)
    dims = LayerDims(64, 72, 16, 4)
    _, _, report = fit_layer(frames, dims, SHIPPED_L1,
                             LearnConfig(max_outer_iter=2), seed=3)
    model = init_model(dims, np.random.default_rng(3))
    cold = _sweep(frames, [None] * len(frames), model, SHIPPED_L1)[0]
    assert report.energy_per_outer[0] == cold
