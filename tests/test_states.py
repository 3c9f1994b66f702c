from dataclasses import replace

import numpy as np
import pytest

from mmdpcn import states as states_module
from mmdpcn.cli import _bench_model, _bench_patches
from mmdpcn.config import BenchSettings
from mmdpcn.errors import DimensionMismatch
from mmdpcn.linalg import column_normalize
from mmdpcn.model import (CauseVector, HyperParams, LayerDims, LayerModel,
                          state_energy, state_weights, total_energy)
from mmdpcn.states import _objectives, _times_rows, infer_state, infer_states_batch

from helpers import scalar_model


def random_instance(rng, p_max=16, k_max=32):
    p = int(rng.integers(2, p_max + 1))
    k = int(rng.integers(p + 1, k_max + 1))
    dims = LayerDims(p, k, 1, 1)
    model = LayerModel(dims,
                       transition=rng.standard_normal((k, k)) / np.sqrt(k),
                       coupling=np.ones((k, 1)),
                       dictionary=column_normalize(rng.standard_normal((p, k))))
    y = rng.standard_normal(p)
    return model, y


def lasso_coordinate_descent(c, y, mu, sweeps=5000, tol=1e-13):
    """Independent oracle: cyclic coordinate descent on the exact Lasso."""
    k = c.shape[1]
    x = np.zeros(k)
    col_sq = np.sum(c * c, axis=0)
    r = y.copy()
    for _ in range(sweeps):
        delta = 0.0
        for j in range(k):
            if col_sq[j] == 0:
                continue
            rho = c[:, j] @ r + col_sq[j] * x[j]
            new = np.sign(rho) * max(abs(rho) - mu, 0.0) / col_sq[j]
            if new != x[j]:
                r = r - c[:, j] * (new - x[j])
                delta = max(delta, abs(new - x[j]))
                x[j] = new
        if delta < tol:
            break
    return x


def lasso_objective(c, y, mu, x):
    r = y - c @ x
    return 0.5 * float(r @ r) + mu * float(np.abs(x).sum())


def test_scalar_first_two_iterates_pinned():
    model = scalar_model()
    y = np.array([1.0])
    init = np.array([1.0, 0.0])
    hp1 = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0, max_inner_iter=1)
    sv, tr = infer_state(y, None, model, hp1, x_init=init)
    assert abs(sv[0] - 10.0 / 13.0) < 1e-12
    assert sv[1] == 0.0
    assert tr.iterations == 1
    hp2 = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0, max_inner_iter=2)
    sv, tr = infer_state(y, None, model, hp2, x_init=init)
    assert abs(sv[0] - 10.0 / 13.9) < 1e-12
    assert abs(sv[0] - 0.7194) < 1e-4
    # A capped solve reports the stationarity residual |x - y + mu| it
    # stopped at.
    assert not tr.converged
    assert tr.final_residual > hp2.inner_tol
    assert abs(tr.final_residual - (sv[0] - 0.7)) < 1e-12


def test_scalar_converges_to_soft_threshold_fixed_point():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0,
                     inner_tol=1e-8, max_inner_iter=200)
    sv, tr = infer_state(np.array([1.0]), None, model, hp,
                         x_init=np.array([1.0, 0.0]))
    assert abs(sv[0] - 0.7) < 1e-6
    assert tr.converged
    assert tr.final_residual <= hp.inner_tol


def test_zero_measurement_collapses_in_one_iteration():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0)
    sv, tr = infer_state(np.zeros(1), None, model, hp)
    assert np.array_equal(sv, np.zeros(2))
    assert tr.iterations == 1
    assert tr.converged


def test_matches_coordinate_descent_lasso_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        model, y = random_instance(rng)
        mu = float(rng.uniform(0.1, 0.5))
        hp = HyperParams(state_sparsity=mu, temporal_sparsity=0.0,
                         clamp_state=1e-6, inner_tol=1e-10,
                         max_inner_iter=3000)
        sv, _ = infer_state(y, None, model, hp)
        x_cd = lasso_coordinate_descent(model.dictionary, y, mu)
        f_mm = lasso_objective(model.dictionary, y, mu, sv)
        f_cd = lasso_objective(model.dictionary, y, mu, x_cd)
        assert f_mm - f_cd <= 1e-5
        assert f_mm - f_cd >= -1e-7


def test_objective_trace_monotone():
    # Reduced-count version of the formal nonincrease check; the acceptance
    # suite runs the full instance count.
    rng = np.random.default_rng(11)
    for i in range(150):
        model, y = random_instance(rng)
        lam = float(rng.uniform(0.0, 0.4)) if i % 2 else 0.0
        x_prev = rng.standard_normal(model.dims.state_dim) if lam > 0 else None
        hp = HyperParams(state_sparsity=float(rng.uniform(0.1, 0.5)),
                         temporal_sparsity=lam,
                         clamp_state=float(rng.choice([1e-6, 1e-4, 1e-2])),
                         max_inner_iter=60)
        _, tr = infer_state(y, x_prev, model, hp)
        obj = np.asarray(tr.objective_per_iter)
        assert np.all(np.diff(obj) <= 1e-9)


def test_zero_components_are_absorbing():
    rng = np.random.default_rng(12)
    for _ in range(25):
        model, y = random_instance(rng)
        k = model.dims.state_dim
        init = 0.1 * np.ones(k)
        dead = rng.choice(k, size=3, replace=False)
        init[dead] = 0.0
        sv, _ = infer_state(y, None, model, HyperParams(temporal_sparsity=0.0),
                            x_init=init)
        assert np.array_equal(sv[dead], np.zeros(3))


def test_reaches_one_percent_of_final_quickly():
    # Mildly overcomplete instances, the regime the speed claim is about;
    # tiny patches with 10x overcompleteness can legitimately take longer.
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = int(rng.integers(32, 65))
        k = int(round(p * float(rng.uniform(1.2, 1.6))))
        dims = LayerDims(p, k, 1, 1)
        model = LayerModel(dims, np.eye(k), np.ones((k, 1)),
                           column_normalize(rng.standard_normal((p, k))))
        y = rng.standard_normal(p)
        hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0,
                         inner_tol=1e-10, max_inner_iter=300)
        _, tr = infer_state(y, None, model, hp)
        obj = np.asarray(tr.objective_per_iter)
        final = obj[-1]
        hit = int(np.argmax(obj <= 1.01 * final))
        assert hit <= 15


def flat(hp, n, k):
    """The weights infer_state solves under: state_sparsity everywhere."""
    return np.full((n, k), hp.state_sparsity)


def test_batch_equals_sequential():
    rng = np.random.default_rng(14)
    model, _ = random_instance(rng)
    p, k = model.dims.input_dim, model.dims.state_dim
    patches = rng.standard_normal((4, p))
    prev = np.array([rng.standard_normal(k) for _ in range(4)])
    hp = HyperParams()
    batch_states, batch_traces = infer_states_batch(
        patches, prev, model, hp, flat(hp, 4, k))
    solo = [infer_state(patches[i], prev[i], model, hp) for i in range(4)]
    # One (patch, state) array, bit for bit the stacked solo solves.
    assert isinstance(batch_states, np.ndarray)
    assert batch_states.shape == (4, k)
    assert batch_states.tobytes() == np.stack([sv for sv, _ in solo]).tobytes()
    for i, (_, tr) in enumerate(solo):
        assert batch_traces[i].objective_per_iter == tr.objective_per_iter
    # The terminal clamp leaves no value under the threshold but zero.
    live = batch_states[batch_states != 0.0]
    assert np.all(np.abs(live) >= hp.clamp_state)


def _assert_same_solve(batch_sv, batch_tr, sv, tr):
    assert np.array_equal(batch_sv, sv)
    assert batch_tr.objective_per_iter == tr.objective_per_iter
    assert batch_tr.iterations == tr.iterations
    assert batch_tr.converged == tr.converged
    assert batch_tr.final_residual == tr.final_residual


@pytest.mark.parametrize("temporal", [0.0, 0.2])
@pytest.mark.parametrize("with_inits", [False, True])
def test_batch_patches_stop_independently_and_match_solo_solves(temporal, with_inits):
    rng = np.random.default_rng(15)
    model, _ = random_instance(rng, p_max=12, k_max=20)
    p, k = model.dims.input_dim, model.dims.state_dim
    patches = rng.standard_normal((5, p))
    prev = [rng.standard_normal(k) for _ in range(5)]
    # An all-zero patch with nothing predicted for it converges within a few
    # updates while the others run on to the cap.
    patches[2] = 0.0
    prev[2] = np.zeros(k)
    inits = None
    if with_inits:
        inits = [rng.standard_normal(k) * (rng.random(k) < 0.7) for _ in range(5)]
    # A large clamp threshold makes the guarded clamp fire along the way.
    hp = HyperParams(state_sparsity=0.2, temporal_sparsity=temporal,
                     clamp_state=3e-2, inner_tol=1e-9, max_inner_iter=40)
    batch_states, batch_traces = infer_states_batch(
        patches, prev, model, hp, flat(hp, 5, k), inits=inits)
    solo = [infer_state(patches[i], prev[i], model, hp,
                        None if inits is None else inits[i])
            for i in range(5)]
    for i, (sv, tr) in enumerate(solo):
        _assert_same_solve(batch_states[i], batch_traces[i], sv, tr)
    iterations = [tr.iterations for _, tr in solo]
    assert solo[2][1].converged and iterations[2] < 10
    assert any(not tr.converged for _, tr in solo)
    assert max(iterations) == hp.max_inner_iter
    # The guarded clamp fires along the way: it is the only way clamp_state
    # acts before the terminal clamp, so without it some solo trace changes.
    no_clamp = replace(hp, clamp_state=0.0)
    assert any(infer_state(patches[i], prev[i], model, no_clamp,
                           None if inits is None else inits[i])[1].objective_per_iter
               != tr.objective_per_iter for i, (_, tr) in enumerate(solo))


def test_one_patch_and_empty_batches():
    rng = np.random.default_rng(16)
    model, y = random_instance(rng)
    x_prev = rng.standard_normal(model.dims.state_dim)
    hp = HyperParams(max_inner_iter=25)
    k = model.dims.state_dim
    states, traces = infer_states_batch(y[None, :], x_prev[None, :], model, hp,
                                        flat(hp, 1, k))
    sv, tr = infer_state(y, x_prev, model, hp)
    assert states.shape == (1, model.dims.state_dim) and len(traces) == 1
    _assert_same_solve(states[0], traces[0], sv, tr)
    empty = np.zeros((0, model.dims.input_dim))
    none = np.zeros((0, k))
    for states, traces in (infer_states_batch(empty, None, model, hp, none),
                           infer_states_batch(empty, none, model, hp, none,
                                              inits=none)):
        assert states.shape == none.shape and traces == []


def test_batch_wall_time_is_an_equal_share():
    rng = np.random.default_rng(17)
    model, _ = random_instance(rng)
    patches = rng.standard_normal((3, model.dims.input_dim))
    hp = HyperParams()
    _, traces = infer_states_batch(patches, None, model, hp,
                                   flat(hp, 3, model.dims.state_dim))
    assert traces[0].wall_time > 0
    assert all(tr.wall_time == traces[0].wall_time for tr in traces)


def test_trace_bookkeeping():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0, max_inner_iter=7, inner_tol=1e-300)
    _, tr = infer_state(np.array([1.0]), None, model, hp)
    assert tr.iterations == 7
    assert len(tr.objective_per_iter) == 8
    assert not tr.converged
    assert tr.wall_time > 0


def test_dimension_errors():
    model = scalar_model()
    hp = HyperParams()
    with pytest.raises(DimensionMismatch):
        infer_state(np.ones(2), None, model, hp)
    with pytest.raises(DimensionMismatch):
        infer_state(np.ones(1), None, model, hp, x_init=np.ones(3))
    with pytest.raises(DimensionMismatch):
        infer_states_batch(np.ones((2, 1)), np.ones((1, 2)), model, hp,
                           flat(hp, 2, 2))
    with pytest.raises(DimensionMismatch):
        infer_states_batch(np.ones((2, 2)), None, model, hp, flat(hp, 2, 2))
    with pytest.raises(DimensionMismatch):
        infer_states_batch(np.ones((2, 1)), None, model, hp, np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        infer_states_batch(np.ones((2, 1)), None, model, hp, [[0.3, 0.3], [0.3, 0.0]])


def test_previous_state_of_wrong_length_is_rejected():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.1)
    with pytest.raises(DimensionMismatch):
        infer_state(np.ones(1), np.ones(3), model, hp)
    with pytest.raises(DimensionMismatch):
        infer_states_batch(np.ones((2, 1)), np.ones((2, 3)), model, hp,
                           flat(hp, 2, 2))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [1, 5])
def test_stacked_products_round_like_one_product_per_row(n):
    # The kernel's stacked matmuls must give exactly the per-row products of
    # a solve on its own, for the dictionary and for its transposed view.
    rng = np.random.default_rng(18)
    c = rng.standard_normal((23, 41))
    for m in (c, c.T):
        rows = rng.standard_normal((n, m.shape[1]))
        expected = np.stack([m @ row for row in rows])
        assert np.array_equal(_bits(_times_rows(m, rows)), _bits(expected))
    residual = rng.standard_normal((n, 23))
    mag = np.abs(rng.standard_normal((n, 41)))
    mu = 0.3 + rng.random((n, 41))
    got = _objectives(residual, mag, None, mu, 0.0)
    expected = np.array([0.5 * (r @ r) + (w * a).sum()
                         for r, a, w in zip(residual, mag, mu)])
    assert np.array_equal(_bits(got), _bits(expected))


def test_weighted_rows_sum_to_total_energy():
    # Weighted by state_weights of a cause, the rows' last objectives add
    # up to total_energy at that cause, less its cause penalty: on a first
    # frame, and on a later one, where the rows record the exact l1 of the
    # innovation that total_energy charges.  No clamp, so each last
    # objective is that of the returned row.
    rng = np.random.default_rng(50)
    dims = LayerDims(input_dim=6, state_dim=9, cause_dim=3, patch_count=4)
    model = LayerModel(dims,
                       transition=np.eye(9),
                       coupling=column_normalize(rng.standard_normal((9, 3))),
                       dictionary=column_normalize(rng.standard_normal((6, 9))))
    hp = HyperParams(temporal_sparsity=0.0, clamp_state=0.0, pool_gain=0.5,
                     cause_sparsity=0.2, inner_tol=1e-8, max_inner_iter=7)
    patches = rng.standard_normal((4, 6))
    cause = CauseVector(np.array([0.4, 0.0, 1.3]))
    weights = state_weights(model, [cause], 4, hp)
    later = (rng.standard_normal((4, 9)), replace(hp, temporal_sparsity=0.1))
    for prev, frame_hp in ((None, hp), later):
        states, traces = infer_states_batch(patches, prev, model, frame_hp,
                                            weights)
        assert np.count_nonzero(states) > 0
        total = total_energy(patches, states, prev, cause, model, frame_hp)
        rows = sum(tr.objective_per_iter[-1] for tr in traces)
        rows += hp.cause_sparsity * np.abs(cause.values).sum()
        assert abs(rows - total) <= 1e-12 * abs(total)


def test_exactly_zero_innovation_is_held_at_its_prediction():
    # Started at x_k = (A x_prev)_k on live components, the innovation is
    # exactly zero there, where the quadratic bound of |e_k| has infinite
    # curvature.  Those components keep their prediction, the states stay
    # finite, the trace never rises and ends at the state energy, and each
    # row is still the solve of that row alone.
    rng = np.random.default_rng(23)
    model, _ = random_instance(rng, p_max=12, k_max=20)
    p, k = model.dims.input_dim, model.dims.state_dim
    patches = rng.standard_normal((3, p))
    prev = rng.standard_normal((3, k))
    prediction = _times_rows(model.transition, prev)
    inits = np.full((3, k), 0.1)
    held = rng.random((3, k)) < 0.5
    held[2] = False
    inits[held] = prediction[held]
    hp = HyperParams(state_sparsity=0.2, temporal_sparsity=0.3,
                     clamp_state=0.0, inner_tol=1e-9, max_inner_iter=30)
    states, traces = infer_states_batch(patches, prev, model, hp,
                                        flat(hp, 3, k), inits=inits)
    assert np.isfinite(states).all()
    assert np.array_equal(states[held], prediction[held])
    for i, tr in enumerate(traces):
        obj = np.asarray(tr.objective_per_iter)
        assert np.all(np.diff(obj) <= 1e-12 * abs(obj[0]))
        energy = state_energy(patches[i:i + 1], states[i:i + 1],
                              prev[i:i + 1], model, hp)
        assert abs(obj[-1] - energy) <= 1e-12 * abs(energy)
        _assert_same_solve(states[i], tr,
                           *infer_state(patches[i], prev[i], model, hp,
                                        inits[i]))


@pytest.mark.parametrize("temporal", [0.0, 0.1])
def test_large_supports_descend_keep_zeros_and_match_solo_solves(temporal,
                                                                 monkeypatch):
    # The solver-bench scale, k = 300: rows that start on full or nearly
    # full supports take CG steps, and a row started on 60 components takes
    # the LU solve, in the same batch.  At a sparsity weight this low the
    # supports stay large while the iterates settle, so CG steps started
    # anywhere but the current iterate would let some objective rise.
    settings = BenchSettings(patch_count=4)
    rng = np.random.default_rng(19)
    model = _bench_model(settings, rng)
    patches = _bench_patches(settings, model, rng)
    k = settings.state_dim
    prev = rng.standard_normal((4, k))
    inits = np.full((4, k), 0.1)
    dead = rng.random((4, k)) < 0.1
    inits[dead] = 0.0
    inits[1] = 0.0
    inits[1, rng.choice(k, size=60, replace=False)] = 0.1
    hp = HyperParams(state_sparsity=0.05, temporal_sparsity=temporal,
                     inner_tol=1e-9, max_inner_iter=30)
    cg_rows = []
    descend = states_module._descend_on_support

    def counted(gram, r, rhs, x):
        cg_rows.append(r.shape[0])
        return descend(gram, r, rhs, x)

    monkeypatch.setattr(states_module, "_descend_on_support", counted)
    batch_states, batch_traces = infer_states_batch(
        patches, prev, model, hp, flat(hp, 4, k), inits=inits)
    # Three rows took CG steps together and the sparse row did not.
    assert cg_rows[0] == 3
    for tr in batch_traces:
        assert np.all(np.diff(tr.objective_per_iter) <= 1e-9)
    assert np.all(batch_states[inits == 0.0] == 0.0)
    for i in range(4):
        sv, tr = infer_state(patches[i], prev[i], model, hp, inits[i])
        _assert_same_solve(batch_states[i], batch_traces[i], sv, tr)
