import dataclasses

import numpy as np
import pytest

from mmdpcn.baselines import (BaselineConfig, adam_solve, fista_solve,
                              ista_solve, state_objective)
from mmdpcn.errors import NonFinite
from mmdpcn.linalg import column_normalize
from mmdpcn.model import HyperParams, LayerDims, LayerModel
from mmdpcn.states import infer_state

from helpers import scalar_model


def lipschitz_step(model):
    """The standard 1/L step for the smooth part of the state objective."""
    return 1.0 / float(np.linalg.norm(model.dictionary, 2)) ** 2


def random_instance(rng, p_max=10, k_max=16):
    p = int(rng.integers(2, p_max + 1))
    k = int(rng.integers(p + 1, k_max + 1))
    dims = LayerDims(p, k, 1, 1)
    model = LayerModel(dims,
                       transition=rng.standard_normal((k, k)) / np.sqrt(k),
                       coupling=np.ones((k, 1)),
                       dictionary=column_normalize(rng.standard_normal((p, k))))
    return model, rng.standard_normal(p)


def test_config_validation():
    BaselineConfig()
    with pytest.raises(ValueError):
        BaselineConfig(step=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(max_iter=0)
    with pytest.raises(ValueError):
        BaselineConfig(tol=-1.0)
    for bad in ({"step": float("nan")}, {"tol": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            BaselineConfig(**bad)


SOLVERS = {"ista": ista_solve, "fista": fista_solve, "adam": adam_solve}


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("temporal", [0.0, 0.2])
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_trace_records_the_yardstick_of_the_returned_state(method, temporal, max_iter):
    rng = np.random.default_rng(45)
    model, y = random_instance(rng)
    # Adam moves each component by about step per update, so this clamp
    # zeroes some of its returned components.
    hp = HyperParams(state_sparsity=0.2, temporal_sparsity=temporal,
                     clamp_state=0.15)
    cfg = BaselineConfig(step=0.1, max_iter=max_iter)
    (sv,), (tr,) = SOLVERS[method](y[None], model, hp, cfg)
    assert tr.iterations == max_iter
    assert len(tr.objective_per_iter) == tr.iterations + 1
    assert tr.objective_per_iter[-1] == state_objective(sv, y, model, hp)
    # The problem has no previous state, so a temporal weight in hp (the
    # bench leaves HyperParams' default there) changes nothing.
    y_only = dataclasses.replace(hp, temporal_sparsity=0.0)
    (sv0,), (tr0,) = SOLVERS[method](y[None], model, y_only, cfg)
    assert np.array_equal(sv, sv0)
    assert tr.objective_per_iter == tr0.objective_per_iter


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_diverging_step_raises_nonfinite(method):
    rng = np.random.default_rng(46)
    model, y = random_instance(rng)
    cfg = BaselineConfig(step=1e308, max_iter=50)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=f"^{method} "):
        SOLVERS[method](y[None], model, HyperParams(), cfg)


def assert_rows_solve_alone(solve, patches, model, hp, cfg):
    """Every row of the batch equals a batch of that row alone, bit for bit."""
    states, traces = solve(patches, model, hp, cfg)
    assert states.shape == (patches.shape[0], model.dictionary.shape[1])
    for y, state, trace in zip(patches, states, traces):
        (alone,), (alone_trace,) = solve(y[None], model, hp, cfg)
        assert np.array_equal(state, alone)
        assert trace.objective_per_iter == alone_trace.objective_per_iter
        assert trace.iterations == alone_trace.iterations
        assert trace.converged == alone_trace.converged
    return traces


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_batch_rows_equal_one_row_batches(method):
    rng = np.random.default_rng(47)
    model, _ = random_instance(rng)
    patches = 3.0 * rng.standard_normal((6, model.dictionary.shape[0]))
    patches[2] = 0.0
    hp = HyperParams(state_sparsity=0.2, clamp_state=0.05)
    cfg = BaselineConfig(step=0.1, max_iter=40)
    traces = assert_rows_solve_alone(SOLVERS[method], patches, model, hp, cfg)
    assert all(tr.iterations == 40 for tr in traces)
    # With tol > 0 the rows stop at different iterations; Adam ignores tol.
    cfg = BaselineConfig(step=lipschitz_step(model), max_iter=2500, tol=1e-6)
    traces = assert_rows_solve_alone(SOLVERS[method], patches, model, hp, cfg)
    if method != "adam":
        assert len({tr.iterations for tr in traces if tr.converged}) > 2
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=f"^{method} "):
        SOLVERS[method](patches, model, hp, BaselineConfig(step=1e308))


@pytest.mark.parametrize("method", ["ista", "fista"])
def test_finished_row_leaves_the_batch(method):
    # At step 3 the first component diverges (curvature 1) and the second
    # contracts slowly (curvature 4e-4).  Row 0 meets tol at update 1, and
    # row 1 takes longer than row 0 would take to overflow.  Neither
    # raises alone, so the batch must not.
    dims = LayerDims(2, 3, 1, 1)
    model = LayerModel(dims, np.eye(3), np.ones((3, 1)),
                       np.array([[1.0, 0.0, 0.0], [0.0, 0.02, 0.0]]))
    hp = HyperParams(state_sparsity=1e-3)
    cfg = BaselineConfig(step=3.0, max_iter=10000, tol=2.5)
    patches = np.array([[1.0, 0.0], [0.0, 1e6]])
    traces = assert_rows_solve_alone(SOLVERS[method], patches, model, hp, cfg)
    assert traces[0].iterations == 1
    assert all(tr.converged for tr in traces)
    kept_on = dataclasses.replace(cfg, tol=0.0, max_iter=traces[1].iterations)
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        SOLVERS[method](patches[:1], model, hp, kept_on)


@pytest.mark.parametrize("method", ["ista", "fista"])
def test_final_residual_is_the_stop_residual(method):
    rng = np.random.default_rng(48)
    model, _ = random_instance(rng)
    c = model.dictionary
    patches = 3.0 * rng.standard_normal((6, c.shape[0]))
    patches[2] = 0.0
    hp = HyperParams(state_sparsity=0.2)
    step = lipschitz_step(model)
    cfg = BaselineConfig(step=step, max_iter=100, tol=1e-3)
    states, traces = SOLVERS[method](patches, model, hp, cfg)
    converged = [tr.converged for tr in traces]
    assert converged[2] and not all(converged)
    for y, x, tr in zip(patches, states, traces):
        # The prox-gradient mapping residual of the returned state.
        z = x + step * (c.T @ (y - c @ x))
        prox = np.sign(z) * np.maximum(np.abs(z) - step * hp.state_sparsity, 0.0)
        expected = np.abs(x - prox).max() / step
        assert tr.final_residual == pytest.approx(expected, rel=1e-9, abs=1e-12)
        if tr.converged:
            assert tr.final_residual <= cfg.tol
        else:
            assert tr.iterations == cfg.max_iter
            assert cfg.tol < tr.final_residual < np.inf
    # With tol = 0 no row is tested, so no residual is reported.
    _, traces = SOLVERS[method](patches, model, hp,
                                dataclasses.replace(cfg, tol=0.0))
    assert all(np.isnan(tr.final_residual) for tr in traces)


def test_ista_scalar_converges_to_soft_threshold():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=500, tol=1e-10)
    (sv,), (tr,) = ista_solve(np.array([[1.0]]), model, hp, cfg)
    assert abs(sv[0] - 0.7) < 1e-6
    assert sv[1] == 0.0
    assert tr.converged


def test_ista_zero_measurement():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=50, tol=1e-12)
    (sv,), _ = ista_solve(np.zeros((1, 1)), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))


def test_fista_zero_measurement_and_same_fixed_point():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=500, tol=1e-10)
    (sv,), _ = fista_solve(np.zeros((1, 1)), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))
    (f_sv,), _ = fista_solve(np.array([[1.0]]), model, hp, cfg)
    (i_sv,), _ = ista_solve(np.array([[1.0]]), model, hp,
                         BaselineConfig(step=0.5, max_iter=5000, tol=1e-12))
    assert abs(f_sv[0] - i_sv[0]) < 1e-6


def test_ista_objective_matches_mm_converged_value():
    rng = np.random.default_rng(40)
    for _ in range(10):
        model, y = random_instance(rng)
        hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0,
                         inner_tol=1e-10, max_inner_iter=2000, clamp_state=1e-8)
        mm_sv, _ = infer_state(y, None, model, hp)
        f_mm = state_objective(mm_sv, y, model, hp)
        step = lipschitz_step(model)
        cfg = BaselineConfig(step=step, max_iter=20000, tol=1e-10)
        (sv,), _ = ista_solve(y[None], model, hp, cfg)
        f_ista = state_objective(sv, y, model, hp)
        assert abs(f_ista - f_mm) < 1e-4


def test_ista_objective_trace_nonincreasing_at_safe_step():
    rng = np.random.default_rng(41)
    for _ in range(25):
        model, y = random_instance(rng)
        hp = HyperParams(temporal_sparsity=0.0)
        step = lipschitz_step(model)
        cfg = BaselineConfig(step=step, max_iter=100, tol=0.0)
        _, (tr,) = ista_solve(y[None], model, hp, cfg)
        assert np.all(np.diff(tr.objective_per_iter) <= 1e-10)


def test_adam_zero_measurement_clamps_to_zero():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = BaselineConfig(step=1e-2, max_iter=300, tol=0.0)
    (sv,), _ = adam_solve(np.zeros((1, 1)), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))


def test_adam_scalar_reaches_near_optimum():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=1e-2, max_iter=2000, tol=0.0)
    (sv,), (tr,) = adam_solve(np.array([[1.0]]), model, hp, cfg)
    f_final = state_objective(sv, np.array([1.0]), model, hp)
    assert abs(f_final - 0.255) < 5e-3
    assert abs(tr.objective_per_iter[-1] - f_final) < 1e-12


def test_all_methods_agree_when_smooth_dominates():
    # With a tiny l1 weight the problem is essentially least squares and
    # every solver must land on the same minimizer.
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = int(rng.integers(3, 7))
        k = p + 1
        dims = LayerDims(p, k, 1, 1)
        model = LayerModel(dims, np.eye(k), np.ones((k, 1)),
                           column_normalize(rng.standard_normal((p, k))))
        y = rng.standard_normal(p)
        hp = HyperParams(state_sparsity=1e-4, temporal_sparsity=0.0,
                         inner_tol=1e-12, max_inner_iter=5000, clamp_state=1e-10)
        mm_sv, _ = infer_state(y, None, model, hp)
        objs = [state_objective(mm_sv, y, model, hp)]
        step = lipschitz_step(model)
        for solve in (ista_solve, fista_solve):
            cfg = BaselineConfig(step=step, max_iter=40000, tol=1e-12)
            (sv,), _ = solve(y[None], model, hp, cfg)
            objs.append(state_objective(sv, y, model, hp))
        adam_cfg = BaselineConfig(step=5e-3, max_iter=30000, tol=0.0)
        (sv,), _ = adam_solve(y[None], model, hp, adam_cfg)
        objs.append(state_objective(sv, y, model, hp))
        assert max(objs) - min(objs) < 1e-4


def test_fista_reaches_objective_gap_no_later_than_ista():
    # The comparison the momentum buys: first iteration at which the
    # objective excess over the converged value drops below a fixed
    # fraction of the initial excess.
    rng = np.random.default_rng(43)
    for _ in range(15):
        model, y = random_instance(rng)
        hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
        step = lipschitz_step(model)
        traces = {}
        for method, solve in (("ista", ista_solve), ("fista", fista_solve)):
            cfg = BaselineConfig(step=step, max_iter=5000, tol=0.0)
            _, (tr,) = solve(y[None], model, hp, cfg)
            traces[method] = np.asarray(tr.objective_per_iter)
        f_star = min(tr.min() for tr in traces.values())
        excess0 = traces["ista"][0] - f_star
        target = f_star + 1e-6 * excess0
        hits = {m: int(np.argmax(tr <= target)) for m, tr in traces.items()}
        assert traces["fista"][hits["fista"]] <= target
        assert hits["fista"] <= hits["ista"]


