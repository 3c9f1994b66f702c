import numpy as np
import pytest

from mmdpcn.baselines import (BaselineConfig, adam_solve, fista_solve,
                              ista_solve, state_objective)
from mmdpcn.linalg import column_normalize
from mmdpcn.model import HyperParams, LayerDims, LayerModel
from mmdpcn.states import infer_state


def scalar_model():
    dims = LayerDims(1, 2, 1, 1)
    return LayerModel(dims,
                      transition=np.eye(2),
                      coupling=np.array([[1.0], [0.0]]),
                      dictionary=np.array([[1.0, 0.0]]))


def lipschitz_step(model, hp, with_temporal):
    """The standard 1/L step for the smooth part of the state objective."""
    lip = float(np.linalg.norm(model.dictionary, 2)) ** 2
    if with_temporal and hp.temporal_sparsity > 0:
        lip += hp.temporal_sparsity / hp.smooth_margin
    return 1.0 / lip


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
        BaselineConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        BaselineConfig(adam_beta2=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(max_iter=0)
    with pytest.raises(ValueError):
        BaselineConfig(tol=-1.0)


def test_ista_scalar_converges_to_soft_threshold():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=500, tol=1e-10)
    sv, tr = ista_solve(np.array([1.0]), model, hp, cfg)
    assert abs(sv[0] - 0.7) < 1e-6
    assert sv[1] == 0.0
    assert tr.converged


def test_ista_zero_measurement():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=50, tol=1e-12)
    sv, _ = ista_solve(np.zeros(1), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))


def test_fista_zero_measurement_and_same_fixed_point():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=0.5, max_iter=500, tol=1e-10)
    sv, _ = fista_solve(np.zeros(1), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))
    f_sv, _ = fista_solve(np.array([1.0]), model, hp, cfg)
    i_sv, _ = ista_solve(np.array([1.0]), model, hp,
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
        step = lipschitz_step(model, hp, with_temporal=False)
        cfg = BaselineConfig(step=step, max_iter=20000, tol=1e-10)
        sv, _ = ista_solve(y, model, hp, cfg)
        f_ista = state_objective(sv, y, model, hp)
        assert abs(f_ista - f_mm) < 1e-4


def test_ista_objective_trace_nonincreasing_at_safe_step():
    rng = np.random.default_rng(41)
    for _ in range(25):
        model, y = random_instance(rng)
        hp = HyperParams(temporal_sparsity=0.0)
        step = lipschitz_step(model, hp, with_temporal=False)
        cfg = BaselineConfig(step=step, max_iter=100, tol=0.0)
        _, tr = ista_solve(y, model, hp, cfg)
        assert np.all(np.diff(tr.objective_per_iter) <= 1e-10)


def test_adam_zero_measurement_clamps_to_zero():
    model = scalar_model()
    hp = HyperParams(temporal_sparsity=0.0)
    cfg = BaselineConfig(step=1e-2, max_iter=300, tol=0.0)
    sv, _ = adam_solve(np.zeros(1), model, hp, cfg)
    assert np.array_equal(sv, np.zeros(2))


def test_adam_scalar_reaches_near_optimum():
    model = scalar_model()
    hp = HyperParams(state_sparsity=0.3, temporal_sparsity=0.0)
    cfg = BaselineConfig(step=1e-2, max_iter=2000, tol=0.0)
    sv, tr = adam_solve(np.array([1.0]), model, hp, cfg)
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
        step = lipschitz_step(model, hp, with_temporal=False)
        for solve in (ista_solve, fista_solve):
            cfg = BaselineConfig(step=step, max_iter=40000, tol=1e-12)
            sv, _ = solve(y, model, hp, cfg)
            objs.append(state_objective(sv, y, model, hp))
        adam_cfg = BaselineConfig(step=5e-3, max_iter=30000, tol=0.0)
        sv, _ = adam_solve(y, model, hp, adam_cfg)
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
        step = lipschitz_step(model, hp, with_temporal=False)
        traces = {}
        for method, solve in (("ista", ista_solve), ("fista", fista_solve)):
            cfg = BaselineConfig(step=step, max_iter=5000, tol=0.0)
            _, tr = solve(y, model, hp, cfg)
            traces[method] = np.asarray(tr.objective_per_iter)
        f_star = min(tr.min() for tr in traces.values())
        excess0 = traces["ista"][0] - f_star
        target = f_star + 1e-6 * excess0
        hits = {m: int(np.argmax(tr <= target)) for m, tr in traces.items()}
        assert traces["fista"][hits["fista"]] <= target
        assert hits["fista"] <= hits["ista"]


def test_temporal_term_moves_solution():
    rng = np.random.default_rng(44)
    model, y = random_instance(rng)
    k = model.dims.state_dim
    x_prev = rng.standard_normal(k)
    hp = HyperParams(state_sparsity=0.2, temporal_sparsity=0.5)
    step = lipschitz_step(model, hp, with_temporal=True)
    cfg = BaselineConfig(step=step, max_iter=4000, tol=1e-10)
    plain, _ = ista_solve(y, model, hp, cfg)
    pulled, _ = ista_solve(y, model, hp, cfg, x_prev=x_prev)
    prediction = model.transition @ x_prev
    d_plain = np.abs(plain - prediction).sum()
    d_pulled = np.abs(pulled - prediction).sum()
    assert d_pulled < d_plain

