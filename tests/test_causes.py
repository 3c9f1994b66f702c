import math

import numpy as np
import pytest

from mmdpcn.causes import (infer_cause, infer_cause_topdown,
                           top_down_prediction)
from mmdpcn.errors import DimensionMismatch, NonFinite
from mmdpcn.learning import grad_model
from mmdpcn.linalg import column_normalize
from mmdpcn.model import (CAUSE_INIT, CauseVector, HyperParams, LayerDims,
                          LayerModel, cause_energy)

from helpers import scalar_model


def scalar_pooled(value):
    return np.array([value, 0.0])


def random_instance(rng, nonneg=False):
    k = int(rng.integers(3, 12))
    d = int(rng.integers(1, 6))
    dims = LayerDims(k - 1, k, d, 1)
    b = rng.standard_normal((k, d))
    if nonneg:
        b = np.abs(b)
    model = LayerModel(dims,
                       transition=np.eye(k),
                       coupling=column_normalize(b),
                       dictionary=rng.standard_normal((k - 1, k)))
    pooled = rng.uniform(0.0, 2.0, k)
    return model, pooled


def golden_section_min(f, lo, hi, tol=1e-10):
    """Bracketing scalar minimizer, independent of the code under test."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_zero_pool_collapses_in_one_iteration():
    cv, tr = infer_cause(scalar_pooled(0.0), scalar_model(), HyperParams())
    assert np.array_equal(cv.values, [0.0])
    assert tr.iterations == 1
    assert tr.converged


def test_scalar_first_iterates_pinned():
    model = scalar_model()
    init = np.array([1.0])
    hp1 = HyperParams(cause_sparsity=0.3, max_inner_iter=1, inner_tol=1e-300)
    cv, tr = infer_cause(scalar_pooled(1.0), model, hp1, u_init=init)
    u1 = math.exp(-1.0) / 0.3
    assert abs(cv.values[0] - u1) < 1e-12
    assert abs(cv.values[0] - 1.226) < 1e-3
    # A capped solve reports the stationarity residual |beta - exp(-u)| it
    # stopped at.
    assert not tr.converged
    assert abs(tr.final_residual - abs(0.3 - math.exp(-u1))) < 1e-12
    hp2 = HyperParams(cause_sparsity=0.3, max_inner_iter=2, inner_tol=1e-300)
    cv, _ = infer_cause(scalar_pooled(1.0), model, hp2, u_init=init)
    assert abs(cv.values[0] - (u1 / 0.3) * math.exp(-u1)) < 1e-12


def test_scalar_converges_to_log_fixed_point():
    hp = HyperParams(cause_sparsity=0.3, inner_tol=1e-8, max_inner_iter=200)
    cv, tr = infer_cause(scalar_pooled(1.0), scalar_model(), hp,
                         u_init=np.array([1.0]))
    assert abs(cv.values[0] - math.log(10.0 / 3.0)) < 1e-6
    assert tr.converged
    assert tr.final_residual <= hp.inner_tol


def test_weak_drive_clamps_to_zero():
    # ln(0.2/0.3) < 0, so the unconstrained fixed point is negative and the
    # minimizer sits at the origin.
    hp = HyperParams(cause_sparsity=0.3, inner_tol=1e-8, max_inner_iter=500)
    cv, tr = infer_cause(scalar_pooled(0.2), scalar_model(), hp)
    assert np.array_equal(cv.values, [0.0])
    assert tr.converged


def test_topdown_zero_inputs():
    cv, _ = infer_cause_topdown(scalar_pooled(0.0), np.zeros(1),
                                scalar_model(), HyperParams())
    assert np.array_equal(cv.values, [0.0])


def test_topdown_soft_threshold_oracle():
    # With no pooled drive the objective is 0.5*(u-1)^2 + 0.3|u|,
    # minimized at 0.7.
    hp = HyperParams(cause_sparsity=0.3, inner_tol=1e-8, max_inner_iter=300)
    cv, tr = infer_cause_topdown(scalar_pooled(0.0), np.array([1.0]),
                                 scalar_model(), hp)
    assert abs(cv.values[0] - 0.7) < 1e-6
    assert tr.converged
    assert tr.final_residual <= hp.inner_tol
    capped = HyperParams(cause_sparsity=0.3, inner_tol=1e-8, max_inner_iter=1)
    cv, tr = infer_cause_topdown(scalar_pooled(0.0), np.array([1.0]),
                                 scalar_model(), capped)
    assert not tr.converged
    assert tr.final_residual > capped.inner_tol
    assert abs(tr.final_residual - abs(cv.values[0] - 0.7)) < 1e-12


def test_topdown_matches_golden_section_oracle():
    model = scalar_model()
    hp = HyperParams(cause_sparsity=0.3, inner_tol=1e-10, max_inner_iter=2000)
    cv, _ = infer_cause_topdown(scalar_pooled(1.0), np.array([2.0]), model, hp)
    oracle = golden_section_min(
        lambda u: 0.5 * (u - 2.0) ** 2 + (1.0 + math.exp(-u)) + 0.3 * abs(u),
        0.0, 5.0)
    assert abs(cv.values[0] - oracle) < 1e-5


def test_positivity_preserved_with_nonnegative_coupling():
    rng = np.random.default_rng(20)
    for _ in range(60):
        model, pooled = random_instance(rng, nonneg=True)
        hp = HyperParams(cause_sparsity=float(rng.uniform(0.1, 0.6)),
                         max_inner_iter=40)
        for cap in (1, 3, 40):
            capped = HyperParams(cause_sparsity=hp.cause_sparsity,
                                 max_inner_iter=cap, inner_tol=hp.inner_tol)
            cv, _ = infer_cause(pooled, model, capped)
            assert np.all(cv.values >= 0.0)


def test_objective_trace_monotone():
    rng = np.random.default_rng(21)
    for i in range(150):
        model, pooled = random_instance(rng)
        hp = HyperParams(cause_sparsity=float(rng.uniform(0.1, 0.6)),
                         clamp_cause=float(rng.choice([1e-6, 1e-4, 1e-2])),
                         max_inner_iter=50)
        if i % 2:
            _, tr = infer_cause(pooled, model, hp)
        else:
            u_hat = rng.standard_normal(model.dims.cause_dim)
            _, tr = infer_cause_topdown(pooled, u_hat, model, hp)
        assert np.all(np.diff(tr.objective_per_iter) <= 1e-9)


def test_last_objective_is_the_energy_of_the_returned_cause():
    # The loop reuses each step's energy instead of re-evaluating it; the
    # last recorded value must still be cause_energy of the result, exactly.
    rng = np.random.default_rng(24)
    for i in range(40):
        model, pooled = random_instance(rng, nonneg=bool(i % 3))
        hp = HyperParams(cause_sparsity=float(rng.uniform(0.05, 0.6)),
                         clamp_cause=float(rng.choice([1e-6, 1e-2])),
                         max_inner_iter=int(rng.choice([1, 2, 30])))
        preference = None
        if i % 2:
            preference = rng.standard_normal(model.dims.cause_dim)
            cv, tr = infer_cause_topdown(pooled, preference, model, hp)
        else:
            cv, tr = infer_cause(pooled, model, hp)
        energy = cause_energy(cv, pooled, model, hp, preference=preference)
        assert tr.objective_per_iter[-1] == energy


def test_scalar_iterates_bounded():
    # The one-step map is bounded by (drive/beta)/e, so the claimed
    # fixed-point band max(u0, ln(drive/beta)) + 1 holds for drive/beta
    # up to about 6; beyond that the very first step may overshoot higher.
    rng = np.random.default_rng(22)
    model = scalar_model()
    for _ in range(30):
        beta = float(rng.uniform(0.1, 0.5))
        p = beta * float(rng.uniform(0.2, 6.0))
        u0 = float(rng.uniform(0.1, 3.0))
        bound = max(u0, math.log(max(p / beta, 1e-12))) + 1.0
        for cap in range(1, 9):
            hp = HyperParams(cause_sparsity=beta, max_inner_iter=cap,
                             inner_tol=1e-300)
            cv, _ = infer_cause(scalar_pooled(p), model, hp,
                                u_init=np.array([u0]))
            assert cv.values[0] <= bound + 1e-12


def test_topdown_reduces_to_plain_when_pull_negligible():
    # Instances built so the minimizer is tiny: there the extra 0.5*||u||^2
    # of the top-down objective barely moves the solution.
    rng = np.random.default_rng(23)
    model = scalar_model()
    for _ in range(12):
        beta = float(rng.uniform(0.005, 0.012))
        u_star = float(rng.uniform(0.05, 0.1))
        pooled = scalar_pooled(beta * math.exp(u_star))
        hp = HyperParams(cause_sparsity=beta, inner_tol=1e-8,
                         max_inner_iter=2000, clamp_cause=1e-8)
        plain, _ = infer_cause(pooled, model, hp)
        td, _ = infer_cause_topdown(pooled, np.zeros(1), model, hp)
        assert abs(plain.values[0] - u_star) < 1e-5
        e_plain = cause_energy(plain, pooled, model, hp)
        e_td = cause_energy(td, pooled, model, hp)
        assert abs(e_td - e_plain) <= 1e-4


def test_top_down_prediction_gate_always_open():
    rng = np.random.default_rng(24)
    dims = LayerDims(2, 4, 2, 1)
    model = LayerModel(dims,
                       transition=rng.standard_normal((4, 4)),
                       coupling=column_normalize(rng.standard_normal((4, 2))),
                       dictionary=rng.standard_normal((2, 4)))
    hp = HyperParams(temporal_sparsity=10.0, pool_gain=0.1)
    x_prev = rng.standard_normal(4)
    pred = top_down_prediction(model, x_prev, np.zeros(2), hp)
    # Every component of the predicted state is rendered.
    assert np.array_equal(pred, model.dictionary @ (model.transition @ x_prev))


def test_top_down_prediction_gate_never_opens_at_zero_weight():
    rng = np.random.default_rng(25)
    dims = LayerDims(2, 4, 2, 1)
    model = LayerModel(dims,
                       transition=rng.standard_normal((4, 4)),
                       coupling=rng.standard_normal((4, 2)),
                       dictionary=rng.standard_normal((2, 4)))
    hp = HyperParams(temporal_sparsity=0.0, pool_gain=0.1)
    pred = top_down_prediction(model, rng.standard_normal(4),
                               rng.standard_normal(2), hp)
    assert np.array_equal(pred, np.zeros(2))


def test_top_down_prediction_selective_gate():
    dims = LayerDims(1, 2, 1, 1)
    model = LayerModel(dims,
                       transition=np.array([[2.0, 0.0], [0.0, 3.0]]),
                       coupling=np.array([[1.0], [-1.0]]),
                       dictionary=np.array([[1.0, 1.0]]))
    hp = HyperParams(temporal_sparsity=0.3, pool_gain=0.1)
    x_prev = np.array([1.0, 1.0])
    pred = top_down_prediction(model, x_prev, CauseVector(np.array([5.0])), hp)
    # Component 1 sees threshold ~0.1, component 2 ~1.5: only the first
    # opens.  The predicted state is [2, 3], so the rendering reads 2 for
    # the first alone, 3 for the second alone and 5 for both.
    assert np.array_equal(pred, [2.0])


def test_dimension_errors():
    model = scalar_model()
    hp = HyperParams()
    with pytest.raises(DimensionMismatch):
        infer_cause(np.ones(3), model, hp)
    with pytest.raises(DimensionMismatch):
        infer_cause(scalar_pooled(1.0), model, hp, u_init=np.ones(2))
    with pytest.raises(DimensionMismatch):
        infer_cause_topdown(scalar_pooled(1.0), np.ones(2), model, hp)
    with pytest.raises(DimensionMismatch):
        top_down_prediction(model, np.ones(3), np.ones(1), hp)
    with pytest.raises(DimensionMismatch):
        top_down_prediction(model, np.ones(2), np.ones(2), hp)


# Every entry that reads a frame's magnitudes and a cause, with the cause
# as cause_energy's and grad_model's argument or the solvers' u_init.
# grad_model pools the states it is given, so it reads the row as a
# one-patch frame of states; states are signed, so it accepts a negative
# component that the entries reading pooled magnitudes reject.
STATE_ENTRIES = {"grad_model"}
CAUSE_ENTRIES = {
    "grad_model": lambda row, u, pref, model, hp: grad_model(
        np.ones((1, 1)), row[None, :], None, u, model, hp),
    "cause_energy": lambda pooled, u, pref, model, hp: cause_energy(
        u, pooled, model, hp, preference=pref),
    "infer_cause": lambda pooled, u, pref, model, hp: infer_cause(
        pooled, model, hp, u_init=u),
    "infer_cause_topdown": lambda pooled, u, pref, model, hp: infer_cause_topdown(
        pooled, np.ones(1) if pref is None else pref, model, hp, u_init=u),
}


@pytest.mark.parametrize("entry", sorted(CAUSE_ENTRIES))
def test_every_cause_entry_checks_its_inputs(entry):
    call = CAUSE_ENTRIES[entry]
    model, hp = scalar_model(), HyperParams()
    u = np.array([0.5])
    call(scalar_pooled(1.0), u, None, model, hp)
    if entry in STATE_ENTRIES:
        call(np.array([1.0, -1e-3]), u, None, model, hp)
    else:
        with pytest.raises(ValueError, match="nonnegative"):
            call(np.array([1.0, -1e-3]), u, None, model, hp)
    with pytest.raises(DimensionMismatch):
        call(np.ones(3), u, None, model, hp)
    with pytest.raises(DimensionMismatch):
        call(scalar_pooled(1.0), np.ones(2), None, model, hp)
    if entry in ("cause_energy", "infer_cause_topdown"):
        with pytest.raises(DimensionMismatch):
            call(scalar_pooled(1.0), u, np.ones(2), model, hp)


@pytest.mark.parametrize("topdown", [False, True])
def test_overflowing_drive_raises_nonfinite(topdown):
    dims = LayerDims(1, 2, 1, 1)
    model = LayerModel(dims, transition=np.eye(2),
                       coupling=np.array([[1.0], [1.0]]),
                       dictionary=np.array([[1.0, 0.0]]))
    pooled, hp = np.full(2, 1e308), HyperParams()
    with np.errstate(all="ignore"), \
            pytest.raises(NonFinite, match="^cause iterate diverged"):
        if topdown:
            infer_cause_topdown(pooled, np.zeros(1), model, hp)
        else:
            infer_cause(pooled, model, hp)


def test_no_cause_init_is_the_cause_init_start():
    rng = np.random.default_rng(17)
    for _ in range(10):
        model, pooled = random_instance(rng)
        hp = HyperParams(max_inner_iter=20)
        start = np.full(model.dims.cause_dim, CAUSE_INIT)
        default, tr_default = infer_cause(pooled, model, hp)
        given, tr_given = infer_cause(pooled, model, hp, u_init=start)
        assert default.values.tobytes() == given.values.tobytes()
        assert tr_default.objective_per_iter == tr_given.objective_per_iter
        assert np.array_equal(start, np.full(model.dims.cause_dim, CAUSE_INIT))
