import numpy as np
import pytest

from blocksparse import (ColampConfig, ConfigError, GridShape, MeasurementModel,
                         ProxConfig, ShapeError, build_clique_system,
                         cg_solve_normal, colamp_solve, prox_block_norm,
                         truncate_top_k)
from blocksparse.synthetic import gaussian_measurement_matrix, make_blocky_image

import helpers


def system(h=32, w=32, side=2):
    return build_clique_system(GridShape(h, w), side)


# --- MeasurementModel -------------------------------------------------------

def test_model_adjoint_consistency():
    rng = np.random.default_rng(0)
    model = MeasurementModel(rng.standard_normal((20, 50)))
    for _ in range(10):
        x = rng.standard_normal(50)
        y = rng.standard_normal(20)
        lhs = float(model.forward(x) @ y)
        rhs = float(x @ model.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_model_rejects_empty():
    with pytest.raises(ShapeError):
        MeasurementModel(np.zeros((0, 4)))
    with pytest.raises(ShapeError):
        MeasurementModel(np.zeros(6))


def test_model_columns():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((5, 9))
    model = MeasurementModel(phi)
    sub = model.columns(np.array([2, 4, 7]))
    assert np.array_equal(sub, phi[:, [2, 4, 7]])


# --- cg_solve_normal --------------------------------------------------------

def test_cg_identity():
    y = np.array([1.0, -2.0, 3.0])
    x, degen = cg_solve_normal(np.eye(3), y)
    assert not degen
    assert np.allclose(x, y, atol=1e-12)


def test_cg_orthonormal_columns():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    y = rng.standard_normal(10)
    x, degen = cg_solve_normal(q, y)
    assert not degen
    assert np.allclose(x, q.T @ y, atol=1e-10)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    x, degen = cg_solve_normal(a, y)
    assert not degen
    expected = helpers.dense_normal_solve(a, y)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_cg_residual_contract():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    x, _ = cg_solve_normal(a, y, tol=1e-10)
    assert (np.linalg.norm(a.T @ (a @ x - y))
            <= 1e-9 * np.linalg.norm(a.T @ y))


def test_cg_rank_deficient_returns_min_residual():
    # the normal system stays consistent under exact rank deficiency, so CG
    # still reaches a least-squares solution; the flag must not corrupt it
    rng = np.random.default_rng(5)
    col = rng.standard_normal((12, 1))
    a = np.hstack([col, col])  # exactly repeated column
    y = rng.standard_normal(12)
    x, _ = cg_solve_normal(a, y)
    lstsq = np.linalg.lstsq(a, y, rcond=None)[0]
    assert (np.linalg.norm(a @ x - y)
            <= np.linalg.norm(a @ lstsq - y) + 1e-8)


def test_cg_flags_structural_deficiency():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 10))  # more columns than rows
    y = rng.standard_normal(6)
    x, degen = cg_solve_normal(a, y, max_iters=100)
    assert degen
    lstsq = np.linalg.lstsq(a, y, rcond=None)[0]
    assert (np.linalg.norm(a @ x - y)
            <= np.linalg.norm(a @ lstsq - y) + 1e-6)


def test_cg_zero_rhs():
    a = np.eye(4)
    x, degen = cg_solve_normal(a, np.zeros(4))
    assert not degen
    assert np.all(x == 0)


# --- truncate_top_k ---------------------------------------------------------

def test_truncate_shorter_than_k():
    x = np.array([1.0, -2.0])
    assert np.array_equal(truncate_top_k(x, 5), x)


def test_truncate_example():
    assert truncate_top_k(np.array([5.0, -7.0, 2.0]), 2).tolist() == [5.0, -7.0, 0.0]


def test_truncate_tie_lowest_index():
    assert truncate_top_k(np.array([1.0, -1.0, 1.0]), 2).tolist() == [1.0, -1.0, 0.0]


def test_truncate_rejects_k_zero():
    with pytest.raises(ConfigError):
        truncate_top_k(np.ones(3), 0)


# --- colamp_solve -----------------------------------------------------------

def _pursuit_cfg(k=40, lam0=0.2, **kw):
    base = dict(k=k, lam0=lam0, lam_growth=1.02, max_iters=10,
                prox=ProxConfig(lam=0.0, max_iters=1500, tol_abs=1e-11, tol_rel=1e-9))
    base.update(kw)
    return ColampConfig(**base)


def test_identity_operator_exact_recovery():
    rng = np.random.default_rng(6)
    truth = make_blocky_image(32, 32, 40, 4, rng)
    model = MeasurementModel(np.eye(1024))
    xhat, report = colamp_solve(truth.ravel(), model, system(), _pursuit_cfg())
    assert np.allclose(xhat, truth, atol=1e-10)
    assert report.iterations <= 2
    assert report.residual_trace[-1] <= 1e-10


def test_zero_measurements_return_zero():
    model = MeasurementModel(np.eye(64))
    xhat, report = colamp_solve(np.zeros(64), model, system(8, 8), _pursuit_cfg(k=5))
    assert np.all(xhat == 0)
    assert report.iterations == 0
    assert report.termination_reason == "converged"


def test_residual_identity_every_iteration():
    rng = np.random.default_rng(7)
    truth = make_blocky_image(16, 16, 12, 3, rng)
    phi = gaussian_measurement_matrix(60, 256, rng)
    y = phi @ truth.ravel()
    # instrument by re-walking the loop: residual trace values must equal
    # ||y - phi x|| for the per-iteration iterates; final iterate checks here
    xhat, report = colamp_solve(y, MeasurementModel(phi), system(16, 16),
                                _pursuit_cfg(k=12, lam0=0.5))
    assert report.residual_trace[-1] == pytest.approx(
        float(np.linalg.norm(y - phi @ xhat.ravel())), abs=1e-10)
    assert np.count_nonzero(xhat) <= 12


def test_support_never_exceeds_k():
    rng = np.random.default_rng(8)
    truth = make_blocky_image(16, 16, 12, 3, rng)
    phi = gaussian_measurement_matrix(48, 256, rng)
    y = phi @ truth.ravel()
    for k in (5, 12, 20):
        xhat, _ = colamp_solve(y, MeasurementModel(phi), system(16, 16),
                               _pursuit_cfg(k=k, lam0=0.5))
        assert np.count_nonzero(xhat) <= k


def test_lambda_schedule_monotone():
    cfg = _pursuit_cfg()
    lams = [cfg.lam0 * cfg.lam_growth ** (n - 1) for n in range(1, 11)]
    assert all(b >= a for a, b in zip(lams, lams[1:]))


def test_support_collapse_reported():
    rng = np.random.default_rng(9)
    phi = gaussian_measurement_matrix(30, 64, rng)
    y = phi @ (0.01 * rng.standard_normal(64))
    cfg = _pursuit_cfg(k=5, lam0=1e6, max_iters=5)  # absurd weight kills support
    xhat, report = colamp_solve(y, MeasurementModel(phi), system(8, 8), cfg)
    assert report.termination_reason == "support-collapse"
    assert np.all(xhat == 0)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((10, 100))
    with pytest.raises(ShapeError):
        colamp_solve(np.zeros(10), MeasurementModel(phi), system(8, 8), _pursuit_cfg(k=3))
    with pytest.raises(ShapeError):
        colamp_solve(np.zeros(9), MeasurementModel(np.eye(64)), system(8, 8),
                     _pursuit_cfg(k=3))


def test_config_validation():
    with pytest.raises(ConfigError):
        ColampConfig(k=0)
    with pytest.raises(ConfigError):
        ColampConfig(k=4, lam_growth=0.9)
    with pytest.raises(ConfigError):
        ColampConfig(k=4, eps_res=-1.0)


def test_support_step_matches_cosamp_style_at_l1():
    # at clique side 1 and vanishing weight, the prox-based support ranking
    # coincides with the matched-filter top-2K rule on most draws
    rng = np.random.default_rng(11)
    k = 8
    cs1 = system(12, 12, 1)
    matches = 0
    trials = 20
    for _ in range(trials):
        truth = make_blocky_image(12, 12, k, 2, rng)
        phi = gaussian_measurement_matrix(5 * k, 144, rng)
        y = phi @ truth.ravel()
        v = (phi.T @ y).reshape(12, 12)
        res = prox_block_norm(v, cs1, ProxConfig(lam=1e-8, max_iters=50))
        top = set(np.argsort(-np.abs(res.x.ravel()), kind="stable")[:2 * k].tolist())
        if top == helpers.cosamp_support_step(phi.T @ y, 2 * k):
            matches += 1
    assert matches >= 0.9 * trials


def test_colamp_rejects_nonfinite_measurements():
    rng = np.random.default_rng(30)
    model = MeasurementModel(rng.standard_normal((12, 36)))
    y = rng.standard_normal(12)
    y[4] = np.nan
    with pytest.raises(ConfigError, match="measurements must be finite"):
        colamp_solve(y, model, system(6, 6, 2), ColampConfig(k=4))


def test_colamp_rejects_nonfinite_operator():
    rng = np.random.default_rng(31)
    phi = rng.standard_normal((12, 36))
    phi[0, 5] = np.inf
    with pytest.raises(ConfigError, match="measurement matrix must be finite"):
        colamp_solve(rng.standard_normal(12), MeasurementModel(phi), system(6, 6, 2),
                     ColampConfig(k=4))


def test_config_rejects_nan_lam0():
    with pytest.raises(ConfigError, match="lam0"):
        ColampConfig(k=4, lam0=float("nan"))


def test_config_rejects_nan_lam_growth():
    with pytest.raises(ConfigError, match="lam_growth must be finite"):
        ColampConfig(k=4, lam_growth=float("nan"))


def test_config_rejects_nan_eps_res():
    with pytest.raises(ConfigError, match="eps_res must be finite"):
        ColampConfig(k=4, eps_res=float("nan"))
