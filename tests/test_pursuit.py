from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blocksparse import (ColampConfig, ConfigError, GridShape, MeasurementModel,
                         ProxConfig, ShapeError, build_clique_system, colamp_solve,
                         prox_block_norm, pursuit, truncate_top_k)
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


def test_truncate_rejects_non_integer_k():
    for bad in (2.5, 2.0, float("nan"), True):
        with pytest.raises(ConfigError, match="k must be an integer"):
            truncate_top_k(np.arange(5.0), bad)
    assert np.count_nonzero(truncate_top_k(np.arange(5.0), np.int64(2))) == 2


# --- colamp_solve -----------------------------------------------------------

def _pursuit_cfg(k=40, lam0=0.2, **kw):
    base = dict(k=k, lam0=lam0, lam_growth=1.02, max_iters=10)
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


def test_config_rejects_non_integer_k():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="target sparsity k must be an integer"):
            ColampConfig(k=bad)
    assert ColampConfig(k=np.int64(40)).k == 40


def test_config_rejects_non_integer_max_iters():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="max_iters must be an integer"):
            ColampConfig(k=4, max_iters=bad)
    assert ColampConfig(k=4, max_iters=np.int32(7)).max_iters == 7


def test_support_fit_is_least_squares():
    # with k above the support size nothing is truncated, so one outer
    # iteration returns the least-squares fit on the prox support
    rng = np.random.default_rng(12)
    truth = make_blocky_image(16, 16, 12, 3, rng)
    phi = gaussian_measurement_matrix(60, 256, rng)
    y = phi @ truth.ravel()
    xhat, _ = colamp_solve(y, MeasurementModel(phi), system(16, 16),
                           _pursuit_cfg(k=256, lam0=0.8, max_iters=1))
    support = np.flatnonzero(xhat)
    assert 0 < support.size < 60
    expected = helpers.dense_normal_solve(phi[:, support], y)
    assert np.linalg.norm(xhat.ravel()[support] - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("seed,k,lam0,max_iters", [(7, 12, 0.5, 10), (9, 5, 1e6, 5)])
def test_report_keeps_every_prox_report(monkeypatch, seed, k, lam0, max_iters):
    # the second case collapses, so it also makes the half-weight retries
    seen = []

    def recording_prox(*args, **kwargs):
        assert kwargs["support_tol"] == pursuit.SUPPORT_REL_TOL
        res = prox_block_norm(*args, **kwargs)
        seen.append(res.report)
        return res

    monkeypatch.setattr(pursuit, "prox_block_norm", recording_prox)
    rng = np.random.default_rng(seed)
    phi = gaussian_measurement_matrix(60, 256, rng)
    y = phi @ make_blocky_image(16, 16, 12, 3, rng).ravel()
    _, report = colamp_solve(y, MeasurementModel(phi), system(16, 16),
                             _pursuit_cfg(k=k, lam0=lam0, max_iters=max_iters))
    assert len(seen) >= report.iterations
    assert report.extra["prox_iterations"] == [r.iterations for r in seen]
    terminations = report.extra["prox_terminations"]
    assert terminations == dict(Counter(r.termination_reason for r in seen))
    assert sum(terminations.values()) == len(seen)
    assert sum(report.extra["prox_iterations"]) == sum(r.iterations for r in seen)
    if lam0 == 1e6:
        assert report.termination_reason == "support-collapse"
        assert len(seen) == 2 * report.iterations


def test_colamp_rejects_measurements_whose_norm_overflows():
    # at 1e155 the default tolerance 1e-6*||y|| was inf, so the pursuit
    # returned x = 0 "converged" after no iteration; at 1e153 it recovers
    rng = np.random.default_rng(0)
    truth = make_blocky_image(8, 8, 4, 1, rng)
    model = MeasurementModel(gaussian_measurement_matrix(30, 64, rng))
    y = model.forward(truth)
    cs = system(8, 8, 2)
    c = 1e153
    x, report = colamp_solve(c * y, model, cs, ColampConfig(k=4, lam0=0.6 * c))
    assert report.termination_reason == "converged"
    assert np.linalg.norm(x / c - truth) <= 1e-12 * np.linalg.norm(truth)
    c = 1e155
    for eps_res in (None, 1.0):  # the norm is checked with a given tolerance too
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match="norm is not finite"):
            colamp_solve(c * y, model, cs, ColampConfig(k=4, lam0=0.6 * c, eps_res=eps_res))


def test_colamp_is_scale_equivariant():
    # every prox call starts from its own (v, lam) at a scale-free rho, and
    # every other threshold is relative, so scaling y and lam0 by c scales the
    # whole run by c: the same supports, outer iterations and prox iterations
    rng = np.random.default_rng(40)
    truth = make_blocky_image(32, 32, 40, 2, rng)
    model = MeasurementModel(gaussian_measurement_matrix(200, 1024, rng))
    y = model.forward(truth)
    cfg = ColampConfig(k=40)
    x, report = colamp_solve(y, model, system(), cfg)
    assert report.termination_reason == "converged"
    for c in (100.0, 1e-3):
        xc, rc = colamp_solve(c * y, model, system(), ColampConfig(k=40, lam0=c * cfg.lam0))
        assert np.array_equal(np.flatnonzero(xc), np.flatnonzero(x))
        assert rc.iterations == report.iterations
        assert rc.extra["prox_iterations"] == report.extra["prox_iterations"]
        assert np.linalg.norm(xc - c * x) <= 1e-12 * c * np.linalg.norm(x)


_entries = st.one_of(st.just(0.0), st.floats(0.05, 3.0), st.floats(-3.0, -0.05))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.data(),
       st.floats(0.05, 2.0))
def test_support_certificate(height, width, side, data, lam):
    side = min(side, height, width)
    v = np.array(data.draw(st.lists(_entries, min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    res = _support_certified_prox(v, side, lam)
    assume(res.report.termination_reason == "support-certified")
    _assert_support_is_exact(v, side, lam, res)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(5, 5, 1), (6, 5, 2), (7, 6, 3), (4, 8, 2)]), st.integers(0, 2**32 - 1),
       st.floats(0.05, 1.0))
def test_support_radius_holds_the_exact_prox(geometry, seed, lam):
    # dense normal centers: at every support stop the exact prox lies within
    # the reported radius of x, so ||x - x_ref|| <= radius + ||x_ref - x*||
    height, width, side = geometry
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0
    res = _support_certified_prox(v, side, lam)
    assume(res.report.termination_reason == "support-certified")
    _assert_support_is_exact(v, side, lam, res)


# draws whose references stalled: an ADMM reference at a relative gap of
# 1e-12 never stopped on a floating-point fixed point (one 3x3 clique) and on
# a slow degenerate solve at an exact shrink threshold, and the dual ascent
# alone crept on the third, where x* vanishes on a clique whose dual block
# sits exactly on its ball
#
# then the draw that separates the two-sided radius from sqrt(gap): the solve
# stops at iteration 5 with sqrt(gap) 8.3e-3 above tau*peak 7.5e-3 and a
# radius of 5.9e-3, where the one-sided bound stopped at iteration 9; and one
# where the radius is tight, so the gap's rounding decides the distance check
@pytest.mark.parametrize("shape, side, spikes, lam", [
    ((3, 3), 3, {(2, 1): 1.0, (2, 2): 0.5}, 0.05),
    ((3, 5), 2, {(2, 2): 1.0, (2, 3): -1.0, (2, 4): -2.0}, 2.0),
    ((3, 4), 2, {(0, 0): -1.0, (1, 1): 1.0, (2, 0): 2.0}, 2.0),
    ((3, 5), 1, {(2, 3): 0.25, (2, 4): -3.0}, 1.0),
    ((3, 3), 3, {(2, 1): 0.25, (2, 2): -2.625}, 0.05),
], ids=["fixed-point-3x3", "threshold-3x5", "dual-on-ball-3x4", "two-sided-3x5", "tight-3x3"])
def test_support_certificate_regressions(shape, side, spikes, lam):
    v = np.zeros(shape)
    for pixel, value in spikes.items():
        v[pixel] = value
    res = _support_certified_prox(v, side, lam)
    assert res.report.termination_reason == "support-certified"
    _assert_support_is_exact(v, side, lam, res)


def _support_certified_prox(v, side, lam):
    # no gap tolerance, so only the support test can stop the solve early
    return prox_block_norm(v, system(*v.shape, side),
                           ProxConfig(lam=lam, max_iters=5000, tol_abs=0.0, tol_rel=0.0),
                           support_tol=pursuit.SUPPORT_REL_TOL)


def _recomputed_radius(v, res, slack=0.0):
    """The support stop's radius from the returned ``u``, the final ``rho``
    and the last gap: ``x*`` lies within ``a`` of ``x`` and ``b`` of
    ``xt = v - g/2``, ``a**2 + b**2 <= G``, so ``a <= (d + sqrt(2G - d**2))/2``
    with ``d = ||x - xt||``.  ``G`` is the gap plus the prox's rounding
    allowance plus ``slack``."""
    g = -res.report.extra["rho"] * res.u.sum(axis=0)
    vflat = v.ravel()
    dual_lin, dual_quad = float(g @ vflat), 0.25 * float(g @ g)
    allowance = v.size * np.finfo(float).eps * (res.report.objective_trace[-1] + abs(dual_lin)
                                                + dual_quad)
    bound = max(res.report.residual_trace[-1] + allowance + slack, 0.0)
    d = float(np.linalg.norm(res.x.ravel() - (vflat - g / 2)))
    return (d + np.sqrt(2 * bound - d * d)) / 2 if d * d <= 2 * bound else np.sqrt(bound)


def _assert_support_is_exact(v, side, lam, res):
    tau = pursuit.SUPPORT_REL_TOL
    peak = float(np.abs(res.x).max())
    # the prox took its radius from its own mean of the duals, which the
    # returned u gives again only up to rounding
    radius = _recomputed_radius(v, res)
    assert radius == pytest.approx(res.report.extra["support_radius"], rel=1e-6)
    assert radius <= tau * peak * (1 + 1e-6)
    # the reference certifies a relative gap of 1e-12, and
    # ||x_ref - x*||_inf <= sqrt(gap): pixels above it are nonzero in x*
    x_ref, gap = helpers.prox_by_dual_ascent(v, helpers.clique_index_lists(*v.shape, side), lam)
    ref_err = np.sqrt(max(gap, 0.0))
    # x* lies within the radius of x, up to the gap's rounding.  The prox's
    # gap matches an oracle's only to 1e-12*||v||^2
    # (test_prox_counts_iterations_and_traces_checks), and where the bound is
    # tight a gap that reads low puts the radius below the distance: on one
    # 3x3 clique (v[2, 1:] = (0.25, -2.625), lam 0.05) the gap read about
    # 1.1e-14 low, against a rounding allowance of 5.3e-16
    slack = 1e-12 * float(np.sum(v ** 2))
    assert np.linalg.norm(res.x.ravel() - x_ref) <= _recomputed_radius(v, res, slack) + ref_err
    x_ref = np.abs(x_ref)
    support = pursuit._support_of(res.x, v)
    assert np.all(x_ref[support] > ref_err)
    assert set(np.flatnonzero(x_ref > 2 * tau * peak + ref_err)) <= set(support.tolist())


def test_support_certificate_allows_for_gap_roundoff():
    # lam at the shrink threshold of one spike: x* = 0, and the computed gap of
    # the solver residue reaches 0.0 through roundoff, which certifies nothing
    v = np.zeros((2, 2))
    v[1, 1] = 1.0
    res = prox_block_norm(v, system(2, 2, 2), ProxConfig(lam=2.0, max_iters=5000, tol_abs=0.0,
                                                          tol_rel=0.0),
                          support_tol=pursuit.SUPPORT_REL_TOL)
    assert min(res.report.residual_trace) <= 0.0
    assert res.report.termination_reason == "max-iterations"
    assert pursuit._support_of(res.x, v).size == 0
