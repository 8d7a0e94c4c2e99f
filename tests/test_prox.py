import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksparse import (ConfigError, GridShape, ProxConfig, block_norm,
                         build_clique_system, group_shrink, prox_block_norm,
                         prox_block_norm_framewise)

import helpers


def system(h, w, side):
    return build_clique_system(GridShape(h, w), side)


# --- group_shrink -----------------------------------------------------------

def test_shrink_zero_vector():
    assert np.all(group_shrink(np.zeros(4), 3.0) == 0)


def test_shrink_below_threshold():
    assert np.all(group_shrink(np.array([0.3, 0.4]), 0.5) == 0)


def test_shrink_345():
    out = group_shrink(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(out, [2.4, 3.2])


def test_shrink_rejects_negative_threshold():
    with pytest.raises(ConfigError):
        group_shrink(np.ones(2), -1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
       st.floats(0, 5))
def test_shrink_minimizes_its_objective(vals, tau):
    v = np.array(vals)
    out = group_shrink(v, tau)

    def obj(z):
        return tau * np.linalg.norm(z) + 0.5 * np.sum((z - v) ** 2)

    base = obj(out)
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1e-2, 0.1):
        for _ in range(8):
            assert base <= obj(out + scale * rng.standard_normal(v.shape)) + 1e-9


# --- prox_block_norm --------------------------------------------------------

def test_prox_lam_zero_identity():
    rng = np.random.default_rng(0)
    cs = system(4, 4, 2)
    v = rng.standard_normal((4, 4))
    res = prox_block_norm(v, cs, ProxConfig(lam=0.0))
    assert np.array_equal(res.x, v)
    assert res.report.termination_reason == "converged"


def test_prox_single_clique_matches_group_shrink():
    # one clique spanning the grid: prox solves argmin ||x-v||^2 + lam*||x||,
    # i.e. shrinkage with threshold lam/2
    rng = np.random.default_rng(1)
    cs = system(2, 2, 2)
    for lam in (0.5, 2.0, 12.0):
        v = rng.standard_normal((2, 2))
        res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000,
                                                tol_abs=1e-12, tol_rel=1e-10))
        expected = group_shrink(v.ravel(), lam / 2.0).reshape(2, 2)
        assert np.max(np.abs(res.x - expected)) < 1e-6


def test_prox_objective_matches_smoothed_descent_oracle():
    rng = np.random.default_rng(2)
    cs = system(6, 6, 2)
    idx = cs.indices.tolist()
    for lam in (0.1, 1.0, 10.0):
        v = rng.standard_normal((6, 6))
        res = prox_block_norm(v, cs, ProxConfig(lam=lam))
        x_gd = helpers.prox_by_smoothed_descent(v, idx, lam)
        f_admm = helpers.prox_objective(res.x, v, idx, lam)
        f_gd = helpers.prox_objective(x_gd, v, idx, lam)
        assert f_admm <= f_gd * (1 + 1e-4) + 1e-12


def test_prox_against_convex_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(3)
    cs = system(5, 5, 2)
    v = rng.standard_normal((5, 5))
    lam = 1.5
    x = cvxpy.Variable(25)
    obj = cvxpy.sum_squares(x - v.ravel()) + lam * sum(
        cvxpy.norm(x[idx.tolist()], 2) for idx in cs.indices)
    cvxpy.Problem(cvxpy.Minimize(obj)).solve()
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000,
                                            tol_abs=1e-12, tol_rel=1e-10))
    f_admm = helpers.prox_objective(res.x, v, cs.indices.tolist(), lam)
    assert f_admm <= obj.value * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(res.x.ravel() - x.value)) < 1e-4


def test_prox_nonexpansive():
    rng = np.random.default_rng(4)
    cs = system(5, 5, 2)
    cfg = ProxConfig(lam=1.0)
    for _ in range(10):
        v1 = rng.standard_normal((5, 5))
        v2 = rng.standard_normal((5, 5))
        x1 = prox_block_norm(v1, cs, cfg).x
        x2 = prox_block_norm(v2, cs, cfg).x
        assert np.linalg.norm(x1 - x2) <= np.linalg.norm(v1 - v2) + 1e-6


def test_prox_shrinks_toward_zero():
    rng = np.random.default_rng(5)
    cs = system(6, 6, 2)
    for lam in (0.3, 2.0):
        v = rng.standard_normal((6, 6))
        x = prox_block_norm(v, cs, ProxConfig(lam=lam)).x
        assert np.linalg.norm(x) <= np.linalg.norm(v) + 1e-8
        assert block_norm(x, cs) <= block_norm(v, cs) + 1e-8


def test_prox_optimality_certificate():
    # subgradient certificate via the scaled duals: g_i = -rho*u_i decompose
    # the penalty subgradient, per-clique alignment/dual-norm conditions hold
    rng = np.random.default_rng(6)
    cs = system(4, 4, 2)
    lam = 1.0
    tol = 1e-4
    for _ in range(10):
        v = rng.standard_normal((4, 4))
        res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=50000,
                                                tol_abs=1e-12, tol_rel=1e-11))
        x = res.x.ravel()
        g = -res.report.extra["rho"] * res.u
        # stationarity: sum_i g_i = -2(x - v)
        assert np.max(np.abs(g.sum(axis=0) + 2.0 * (x - v.ravel()))) < tol
        for i in range(cs.n_subsets):
            covered = np.zeros(cs.shape.n, dtype=bool)
            idx = cs.indices[cs.subsets[i]]
            if idx.size:
                covered[idx.ravel()] = True
                for row in idx:
                    xc = x[row]
                    gc = g[i][row]
                    nx = np.linalg.norm(xc)
                    if nx > 1e-6:
                        # active clique: subgradient aligns with x_c
                        assert np.max(np.abs(gc - lam * xc / nx)) < tol
                    else:
                        # zero clique: dual norm within lam (slack >= -tol)
                        assert np.linalg.norm(gc) <= lam + tol
            # pixels not covered by this subset carry no subgradient
            assert np.max(np.abs(g[i][~covered])) < tol if (~covered).any() else True


def test_prox_residual_mostly_monotone():
    # ADMM does not promise a monotone primal + dual trace.  It does promise
    # (He & Yuan 2015) that ||Z_k - Z_{k-1}||^2 + ||U_k - U_{k-1}||^2 never
    # increases, Z being the second block updated.  The path is deterministic,
    # so iterate k is the final state of a solve capped at k iterations; the
    # cold-start state at k = 0 is Z = tile(v), U = 0.
    rng = np.random.default_rng(7)
    cs = system(5, 5, 2)
    s = cs.n_subsets
    iters = 20
    for _ in range(40):
        v = rng.standard_normal((5, 5))
        zs = [np.tile(v.ravel(), (s, 1))]
        us = [np.zeros((s, 25))]
        xs = [None]
        for k in range(1, iters + 1):
            res = prox_block_norm(v, cs, ProxConfig(lam=1.0, max_iters=k))
            assert res.report.iterations == k
            zs.append(res.z)
            us.append(res.u)
            xs.append(res.x.ravel())
        rho = res.report.extra["rho"]
        trace = res.report.residual_trace

        gaps = [np.sum((zs[k] - zs[k - 1]) ** 2) + np.sum((us[k] - us[k - 1]) ** 2)
                for k in range(1, iters + 1)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a * (1 + 1e-9)

        for k in range(1, iters + 1):
            primal = np.linalg.norm(zs[k] - xs[k][None, :])
            dual = rho * s * np.linalg.norm(zs[k].mean(axis=0) - zs[k - 1].mean(axis=0))
            assert trace[k - 1] == pytest.approx(primal + dual, rel=1e-9)


def test_prox_peak_storage_is_2sN():
    cs = system(6, 6, 2)
    rng = np.random.default_rng(8)
    res = prox_block_norm(rng.standard_normal((6, 6)), cs, ProxConfig(lam=1.0))
    assert res.report.peak_aux_entries == 2 * 4 * 36


def test_prox_max_iterations_reported_not_raised():
    rng = np.random.default_rng(9)
    cs = system(6, 6, 2)
    res = prox_block_norm(rng.standard_normal((6, 6)), cs,
                          ProxConfig(lam=1.0, max_iters=2))
    assert res.report.termination_reason == "max-iterations"
    assert res.report.iterations == 2


def test_prox_config_validation():
    with pytest.raises(ConfigError):
        ProxConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        ProxConfig(lam=1.0, rho=0.0)
    with pytest.raises(ConfigError):
        ProxConfig(lam=1.0, max_iters=0)
    with pytest.raises(ConfigError):
        ProxConfig(lam=1.0, tol_abs=-1e-9)


def test_framewise_single_column_reduces_to_prox():
    rng = np.random.default_rng(10)
    cs = system(4, 4, 2)
    v = rng.standard_normal((4, 4, 1))
    cfg = ProxConfig(lam=0.8)
    out, reports = prox_block_norm_framewise(v, cs, cfg)
    direct = prox_block_norm(v[:, :, 0], cs, cfg)
    assert np.array_equal(out[:, :, 0], direct.x)
    assert len(reports) == 1


def test_framewise_duplicate_columns_identical():
    rng = np.random.default_rng(11)
    cs = system(4, 4, 2)
    col = rng.standard_normal((4, 4))
    stack = np.dstack([col, col, col])
    out, _ = prox_block_norm_framewise(stack, cs, ProxConfig(lam=1.0))
    assert np.array_equal(out[:, :, 0], out[:, :, 1])
    assert np.array_equal(out[:, :, 0], out[:, :, 2])


def test_framewise_matches_independent_calls_bitwise():
    rng = np.random.default_rng(12)
    cs = system(6, 6, 2)
    stack = rng.standard_normal((6, 6, 3))
    cfg = ProxConfig(lam=1.3)
    out, _ = prox_block_norm_framewise(stack, cs, cfg)
    for t in range(3):
        assert np.array_equal(out[:, :, t], prox_block_norm(stack[:, :, t], cs, cfg).x)


def test_prox_warm_start_same_solution():
    rng = np.random.default_rng(13)
    cs = system(5, 5, 2)
    v = rng.standard_normal((5, 5))
    cfg = ProxConfig(lam=1.0, max_iters=20000, tol_abs=1e-12, tol_rel=1e-10)
    cold = prox_block_norm(v, cs, cfg).x
    warm = prox_block_norm(v, cs, cfg, x0=rng.standard_normal((5, 5))).x
    assert np.max(np.abs(cold - warm)) < 1e-6


def test_prox_rejects_nonfinite_center():
    v = np.ones((6, 6))
    v[0, 0] = np.nan
    with pytest.raises(ConfigError, match="prox center must be finite"):
        prox_block_norm(v, system(6, 6, 2), ProxConfig(lam=0.5))


def test_prox_rejects_nonfinite_warm_start():
    x0 = np.zeros((6, 6))
    x0[3, 3] = np.inf
    with pytest.raises(ConfigError, match="warm start must be finite"):
        prox_block_norm(np.ones((6, 6)), system(6, 6, 2), ProxConfig(lam=0.5), x0=x0)


def test_prox_config_rejects_nan_lam():
    with pytest.raises(ConfigError, match="lam"):
        ProxConfig(lam=float("nan"))


def test_prox_config_rejects_nan_tol_abs():
    with pytest.raises(ConfigError, match="tol_abs must be finite"):
        ProxConfig(lam=1.0, tol_abs=float("nan"))


def test_prox_config_rejects_nan_tol_rel():
    with pytest.raises(ConfigError, match="tol_rel must be finite"):
        ProxConfig(lam=1.0, tol_rel=float("nan"))


def admm_by_loop(v, side, lam, rho, iters):
    """The prox's ADMM iterates by definition: one copy per subset of
    brute-force cliques, each clique shrunk on its own, every sum taken over
    the full s x n stacks."""
    h, w = v.shape
    s = side * side
    subsets = [[] for _ in range(s)]
    for top, left, idx in helpers.brute_force_cliques(h, w, side):
        subsets[(top % side) * side + left % side].append(idx)
    vflat = v.ravel()
    z = np.tile(vflat, (s, 1))
    u = np.zeros_like(z)
    for _ in range(iters):
        x = (2.0 * vflat + rho * (z + u).sum(axis=0)) / (2.0 + s * rho)
        for i in range(s):
            z[i] = x - u[i]
            for idx in subsets[i]:
                z[i, idx] = group_shrink(z[i, idx], lam / rho)
        u += z - x
    return x, z, u


# 7x5 side 5 and 2x2 side 2 have empty subsets; 5x5 side 1 has a single one;
# the others leave borders narrower than a tile in some subsets
GEOMETRIES = [(7, 5, 5), (6, 9, 4), (5, 5, 1), (9, 9, 3), (10, 7, 2), (2, 2, 2), (12, 13, 6)]


@pytest.mark.parametrize("height,width,side", GEOMETRIES)
def test_strided_z_update_matches_clique_loop(height, width, side):
    rng = np.random.default_rng(height * 100 + width * 10 + side)
    cs = system(height, width, side)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0  # some all-zero cliques
    for lam in (0.3, 2.0):
        for cap in (1, 2, 7):
            res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=cap,
                                                    tol_abs=0.0, tol_rel=0.0))
            assert res.report.iterations == cap
            x, z, u = admm_by_loop(v, side, lam, res.report.extra["rho"], cap)
            assert np.max(np.abs(res.x.ravel() - x)) < 1e-12
            assert np.max(np.abs(res.z - z)) < 1e-12
            assert np.max(np.abs(res.u - u)) < 1e-12


_entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data(),
       st.floats(1e-3, 1e3), st.floats(0.05, 5.0), st.floats(0.1, 10.0))
def test_prox_scale_equivariance(height, width, side, data, c, lam, rho):
    # with rho fixed and no tolerance test, prox(c*v, c*lam) follows c times
    # the path of prox(v, lam), iteration for iteration
    side = min(side, height, width)
    cs = system(height, width, side)
    v = np.array(data.draw(st.lists(_entries, min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    x = prox_block_norm(v, cs, ProxConfig(lam=lam, rho=rho, max_iters=30,
                                          tol_abs=0.0, tol_rel=0.0)).x
    xc = prox_block_norm(c * v, cs, ProxConfig(lam=c * lam, rho=rho, max_iters=30,
                                               tol_abs=0.0, tol_rel=0.0)).x
    assert np.linalg.norm(xc - c * x) <= 1e-9 * c * np.linalg.norm(v)
