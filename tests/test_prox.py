import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksparse import (ConfigError, GridShape, ProxConfig, ShapeError, block_norm,
                         build_clique_system, prox, prox_block_norm)

from blocksparse.prox import (BALANCE_RATIO, GAP_STRIDE, RELAXATION, RHO_OCTAVES,
                              RHO_START_WEIGHT, SPECTRAL_MIN_CORRELATION, SPECTRAL_SAFEGUARD,
                              SPECTRAL_STRIDE, _PenaltyRule, _support_radius, _TileStack)

import helpers
from helpers import group_shrink


def system(h, w, side):
    return build_clique_system(GridShape(h, w), side)


def start_rho(v, lam):
    """The starting penalty of the module docstring, from ``v`` and ``lam``."""
    peak = float(np.abs(v).max())
    return 1.0 + RHO_START_WEIGHT * lam / peak if peak > 0 else 1.0


def certifying_tol_rel(v, dist):
    """A ``tol_rel`` whose stop certifies ``||x - x*|| <= dist``: the gap
    bounds ``||x - x*||^2`` and, at a stop, is at most
    ``tol_rel * P <= tol_rel * (||v||^2 + gap)``."""
    bound = 0.5 * dist * dist
    return bound / (np.sum(np.asarray(v) ** 2) + bound)


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


def test_shrink_rejects_nonfinite_threshold_and_input():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="shrinkage threshold must be finite"):
            group_shrink(np.ones(2), bad)
        with pytest.raises(ConfigError, match="shrinkage input must be finite"):
            group_shrink(np.array([1.0, bad]), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0], ids=str)
def test_shrink_rejects_bad_threshold_by_name(bad):
    message = "finite" if not math.isfinite(bad) else "nonnegative"
    with pytest.raises(ConfigError, match=f"^shrinkage threshold must be {message}$"):
        group_shrink(np.ones(3), bad)


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
        res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000, tol_abs=0.0,
                                                tol_rel=certifying_tol_rel(v, 1e-6)))
        assert res.report.termination_reason == "converged"
        expected = group_shrink(v.ravel(), lam / 2.0).reshape(2, 2)
        assert np.max(np.abs(res.x - expected)) < 1e-6


def test_prox_objective_matches_smoothed_descent_oracle():
    rng = np.random.default_rng(2)
    cs = system(6, 6, 2)
    idx = helpers.clique_index_lists(6, 6, 2)
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
    idx = helpers.clique_index_lists(5, 5, 2)
    obj = cvxpy.sum_squares(x - v.ravel()) + lam * sum(
        cvxpy.norm(x[c], 2) for c in idx)
    cvxpy.Problem(cvxpy.Minimize(obj)).solve()
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000,
                                            tol_abs=1e-12, tol_rel=1e-10))
    f_admm = helpers.prox_objective(res.x, v, idx, lam)
    assert f_admm <= obj.value * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(res.x.ravel() - x.value)) < 1e-4


def test_prox_against_dual_ascent():
    # the convex-solver test's problem, against the certified NumPy reference
    rng = np.random.default_rng(3)
    cs = system(5, 5, 2)
    v = rng.standard_normal((5, 5))
    lam = 1.5
    idx = helpers.clique_index_lists(5, 5, 2)
    x_ref, _ = helpers.prox_by_dual_ascent(v, idx, lam)
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000,
                                            tol_abs=1e-12, tol_rel=1e-10))
    f_admm = helpers.prox_objective(res.x, v, idx, lam)
    assert f_admm <= helpers.prox_objective(x_ref.reshape(5, 5), v, idx, lam) * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(res.x.ravel() - x_ref)) < 1e-4


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
    subsets = [[] for _ in range(cs.n_subsets)]
    for top, left, idx in helpers.brute_force_cliques(4, 4, 2):
        subsets[(top % 2) * 2 + left % 2].append(idx)
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
            idx = np.array(subsets[i])
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


def explicit_path(v, cs, lam, iters):
    """The iterates ``(xs, zs, us, rhos)`` of a zero-tolerance solve after
    each iteration ``k = 0, ..., iters``, with ``Z`` and ``U`` as whole
    stacks.  The path is deterministic, so iterate k is the final state of a
    solve capped at k iterations, and rho after iteration k is that solve's
    final rho; the starting state at k = 0 is Z = tile(v), U = 0,
    rho = start_rho(v, lam), and iteration k runs at rhos[k - 1].  The solve
    returns x and U, not Z: the u-update
    U_k = U_{k-1} + Z_k - (alpha*x_k + (1 - alpha) Z_{k-1}), followed by a
    rescale of U_k by rho_{k-1}/rho_k where rho changed, gives
    Z_k = U_k*rho_k/rho_{k-1} - U_{k-1} + alpha*x_k + (1 - alpha) Z_{k-1}.
    Each capped solve's gap is checked against the oracle's."""
    s = cs.n_subsets
    zs = [np.tile(v.ravel(), (s, 1))]
    us = [np.zeros((s, v.size))]
    xs = [None]
    rhos = [start_rho(v, lam)]
    for k in range(1, iters + 1):
        res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=k, tol_abs=0.0, tol_rel=0.0))
        assert res.report.iterations == k
        rhos.append(res.report.extra["rho"])
        zs.append(res.u * (rhos[k] / rhos[k - 1]) - us[k - 1]
                  + RELAXATION * res.x.ravel() + (1.0 - RELAXATION) * zs[k - 1])
        us.append(res.u)
        xs.append(res.x.ravel())
        # each cap's gap is the oracle's at that cap's own rho
        gap = helpers.prox_gap_by_projection(v, res.x, res.u, rhos[k], lam, cs.side)
        assert res.report.residual_trace[-1] == pytest.approx(gap, rel=1e-9, abs=1e-12)
    return xs, zs, us, rhos


def test_prox_residual_mostly_monotone():
    # ADMM does not promise a monotone gap.  Relaxed ADMM at a fixed rho does
    # promise (Fang, He, Liu & Yuan 2015, *Generalized alternating direction
    # method of multipliers*) that ||dZ||^2 + 2(alpha - 1)<dZ, dU> + ||dU||^2,
    # with dZ = Z_k - Z_{k-1} and dU = U_k - U_{k-1}, never increases: a
    # fixed positive-definite form of the step of Z, the second block
    # updated, and of the multiplier rho*U.  At alpha = 1 it is He & Yuan's
    # (2015) ||dZ||^2 + ||dU||^2, which relaxation does not keep monotone: on
    # the 7x7 side-3 problems below it rises by up to 34% at alpha = 1.8.
    # The prox may change rho at every SPECTRAL_STRIDE-th iteration, so the
    # form is compared only between steps taken at one rho, some solve below
    # must change rho and some pairs of steps must share one
    rng = np.random.default_rng(7)
    iters = 20
    changed = compared = 0
    for size, side, lam, trials in ((5, 2, 1.0, 40), (7, 3, 3.0, 10)):
        cs = system(size, size, side)
        for _ in range(trials):
            v = rng.standard_normal((size, size))
            _, zs, us, rhos = explicit_path(v, cs, lam, iters)
            changed += rhos[10] != rhos[0]  # a change with a stretch after it

            steps = []
            for k in range(1, iters + 1):
                dz, du = zs[k] - zs[k - 1], us[k] - us[k - 1]
                steps.append(np.sum(dz * dz) + 2.0 * (RELAXATION - 1.0) * np.sum(dz * du)
                             + np.sum(du * du))
            # step k runs at rhos[k - 1] and, with no change after it, leaves
            # U at that rho's scale
            for k in range(1, iters):
                if rhos[k - 1] == rhos[k] == rhos[k + 1]:
                    compared += 1
                    assert steps[k] <= steps[k - 1] * (1 + 1e-9)
    assert changed > 0 and compared > 0


@pytest.mark.parametrize("height,width,side", helpers.GEOMETRIES)
def test_spectral_products_match_the_explicit_stacks(height, width, side, monkeypatch):
    # at every estimate iteration k the penalty rule reads the products of
    # the whole stacks Z and U rebuilt from capped solves, summed over copy 0
    # and multiplied by s (sampled_sum): the primal residual
    # ||Z_k - 1 x_k^T||, and ||dZ||^2, <dZ, dU> and ||dU||^2 for
    # dZ = Z_k - Z_{k-2} and dU = U_k - U_{k-2}, both U at iteration k's
    # rho.  Borders narrower than a tile, empty subsets and all-zero cliques
    # included; changes of rho between the windows included.  Each side
    # forms the stacks with an absolute error of some eps*||v||, and the
    # steps dZ and dU of a converging solve approach that error, so the
    # vectors are compared to a relative 1e-9 plus e = 1e-12*||v||: for
    # ||a|| and <a, b>, errors of e propagate as |d||a||| <= e and
    # |d<a, b>| <= (||a|| + ||b||) e
    rng = np.random.default_rng(height * 100 + width * 10 + side)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0
    cs = system(height, width, side)
    iters = 16
    floor = 1e-12 * np.linalg.norm(v)
    read = []
    step = _PenaltyRule.step

    def recording(self, k, rho, primal_res, zbar_step, dz_sq, dzu, du_sq):
        read.append((k, primal_res, dz_sq, dzu, du_sq))
        return step(self, k, rho, primal_res, zbar_step, dz_sq, dzu, du_sq)

    for lam in (0.3, 2.0):
        xs, zs, us, rhos = explicit_path(v, cs, lam, iters)
        read.clear()
        monkeypatch.setattr(_PenaltyRule, "step", recording)
        rep = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=iters, tol_abs=0.0,
                                                tol_rel=0.0)).report
        monkeypatch.undo()
        assert rep.extra["rho"] == rhos[iters]
        assert [k for k, *_ in read] == list(range(SPECTRAL_STRIDE, iters + 1, SPECTRAL_STRIDE))
        for k, primal_res, dz_sq, dzu, du_sq in read:
            dz = zs[k] - zs[k - 2]
            du = (rhos[k] * us[k] - rhos[k - 2] * us[k - 2]) / rhos[k - 1]
            primal = math.sqrt(sampled_sum((zs[k] - xs[k]) ** 2))
            dz_norm, du_norm = math.sqrt(sampled_sum(dz * dz)), math.sqrt(sampled_sum(du * du))
            assert primal_res == pytest.approx(primal, rel=1e-9, abs=floor)
            assert math.sqrt(dz_sq) == pytest.approx(dz_norm, rel=1e-9, abs=floor)
            assert math.sqrt(du_sq) == pytest.approx(du_norm, rel=1e-9, abs=floor)
            assert dzu == pytest.approx(sampled_sum(dz * du), rel=1e-9,
                                        abs=(1e-9 * dz_norm + floor) * du_norm + floor * dz_norm)


@pytest.mark.parametrize("height,width,side", helpers.GEOMETRIES)
def test_x_update_sums_the_hat_multipliers(height, width, side):
    # the x-update makes sum_i lamhat_k^i = 2(x_k - v) for
    # lamhat_k = rho (U_{k-1} + Z_{k-1} - 1 x_k^T), iteration k's rho: so
    # <1 dx^T, d lamhat> = 2||dx||^2, and the minimum-gradient estimate of the
    # x-side curvature is 2/s on every solve
    rng = np.random.default_rng(height * 100 + width * 10 + side)
    v = rng.standard_normal((height, width))
    cs = system(height, width, side)
    xs, zs, us, rhos = explicit_path(v, cs, 0.7, 12)
    for k in range(1, 13):
        hat = rhos[k - 1] * (us[k - 1] + zs[k - 1] - xs[k])
        size = rhos[k - 1] * max(np.abs(us[k - 1]).max(), np.abs(zs[k - 1]).max(), 1.0)
        assert np.max(np.abs(hat.sum(axis=0) - 2.0 * (xs[k] - v.ravel()))) <= 1e-12 * size * cs.n_subsets


def test_penalty_rule_keeps_the_safeguard():
    # every change is a power of two of at most 1 + SPECTRAL_SAFEGUARD/k**2,
    # so none comes after iteration sqrt(SPECTRAL_SAFEGUARD), and rho stays
    # within RHO_OCTAVES octaves of its start: the changes are bounded and
    # finitely many, and the fixed-penalty convergence argument applies from
    # the last one.  The draws take both rules, and every change is counted
    rng = np.random.default_rng(32)
    last = int(math.sqrt(SPECTRAL_SAFEGUARD))
    for _ in range(20):
        rule = _PenaltyRule(1e-12, 1e-9)
        rho, changes = 1.0, 0
        for k in (list(range(SPECTRAL_STRIDE, 400, SPECTRAL_STRIDE))
                  + [last - 1, last, last + 1, 10 * last]):
            dz_sq, du_sq = 10.0 ** rng.uniform(-6, 6, 2)
            dzu = rng.uniform(-1, 0.5) * math.sqrt(dz_sq * du_sq)
            primal, zbar_step = 10.0 ** rng.uniform(-6, 6, 2)
            f = rule.step(k, rho, primal, zbar_step, dz_sq, dzu, du_sq)
            assert f == 2.0 ** round(math.log2(f))
            assert abs(math.log2(f)) <= math.log2(1.0 + SPECTRAL_SAFEGUARD / k**2)
            rho /= f
            changes += f != 1.0
            assert abs(math.log2(rho)) <= RHO_OCTAVES and rho == 2.0 ** rule.octave
            if k > last:
                assert f == 1.0
        assert rule.changes["rho_spectral"] > 0 and rule.changes["rho_fallback"] > 0
        assert rule.changes["rho_spectral"] + rule.changes["rho_fallback"] == changes


def test_prox_penalty_freezes_after_the_safeguard(monkeypatch):
    # with a safeguard of 64, rho may move by up to 2**3 at iteration 3 and
    # by 2 at iteration 6, and never after, as 1 + 64/81 < 2 at iteration 9:
    # solves capped at 8 and later end at one rho, within 2**4 of the start
    monkeypatch.setattr(prox, "SPECTRAL_SAFEGUARD", 64.0)
    v = np.random.default_rng(33).standard_normal((12, 12))
    cs = system(12, 12, 2)
    rhos = {cap: prox_block_norm(v, cs, ProxConfig(lam=0.5, max_iters=cap, tol_abs=0.0,
                                                   tol_rel=0.0)).report.extra["rho"]
            for cap in (2, 4, 8, 9, 20, 60)}
    assert rhos[8] == rhos[9] == rhos[20] == rhos[60]
    assert abs(math.log2(rhos[60] / start_rho(v, 0.5))) <= 4


def test_prox_counts_penalty_changes_by_rule():
    # the spectral rule and its fallback both change rho on this problem,
    # and their counts add up to every change
    rng = np.random.default_rng(31)
    v = np.zeros((32, 32))
    v[4:8, 10:15] = 1.0
    v[20:24, 3:8] = -1.0
    v += 0.3 * rng.standard_normal(v.shape)
    for lam in (0.3, 0.6, 1.2):
        rep = prox_block_norm(v, system(32, 32, 2), ProxConfig(lam=lam)).report
        extra = rep.extra
        assert extra["rho_spectral"] + extra["rho_fallback"] == extra["rho_changes"]
        assert extra["rho_spectral"] > 0 and extra["rho_fallback"] > 0
        # every SPECTRAL_STRIDE-th iteration takes an estimate, but not the
        # one a stop test ends
        stopped_on_estimate = (rep.termination_reason != "max-iterations"
                               and rep.iterations % SPECTRAL_STRIDE == 0)
        assert extra["rho_estimates"] == rep.iterations // SPECTRAL_STRIDE - stopped_on_estimate
        assert extra["rho_changes"] <= extra["rho_estimates"]


@pytest.mark.parametrize("tol_abs,tol_rel", [(1e-8, 1e-6), (0.0, 1e-9), (1e-6, 0.0)])
def test_prox_converged_solve_satisfies_gap_rule(tol_abs, tol_rel):
    # the reported gap is the oracle's, and a converged solve meets the rule
    # under it; the oracle gap certifies ||x - x*||^2 against a tight solve
    rng = np.random.default_rng(20)
    cs = system(9, 8, 3)
    tight = ProxConfig(lam=0.7, max_iters=50000, tol_abs=0.0, tol_rel=1e-14)
    for _ in range(3):
        v = 5.0 * rng.standard_normal((9, 8))
        res = prox_block_norm(v, cs, ProxConfig(lam=0.7, max_iters=50000,
                                                tol_abs=tol_abs, tol_rel=tol_rel))
        assert res.report.termination_reason == "converged"
        primal = res.report.objective_trace[-1]
        gap = helpers.prox_gap_by_projection(v, res.x, res.u, res.report.extra["rho"], 0.7, 3)
        assert res.report.residual_trace[-1] == pytest.approx(gap, rel=1e-6, abs=1e-12 * primal)
        assert gap <= tol_rel * primal + tol_abs * np.sum(v ** 2) + 1e-12 * primal
        x_star = prox_block_norm(v, cs, tight).x
        assert np.sum((res.x - x_star) ** 2) <= gap + 1e-12 * primal


def test_prox_gap_certified_after_rescales():
    # a change of rho rescales u so that -rho*u stays put: the oracle's gap
    # from the final u at the final rho is the traced one
    rng = np.random.default_rng(31)
    v = np.zeros((32, 32))
    v[4:8, 10:15] = 1.0
    v[20:24, 3:8] = -1.0
    v += 0.3 * rng.standard_normal(v.shape)
    res = prox_block_norm(v, system(32, 32, 2), ProxConfig(lam=0.6))
    rep = res.report
    assert rep.termination_reason == "converged"
    assert rep.extra["rho_changes"] >= 2
    assert rep.extra["rho"] != start_rho(v, 0.6)
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rep.extra["rho"], 0.6, 2)
    assert rep.residual_trace[-1] == pytest.approx(gap, rel=1e-6,
                                                   abs=1e-12 * rep.objective_trace[-1])


def test_a_tile_scale_that_rounds_to_zero_keeps_the_duals_finite(monkeypatch):
    # at the last iteration copy 0's first tile is given the norm
    # tau/(alpha - 1), so its scale 1 - tau/((alpha - 1)||q||) is exactly 0.
    # The solve sets it to eps: the final U = (1 - 1/g) r would be 0 * inf.
    # No estimate runs, so tau stays lam/rho0.  That tile lies in the
    # support, where -rho*U projected onto the lam-ball is the optimum's
    # dual block whatever the tile's scale, so the gap still certifies
    monkeypatch.setattr(prox, "SPECTRAL_STRIDE", 10**9)
    rng = np.random.default_rng(3)
    v = 0.3 * rng.standard_normal((8, 8))
    v[:4, :4] += 2.0
    lam, cap = 0.8, 300
    tau = lam / start_rho(v, lam)
    norms, scale_tiles = _TileStack.norms, _TileStack.scale_tiles
    first_factors = []

    def pinned(self):
        norms(self)
        if len(first_factors) == cap - 1:
            self.scale[0, 0, 0, 0] = tau / (RELAXATION - 1.0)

    def recording(self, factors):
        first_factors.append(float(factors[0, 0, 0, 0]))
        scale_tiles(self, factors)

    monkeypatch.setattr(_TileStack, "norms", pinned)
    monkeypatch.setattr(_TileStack, "scale_tiles", recording)
    res = prox_block_norm(v, system(8, 8, 2),
                          ProxConfig(lam=lam, max_iters=cap, tol_abs=0.0, tol_rel=0.0))
    assert res.report.iterations == cap
    assert first_factors[cap - 1] == np.finfo(float).eps
    assert np.all(np.isfinite(res.x)) and np.all(np.isfinite(res.u))
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, res.report.extra["rho"], lam, 2)
    assert gap <= 1e-4 * res.report.objective_trace[-1]


def test_prox_gap_nonnegative():
    # weak duality: every traced gap is >= 0 up to roundoff.  D sums terms
    # of the size of ||v||^2 = P(0), which can exceed P many times over, so
    # the roundoff is measured against ||v||^2
    rng = np.random.default_rng(21)
    for h, w, side in helpers.GEOMETRIES:
        cs = system(h, w, side)
        v = rng.standard_normal((h, w))
        for lam in (0.1, 1.0, 10.0):
            rep = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=300, tol_abs=0.0,
                                                    tol_rel=0.0)).report
            assert min(rep.residual_trace) >= -1e-12 * np.sum(v ** 2)


def test_prox_zero_tolerances_run_max_iters():
    # a zero center has gap exactly 0 from the first iteration; a converged
    # solve reaches roundoff, where the gap can be 0 or negative.  Neither
    # stops a solve whose tolerances are zero.
    cs = system(4, 4, 2)
    rep = prox_block_norm(np.zeros((4, 4)), cs, ProxConfig(lam=1.0, max_iters=25, tol_abs=0.0,
                                                           tol_rel=0.0)).report
    assert rep.iterations == 25 and rep.termination_reason == "max-iterations"
    assert max(rep.residual_trace) == 0.0
    v = np.random.default_rng(22).standard_normal((4, 4))
    rep = prox_block_norm(v, cs, ProxConfig(lam=1.0, max_iters=2000, tol_abs=0.0,
                                            tol_rel=0.0)).report
    assert rep.iterations == 2000 and rep.termination_reason == "max-iterations"
    assert min(rep.residual_trace) <= 1e-14 * rep.objective_trace[-1]
    # with any positive tolerance the zero center stops at once
    rep = prox_block_norm(np.zeros((4, 4)), cs, ProxConfig(lam=1.0, tol_abs=0.0,
                                                           tol_rel=1e-12)).report
    assert rep.iterations == 1 and rep.termination_reason == "converged"


def test_prox_zero_center_returns_zero_at_a_finite_rho():
    # lam/max|v| is infinite at v = 0, where the solve starts at rho = 1
    # instead; with zero tolerances it runs through eight estimates, where
    # both residuals are 0, rounding error, and rho stays
    for cfg in (ProxConfig(lam=2.0), ProxConfig(lam=2.0, max_iters=25, tol_abs=0.0,
                                                tol_rel=0.0)):
        res = prox_block_norm(np.zeros((6, 5)), system(6, 5, 2), cfg)
        assert np.all(res.x == 0) and np.all(res.u == 0)
        assert res.report.extra["rho"] == 1.0


def traced_peak(v, cs, support_tol=None):
    """tracemalloc peak, in bytes, of a 20-iteration zero-tolerance solve
    at lam 0.5, which runs through six estimates of the penalty and changes
    rho, so the kept copy, the estimates and the rescale of the duals are
    measured too."""
    cfg = ProxConfig(lam=0.5, max_iters=20, tol_abs=0.0, tol_rel=0.0)
    # also warms any lazily built state
    rep = prox_block_norm(v, cs, cfg, support_tol=support_tol).report
    assert rep.iterations == 20 and rep.extra["rho_changes"] >= 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prox_block_norm(v, cs, cfg, support_tol=support_tol)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_one_copy_stack(side, extent, support_tol=None):
    # measured, not declared: beyond its inputs a solve holds the carried
    # duals (s x n) and a tail of (side - 1)(W + 1), plus O(n) working
    # vectors, and no copy of Z.  A second stack, such as the copies Z held
    # whole, adds s*n
    cs = system(extent, extent, side)
    s, n = cs.n_subsets, extent * extent
    peak = traced_peak(np.random.default_rng(23).standard_normal((extent, extent)), cs,
                       support_tol)
    stack = s * n * 8
    assert stack <= peak <= stack + 12 * n * 8, (side, extent, peak / (8 * n) - s)


def test_prox_holds_one_copy_stack():
    # the working vectors peak at 10.36 n here (NumPy 2.4), at the dual value
    # of an iteration that checks its gap and estimates the penalty: three
    # resident n-vectors, one array of tile scales, the last zbar, copy 0's
    # Z and U from two iterations before and from this one, and ubar.
    # Scaling the tiles peaks at 9.59 n, with its n/side row factors and
    # NumPy's ufunc buffer for their product broadcast over a copy's block
    # (0.95 n).  No product broadcasts an n-vector over the stack, which
    # took a buffer of 8,192 entries (3.6 n here)
    assert_one_copy_stack(6, 48)


def test_prox_holds_one_copy_stack_at_side_8():
    # the working vectors peak at 10.26 n here (NumPy 2.4)
    assert_one_copy_stack(8, 64)


def test_prox_holds_one_copy_stack_with_a_support_test():
    # a support_tol no 20-iteration solve meets, so the support test runs at
    # every checked iteration: its radius goes through the vector that holds
    # ubar (10.39 n)
    assert_one_copy_stack(6, 48, support_tol=1e-9)


def test_prox_max_iterations_reported_not_raised():
    rng = np.random.default_rng(9)
    cs = system(6, 6, 2)
    res = prox_block_norm(rng.standard_normal((6, 6)), cs,
                          ProxConfig(lam=1.0, max_iters=2))
    assert res.report.termination_reason == "max-iterations"
    assert res.report.iterations == 2


def checked_iterations(cap, stride=GAP_STRIDE):
    """The iterations up to ``cap`` at which the prox evaluates its gap:
    iteration 1, every ``stride``-th after it and the cap."""
    return sorted({k for k in range(1, cap + 1) if (k - 1) % stride == 0} | {cap})


def test_prox_counts_iterations_and_traces_checks():
    # a zero-tolerance solve capped at 25 runs 25 iterations and traces the
    # gap at its checked ones alone, each the oracle's gap at that state
    v = np.random.default_rng(24).standard_normal((5, 6))
    cs = system(5, 6, 2)
    rep = prox_block_norm(v, cs, ProxConfig(lam=1.0, max_iters=25, tol_abs=0.0,
                                            tol_rel=0.0)).report
    checks = checked_iterations(25)
    assert rep.iterations == 25 and len(rep.residual_trace) == len(checks) < 25
    for k, traced in zip(checks, rep.residual_trace):
        res = prox_block_norm(v, cs, ProxConfig(lam=1.0, max_iters=k, tol_abs=0.0, tol_rel=0.0))
        gap = helpers.prox_gap_by_projection(v, res.x, res.u, res.report.extra["rho"], 1.0, 2)
        assert traced == pytest.approx(gap, rel=1e-9, abs=1e-12 * np.sum(v ** 2))


def assert_stop_is_a_capped_state(v, cs, cfg, support_tol, stride):
    """A solve with tolerances, its gap checked every ``stride`` iterations,
    stops at a checked iteration ``k`` on the very state a zero-tolerance
    solve capped at ``k`` returns, with the oracle's gap of that state.
    Returns the solve's report."""
    side = cs.side
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prox, "GAP_STRIDE", stride)
        res = prox_block_norm(v, cs, cfg, support_tol=support_tol)
        rep = res.report
        k = rep.iterations
        if k == 0:
            # a weight of at least 2||v|| is screened to x = 0 and has no path
            # (test_prox_screens_a_weight_of_twice_the_center_norm)
            assert cfg.lam ** 2 >= 4.0 * np.sum(v ** 2) and not res.x.any()
            return rep
        assert k in checked_iterations(cfg.max_iters, stride)
        capped = prox_block_norm(v, cs, ProxConfig(lam=cfg.lam, max_iters=k, tol_abs=0.0,
                                                   tol_rel=0.0))
    assert np.array_equal(res.x, capped.x)
    if capped.report.extra["rho_changes"] == rep.extra["rho_changes"]:
        assert np.array_equal(res.u, capped.u)
        assert capped.report.extra["rho"] == rep.extra["rho"]
    else:
        # a stop at an estimate iteration comes before the estimate, which
        # the capped solve then runs: its rho changed, with u rescaled so
        # that -rho*u is kept up to the rescale's rounding
        assert k % SPECTRAL_STRIDE == 0
        assert capped.report.extra["rho_changes"] == rep.extra["rho_changes"] + 1
        g = -rep.extra["rho"] * res.u
        g_capped = -capped.report.extra["rho"] * capped.u
        assert np.max(np.abs(g - g_capped)) <= 1e-12 * max(1.0, float(np.abs(g).max()))
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rep.extra["rho"], cfg.lam, side)
    assert rep.residual_trace[-1] == pytest.approx(gap, rel=1e-6, abs=1e-12 * np.sum(v ** 2))
    return rep


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(helpers.GEOMETRIES), st.integers(0, 2**32 - 1), st.floats(0.05, 5.0),
       st.sampled_from([None, 3e-3]))
@example((10, 7, 2), 1, 0.5, None)
def test_gap_checks_do_not_perturb_the_path(geometry, seed, lam, support_tol):
    # at GAP_STRIDE and at stride 1 alike, a solve stops on the state of a
    # solve capped at its stop, and checking every iteration stops no later.
    # Checking at stride 1 need not stop within GAP_STRIDE - 1 iterations of
    # k: the ADMM gap is not monotone, so it can pass and fail again.  At
    # either stride a stop can come at an estimate iteration, before its
    # estimate: at GAP_STRIDE those are 9, 21, 33, ..., both 1 mod 4 and
    # multiples of SPECTRAL_STRIDE
    height, width, side = geometry
    cs = system(height, width, side)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0
    cfg = ProxConfig(lam=lam)
    rep = assert_stop_is_a_capped_state(v, cs, cfg, support_tol, GAP_STRIDE)
    every = assert_stop_is_a_capped_state(v, cs, cfg, support_tol, 1)
    assert every.iterations <= rep.iterations
    assert len(every.residual_trace) == every.iterations


def test_prox_config_validation():
    with pytest.raises(ConfigError):
        ProxConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        ProxConfig(lam=1.0, max_iters=0)
    with pytest.raises(ConfigError):
        ProxConfig(lam=1.0, tol_abs=-1e-9)


def test_prox_rejects_nonfinite_center():
    v = np.ones((6, 6))
    v[0, 0] = np.nan
    with pytest.raises(ConfigError, match="prox center must be finite"):
        prox_block_norm(v, system(6, 6, 2), ProxConfig(lam=0.5))


def test_prox_rejects_a_center_of_the_wrong_shape():
    with pytest.raises(ShapeError, match="does not match clique grid"):
        prox_block_norm(np.ones((6, 5)), system(6, 6, 2), ProxConfig(lam=0.5))


def test_prox_rejects_a_center_whose_squared_norm_overflows():
    # at 1e160 the gap and its tolerance were both inf, and the solve stopped
    # "converged" after one iteration, 1.89 away from the scaled solution;
    # at 1e150 every sum is finite and the solve scales
    v = np.random.default_rng(0).standard_normal((8, 8))
    cs = system(8, 8, 2)
    unit = prox_block_norm(v, cs, ProxConfig(lam=1.0)).x
    c = 1e150
    scaled = prox_block_norm(c * v, cs, ProxConfig(lam=c))
    assert scaled.report.termination_reason == "converged"
    assert np.max(np.abs(scaled.x / c - unit)) <= 1e-12
    c = 1e160
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="squared norm"):
        prox_block_norm(c * v, cs, ProxConfig(lam=c))
    # at 1.6e153 the squares sum to a finite 1.4e308 and lam^2 is below the
    # screen's 4||v||^2 = 214 lam^2, but the objective or dual value at the
    # first check overflows
    c = 1.6e153
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="objective or its dual value"):
        prox_block_norm(c * v, cs, ProxConfig(lam=c))


@pytest.mark.parametrize("lam, match", [(1.7e308, "starting penalty")])
def test_prox_rejects_a_weight_that_overflows(lam, match):
    # at 1.7e308 rho0 is inf and x came back NaN, labelled "max-iterations".
    # A finite rho0 with lam >= 2||v|| is screened to the exact prox 0
    # (test_prox_screens_a_weight_of_twice_the_center_norm)
    v = np.random.default_rng(0).standard_normal((8, 8))
    cs = system(8, 8, 2)
    with pytest.raises(ConfigError, match=match):
        prox_block_norm(v, cs, ProxConfig(lam=lam))
    # far above the data's scale, but finite throughout: the exact prox is 0
    res = prox_block_norm(v, cs, ProxConfig(lam=1e10))
    assert res.report.termination_reason == "converged"


@pytest.mark.parametrize("lam", [20.0, 1e10, 1e20, 1e300])
def test_prox_screens_a_weight_of_twice_the_center_norm(lam):
    # at lam >= 2||v|| (14.63 here) the exact prox is 0.  The iteration took
    # 81 iterations to return max|x| 4.7e-7 at 20 and 721 at 1e10, ran to
    # the cap with a gap of 1.30 at 1e20, and overflowed its dual value at
    # 1e300.  The screen returns x = 0 at once, with duals of gap 0
    v = np.random.default_rng(0).standard_normal((8, 8))
    assert lam * lam >= 4.0 * np.sum(v ** 2)
    res = prox_block_norm(v, system(8, 8, 2), ProxConfig(lam=lam))
    rep = res.report
    assert rep.termination_reason == "converged" and rep.iterations == 0
    assert np.all(res.x == 0) and rep.extra["rho"] == start_rho(v, lam)
    assert rep.extra["rho_estimates"] == 0
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rep.extra["rho"], lam, 2)
    assert abs(gap) <= 1e-12 * np.sum(v ** 2)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_prox_screen_sits_at_twice_the_center_norm(scale):
    # the screen's bound is lam = 2||v|| itself: a weight a rounding margin
    # above it returns the exact 0 at once, and one 1e-6 below it iterates
    v = scale * np.random.default_rng(0).standard_normal((8, 8))
    cs = system(8, 8, 2)
    bound = 2.0 * float(np.linalg.norm(v))
    res = prox_block_norm(v, cs, ProxConfig(lam=bound * (1.0 + 1e-12)))
    assert res.report.termination_reason == "converged" and res.report.iterations == 0
    assert np.all(res.x == 0)
    below = prox_block_norm(v, cs, ProxConfig(lam=bound * (1.0 - 1e-6), max_iters=3))
    assert below.report.iterations >= 1


@pytest.mark.parametrize("height,width,side", helpers.GEOMETRIES)
def test_prox_screen_duals_cover_every_pixel_once(height, width, side):
    # each pixel's share of g = 2v sits in one copy whose tiles cover it,
    # borders narrower than a tile included, so the projection oracle's gap
    # is 0; a weight just below the screen iterates
    rng = np.random.default_rng(height * 100 + width * 10 + side)
    v = rng.standard_normal((height, width))
    cs = system(height, width, side)
    lam = 2.0 * float(np.linalg.norm(v))
    res = prox_block_norm(v, cs, ProxConfig(lam=1.001 * lam))
    assert res.report.iterations == 0 and np.all(res.x == 0)
    assert np.count_nonzero(res.u) == np.count_nonzero(v)
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, res.report.extra["rho"], 1.001 * lam,
                                         side)
    assert abs(gap) <= 1e-12 * np.sum(v ** 2)
    assert prox_block_norm(v, cs, ProxConfig(lam=0.999 * lam)).report.iterations > 0


def test_support_radius():
    # x* lies within a of x and b of xt, with a**2 + b**2 <= G and
    # a + b >= d: a <= (d + sqrt(2G - d**2))/2, sqrt(G/2) at d = 0 and
    # sqrt(G) at d = sqrt(G), its largest; a d**2 above 2G is rounding
    for gap in (1e-12, 0.5, 3.0):
        assert _support_radius(0.0, gap) == pytest.approx(math.sqrt(gap / 2), rel=1e-15)
        assert _support_radius(math.sqrt(gap), gap) == pytest.approx(math.sqrt(gap), rel=1e-15)
        assert _support_radius(1.5 * math.sqrt(gap), gap) == math.sqrt(gap)
        for d in np.linspace(0.0, math.sqrt(2 * gap), 7):
            assert _support_radius(d, gap) <= math.sqrt(gap) * (1 + 1e-15)
    assert _support_radius(0.0, -1e-20) == _support_radius(1e-3, -1e-20) == 0.0


def test_prox_reports_the_support_radius_at_a_support_stop():
    v = np.random.default_rng(8).standard_normal((6, 7))
    cs = system(6, 7, 2)
    res = prox_block_norm(v, cs, ProxConfig(lam=1.0, tol_abs=0.0, tol_rel=0.0), support_tol=3e-3)
    assert res.report.termination_reason == "support-certified"
    assert 0 < res.report.extra["support_radius"] <= 3e-3 * np.abs(res.x).max()
    for tol in (None, 1e-12):
        rep = prox_block_norm(v, cs, ProxConfig(lam=1.0), support_tol=tol).report
        assert rep.termination_reason == "converged" and "support_radius" not in rep.extra


def test_prox_rejects_bad_support_tol():
    cs = system(4, 4, 2)
    for bad in (float("nan"), float("inf"), 0.0, -1e-3):
        with pytest.raises(ConfigError, match="support_tol"):
            prox_block_norm(np.ones((4, 4)), cs, ProxConfig(lam=1.0), support_tol=bad)


def test_prox_config_rejects_nan_lam():
    with pytest.raises(ConfigError, match="lam"):
        ProxConfig(lam=float("nan"))


def test_prox_config_rejects_nan_tol_abs():
    with pytest.raises(ConfigError, match="tol_abs must be finite"):
        ProxConfig(lam=1.0, tol_abs=float("nan"))


def test_prox_config_rejects_nan_tol_rel():
    with pytest.raises(ConfigError, match="tol_rel must be finite"):
        ProxConfig(lam=1.0, tol_rel=float("nan"))


def test_prox_config_rejects_non_integer_max_iters():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="max_iters must be an integer"):
            ProxConfig(lam=1.0, max_iters=bad)
    assert ProxConfig(lam=1.0, max_iters=np.int64(7)).max_iters == 7


def sampled_sum(products):
    """The sum of an ``s x n`` stack of products over copy 0, its first row,
    times ``s``: the prox's estimate of the sum over every copy."""
    return len(products) * products[0].sum()


def penalty_octaves_by_definition(k, rho, z, z_old, u, mult_old, primal_res, zbar_step,
                                  floor, noise, pending):
    """``(up, pending)``: the octaves rho moves up at an estimate iteration
    ``k``, before the safeguard and the range, from the full stacks, and the
    fallback's verdict left pending.  ``dZ = Z_k - Z_{k-2}`` and
    ``dU = U_k - U_{k-2}``, ``U_{k-2}`` the multiplier
    ``mult_old = rho_{k-2} U_{k-2}`` over this ``rho``, are sampled on copy
    0, and each sum over it is multiplied by ``s`` (:func:`sampled_sum`).  The spectral step
    ``beta`` is the hybrid of the steepest-descent step
    ``rho ||dU||^2 / -<dZ, dU>`` and the minimum-gradient step
    ``rho -<dZ, dU> / ||dZ||^2``.  Where the correlation of ``-dZ`` and
    ``dU`` exceeds ``SPECTRAL_MIN_CORRELATION`` and neither step is at most
    ``noise``, rho moves by the power of two nearest ``beta/rho``; otherwise
    residual balancing gives a verdict of one octave up, down or none, which
    is taken where the last estimate's verdict was the same.  Where both
    residuals are at most ``floor`` rho stays."""
    if max(primal_res, zbar_step) <= floor:
        return 0, 0
    dz, du = z - z_old, u - mult_old / rho
    dz_sq, dzu, du_sq = sampled_sum(dz * dz), sampled_sum(dz * du), sampled_sum(du * du)
    if (min(dz_sq, du_sq) > noise**2
            and -dzu > SPECTRAL_MIN_CORRELATION * math.sqrt(dz_sq) * math.sqrt(du_sq)):
        steepest, least = -rho * du_sq / dzu, -rho * dzu / dz_sq
        beta = least if 2.0 * least > steepest else steepest - least / 2.0
        return round(math.log2(beta / rho)), 0
    dual_res = rho * zbar_step
    verdict = int(primal_res > BALANCE_RATIO * dual_res) - int(dual_res > BALANCE_RATIO * primal_res)
    return (verdict, 0) if verdict == pending else (0, verdict)


def admm_by_loop(v, side, lam, alpha):
    """The prox's relaxed ADMM iterates by definition from ``x = v``,
    ``z^i = v``, ``u^i = 0`` and ``rho = start_rho(v, lam)``, yielded as
    ``(x, u, rho)`` after each iteration: one copy per subset of
    brute-force cliques, each copy's relaxed point ``alpha*x + (1 - alpha)*z^i``
    formed on its own, each clique shrunk on its own, every sum of the
    iteration taken over the full s x n stacks and those of the penalty
    estimate over copy 0, times ``s``.  At every
    ``SPECTRAL_STRIDE``-th iteration rho moves by
    :func:`penalty_octaves_by_definition` from the stacks of this
    iteration and of two before, by at most ``log2(1 + SPECTRAL_SAFEGUARD/k**2)``
    octaves and to at most ``RHO_OCTAVES`` octaves from the start, and
    ``u`` is rescaled so that ``rho*u`` stays put."""
    h, w = v.shape
    s = side * side
    subsets = [[] for _ in range(s)]
    for top, left, idx in helpers.brute_force_cliques(h, w, side):
        subsets[(top % side) * side + left % side].append(idx)
    vflat = v.ravel()
    floor = 1024.0 * s * np.finfo(float).eps * np.sqrt(s * vflat.size) * np.abs(vflat).max()
    noise = prox.SPECTRAL_NOISE * np.sqrt(s) * np.linalg.norm(vflat)
    octave = pending = 0
    z = np.tile(vflat, (s, 1))
    u = np.zeros_like(z)
    rho = start_rho(v, lam)
    history = [(z.copy(), rho * u)] * 2  # (Z, rho*U) of the last two iterations
    k = 0
    while True:
        k += 1
        zbar_prev = z.mean(axis=0)
        x = (2.0 * vflat + rho * (z + u).sum(axis=0)) / (2.0 + s * rho)
        for i in range(s):
            xhat = alpha * x + (1.0 - alpha) * z[i]
            z[i] = xhat - u[i]
            for idx in subsets[i]:
                z[i, idx] = group_shrink(z[i, idx], lam / rho)
            u[i] += z[i] - xhat
        if k % SPECTRAL_STRIDE == 0:
            z_old, mult_old = history[0]
            up, pending = penalty_octaves_by_definition(
                k, rho, z, z_old, u, mult_old, math.sqrt(sampled_sum((z - x) ** 2)),
                np.sqrt(s) * np.linalg.norm(z.mean(axis=0) - zbar_prev), floor, noise, pending)
            steps = int(math.log2(1.0 + SPECTRAL_SAFEGUARD / k**2))
            up = max(-RHO_OCTAVES, min(RHO_OCTAVES, octave + max(-steps, min(steps, up)))) - octave
            octave += up
            u /= 2.0 ** up
            rho *= 2.0 ** up
        history = [history[1], (z.copy(), rho * u)]
        yield x, u, rho


def assert_matches_clique_loop(v, side, caps):
    # caps 2, 3, 10 and 11 straddle estimates of the penalty.  The two paths
    # round differently, and their difference grows with the cap and the
    # data: on 300 random problems of up to 12x12 with entries up to 10, at
    # lam 0.3 and 2, it reached 2.5e-15 * cap**2 * max(1, max|v|) at caps 1
    # to 31, with the same rho at every cap
    caps = sorted(set(caps) | {2, 3, 10, 11, 25, 31})
    scale = max(1.0, float(np.abs(v).max()))
    cs = system(*v.shape, side)
    for lam in (0.3, 2.0):
        loop = admm_by_loop(v, side, lam, RELAXATION)
        k = 0
        for cap in caps:
            res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=cap,
                                                    tol_abs=0.0, tol_rel=0.0))
            assert res.report.iterations == cap
            while k < cap:
                x, u, rho = next(loop)
                k += 1
            assert res.report.extra["rho"] == rho
            tol = 1e-14 * cap**2 * scale
            assert np.max(np.abs(res.x.ravel() - x)) < tol
            # the multiplier rho*u, in the data's units: the spectral rule
            # can take rho far below 1, and u as far above the data
            assert np.max(np.abs(rho * (res.u - u))) < tol


@pytest.mark.parametrize("height,width,side", helpers.GEOMETRIES)
def test_strided_z_update_matches_clique_loop(height, width, side):
    rng = np.random.default_rng(height * 100 + width * 10 + side)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0  # some all-zero cliques
    assert_matches_clique_loop(v, side, (1, 2, 7))


_entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def geometries(draw, max_extent=12):
    """``(height, width, side)`` with every side the grid admits: sides above
    half the extent leave some subsets empty."""
    height = draw(st.integers(1, max_extent))
    width = draw(st.integers(1, max_extent))
    return height, width, draw(st.integers(1, min(height, width)))


@settings(max_examples=40, deadline=None)
@given(geometries(), st.data())
def test_strided_z_update_matches_clique_loop_on_any_geometry(geometry, data):
    height, width, side = geometry
    v = np.array(data.draw(st.lists(_entries, min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    # an all-zero block makes all-zero cliques whatever the entries drawn
    top = data.draw(st.integers(0, height - side))
    left = data.draw(st.integers(0, width - side))
    v[top:top + side, left:left + side] = 0.0
    assert_matches_clique_loop(v, side, (1, 3))


@settings(max_examples=60, deadline=None)
@given(geometries(), st.integers(0, 2**32 - 1))
def test_tile_scaling_touches_each_clique_pixel_once(geometry, seed):
    # every entry of the buffer, tail included, and every scale, spill tiles
    # included, is random: each in-clique pixel of each copy must come back
    # multiplied by its own tile's scale exactly once, everything else (the
    # pixels outside the tiles, the tail) as it was; and the tile view's
    # norms of the tiles are those of the copies' own pixels
    height, width, side = geometry
    cs = system(height, width, side)
    stack = _TileStack(cs)
    assert stack.r.shape == (cs.n_subsets, height * width)
    assert np.shares_memory(stack.r, stack.buffer[:stack.r.size])
    rng = np.random.default_rng(seed)
    stack.scale[:] = rng.uniform(2.0, 3.0, stack.scale.shape)
    stack.buffer[:] = rng.uniform(1.0, 2.0, stack.buffer.size)
    before = stack.buffer.copy()
    expected = before.copy()
    copies = expected[:stack.r.size].reshape(-1, height, width)
    for i, (a, b, nh, nw) in enumerate(cs.tiles):
        for t in range(nh):
            for q in range(nw):
                band = slice(a + t * side, a + (t + 1) * side)
                cols = slice(b + q * side, b + (q + 1) * side)
                copies[i, band, cols] = copies[i, band, cols] * stack.scale[a, b, t, q]
    stack.scale_tiles(stack.scale)
    assert np.array_equal(stack.buffer, expected)
    stack.norms()
    for i, (a, b, nh, nw) in enumerate(cs.tiles):
        blocks = copies[i, a:a + nh * side, b:b + nw * side].reshape(nh, side, nw, side)
        assert np.allclose(stack.scale[a, b, :nh, :nw],
                           np.sqrt(np.sum(blocks ** 2, axis=(1, 3))), rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(geometries(), st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       st.booleans())
def test_factor_map_forms_the_duals_and_the_rescaled_stack(geometry, seed, f, final):
    # r = (alpha - 1) g q with g the tile's scale, 1 off the tiles, so
    # q = r/((alpha - 1) g), U = r + (1 - alpha) q and Z = r + q.  At the end
    # the map with (f, -f) makes each tile f*U and clear_off_tiles the rest
    # 0; at a change of penalty the map with ((f + alpha - 1)/alpha,
    # (1 - f)/alpha) makes each tile (f*U - (1 - alpha) Z)/alpha and leaves r
    # off the tiles.  Each tile is compared to within 1e-12 of the size of
    # the terms it sums
    height, width, side = geometry
    cs = system(height, width, side)
    stack = _TileStack(cs)
    alpha = RELAXATION
    rng = np.random.default_rng(seed)
    stack.r[:] = rng.standard_normal(stack.r.shape)
    # the scales an iteration leaves, in [-1/(alpha - 1), 1), with eps where
    # one rounds to 0 and the floor -1/(alpha - 1) where a tile is shrunk to 0
    g = rng.uniform(-1.0 / (alpha - 1.0), 1.0, stack.scale.shape)
    g[rng.random(g.shape) < 0.2] = np.finfo(float).eps
    g[rng.random(g.shape) < 0.2] = -1.0 / (alpha - 1.0)
    stack.scale[:] = g
    r = stack.r.copy().reshape(-1, height, width)
    g_pixel = np.ones(r.shape)
    on = np.zeros(r.shape, dtype=bool)
    for i, (a, b, nh, nw) in enumerate(cs.tiles):
        tiles = (slice(a, a + nh * side), slice(b, b + nw * side))
        g_pixel[i][tiles] = g[a, b, :nh, :nw].repeat(side, axis=0).repeat(side, axis=1)
        on[i][tiles] = True
    q = r / ((alpha - 1.0) * g_pixel)
    if final:
        stack.scale_tiles(stack.factors(f, -f))
        stack.clear_off_tiles()
        expected = f * (r + (1.0 - alpha) * q)
        size = f * (np.abs(r) + (alpha - 1.0) * np.abs(q))
        off = 0.0
    else:
        stack.scale_tiles(stack.factors((f + alpha - 1.0) / alpha, (1.0 - f) / alpha))
        expected = (f * (r + (1.0 - alpha) * q) - (1.0 - alpha) * (r + q)) / alpha
        size = (f * (np.abs(r) + (alpha - 1.0) * np.abs(q))
                + (alpha - 1.0) * (np.abs(r) + np.abs(q))) / alpha
        off = r
    got = stack.r.reshape(r.shape)
    assert np.all(np.abs(got - expected)[on] <= 1e-12 * size[on])
    assert np.array_equal(got[~on], np.broadcast_to(off, r.shape)[~on])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data(),
       st.floats(1e-3, 1e3), st.floats(0.05, 5.0))
def test_prox_scale_equivariance(height, width, side, data, c, lam):
    # with no tolerance test, prox(c*v, c*lam) follows c times the path of
    # prox(v, lam), iteration for iteration: the starting rho depends on
    # lam/max|v| only, and the spectral estimates and both balancing
    # residuals scale with c, so rho changes alike.  Every change is a power
    # of two, so final over starting rho is the same power of two in both
    # solves.  100 iterations span 33 estimates of the penalty
    side = min(side, height, width)
    cs = system(height, width, side)
    v = np.array(data.draw(st.lists(_entries, min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=100, tol_abs=0.0, tol_rel=0.0))
    resc = prox_block_norm(c * v, cs, ProxConfig(lam=c * lam, max_iters=100, tol_abs=0.0,
                                                 tol_rel=0.0))
    assert resc.report.extra["rho_changes"] == res.report.extra["rho_changes"]
    assert (resc.report.extra["rho"] / start_rho(c * v, c * lam)
            == res.report.extra["rho"] / start_rho(v, lam))
    assert np.linalg.norm(resc.x - c * res.x) <= 1e-9 * c * np.linalg.norm(v)


@st.composite
def centers(draw, max_extent=8, max_side=3):
    """``(v, side)``: a center of up to ``max_extent`` squared pixels with
    entries of ``_entries`` and a clique side up to ``max_side`` that its
    grid admits."""
    height = draw(st.integers(1, max_extent))
    width = draw(st.integers(1, max_extent))
    side = min(draw(st.integers(1, max_side)), height, width)
    v = draw(st.lists(_entries, min_size=height * width, max_size=height * width))
    return np.array(v).reshape(height, width), side


@settings(max_examples=25, deadline=None)
@given(centers(), st.floats(0.05, 5.0))
@example((np.array([[1.0]]), 1), 2.0)  # screened: lam**2 = 4||v||^2
def test_relaxed_solve_gap_certifies_its_distance_to_the_prox(center, lam):
    # the gap a converged solve reports is the oracle's gap from the u it
    # returns, so the relaxed z-update keeps -rho*u dual feasible; and that
    # gap bounds ||x - x*||^2.  The reference x_ref is solved to a relative
    # gap of 1e-12 and is itself only certified, ||x_ref - x*||^2 <= gap_ref,
    # so the bound is checked as ||x - x_ref|| <= sqrt(gap) + sqrt(gap_ref)
    v, side = center
    cs = system(*v.shape, side)
    scale = 1e-12 * float(np.sum(v ** 2))
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000))
    assert res.report.termination_reason == "converged"
    rho = res.report.extra["rho"]
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rho, lam, side)
    if res.report.iterations == 0:
        # a weight of at least 2||v|| is screened to x = 0, with no trace and
        # duals of gap 0 (test_prox_screens_a_weight_of_twice_the_center_norm)
        assert lam * lam >= 4.0 * np.sum(v ** 2) and not res.x.any()
        assert gap <= scale
        return
    assert res.report.residual_trace[-1] == pytest.approx(gap, rel=1e-6, abs=scale)
    ref = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=50000, tol_abs=0.0,
                                            tol_rel=1e-12))
    gap_ref = helpers.prox_gap_by_projection(v, ref.x, ref.u, ref.report.extra["rho"], lam,
                                             side)
    dist = float(np.linalg.norm(res.x - ref.x))
    assert dist <= np.sqrt(max(gap, 0.0) + scale) + np.sqrt(max(gap_ref, 0.0) + scale)
