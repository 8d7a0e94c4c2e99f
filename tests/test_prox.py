import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksparse import (ConfigError, GridShape, ProxConfig, block_norm,
                         build_clique_system, prox, prox_block_norm)

from blocksparse.prox import (BALANCE_FACTOR, BALANCE_FIRST, BALANCE_RATIO, GAP_STRIDE,
                              RELAXATION, RHO_START_WEIGHT, _TileStack)

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


def test_prox_residual_mostly_monotone():
    # ADMM does not promise a monotone gap.  Relaxed ADMM at a fixed rho does
    # promise (Fang, He, Liu & Yuan 2015, *Generalized alternating direction
    # method of multipliers*) that ||dZ||^2 + 2(alpha - 1)<dZ, dU> + ||dU||^2,
    # with dZ = Z_k - Z_{k-1} and dU = U_k - U_{k-1}, never increases: a
    # fixed positive-definite form of the step of Z, the second block
    # updated, and of the multiplier rho*U.  At alpha = 1 it is He & Yuan's
    # (2015) ||dZ||^2 + ||dU||^2, which relaxation does not keep monotone: on
    # the 7x7 side-3 problems below it rises by up to 34% at alpha = 1.8.
    # The prox balances rho, so the form is compared only between steps
    # taken at one rho, and some solve below must change it.  The path is
    # deterministic, so iterate k is the final state of a solve capped at k
    # iterations, and rho after iteration k is that solve's final rho; the
    # starting state at k = 0 is Z = tile(v), U = 0, rho = start_rho(v, lam).
    rng = np.random.default_rng(7)
    iters = 20
    changed = 0
    for size, side, lam, trials in ((5, 2, 1.0, 40), (7, 3, 3.0, 10)):
        cs = system(size, size, side)
        s = cs.n_subsets
        for _ in range(trials):
            v = rng.standard_normal((size, size))
            zs = [np.tile(v.ravel(), (s, 1))]
            us = [np.zeros((s, size * size))]
            xs = [None]
            rhos = [start_rho(v, lam)]
            for k in range(1, iters + 1):
                res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=k,
                                                        tol_abs=0.0, tol_rel=0.0))
                assert res.report.iterations == k
                zs.append(res.z)
                us.append(res.u)
                xs.append(res.x)
                rhos.append(res.report.extra["rho"])
                # each cap's gap is the oracle's at that cap's own rho
                gap = helpers.prox_gap_by_projection(v, res.x, res.u, rhos[k], lam, side)
                assert res.report.residual_trace[-1] == pytest.approx(gap, rel=1e-9, abs=1e-12)
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
                    assert steps[k] <= steps[k - 1] * (1 + 1e-9)
    assert changed > 0


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
    # instead; with zero tolerances it runs through two balancing checks
    for cfg in (ProxConfig(lam=2.0), ProxConfig(lam=2.0, max_iters=25, tol_abs=0.0,
                                                tol_rel=0.0)):
        res = prox_block_norm(np.zeros((6, 5)), system(6, 5, 2), cfg)
        assert np.all(res.x == 0) and np.all(res.u == 0)
        assert res.report.extra["rho"] == 1.0


def test_prox_holds_two_copy_stacks():
    # measured, not declared: beyond its inputs a solve holds the copies z and
    # the duals u (s x n each) plus O(n) working vectors, and no third stack;
    # the working vectors peak at 8.60 n here, so a leak of 1.5 n fails.  The
    # solve runs past the balancing check at iteration 10, where rho changes,
    # so the primal residual and the rescale of the duals are measured too
    side, h, w = 6, 48, 48
    cs = system(h, w, side)
    s, n = cs.n_subsets, h * w
    v = np.random.default_rng(23).standard_normal((h, w))
    cfg = ProxConfig(lam=0.5, max_iters=20, tol_abs=0.0, tol_rel=0.0)
    rep = prox_block_norm(v, cs, cfg).report  # also warms any lazily built state
    assert rep.iterations == 20 and rep.extra["rho_changes"] >= 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prox_block_norm(v, cs, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stack = s * n * 8
    assert 2 * stack <= peak <= 2 * stack + 10 * n * 8


def test_prox_max_iterations_reported_not_raised():
    rng = np.random.default_rng(9)
    cs = system(6, 6, 2)
    res = prox_block_norm(rng.standard_normal((6, 6)), cs,
                          ProxConfig(lam=1.0, max_iters=2))
    assert res.report.termination_reason == "max-iterations"
    assert res.report.iterations == 2


def checked_iterations(cap):
    """The iterations up to ``cap`` at which the prox evaluates its gap:
    iteration 1, every ``GAP_STRIDE``-th after it, the balancing checks
    ``BALANCE_FIRST * 2**j`` and the cap."""
    checks = {k for k in range(1, cap + 1) if (k - 1) % GAP_STRIDE == 0} | {cap}
    check = BALANCE_FIRST
    while check <= cap:
        checks.add(check)
        check *= 2
    return sorted(checks)


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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(helpers.GEOMETRIES), st.integers(0, 2**32 - 1), st.floats(0.05, 5.0),
       st.sampled_from([None, 3e-3]))
@example((10, 7, 2), 1, 0.5, None)  # stops at the balancing check at 20
def test_gap_checks_do_not_perturb_the_path(geometry, seed, lam, support_tol):
    # a solve with tolerances stops at a checked iteration k on the very
    # state a zero-tolerance solve capped at k returns, with the oracle's gap
    # of that state; a solve that checks every iteration stops no later.
    # Checking at stride 1 need not stop within GAP_STRIDE - 1 iterations of
    # k: the ADMM gap is not monotone, so it can pass and fail again
    height, width, side = geometry
    cs = system(height, width, side)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((height, width))
    v[rng.uniform(size=v.shape) < 0.3] = 0.0
    cfg = ProxConfig(lam=lam)
    res = prox_block_norm(v, cs, cfg, support_tol=support_tol)
    rep = res.report
    k = rep.iterations
    assert k in checked_iterations(cfg.max_iters)
    capped = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=k, tol_abs=0.0, tol_rel=0.0))
    assert np.array_equal(res.x, capped.x) and np.array_equal(res.z, capped.z)
    if capped.report.extra["rho_changes"] == rep.extra["rho_changes"]:
        assert np.array_equal(res.u, capped.u)
        assert capped.report.extra["rho"] == rep.extra["rho"]
    else:
        # a stop at a balancing check comes before the balancing, which the
        # capped solve then runs (about 8% of such draws): its rho changed and
        # its u was rescaled with -rho*u kept, up to the rescale's rounding
        blocks, rest = divmod(k, BALANCE_FIRST)
        assert rest == 0 and blocks & (blocks - 1) == 0
        assert capped.report.extra["rho_changes"] == rep.extra["rho_changes"] + 1
        g = -rep.extra["rho"] * res.u
        g_capped = -capped.report.extra["rho"] * capped.u
        assert np.max(np.abs(g - g_capped)) <= 1e-12 * max(1.0, float(np.abs(g).max()))
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rep.extra["rho"], lam, side)
    assert rep.residual_trace[-1] == pytest.approx(gap, rel=1e-6, abs=1e-12 * np.sum(v ** 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prox, "GAP_STRIDE", 1)
        every = prox_block_norm(v, cs, cfg, support_tol=support_tol).report
    assert every.iterations <= k
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


@pytest.mark.parametrize("lam, match", [(1.7e308, "starting penalty"),
                                         (1e300, "objective or its dual value")])
def test_prox_rejects_a_weight_that_overflows(lam, match):
    # at 1.7e308 rho0 is inf and x came back NaN; at 1e300 (rho*s)^2
    # overflows in the dual value, and 1,000 iterations ran with an
    # infinite gap, both labelled "max-iterations"
    v = np.random.default_rng(0).standard_normal((8, 8))
    cs = system(8, 8, 2)
    with pytest.raises(ConfigError, match=match):
        prox_block_norm(v, cs, ProxConfig(lam=lam))
    # far above the data's scale, but finite throughout: the exact prox is 0
    res = prox_block_norm(v, cs, ProxConfig(lam=1e10))
    assert res.report.termination_reason == "converged"


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


def admm_by_loop(v, side, lam, alpha):
    """The prox's relaxed ADMM iterates by definition from ``x = v``,
    ``z^i = v``, ``u^i = 0`` and ``rho = start_rho(v, lam)``, yielded as
    ``(x, z, u, rho)`` after each iteration: one copy per subset of
    brute-force cliques, each copy's relaxed point ``alpha*x + (1 - alpha)*z^i``
    formed on its own, each clique shrunk on its own, every sum taken over
    the full s x n stacks.  At iterations 10, 20, 40, ... rho is balanced by
    the residuals ``||Z - 1 x^T||_F`` and ``rho*sqrt(s)*||zbar_k - zbar_{k-1}||``
    unless both are rounding error, and ``u`` is rescaled so that ``rho*u``
    stays put."""
    h, w = v.shape
    s = side * side
    subsets = [[] for _ in range(s)]
    for top, left, idx in helpers.brute_force_cliques(h, w, side):
        subsets[(top % side) * side + left % side].append(idx)
    vflat = v.ravel()
    floor = 1024.0 * s * np.finfo(float).eps * np.sqrt(s * vflat.size) * np.abs(vflat).max()
    z = np.tile(vflat, (s, 1))
    u = np.zeros_like(z)
    rho = start_rho(v, lam)
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
        blocks, rest = divmod(k, BALANCE_FIRST)
        if rest == 0 and blocks & (blocks - 1) == 0:  # k = BALANCE_FIRST * 2**j
            primal_res = np.linalg.norm(z - x)
            dual_res = rho * np.sqrt(s) * np.linalg.norm(z.mean(axis=0) - zbar_prev)
            if max(primal_res, dual_res / rho) <= floor:  # both rounding error
                pass
            elif primal_res > BALANCE_RATIO * dual_res:
                rho *= BALANCE_FACTOR
                u /= BALANCE_FACTOR
            elif dual_res > BALANCE_RATIO * primal_res:
                rho /= BALANCE_FACTOR
                u *= BALANCE_FACTOR
        yield x, z, u, rho


def assert_matches_clique_loop(v, side, caps):
    # caps 10, 11 and 25 straddle the balancing checks at 10 and 20, and 31
    # would see a check at 30, which the schedule skips.  The two paths
    # round differently.  Before the first check they agree to 1e-12; from
    # it on their difference grows about as the square of the cap and
    # with the data: on 1,900 random problems of up to 12x12 with entries
    # up to 10 it reached 2.4e-15 * cap**2 * max(1, max|v|) at caps 10 to 31
    caps = sorted(set(caps) | {10, 11, 25, 31})
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
                x, z, u, rho = next(loop)
                k += 1
            assert res.report.extra["rho"] == rho
            tol = 1e-12 if cap < BALANCE_FIRST else 1e-14 * cap**2 * scale
            assert np.max(np.abs(res.x.ravel() - x)) < tol
            assert np.max(np.abs(res.z - z)) < tol
            assert np.max(np.abs(res.u - u)) < tol


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
    # multiplied by its own tile's scale exactly once, everything else as it was
    height, width, side = geometry
    cs = system(height, width, side)
    stack = _TileStack(cs)
    rng = np.random.default_rng(seed)
    stack.buffer[:] = rng.uniform(1.0, 2.0, stack.buffer.size)
    stack.scale[:] = rng.uniform(2.0, 3.0, stack.scale.shape)
    before = stack.buffer.copy()
    expected = before.copy()
    copies = expected[:stack.z.size].reshape(cs.n_subsets, height, width)
    for i, tile in enumerate(cs.tiles):
        if tile is None:
            continue
        a, b, nh, nw = tile
        for p in range(nh):
            for q in range(nw):
                rows = slice(a + p * side, a + (p + 1) * side)
                cols = slice(b + q * side, b + (q + 1) * side)
                copies[i, rows, cols] = copies[i, rows, cols] * stack.scale[a, b, p, q]
    stack.scale_tiles()
    assert np.array_equal(stack.buffer, expected)
    assert np.array_equal(stack.buffer[stack.z.size:], before[stack.z.size:])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data(),
       st.floats(1e-3, 1e3), st.floats(0.05, 5.0))
def test_prox_scale_equivariance(height, width, side, data, c, lam):
    # with no tolerance test, prox(c*v, c*lam) follows c times the path of
    # prox(v, lam), iteration for iteration: the starting rho depends on
    # lam/max|v| only, and both balancing residuals scale with c, so rho
    # changes alike.  Every change doubles or halves rho, so final over
    # starting rho is the same power of two in both solves.  100 iterations
    # span the checks at 10, 20, 40 and 80
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


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.data(),
       st.floats(0.05, 5.0))
def test_relaxed_solve_gap_certifies_its_distance_to_the_prox(height, width, side, data, lam):
    # the gap a converged solve reports is the oracle's gap from the u it
    # returns, so the relaxed z-update keeps -rho*u dual feasible; and that
    # gap bounds ||x - x*||^2.  The reference x_ref is solved to a relative
    # gap of 1e-12 and is itself only certified, ||x_ref - x*||^2 <= gap_ref,
    # so the bound is checked as ||x - x_ref|| <= sqrt(gap) + sqrt(gap_ref)
    side = min(side, height, width)
    cs = system(height, width, side)
    v = np.array(data.draw(st.lists(_entries, min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    scale = 1e-12 * float(np.sum(v ** 2))
    res = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=20000))
    assert res.report.termination_reason == "converged"
    rho = res.report.extra["rho"]
    gap = helpers.prox_gap_by_projection(v, res.x, res.u, rho, lam, side)
    assert res.report.residual_trace[-1] == pytest.approx(gap, rel=1e-6, abs=scale)
    ref = prox_block_norm(v, cs, ProxConfig(lam=lam, max_iters=50000, tol_abs=0.0,
                                            tol_rel=1e-12))
    gap_ref = helpers.prox_gap_by_projection(v, ref.x, ref.u, ref.report.extra["rho"], lam,
                                             side)
    dist = float(np.linalg.norm(res.x - ref.x))
    assert dist <= np.sqrt(max(gap, 0.0) + scale) + np.sqrt(max(gap_ref, 0.0) + scale)
