import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksparse import (ConfigError, NumericalError, RpcaConfig, ShapeError, rpca,
                         default_lambda, relative_error, solve_rpca, support_prf,
                         support_set, svt)
from blocksparse.regularizer import smoothed_clique_norms
from blocksparse.rpca import EPS_SCALE_REL
from blocksparse.synthetic import make_lowrank_blocksparse_stack

import helpers


def test_svt_zero():
    assert np.all(svt(np.zeros((4, 3)), 1.0) == 0)


def test_svt_diagonal():
    out = svt(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8)
    v = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    q = 5.0 * np.outer(u, v)
    assert np.allclose(svt(q, 2.0), 3.0 * np.outer(u, v), atol=1e-10)


def test_svt_rejects_nonfinite_threshold():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="threshold must be finite"):
            svt(np.eye(3), bad)


def test_svt_never_increases_rank():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((6, 4))
    assert helpers.rank_by_svd(svt(q, 0.5)) <= helpers.rank_by_svd(q)


def test_svt_nuclear_norm_value():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((7, 5))
    s = np.linalg.svd(q, compute_uv=False)
    delta = float(s[2])  # kills two singular values exactly
    out = svt(q, delta)
    expected = np.maximum(s - delta, 0.0).sum()
    assert np.linalg.svd(out, compute_uv=False).sum() == pytest.approx(expected, abs=1e-10)


def test_svt_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((6, 5))
        d = np.linalg.norm(svt(a, 0.7) - svt(b, 0.7))
        assert d <= np.linalg.norm(a - b) + 1e-8


def test_svt_rejects_nonfinite():
    with pytest.raises((ConfigError, NumericalError)):
        svt(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)


def test_svt_rejects_a_vector():
    with pytest.raises(ShapeError, match="2-D"):
        svt(np.ones(3), 0.1)


def test_svt_rejects_a_stack_of_matrices():
    with pytest.raises(ShapeError, match="2-D"):
        svt(np.ones((2, 2, 2)), 0.1)


def test_svt_reports_an_eigendecomposition_failure(monkeypatch):
    def failing(a, gram, floor):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(rpca, "_gram_eigh", failing)
    with pytest.raises(NumericalError, match=r"eigendecomposition failed on \(3, 5\) matrix"):
        svt(np.ones((3, 5)), 0.1)


def test_svt_keeps_empty_and_extreme_scale_input():
    assert svt(np.zeros((0, 3)), 0.1).shape == (0, 3)
    # squaring these entries would overflow or underflow; the SVT rescales
    # by a power of two, so the result is the exact scaled one
    for c in (2.0 ** 700, 2.0 ** -700):
        q = c * np.diag([3.0, 1.0])
        assert np.allclose(svt(q, c * 2.0), c * np.diag([1.0, 0.0]), rtol=0, atol=c * 1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(0, 30), st.booleans(),
       st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10), st.floats(0.0, 8.0),
       st.one_of(st.floats(-9.0, 0.0), st.tuples(st.integers(0, 9), st.floats(-1e-3, 1e-3))),
       st.integers(0, 2 ** 32 - 1))
def test_svt_matches_the_svd_oracle(short, extra, tall, positions, log_cond, threshold, seed):
    # the Gram route squares the condition number; up to 1e8, and with the
    # threshold anywhere from 1e-9 sigma_max to sigma_max or next to one
    # singular value (clusters come from repeated positions), it keeps the
    # relative error below 1e-10.  The SVT is 1-Lipschitz, so any backward
    # stable route, the oracle too, errs by about eps*||q||: where the result
    # vanishes (threshold near sigma_max) the error is taken relative to
    # 1e-3*||q|| instead
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((short + extra, short)))[0]
    right = np.linalg.qr(rng.standard_normal((short, short)))[0]
    pos = np.array(positions[:short])
    if np.ptp(pos) > 0.0:
        pos = (pos - pos.min()) / np.ptp(pos)  # singular values from 1 down to 1/cond
    s = 10.0 ** (-log_cond * pos)
    q = (left * s) @ right.T
    if not tall:
        q = q.T
    if isinstance(threshold, tuple):
        delta = min(float(s[threshold[0] % short]) * (1.0 + threshold[1]), 1.0)
    else:
        delta = 10.0 ** threshold
    want = helpers.svt_by_svd(q, delta)
    out = svt(q, delta)
    bound = 1e-10 * max(np.linalg.norm(want), 1e-3 * np.linalg.norm(q))
    assert np.linalg.norm(out - want) <= bound
    # solve_rpca's line-search model rests on ||svt(q) - q||^2 = sum(min(s, delta)^2);
    # the two sides' square roots differ by at most the SVT's error
    moved = math.sqrt(np.sum(np.minimum(np.linalg.svd(q, compute_uv=False), delta) ** 2))
    assert abs(np.linalg.norm(out - q) - moved) <= bound


def test_svt_resolves_singular_values_far_below_the_largest():
    # a threshold just under sigma_min = 1e-8 sigma_max keeps sigma_min, whose
    # square is at the rounding level of the Gram matrix: read from that
    # matrix alone it is wrong by more than itself
    rng = np.random.default_rng(16)
    left = np.linalg.qr(rng.standard_normal((40, 6)))[0]
    right = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    s = np.logspace(0.0, -8.0, 6)
    for q in ((left * s) @ right.T, right @ (left * s).T):
        delta = 0.999 * s[-1]
        want = helpers.svt_by_svd(q, delta)
        assert np.linalg.norm(svt(q, delta) - want) <= 1e-10 * np.linalg.norm(want)


def test_default_lambda_values():
    assert default_lambda(1, 100) == pytest.approx(0.1)
    assert default_lambda(2, 4) == pytest.approx(0.25)
    # frame size 144x176 at clique side 10
    assert default_lambda(10, 144 * 176) == pytest.approx(1.0 / (10 * math.sqrt(25344)))


def test_objective_at_origin():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((6, 6, 3))
    n_cliques = len(helpers.brute_force_cliques(6, 6, 2))
    zeros = np.zeros_like(y)
    expected = 0.5 * 3 * n_cliques * 0.01 + 1.0 * np.sum(y ** 2)
    assert helpers.rpca_objective_by_loop(zeros, zeros, y, lam=0.5, eps=0.01, mu=2.0,
                                          side=2) == pytest.approx(expected, rel=1e-12)


def test_objective_y_equals_z():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((5, 5, 4))
    n_cliques = len(helpers.brute_force_cliques(5, 5, 2))
    nuclear = np.linalg.svd(y.reshape(25, 4), compute_uv=False).sum()
    expected = nuclear + 0.3 * 4 * n_cliques * 0.02
    assert helpers.rpca_objective_by_loop(np.zeros_like(y), y, y, lam=0.3, eps=0.02, mu=1.0,
                                          side=2) == pytest.approx(expected, rel=1e-12)


def test_objective_matches_componentwise_recomputation():
    # the oracle's per-frame loop against the frame-batched evaluator the
    # solver runs
    rng = np.random.default_rng(6)
    y = rng.standard_normal((6, 6, 3))
    x = 0.3 * rng.standard_normal(y.shape)
    z = 0.5 * rng.standard_normal(y.shape)
    frames = np.moveaxis(x, -1, 0)
    expected = (np.linalg.svd(z.reshape(36, 3), compute_uv=False).sum()
                + 0.7 * float(smoothed_clique_norms(frames * frames, 2, 0.05).sum())
                + 0.75 * np.sum((y - z - x) ** 2))
    assert helpers.rpca_objective_by_loop(x, z, y, lam=0.7, eps=0.05, mu=1.5,
                                          side=2) == pytest.approx(expected, rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        RpcaConfig(mu=0.0)
    with pytest.raises(ConfigError):
        RpcaConfig(lam=-1.0)


def test_zero_stack_fixed_point():
    res = solve_rpca(np.zeros((4, 4, 2)), RpcaConfig(clique_side=2))
    assert np.all(res.x == 0) and np.all(res.z == 0)
    assert res.report.iterations == 1
    assert res.report.termination_reason == "converged"


def test_large_lambda_kills_sparse_part():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((8, 8, 4))
    mu = 1.0
    lam = mu * float(np.linalg.norm(y.reshape(64, 4), axis=0).max())
    res = solve_rpca(y, RpcaConfig(lam=lam, mu=mu, eps=0.05, clique_side=2,
                                   max_iters=3000, tol_obj=1e-13))
    assert np.max(np.abs(res.x)) < 1e-3 * np.max(np.abs(y))
    # with X pinned at (smoothing-level) zero the Z subproblem is the
    # nuclear-norm prox of Y
    expected_z = svt(y.reshape(64, 4), 1.0 / mu).reshape(y.shape)
    assert relative_error(res.z, expected_z) < 2e-3


def test_planted_decomposition_quality():
    rng = np.random.default_rng(8)
    lowrank, sparse = make_lowrank_blocksparse_stack(32, 32, 10, 2, rng)
    y = lowrank + sparse
    res = solve_rpca(y, RpcaConfig(clique_side=2))
    _, _, f = support_prf(support_set(res.x), np.flatnonzero(sparse.ravel()))
    assert f >= 0.9
    assert res.report.extra["rank"] == 2


def test_objective_trace_nonincreasing_with_backtracking():
    rng = np.random.default_rng(9)
    lowrank, sparse = make_lowrank_blocksparse_stack(16, 16, 5, 2, rng)
    res = solve_rpca(lowrank + sparse, RpcaConfig(clique_side=2, max_iters=150))
    tr = res.report.objective_trace
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


def _count_trials(monkeypatch):
    """Counts of the SVT (one per trial) and clique-norm (one per evaluated
    point) calls of the solves that follow."""
    calls = {"svt": 0, "norms": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rpca, "_svd_soft", counting("svt", rpca._svd_soft))
    monkeypatch.setattr(rpca, "smoothed_clique_norms",
                        counting("norms", rpca.smoothed_clique_norms))
    return calls


def test_halvings_count_the_rejected_trials(monkeypatch):
    calls = _count_trials(monkeypatch)
    rng = np.random.default_rng(11)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 2, rng, fg_side=4)
    res = solve_rpca(lowrank + sparse, RpcaConfig(clique_side=2, max_iters=40, tol_obj=0.0))
    halvings = res.report.extra["halvings"]
    assert halvings > 0
    assert calls["svt"] == res.report.iterations + halvings
    assert calls["norms"] == res.report.iterations + halvings + 1


def test_no_halvings_when_every_first_trial_is_accepted(monkeypatch):
    # held at its start 1 / (mu + lam/eps), the step passes the
    # majorisation test at every iteration of this problem: each
    # iteration's first trial is accepted
    monkeypatch.setattr(rpca, "_BACKTRACK_GROW", 1.0)
    calls = _count_trials(monkeypatch)
    rng = np.random.default_rng(0)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 2, rng, fg_side=4)
    res = solve_rpca(lowrank + sparse, RpcaConfig(clique_side=2, max_iters=40, tol_obj=0.0))
    assert res.report.extra["halvings"] == 0
    assert calls["svt"] == res.report.iterations == 40


def test_trace_consistent_with_public_objective():
    rng = np.random.default_rng(10)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 2, rng, fg_side=4)
    y = lowrank + sparse
    cfg = RpcaConfig(clique_side=2, max_iters=60)
    res = solve_rpca(y, cfg)
    final = helpers.rpca_objective_by_loop(res.x, res.z, y, lam=res.report.extra["lambda"],
                                           eps=res.report.extra["epsilon"], mu=cfg.mu, side=2)
    assert res.report.objective_trace[-1] == pytest.approx(final, rel=1e-8)


def test_peak_storage_is_measured_within_bounds():
    # the paper counts 4 stack-sized buffers (X, Z, gradient, residual); the
    # solve holds 7 (x, z, the trial's SVT output, both gradients, a step
    # buffer and a row pass), measured at about 7.2 stack copies here, set in
    # a trial's valid window sum.  The fraction is NumPy's buffer for the
    # strided reads of y, at most 8,192 entries: a whole copy of a 32x32x4
    # stack, so the stack is the benchmark's size.  One more stack, such as
    # a copy of y or a trial x kept through the window sum, fails the bound
    y = np.random.default_rng(11).standard_normal((64, 64, 10))
    cfg = RpcaConfig(clique_side=2, max_iters=10)
    solve_rpca(y, cfg)  # the first call in a process allocates more
    tracemalloc.start()
    try:
        solve_rpca(y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * y.nbytes <= peak <= 8 * y.nbytes


def test_solve_reads_the_stack_in_any_layout_and_leaves_it_unchanged():
    # y is read through a frame-major view, not copied: the solve writes
    # nothing to it, and a non-contiguous stack gives the bits of a
    # contiguous one
    rng = np.random.default_rng(23)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 10, 4, 1, rng, fg_side=3)
    y = lowrank + sparse
    kept = y.copy()
    cfg = RpcaConfig(clique_side=2, max_iters=40)
    want = solve_rpca(y, cfg)
    assert np.array_equal(y, kept)
    spaced = np.zeros((12, 10, 8))
    spaced[:, :, ::2] = y
    frame_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(y, -1, 0)), 0, -1)
    for stack in (np.asfortranarray(y), spaced[:, :, ::2], frame_major):
        assert not stack.flags.c_contiguous
        got = solve_rpca(stack, cfg)
        assert np.array_equal(stack, kept)
        assert got.x.tobytes() == want.x.tobytes() and got.z.tobytes() == want.z.tobytes()
        assert got.report.objective_trace == want.report.objective_trace
        assert got.report.residual_trace == want.report.residual_trace
        assert got.report.extra == want.report.extra
        assert got.report.termination_reason == want.report.termination_reason


@pytest.mark.parametrize("max_abs", [0.5, 1.5, None], ids=["max-0.5", "max-1.5", "times-10"])
def test_default_eps_resolution(max_abs):
    # the default scales with max|y| and is floored at max|y| = 1; 0.5 and 1.5
    # sit on either side of the floor, where a floor of 2 would change both
    rng = np.random.default_rng(13)
    y = 10.0 * rng.standard_normal((8, 8, 3))
    if max_abs is not None:
        y *= max_abs / np.max(np.abs(y))
    res = solve_rpca(y, RpcaConfig(clique_side=2, max_iters=5))
    assert res.report.extra["epsilon"] == pytest.approx(
        EPS_SCALE_REL * max(1.0, np.max(np.abs(y))))


def test_gradient_step_richardson_consistency():
    # at vanishing step the objective change per unit step approaches
    # -||grad||^2 on the smooth part; Richardson-extrapolate two fixed steps
    rng = np.random.default_rng(14)
    lowrank, sparse = make_lowrank_blocksparse_stack(8, 8, 3, 1, rng, fg_side=3)
    y = lowrank + sparse
    lam, mu, eps = 0.05, 1.0, 0.01
    from blocksparse.regularizer import smoothed_clique_norms, smoothed_weight_map

    def penalty(x):
        frames = np.moveaxis(x, -1, 0)
        norms = smoothed_clique_norms(frames * frames, 2, eps)
        return float(norms.sum()), norms

    def smooth(x, z):
        return lam * penalty(x)[0] + 0.5 * mu * float(np.sum((y - z - x) ** 2))

    x = 0.1 * rng.standard_normal(y.shape)
    z = 0.1 * rng.standard_normal(y.shape)
    frames = np.moveaxis(x, -1, 0)
    jgrad = np.moveaxis(frames * smoothed_weight_map(penalty(x)[1], 2), 0, -1)
    resid = y - z - x
    gx = lam * jgrad - mu * resid
    gz = -mu * resid
    g_sq = float(np.sum(gx ** 2) + np.sum(gz ** 2))
    f0 = smooth(x, z)

    def slope(alpha):
        return (smooth(x - alpha * gx, z - alpha * gz) - f0) / alpha

    h = 1e-5
    extrapolated = 2.0 * slope(h) - slope(2.0 * h)  # cancels the O(alpha) term
    assert extrapolated == pytest.approx(-g_sq, rel=1e-4)


def test_solve_rejects_nonfinite_stack():
    y = np.zeros((6, 6, 2))
    y[1, 1, 1] = np.inf
    with pytest.raises(ConfigError, match="finite"):
        solve_rpca(y, RpcaConfig())


@pytest.mark.parametrize("shape,error", [((6, 6), ShapeError), ((1, 6, 6, 2), ShapeError),
                                         ((6, 6, 0), ConfigError)])
def test_solve_rejects_a_stack_that_is_not_3d_or_has_no_frames(shape, error):
    with pytest.raises(error, match="stack"):
        solve_rpca(np.zeros(shape), RpcaConfig())


def test_raised_trial_norms_exhaust_the_line_search(monkeypatch):
    # every trial's clique norms read 1e3 above their value, which raises
    # its objective by more than the starting objective ||y||^2/2, so no
    # step, however small, meets the majorisation test.  A negated weight
    # map, as in block-TV's test, does not exhaust it: the test's slack of
    # 1e-12 times the objective accepts a small enough step
    norms_fn = rpca.smoothed_clique_norms
    calls = []

    def raised(*args, **buffers):
        norms = norms_fn(*args, **buffers)
        if calls:
            norms += 1e3
        calls.append(1)
        return norms

    monkeypatch.setattr(rpca, "smoothed_clique_norms", raised)
    rng = np.random.default_rng(11)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 2, rng, fg_side=4)
    y = lowrank + sparse
    assert 1e3 * default_lambda(2, 144) * 11 * 11 * 4 > 0.5 * np.sum(y * y)
    with pytest.raises(NumericalError, match="backtracking failed"):
        solve_rpca(y, RpcaConfig(clique_side=2))
    assert len(calls) == 1 + 61  # the start, then the first trial and 60 halvings


def test_solve_rejects_data_whose_objective_overflows():
    # finite entries whose squares overflow: the starting objective is inf,
    # and every line-search trial compared inf until the halvings ran out
    y = 1e160 * np.random.default_rng(0).standard_normal((4, 4, 2))
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="objective is not finite"):
        solve_rpca(y, RpcaConfig())


def test_config_rejects_nan_mu():
    with pytest.raises(ConfigError, match="mu"):
        RpcaConfig(mu=float("nan"))


def test_config_rejects_nan_lam():
    with pytest.raises(ConfigError, match="lam"):
        RpcaConfig(lam=float("nan"))


def test_config_rejects_nan_tol_obj():
    with pytest.raises(ConfigError, match="tol_obj must be finite"):
        RpcaConfig(tol_obj=float("nan"))


def test_config_rejects_nan_eps():
    with pytest.raises(ConfigError, match="eps"):
        RpcaConfig(eps=float("nan"))


def test_config_rejects_non_integer_clique_side():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="clique side must be an integer"):
            RpcaConfig(clique_side=bad)
    assert RpcaConfig(clique_side=np.int64(3)).clique_side == 3


def test_config_rejects_non_integer_max_iters():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="max_iters must be an integer"):
            RpcaConfig(max_iters=bad)
    assert RpcaConfig(max_iters=np.int32(7)).max_iters == 7


@pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 10])
def test_scaled_run_stops_at_the_same_iteration(c):
    # y and eps scaled by c and mu by 1/c scale the objective and the path by
    # c (lam is set by the frame size); with a power-of-two c the arithmetic
    # scales all but exactly, so a stopping rule with no absolute floor stops
    # both runs at the same iteration
    rng = np.random.default_rng(15)
    lowrank, sparse = make_lowrank_blocksparse_stack(16, 16, 5, 2, rng)
    y = lowrank + sparse
    res = solve_rpca(y, RpcaConfig(eps=0.01, max_iters=500))
    res_c = solve_rpca(c * y, RpcaConfig(eps=0.01 * c, mu=1.0 / c, max_iters=500))
    assert res_c.report.iterations == res.report.iterations
    assert res_c.report.termination_reason == res.report.termination_reason
    assert relative_error(res_c.x, c * res.x) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(-6, 6), st.integers(0, 2 ** 32 - 1))
def test_rpca_scale_equivariance(k, seed):
    # y and eps scaled by c = 2^k and mu by 1/c: the objective and the path
    # scale by c, so the solve stops at the same iteration for the same reason
    c = 2.0 ** k
    lowrank, sparse = make_lowrank_blocksparse_stack(8, 8, 4, 1, np.random.default_rng(seed),
                                                     fg_side=3)
    y = lowrank + sparse
    res = solve_rpca(y, RpcaConfig(eps=0.02, clique_side=2, max_iters=80))
    res_c = solve_rpca(c * y, RpcaConfig(eps=0.02 * c, mu=1.0 / c, clique_side=2, max_iters=80))
    assert res_c.report.iterations == res.report.iterations
    assert res_c.report.termination_reason == res.report.termination_reason
    scale = c * np.linalg.norm(y)
    assert np.linalg.norm(res_c.x - c * res.x) <= 1e-9 * scale
    assert np.linalg.norm(res_c.z - c * res.z) <= 1e-9 * scale
