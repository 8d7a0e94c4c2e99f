import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksparse import (BlockTvConfig, ConfigError, GradientField, NumericalError, ShapeError,
                         blocktv, denoise_block_tv, discrete_gradient,
                         discrete_gradient_adjoint, psnr_db)
from blocksparse.regularizer import smoothed_clique_norms, smoothed_weight_map
from blocksparse.synthetic import make_blocky_image, make_piecewise_constant, sigma_for_psnr_db

import helpers


def test_gradient_of_constant_image():
    g = discrete_gradient(np.full((5, 4), 3.7))
    assert np.all(g.dh == 0) and np.all(g.dv == 0)


def test_gradient_1x3_example():
    g = discrete_gradient(np.array([[0.0, 1.0, 3.0]]))
    assert g.dh.tolist() == [[1.0, 2.0, 0.0]]
    assert np.all(g.dv == 0)


def test_gradient_rejects_vector():
    with pytest.raises(ShapeError):
        discrete_gradient(np.zeros(5))


@pytest.mark.parametrize("dh,dv", [(np.zeros((4, 5)), np.zeros((5, 4))),
                                   (np.zeros(5), np.zeros(5))])
def test_adjoint_rejects_channels_that_are_not_matching_2d_arrays(dh, dv):
    with pytest.raises(ShapeError, match="matching 2-D"):
        discrete_gradient_adjoint(GradientField(dh, dv))


def test_adjoint_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((8, 8))
        gh = rng.standard_normal((8, 8))
        gv = rng.standard_normal((8, 8))
        lhs = float(np.sum(discrete_gradient(x).dh * gh)
                    + np.sum(discrete_gradient(x).dv * gv))
        rhs = float(np.sum(x * discrete_gradient_adjoint(GradientField(gh, gv))))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1), (1, 1)])
def test_gradient_buffers_give_the_allocating_result(shape):
    rng = np.random.default_rng(10)
    x = rng.standard_normal(shape)
    want = discrete_gradient(x)
    out = GradientField(np.full(shape, np.nan), np.full(shape, np.nan))
    got = discrete_gradient(x, out=out)
    assert got.dh is out.dh and got.dv is out.dv
    np.testing.assert_array_equal(got.dh, want.dh)
    np.testing.assert_array_equal(got.dv, want.dv)
    # with out.dv the image itself, the vertical differences overwrite it
    # once the horizontal ones are taken, with the same bits
    dh, t = np.full(shape, np.nan), x.copy()
    got = discrete_gradient(t, out=GradientField(dh, t))
    assert got.dh is dh and got.dv is t
    assert dh.tobytes() == want.dh.tobytes() and t.tobytes() == want.dv.tobytes()
    # the adjoint ignores the last column of dh and the last row of dv
    g = GradientField(rng.standard_normal(shape), rng.standard_normal(shape))
    want = discrete_gradient_adjoint(g)
    out = np.full(shape, np.nan)
    assert discrete_gradient_adjoint(g, out=out) is out
    np.testing.assert_array_equal(out, want)


def test_gradient_out_must_not_share_memory_with_the_input():
    # the differences read entries that the output would already have
    # overwritten, so an aliased output is refused
    x = np.arange(12.0).reshape(3, 4)
    with pytest.raises(ValueError, match="out must not share memory"):
        discrete_gradient(x, out=GradientField(x, np.empty_like(x)))
    g = discrete_gradient(x)
    with pytest.raises(ValueError, match="out must not share memory"):
        discrete_gradient_adjoint(g, out=g.dv)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        discrete_gradient(x, out=GradientField(np.empty((4, 3)).T, np.empty_like(x)))
    # only x itself may take the vertical channel, and only a C-contiguous
    # float64 x: not a view of it, nor with the horizontal channel over it
    with pytest.raises(ValueError, match="out must not share memory"):
        discrete_gradient(x, out=GradientField(np.empty_like(x), x[:]))
    with pytest.raises(ValueError, match="out must not share memory"):
        discrete_gradient(x, out=GradientField(x, x))
    f = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        discrete_gradient(f, out=GradientField(np.empty_like(f), f))


def test_the_in_place_vertical_shift_makes_no_copy():
    # the shift by one row runs forward, so NumPy's overlap check lets the
    # subtraction write over its own input; a copy would trace a whole image
    x = np.random.default_rng(12).standard_normal((128, 128))
    dh = np.empty_like(x)
    tracemalloc.start()
    try:
        discrete_gradient(x, out=GradientField(dh, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes / 64, f"{peak} bytes"


def test_config_validation():
    with pytest.raises(ConfigError):
        BlockTvConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        BlockTvConfig(lam=0.1, eps=0.0)


def test_lam_zero_returns_input():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((6, 6))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.0))
    assert np.array_equal(x, y)
    assert report.iterations == 0
    assert report.termination_reason == "converged"


def test_constant_input_is_fixed_point():
    y = np.full((8, 8), 0.4)
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.5))
    assert np.array_equal(x, y)
    assert report.iterations == 0


def test_clique_side_exceeding_image_rejected():
    with pytest.raises(ConfigError):
        denoise_block_tv(np.zeros((4, 4)), BlockTvConfig(lam=0.1, clique_side=5))


def test_objective_trace_nonincreasing():
    # strictly: the line search accepts a step only if it lowers the objective
    rng = np.random.default_rng(2)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=100))
    tr = report.objective_trace
    assert len(tr) == report.iterations
    assert all(b < a for a, b in zip(tr, tr[1:]))


def test_default_eps_scales_with_the_largest_forward_difference():
    _, report = denoise_block_tv(np.full((4, 4), 7.0), BlockTvConfig(lam=0.1))
    assert report.extra["epsilon"] == pytest.approx(1e-4)
    y = np.zeros((4, 4))
    y[1, 2] = -25.0
    y[1, 3] = 25.0  # the largest forward difference is 50, horizontal
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=1))
    assert report.extra["epsilon"] == pytest.approx(5e-3)


def test_ascent_direction_exhausts_the_line_search(monkeypatch):
    # weights negated and scaled by 10 make -g an ascent direction at the
    # start, x = y, so every halving is rejected.  The trials stay above the
    # roundoff floor that stops a solve "stalled" until the 61st, at alpha
    # 2^-60, which reads 0.91 of it; the exhausted search is checked first
    weights = blocktv.smoothed_weight_map
    monkeypatch.setattr(blocktv, "smoothed_weight_map",
                        lambda norms, side, **buffers: -10.0 * weights(norms, side, **buffers))
    rng = np.random.default_rng(6)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    with pytest.raises(NumericalError, match="no acceptable step after 60 halvings"):
        denoise_block_tv(y, BlockTvConfig(lam=0.1))


def test_a_solve_at_its_roundoff_floor_stops_stalled():
    # at tol_obj 0 the objective test never stops the solve, and the
    # gradient norm's floor here, about 1e-6, lies far above the gradient
    # test's 1e-12 ||y||: once no step can decrease the objective at its
    # precision, the solve returns its iterate instead of raising
    y = make_blocky_image(16, 16, 40, 2, np.random.default_rng(1))
    cfg = BlockTvConfig(lam=0.1, eps=0.1, tol_obj=0.0)
    x, report = denoise_block_tv(y, cfg)
    assert report.termination_reason == "stalled"
    assert 0 < report.iterations < cfg.max_iters
    capped, _ = denoise_block_tv(y, dataclasses.replace(cfg, max_iters=report.iterations))
    assert x.tobytes() == capped.tobytes()


def test_an_iteration_allocates_nothing_image_sized(monkeypatch):
    # the weight map runs once per iteration; between two of its calls, the
    # line search's trials and the next gradient included, the traced peak
    # may rise above the memory held at the earlier call by a quarter image.
    # The step never grows, so the rejected trials all fall in the first
    # iterations, and later calls bound accepted trials alone
    weights = blocktv.smoothed_weight_map
    readings = []

    def recording(norms, side, **buffers):
        readings.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return weights(norms, side, **buffers)

    monkeypatch.setattr(blocktv, "smoothed_weight_map", recording)
    rng = np.random.default_rng(7)
    y = make_piecewise_constant(64, 64, rng) + 0.1 * rng.standard_normal((64, 64))
    tracemalloc.start()
    try:
        _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=20, tol_obj=0.0))
    finally:
        tracemalloc.stop()
    assert report.iterations == len(readings) == 20
    rises = [peak - held for (held, _), (_, peak) in zip(readings, readings[1:])]
    assert max(rises) <= y.nbytes / 4, f"peak rose {max(rises) / y.nbytes:.2f} images"
    assert report.extra["halvings"] > 0  # rejected trials ran between the calls


def test_the_weight_map_takes_the_norms_buffer_as_its_row_pass(monkeypatch):
    # the full window sum places the reciprocals in the weight map's buffer
    # before its row pass overwrites them, so the trial point is never lent
    weights = blocktv.smoothed_weight_map
    lent = []

    def recording(norms, side, **buffers):
        lent.append(helpers.at_front_of(norms, buffers["scratch"]))
        return weights(norms, side, **buffers)

    monkeypatch.setattr(blocktv, "smoothed_weight_map", recording)
    rng = np.random.default_rng(7)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=10, tol_obj=0.0))
    assert len(lent) == report.iterations == 10 and all(lent)


def test_a_solve_holds_four_images():
    # measured, not declared: beyond y a solve holds x and one block of three
    # images: one that takes each trial point, whose vertical differences
    # overwrite it, and then the valid window sum's row pass and, at its
    # front, the clique norms; one for the residual and the squared
    # magnitudes; and one for the weight map, which then takes the gradient.
    # The gradient rebuilds the forward differences and the residual, and
    # the block takes one page more, to place its images: 4.24 images in all
    # at sides 2 and 4, of which the page is 0.125.  A kept trial point,
    # difference channel or residual, a separate buffer for the norms or the
    # gradient, or any other image-sized leak, fails
    rng = np.random.default_rng(7)
    y = make_piecewise_constant(64, 64, rng) + 0.1 * rng.standard_normal((64, 64))
    for side in (2, 4):
        cfg = BlockTvConfig(lam=0.1, clique_side=side, max_iters=20, tol_obj=0.0)
        denoise_block_tv(y, cfg)  # warms any lazily built state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            denoise_block_tv(y, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 3.5 * y.nbytes <= peak <= 4.5 * y.nbytes, f"side {side}: {peak / y.nbytes:.2f} images"


@pytest.mark.parametrize("shape", [(64, 64), (13, 7), (1, 40)])
@pytest.mark.parametrize("near", [(0, 8), (1024, 1040), (2048, 4088)])
def test_the_block_places_its_images_apart_modulo_the_page(shape, near):
    # a store and a load that lie within a cache line of each other modulo
    # the page size look dependent to the CPU, so each image of the block
    # starts at least _NEAR bytes, modulo the page, from the others and from
    # the arrays it is kept apart from, here placed at the given offsets
    arena = np.empty(4096)
    first = (-arena.ctypes.data % 4096) // 8
    apart = [arena[first + off // 8:][:8] for off in near]
    images = blocktv._image_block(3, shape, *apart)
    offsets = [a.ctypes.data % 4096 for a in images + apart]
    assert [a.ctypes.data % 4096 for a in apart] == list(near)
    for i, a in enumerate(images):
        assert a.shape == shape and a.flags.c_contiguous and a.dtype == np.float64
        for j, b in enumerate(offsets):
            if j != i:
                assert blocktv._NEAR <= (offsets[i] - b) % 4096 <= 4096 - blocktv._NEAR
        assert not any(np.shares_memory(a, b) for b in images[i + 1:])


def test_iterates_match_an_allocating_reference():
    # plain gradient descent with Armijo halving, every array new: the
    # solver's rotating buffers must give its iterates bit for bit
    rng = np.random.default_rng(8)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    lam, side, iters = 0.1, 2, 20
    got, report = denoise_block_tv(y, BlockTvConfig(lam=lam, clique_side=side,
                                                    max_iters=iters, tol_obj=0.0))
    d = discrete_gradient(y)
    eps = 1e-4 * max(1.0, float(np.abs(d.dh).max()), float(np.abs(d.dv).max()))

    def objective(x):
        d = discrete_gradient(x)
        norms = smoothed_clique_norms(d.dh * d.dh + d.dv * d.dv, side, eps)
        r = x - y
        return 0.5 * float(np.vdot(r, r)) + lam * float(norms.sum()), norms

    def gradient(x, norms):
        w = smoothed_weight_map(norms, side)
        d = discrete_gradient(x)
        return lam * discrete_gradient_adjoint(GradientField(d.dh * w, d.dv * w)) + (x - y)

    x, alpha, halvings = y.copy(), 1.0, 0
    obj_prev, norms = objective(x)
    objectives, gnorms = [], []
    for _ in range(iters):
        g = gradient(x, norms)
        gsq = float(np.vdot(g, g))
        while True:
            x_new = x - g * alpha
            obj, norms = objective(x_new)
            if obj <= obj_prev - 1e-4 * alpha * gsq and obj < obj_prev:
                break
            halvings += 1
            alpha *= 0.5
        x, obj_prev = x_new, obj
        objectives.append(obj)
        gnorms.append(float(np.sqrt(gsq)))
    assert halvings > 0
    assert report.iterations == iters and report.extra["halvings"] == halvings
    assert got.tobytes() == x.tobytes()
    assert got.flags.owndata  # not a view that keeps the solve's buffers alive
    assert report.objective_trace == objectives
    assert report.residual_trace == gnorms


def test_halvings_count_the_rejected_trials(monkeypatch):
    # each evaluated point computes its clique norms once: the start, then
    # every trial, accepted or rejected
    norms_fn = blocktv.smoothed_clique_norms
    calls = []

    def counting(*args, **buffers):
        calls.append(1)
        return norms_fn(*args, **buffers)

    monkeypatch.setattr(blocktv, "smoothed_clique_norms", counting)
    rng = np.random.default_rng(8)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=30, tol_obj=0.0))
    assert report.extra["halvings"] > 0
    assert len(calls) == report.iterations + report.extra["halvings"] + 1


def test_the_step_never_grows():
    # the step starts at 1 and each rejected trial halves it, so the final
    # step is 0.5**halvings only if no accepted trial ever enlarged it
    rng = np.random.default_rng(8)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=30, tol_obj=0.0))
    assert report.extra["halvings"] > 0
    assert report.extra["alpha_final"] == 0.5 ** report.extra["halvings"]


def test_the_line_search_rarely_halves():
    # each search starts from the last accepted step, so once the step fits
    # the objective's curvature nearly every first trial is accepted; a step
    # doubled after each acceptance was halved back about once per iteration
    rng = np.random.default_rng(7)
    y = make_piecewise_constant(64, 64, rng) + 0.1 * rng.standard_normal((64, 64))
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=300, tol_obj=0.0))
    assert report.iterations == 300
    assert report.extra["halvings"] < 30


def test_no_halvings_when_every_first_trial_is_accepted():
    # a smoothing much larger than the differences makes the objective
    # nearly 1/2 ||x - y||^2, so the first trial step of 1 is accepted
    rng = np.random.default_rng(9)
    y = rng.standard_normal((12, 12))
    _, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, eps=100.0, max_iters=1))
    assert report.iterations == 1
    assert report.extra["halvings"] == 0


@pytest.mark.parametrize("lam, value", [(0.1, np.inf), (0.0, np.nan)], ids=["inf", "nan"])
def test_denoise_rejects_nonfinite_starting_objective(lam, value):
    # finite data whose squared differences overflow give an infinite clique
    # sum: weighted by lam > 0 the objective is inf, by lam = 0 it is
    # 0 * inf = nan; stepping from either compares non-finite values
    y = np.zeros((6, 6))
    y[2, 3] = 1e160
    with np.errstate(over="ignore"):
        d = discrete_gradient(y)
        norms = blocktv.smoothed_clique_norms(d.dh * d.dh + d.dv * d.dv, 2, 1.0)
        np.testing.assert_equal(lam * float(norms.sum()), value)
        with pytest.raises(ConfigError, match="objective is not finite"):
            denoise_block_tv(y, BlockTvConfig(lam=lam, eps=1.0))


def test_tiny_eps_keeps_objective_finite():
    # clique sums are exact, so flat regions give norms of exactly eps and
    # never the square root of a negative rounding residue
    y = make_piecewise_constant(64, 64, np.random.default_rng(0))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, eps=1e-9, max_iters=20))
    assert np.all(np.isfinite(x))
    tr = report.objective_trace
    assert len(tr) == report.iterations > 0
    assert all(b <= a for a, b in zip(tr, tr[1:]))


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((8, 8))
    x0 = rng.standard_normal((8, 8))
    lam, eps, side = 0.3, 0.05, 2
    from blocksparse.fftops import box_correlate_valid

    def objective(x):
        g = discrete_gradient(x)
        gsq = box_correlate_valid(g.dh ** 2 + g.dv ** 2, side)
        return 0.5 * float(np.sum((x - y) ** 2)) + lam * float(np.sqrt(gsq + eps ** 2).sum())

    # internal gradient, reproduced through one descent probe: evaluate via
    # the solver's single-step behavior is awkward; use the module's pieces
    from blocksparse.fftops import box_correlate_full

    def gradient(x):
        g = discrete_gradient(x)
        gsq = box_correlate_valid(g.dh ** 2 + g.dv ** 2, side)
        w = box_correlate_full(1.0 / np.sqrt(gsq + eps ** 2), side)
        return (x - y) + lam * discrete_gradient_adjoint(
            GradientField(g.dh * w, g.dv * w))

    scale = float(np.max(np.abs(x0)))
    fd = helpers.central_difference_gradient(objective, x0, 1e-6 * scale)
    g = gradient(x0)
    assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)


def test_denoising_improves_psnr():
    rng = np.random.default_rng(4)
    truth = make_piecewise_constant(32, 32, rng)
    sigma = sigma_for_psnr_db(1.0, 20.0)
    noisy = truth + sigma * rng.standard_normal(truth.shape)
    x, _ = denoise_block_tv(noisy, BlockTvConfig(lam=0.15, clique_side=2, max_iters=200))
    assert psnr_db(x, truth, 1.0) > psnr_db(noisy, truth, 1.0) + 2.0


def tv_ramp_problem():
    """A noisy 1x40 ramp and its weight: on one row at side 1, block-TV is
    anisotropic TV of the horizontal differences."""
    w = 40
    ramp = np.linspace(0.0, 4.0, w)
    rng = np.random.default_rng(5)
    return (ramp + 0.05 * rng.standard_normal(w)).reshape(1, w), 0.05


def test_small_eps_l1_limit_matches_convex_tv():
    cvxpy = pytest.importorskip("cvxpy")
    y, lam = tv_ramp_problem()

    xv = cvxpy.Variable(y.size)
    prob = cvxpy.Problem(cvxpy.Minimize(
        0.5 * cvxpy.sum_squares(xv - y.ravel()) + lam * cvxpy.norm1(cvxpy.diff(xv))))
    prob.solve()

    x, report = denoise_block_tv(y, BlockTvConfig(lam=lam, eps=1e-8, clique_side=1,
                                                  max_iters=20000, tol_obj=1e-14))
    assert np.linalg.norm(x.ravel() - xv.value) <= 1e-3 * np.linalg.norm(xv.value)


def test_small_eps_l1_limit_matches_exact_tv():
    # the twin of test_small_eps_l1_limit_matches_convex_tv with the exact
    # 1-D TV solution in place of cvxpy's
    y, lam = tv_ramp_problem()
    exact = helpers.tv1d_by_condat(y, lam)
    x, _ = denoise_block_tv(y, BlockTvConfig(lam=lam, eps=1e-8, clique_side=1,
                                             max_iters=20000, tol_obj=1e-14))
    assert np.linalg.norm(x.ravel() - exact) <= 1e-3 * np.linalg.norm(exact)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.floats(0.01, 2.0), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1), st.booleans())
def test_tv1d_oracle_meets_exact_optimality_conditions(n, lam, scale, seed, rounded):
    # x minimizes 1/2||x - y||^2 + lam*sum|x_{k+1} - x_k| exactly when
    # r = cumsum(y - x) has |r_k| <= lam, r_{N-1} = 0, and r_k =
    # -lam*sign(x_{k+1} - x_k) at every jump.  Rounded data make ties
    y = scale * np.random.default_rng(seed).standard_normal(n)
    if rounded:
        y = np.round(y)
    x = helpers.tv1d_by_condat(y, lam)
    r = np.cumsum(y - x)
    tol = 1e-12 * scale * n
    assert np.all(np.abs(r) <= lam + tol)
    assert abs(r[-1]) <= tol
    jumps = np.flatnonzero(np.diff(x))
    assert np.all(np.abs(r[jumps] + lam * np.sign(x[jumps + 1] - x[jumps])) <= tol)


def test_denoise_rejects_nonfinite_input():
    y = np.zeros((6, 6))
    y[2, 3] = np.nan
    with pytest.raises(ConfigError, match="input image must be finite"):
        denoise_block_tv(y, BlockTvConfig(lam=0.1))


def test_config_rejects_nan_lam():
    with pytest.raises(ConfigError, match="lam"):
        BlockTvConfig(lam=float("nan"))


def test_config_rejects_nan_tol_obj():
    with pytest.raises(ConfigError, match="tol_obj must be finite"):
        BlockTvConfig(lam=0.1, tol_obj=float("nan"))


def test_config_rejects_nan_eps():
    with pytest.raises(ConfigError, match="eps"):
        BlockTvConfig(lam=0.1, eps=float("nan"))


def test_config_rejects_non_integer_clique_side():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="clique side must be an integer"):
            BlockTvConfig(lam=0.1, clique_side=bad)
    assert BlockTvConfig(lam=0.1, clique_side=np.int64(3)).clique_side == 3


def test_config_rejects_non_integer_max_iters():
    for bad in (float("nan"), 2.5, 2.0, True):
        with pytest.raises(ConfigError, match="max_iters must be an integer"):
            BlockTvConfig(lam=0.1, max_iters=bad)
    assert BlockTvConfig(lam=0.1, max_iters=np.int32(7)).max_iters == 7


@pytest.mark.parametrize("c", [2.0 ** -10, 2.0 ** -20, 2.0 ** 10])
def test_scaled_run_stops_at_the_same_iteration(c):
    # y, lam and eps scaled by c scale the objective by c^2 and the path by c;
    # with a power-of-two c the arithmetic scales exactly, so a stopping rule
    # with no absolute floor stops both runs at the same iteration
    rng = np.random.default_rng(14)
    y = make_piecewise_constant(32, 32, rng) + 0.1 * rng.standard_normal((32, 32))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, eps=1e-3, max_iters=300,
                                                  tol_obj=1e-9))
    xc, report_c = denoise_block_tv(c * y, BlockTvConfig(lam=0.1 * c, eps=1e-3 * c,
                                                         max_iters=300, tol_obj=1e-9))
    assert report_c.iterations == report.iterations
    assert report_c.termination_reason == report.termination_reason
    assert np.max(np.abs(xc - c * x)) <= 1e-12 * c
