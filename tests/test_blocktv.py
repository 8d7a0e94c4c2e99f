import numpy as np
import pytest

from blocksparse import (BlockTvConfig, ConfigError, GradientField, ShapeError,
                         denoise_block_tv, discrete_gradient,
                         discrete_gradient_adjoint, psnr_db)
from blocksparse.synthetic import make_piecewise_constant, sigma_for_psnr_db

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


def test_config_validation():
    with pytest.raises(ConfigError):
        BlockTvConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        BlockTvConfig(lam=0.1, step="fixed")  # needs alpha
    with pytest.raises(ConfigError):
        BlockTvConfig(lam=0.1, step="momentum")
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
    rng = np.random.default_rng(2)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.1, max_iters=100))
    tr = report.objective_trace
    assert len(tr) == report.iterations
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))


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


def test_small_eps_l1_limit_matches_convex_tv():
    cvxpy = pytest.importorskip("cvxpy")
    # 1-row image: anisotropic TV on the horizontal differences only
    w = 40
    ramp = np.linspace(0.0, 4.0, w)
    rng = np.random.default_rng(5)
    y = (ramp + 0.05 * rng.standard_normal(w)).reshape(1, w)
    lam = 0.05

    xv = cvxpy.Variable(w)
    prob = cvxpy.Problem(cvxpy.Minimize(
        0.5 * cvxpy.sum_squares(xv - y.ravel()) + lam * cvxpy.norm1(cvxpy.diff(xv))))
    prob.solve()

    x, report = denoise_block_tv(y, BlockTvConfig(lam=lam, eps=1e-8, clique_side=1,
                                                  max_iters=20000, tol_obj=1e-14))
    assert np.linalg.norm(x.ravel() - xv.value) <= 1e-3 * np.linalg.norm(xv.value)


def test_fixed_step_runs():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((8, 8))
    x, report = denoise_block_tv(y, BlockTvConfig(lam=0.05, step="fixed", alpha=0.2,
                                                  max_iters=50))
    assert report.iterations <= 50
    assert np.all(np.isfinite(x))


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


def test_config_rejects_nan_alpha():
    with pytest.raises(ConfigError, match="alpha must be finite"):
        BlockTvConfig(lam=0.1, step="fixed", alpha=float("nan"))


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
