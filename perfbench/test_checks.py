"""Each benchmark check accepts a correct solver output and rejects a wrong one.

    python3 -m pytest perfbench
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from blocksparse import (BlockTvConfig, GridShape, ProxConfig, RpcaConfig,  # noqa: E402
                         build_clique_system, denoise_block_tv, prox_block_norm, solve_rpca)

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def test_clique_sq_norms_match_a_loop():
    a = np.random.default_rng(0).standard_normal((2, 6, 7))
    got = checks.clique_sq_norms(a, 3)
    want = np.array([[[np.sum(a[f, r:r + 3, c:c + 3] ** 2) for c in range(5)]
                      for r in range(4)] for f in range(2)])
    np.testing.assert_allclose(got, want)


# ---------------------------------------------------------------------------
# cs-colamp


def _planted():
    truth = workloads.blocky_image(16, 16, 12, 2, np.random.default_rng(1))
    return truth


def test_cs_check_accepts_the_planted_image():
    truth = _planted()
    checks.check_cs(truth.copy(), truth, 12, exact=True)
    checks.check_cs(np.zeros_like(truth), truth, 12, exact=False)


@pytest.mark.parametrize("corrupt", ["extra_nonzero", "missing_nonzero", "scaled", "nan"])
def test_cs_check_rejects_wrong_recoveries(corrupt):
    truth = _planted()
    x = truth.copy()
    on = np.flatnonzero(truth)
    if corrupt == "extra_nonzero":
        x.ravel()[np.flatnonzero(truth == 0)[0]] = 1e-3
    elif corrupt == "missing_nonzero":
        x.ravel()[on[0]] = 0.0
    elif corrupt == "scaled":
        x *= 1.0 + 1e-5
    else:
        x.ravel()[on[0]] = np.nan
    with pytest.raises(CheckError):
        checks.check_cs(x, truth, 12, exact=True)


def test_cs_check_rejects_too_many_nonzeros_in_any_regime():
    truth = _planted()
    with pytest.raises(CheckError):
        checks.check_cs(np.ones_like(truth), truth, 12, exact=False)


# ---------------------------------------------------------------------------
# prox-denoise


@pytest.fixture(scope="module")
def prox_case():
    rng = np.random.default_rng(2)
    truth = workloads.blocky_image(20, 20, 40, 2, rng)
    v = truth + 0.2 * rng.standard_normal(truth.shape)
    side, lam = 3, 0.3
    res = prox_block_norm(v, build_clique_system(GridShape(20, 20), side),
                          ProxConfig(lam=lam, max_iters=2000))
    return v, res, side, lam


def test_prox_check_accepts_a_converged_prox(prox_case):
    v, res, side, lam = prox_case
    gap = checks.check_prox(v, res.x, res.u, res.report.extra["rho"], lam, side)
    assert 0.0 <= gap <= 1e-5


@pytest.mark.parametrize("corrupt", ["identity", "zero", "perturbed"])
def test_prox_check_rejects_a_wrong_output(prox_case, corrupt):
    v, res, side, lam = prox_case
    x = {"identity": v, "zero": np.zeros_like(v),
         "perturbed": res.x + 0.05 * np.random.default_rng(3).standard_normal(v.shape)}[corrupt]
    with pytest.raises(CheckError):
        checks.check_prox(v, x, res.u, res.report.extra["rho"], lam, side)


def test_prox_gap_is_a_lower_bound_for_any_duals(prox_case):
    # garbage duals still give a valid bound: the gap grows, never goes negative
    v, res, side, lam = prox_case
    u = np.random.default_rng(4).standard_normal(res.u.shape)
    assert checks.prox_dual_gap(v, res.x, u, res.report.extra["rho"], lam, side) > 1e-3


# ---------------------------------------------------------------------------
# rpca-fbs


@pytest.fixture(scope="module")
def rpca_case():
    lowrank, sparse = workloads.lowrank_plus_blocks(16, 16, 6, 2, 4, np.random.default_rng(5))
    y = lowrank + sparse
    side = 2
    res = solve_rpca(y, RpcaConfig(clique_side=side, max_iters=150))
    lam = 1.0 / (side * 16)
    eps = 3e-3 * max(1.0, float(np.abs(y).max()))
    return y, res, lam, eps, side


def _check_rpca(case, x=None, z=None, trace=None, rank=2):
    y, res, lam, eps, side = case
    checks.check_rpca(res.x if x is None else x, res.z if z is None else z, y,
                      res.report.objective_trace if trace is None else trace,
                      lam, eps, 1.0, side, rank)


def test_rpca_check_accepts_the_solver_output(rpca_case):
    _check_rpca(rpca_case)


def test_rpca_check_rejects_an_increasing_trace(rpca_case):
    trace = list(rpca_case[1].report.objective_trace)
    trace[len(trace) // 2] = trace[len(trace) // 2 - 1] * (1.0 + 1e-6)
    with pytest.raises(CheckError, match="increases"):
        _check_rpca(rpca_case, trace=trace)


def test_rpca_check_rejects_an_output_that_does_not_match_the_trace(rpca_case):
    x = rpca_case[1].x.copy()
    x[0, 0, 0] += 1e-3
    with pytest.raises(CheckError, match="recomputed"):
        _check_rpca(rpca_case, x=x)


def test_rpca_check_rejects_the_wrong_rank(rpca_case):
    with pytest.raises(CheckError, match="rank"):
        _check_rpca(rpca_case, rank=3)


# ---------------------------------------------------------------------------
# blocktv-denoise


@pytest.fixture(scope="module")
def blocktv_case():
    rng = np.random.default_rng(6)
    clean = workloads.piecewise_constant(32, 32, rng)
    y = clean + 0.1 * rng.standard_normal(clean.shape)
    side, lam = 2, 0.1
    x, report = denoise_block_tv(y, BlockTvConfig(lam=lam, clique_side=side, max_iters=100))
    dh, dv = checks.forward_differences(y)
    eps = 1e-4 * max(1.0, float(np.abs(dh).max()), float(np.abs(dv).max()))
    return x, y, clean, report, lam, eps, side


def test_blocktv_check_accepts_the_solver_output(blocktv_case):
    x, y, clean, report, lam, eps, side = blocktv_case
    checks.check_blocktv(x, y, clean, report.objective_trace, lam, eps, side)


def test_blocktv_check_rejects_an_output_that_does_not_match_the_trace(blocktv_case):
    x, y, clean, report, lam, eps, side = blocktv_case
    with pytest.raises(CheckError, match="recomputed"):
        checks.check_blocktv(x * (1.0 + 1e-4), y, clean, report.objective_trace, lam, eps, side)


def test_blocktv_check_rejects_an_increasing_trace(blocktv_case):
    x, y, clean, report, lam, eps, side = blocktv_case
    trace = copy.copy(report.objective_trace)
    trace[1] = trace[0] + 1.0
    with pytest.raises(CheckError, match="increases"):
        checks.check_blocktv(x, y, clean, trace, lam, eps, side)


def test_blocktv_check_rejects_no_psnr_gain(blocktv_case):
    # the input itself matches a one-entry trace of its own objective, but
    # does not improve on the input PSNR
    x, y, clean, report, lam, eps, side = blocktv_case
    trace = [checks.blocktv_objective(y, y, lam, eps, side)]
    with pytest.raises(CheckError, match="PSNR"):
        checks.check_blocktv(y, y, clean, trace, lam, eps, side)
