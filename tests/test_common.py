import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from blocksparse import (BlockTvConfig, ColampConfig, ConfigError, GridShape, ProxConfig,
                         RpcaConfig, ShapeError, SolverReport, build_clique_system,
                         default_lambda, experiments, prox_block_norm, psnr_db, relative_error,
                         support_prf, support_set, svt)
from blocksparse.common import check_finite, check_nonnegative, check_positive
from blocksparse.experiments import HarnessConfig


def test_report_validates_trace_lengths():
    with pytest.raises(ValueError):
        SolverReport([1.0], [1.0, 0.5], "converged", iterations=2)


def test_report_counts_its_trace():
    # the count is the solver's: a solver that traces every iteration gives
    # its trace's length, and the prox, which traces the iterations it
    # checks, a count past it
    assert SolverReport([2.0, 1.0], [1.0, 0.5], "converged", iterations=2).iterations == 2
    assert SolverReport([2.0], [0.5], "max-iterations", iterations=4).iterations == 4
    assert SolverReport([], [], "converged", iterations=0).iterations == 0


def test_report_rejects_fewer_iterations_than_trace_entries():
    with pytest.raises(ValueError, match="^1 iterations cannot leave 2 trace entries$"):
        SolverReport([2.0, 1.0], [1.0, 0.5], "converged", iterations=1)
    with pytest.raises(ValueError, match="^0 iterations cannot leave 1 trace entries$"):
        SolverReport([2.0], [0.5], "converged", iterations=0)


def test_harness_reads_iterations_not_trace_entries(monkeypatch):
    # a zero-tolerance prox capped at 25 traces only its checked iterations;
    # the CSV column and the per-iteration time both count all 25
    cliques = build_clique_system(GridShape(4, 4), 2)
    rep = prox_block_norm(np.ones((4, 4)), cliques, ProxConfig(lam=1.0, max_iters=25,
                                                               tol_abs=0.0, tol_rel=0.0)).report
    assert len(rep.objective_trace) < 25
    assert experiments._report_fields(rep) == {"iterations": 25,
                                               "termination": "max-iterations"}
    # each timed solve takes 3 s on a fake clock, over 30 iterations and one
    # trace entry
    clock = itertools.count(0.0, 3.0)
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    report = SolverReport([1.0], [1.0], "max-iterations", iterations=30)
    monkeypatch.setattr(experiments, "solve_rpca", lambda y, cfg: SimpleNamespace(report=report))
    assert experiments.fbs_per_iteration_seconds(2) == 0.1


def test_report_validates_reason():
    with pytest.raises(ValueError):
        SolverReport([], [], "finished", iterations=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects_nonfinite(bad):
    with pytest.raises(ConfigError, match="widget must be finite"):
        check_finite(np.array([0.0, bad]), "widget")
    with pytest.raises(ConfigError):
        check_finite(bad, "widget")


def test_check_finite_accepts_finite():
    check_finite(np.zeros((2, 3)), "widget")
    check_finite(-1e308, "widget")


def test_metrics_reject_mismatched_shapes():
    # NumPy would broadcast these to equal arrays and score them perfect
    with pytest.raises(ShapeError, match=r"\(3, 1\) does not match truth shape \(1, 3\)"):
        relative_error(np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(ShapeError, match=r"\(3,\) does not match truth shape \(1,\)"):
        psnr_db(np.zeros(3), np.ones(1), 1.0)


def test_metrics_of_an_exact_estimate_and_of_empty_supports():
    assert psnr_db(np.ones((2, 2)), np.ones((2, 2)), 1.0) == math.inf
    assert support_set(np.zeros((3, 3))).size == 0
    assert support_prf(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)) == (1.0, 1.0, 1.0)


def test_range_checks_accept_their_boundary():
    check_nonnegative(0.0, "widget")
    check_positive(5e-324, "widget")


def _support_tol(value):
    cliques = build_clique_system(GridShape(4, 4), 2)
    prox_block_norm(np.zeros((4, 4)), cliques, ProxConfig(lam=0.1), support_tol=value)


# (label, build from the bad value, name in the message, the rule)
_RANGE_RULES = [
    ("ProxConfig.lam", lambda v: ProxConfig(lam=v), "lam", "nonnegative"),
    ("ProxConfig.tol_abs", lambda v: ProxConfig(lam=0.1, tol_abs=v), "tol_abs", "nonnegative"),
    ("ProxConfig.tol_rel", lambda v: ProxConfig(lam=0.1, tol_rel=v), "tol_rel", "nonnegative"),
    ("ColampConfig.lam0", lambda v: ColampConfig(k=4, lam0=v), "lam0", "nonnegative"),
    ("ColampConfig.eps_res", lambda v: ColampConfig(k=4, eps_res=v), "eps_res", "nonnegative"),
    ("BlockTvConfig.lam", lambda v: BlockTvConfig(lam=v), "lam", "nonnegative"),
    ("BlockTvConfig.eps", lambda v: BlockTvConfig(lam=0.1, eps=v), "eps", "positive"),
    ("BlockTvConfig.tol_obj", lambda v: BlockTvConfig(lam=0.1, tol_obj=v), "tol_obj",
     "nonnegative"),
    ("RpcaConfig.mu", lambda v: RpcaConfig(mu=v), "mu", "positive"),
    ("RpcaConfig.lam", lambda v: RpcaConfig(lam=v), "lam", "nonnegative"),
    ("RpcaConfig.eps", lambda v: RpcaConfig(eps=v), "eps", "positive"),
    ("RpcaConfig.tol_obj", lambda v: RpcaConfig(tol_obj=v), "tol_obj", "nonnegative"),
    ("HarnessConfig.mu", lambda v: HarnessConfig(mu=v), "mu", "positive"),
    ("HarnessConfig.epsilon", lambda v: HarnessConfig(epsilon=v), "epsilon", "positive"),
    ("HarnessConfig.lam", lambda v: HarnessConfig(lam=v), "lambda", "nonnegative"),
    ("svt", lambda v: svt(np.ones((2, 2)), v), "threshold", "nonnegative"),
    ("prox_block_norm.support_tol", _support_tol, "support_tol", "positive"),
    ("psnr_db.peak", lambda v: psnr_db(np.ones(2), np.zeros(2), v), "peak", "positive"),
]


@pytest.mark.parametrize("build, name, bad, message", [
    pytest.param(build, name, bad,
                 "finite" if not math.isfinite(bad) else rule, id=f"{label}={bad}")
    for label, build, name, rule in _RANGE_RULES
    # nonfinite values, then the first value the rule forbids
    for bad in (math.nan, math.inf, -math.inf, 0.0 if rule == "positive" else -1.0)
])
def test_range_checks_reject_the_value_by_name(build, name, bad, message):
    with pytest.raises(ConfigError, match=f"^{name} must be {message}$"):
        build(bad)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda v: default_lambda(v, 10), "side", id="default_lambda.side"),
    pytest.param(lambda v: default_lambda(2, v), "pixel count", id="default_lambda.n_pixels"),
])
@pytest.mark.parametrize("bad, message", [
    (2.5, "an integer"), (True, "an integer"), (math.nan, "an integer"), (0, ">= 1"),
])
def test_count_checks_reject_the_value_by_name(build, name, bad, message):
    with pytest.raises(ConfigError, match=f"^{name} must be {message}"):
        build(bad)
