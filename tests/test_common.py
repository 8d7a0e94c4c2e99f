import math
import time

import numpy as np
import pytest

from blocksparse import (BlockTvConfig, ColampConfig, ConfigError, GridShape,
                         MeasurementModel, ProxConfig, RpcaConfig, ShapeError, SolverReport,
                         build_clique_system, colamp_solve, default_lambda, denoise_block_tv,
                         experiments, prox_block_norm, psnr_db, relative_error, solve_rpca,
                         support_prf, support_set, svt)
from blocksparse import common
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


def test_harness_reads_iterations_not_trace_entries():
    # a zero-tolerance prox capped at 25 traces only its checked iterations;
    # the CSV column counts all 25
    cliques = build_clique_system(GridShape(4, 4), 2)
    rep = prox_block_norm(np.ones((4, 4)), cliques, ProxConfig(lam=1.0, max_iters=25,
                                                               tol_abs=0.0, tol_rel=0.0)).report
    assert len(rep.objective_trace) < 25
    assert experiments._report_fields(rep) == {"iterations": 25,
                                               "termination": "max-iterations"}


def _prox_report(lam):
    v = np.random.default_rng(0).standard_normal((8, 8))
    cliques = build_clique_system(GridShape(8, 8), 2)
    return prox_block_norm(v, cliques, ProxConfig(lam=lam, max_iters=20)).report


def _colamp_report():
    rng = np.random.default_rng(1)
    truth = np.zeros(64)
    truth[[9, 10, 17, 18]] = 1.0
    phi = rng.standard_normal((32, 64))
    cliques = build_clique_system(GridShape(8, 8), 2)
    return colamp_solve(phi @ truth, MeasurementModel(phi), cliques,
                        ColampConfig(k=4, max_iters=3))[1]


# every place a solver writes a report's wall_clock: the prox's zero weight,
# screen and iteration, and the other three solvers
WALL_CLOCK_RUNS = {
    "prox-zero-weight": lambda: _prox_report(0.0),
    "prox-screened": lambda: _prox_report(100.0),
    "prox-iterated": lambda: _prox_report(0.5),
    "rpca": lambda: solve_rpca(np.random.default_rng(2).standard_normal((8, 8, 3)),
                               RpcaConfig(max_iters=5)).report,
    "block-tv": lambda: denoise_block_tv(np.random.default_rng(3).standard_normal((8, 8)),
                                         BlockTvConfig(lam=0.1, max_iters=5))[1],
    "colamp": _colamp_report,
}


@pytest.mark.parametrize("run", WALL_CLOCK_RUNS.values(), ids=WALL_CLOCK_RUNS.keys())
def test_report_wall_clock_lies_within_the_callers_span(run):
    # a solver times part of its own call, so its reading is nonnegative and
    # at most the span its caller measures around the call
    t0 = time.perf_counter()
    report = run()
    span = time.perf_counter() - t0
    assert 0.0 <= report.wall_clock <= span


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


@pytest.mark.parametrize("exp", [-520, 520])
def test_metrics_are_scale_free_at_extreme_magnitudes(exp):
    # at 2^-520 the squares underflow and at 2^520 they overflow; scaled by
    # a power of two, each metric reads its unit-scale value bit for bit
    rng = np.random.default_rng(11)
    truth = rng.standard_normal((6, 5))
    estimate = truth + 0.1 * rng.standard_normal((6, 5))
    scaled = (np.ldexp(estimate, exp), np.ldexp(truth, exp))
    assert relative_error(*scaled) == relative_error(estimate, truth)
    assert psnr_db(*scaled, math.ldexp(3.0, exp)) == psnr_db(estimate, truth, 3.0)
    # a zero truth falls back to the estimate's norm, at its own scale
    assert relative_error(scaled[0], np.zeros((6, 5))) == math.ldexp(
        relative_error(estimate, np.zeros((6, 5))), exp)


@pytest.mark.parametrize("value", [1e-200, 1e-170, 1e160])
def test_metrics_of_a_doubled_constant(value):
    # the estimate twice the truth: relative error 1, and 0 dB at the
    # truth's value as the peak
    assert relative_error(np.full(4, 2 * value), np.full(4, value)) == 1.0
    assert psnr_db(np.full(4, 2 * value), np.full(4, value), value) == 0.0
    # the common peak 1 lies in range, but the truth's squares, or the
    # error's, would underflow: each norm is taken at its own scale
    assert psnr_db(np.full(4, 2 * value), np.full(4, value), 1.0) == pytest.approx(
        -20.0 * math.log10(value), rel=1e-12)
    assert relative_error(np.ones(4), np.full(4, value)) == pytest.approx(
        abs(1.0 - value) / value, rel=1e-12)


def test_metrics_beyond_the_float_range():
    # a norm or ratio past the largest float reads inf, and a peak whose
    # square would underflow still scores
    assert relative_error(np.full(4, 1.7e308), np.zeros(4)) == math.inf
    assert relative_error(np.full(4, 1e250), np.full(4, 1e-100)) == math.inf
    assert psnr_db(np.ones(4), np.zeros(4), 1e-300) == pytest.approx(-6000.0, rel=1e-12)


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


class _ScriptedSolver:
    """A stand-in for a smoothed solver under ``common.descend``: each trial
    returns the next scripted verdict, and each accepted trial lowers the
    objective by 1 and traces its step as the residual."""

    def __init__(self, verdicts, gnorm=1.0, obj=10.0):
        self.verdicts = iter(verdicts)
        self.gnorm, self.obj = gnorm, obj
        self.gradients, self.trials, self.accepted = 0, [], []

    def gradient(self):
        self.gradients += 1
        return self.gnorm

    def trial(self, alpha, obj):
        self.trials.append((alpha, obj))
        return next(self.verdicts)

    def accept(self, alpha):
        self.accepted.append(alpha)
        self.obj -= 1.0
        return self.obj, alpha

    def run(self, max_iters=3, grow=2.0, tol_obj=0.0, **kw):
        return common.descend(self.gradient, self.trial, self.accept, 1.0, grow, max_iters,
                              tol_obj, self.obj, time.perf_counter(), {"tag": 1}, **kw)


def test_descend_halves_on_rejection_and_grows_after_acceptance_only():
    stub = _ScriptedSolver([False, False, True, True, False, True])
    report = stub.run()
    # each trial sees the objective at the current point
    assert stub.trials == [(1.0, 10.0), (0.5, 10.0), (0.25, 10.0), (0.5, 9.0), (1.0, 8.0),
                           (0.5, 8.0)]
    assert stub.accepted == [0.25, 0.5, 0.5]
    assert report.objective_trace == [9.0, 8.0, 7.0]
    assert report.residual_trace == [0.25, 0.5, 0.5]
    assert report.termination_reason == "max-iterations"
    assert report.iterations == 3
    assert report.extra == {"tag": 1, "halvings": 3, "alpha_final": 1.0}
    assert 0.0 <= report.wall_clock


def test_descend_stops_on_the_relative_objective_change():
    # from -10 the steps change the objective by 1/10, 1/11 and 1/12 of its
    # magnitude, and only the third is at most tol_obj
    stub = _ScriptedSolver([True] * 5, obj=-10.0)
    report = stub.run(max_iters=5, tol_obj=0.085)
    assert report.termination_reason == "converged"
    assert report.objective_trace == [-11.0, -12.0, -13.0]
    assert report.extra["alpha_final"] == 4.0  # grown after the first two steps only


def test_descend_raises_on_the_61st_rejection_before_a_stall():
    stub = _ScriptedSolver([True] + [False] * 60 + [None])
    with pytest.raises(common.NumericalError,
                       match="^backtracking failed: no acceptable step after 60 halvings$"):
        stub.run()
    assert len(stub.trials) == 1 + 61
    assert stub.trials[-1] == (2.0 * 0.5 ** 60, 9.0)


def test_descend_stalls_without_a_trace_entry():
    stub = _ScriptedSolver([True, False, None])
    report = stub.run()
    assert report.termination_reason == "stalled"
    assert stub.accepted == [1.0]
    assert report.objective_trace == [9.0] and report.iterations == 1
    # the stalled trial counts as a halving, and its step is the last
    assert report.extra == {"tag": 1, "halvings": 2, "alpha_final": 1.0}


def test_descend_stops_on_the_gradient_norm_before_a_step():
    stub = _ScriptedSolver([], gnorm=0.5)
    report = stub.run(grad_tol=0.5)
    assert report.termination_reason == "converged"
    assert report.iterations == 0 and report.objective_trace == []
    assert stub.gradients == 1 and stub.trials == []
    assert report.extra == {"tag": 1, "halvings": 0, "alpha_final": 1.0}


@pytest.mark.parametrize("obj", [math.nan, math.inf, -math.inf])
def test_descend_rejects_a_nonfinite_start(obj):
    stub = _ScriptedSolver([], obj=obj)
    with pytest.raises(ConfigError, match="^objective is not finite at the starting point$"):
        stub.run()
    assert stub.gradients == 0
