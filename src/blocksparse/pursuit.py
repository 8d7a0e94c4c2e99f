"""CoLaMP: greedy sparse recovery with a convex block-structured support step.

Solves ``argmin ||Phi x - y||^2 + lam * J(x)  s.t.  ||x||_0 <= K`` by
alternating (1) a matched-filter proxy ``v = Phi^T r + x``, (2) support
detection through the overlapping-block prox (every sub-step is convex, so
each support refinement is a global minimizer), (3) the minimum-norm least
squares fit on the detected support columns plus truncation to the K largest
entries, and (4) a residual update.  The prox weight grows geometrically
across iterations, which increasingly penalizes isolated blocky noise.

The residual is not monotone across outer iterations, so the pursuit keeps
its lowest-residual iterate and returns it, and it stops with ``"stalled"``
once that iterate is ``STALL_PATIENCE`` outer iterations old, as Subspace
Pursuit halts once its residual stops falling (Dai & Milenkovic, 2009).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .common import (ConfigError, ShapeError, SolverReport, check_count, check_finite,
                     check_nonnegative)
from .grids import CliqueSystem
from .prox import ProxConfig, prox_block_norm

# Prox output below this (relative to its max) counts as zero, and each prox
# solve stops once its duality gap certifies every pixel above it as support
SUPPORT_REL_TOL = 3e-3
ZERO_SOLUTION_REL_TOL = 1e-8  # all-shrunk prox outputs leave only solver-noise entries
# The pursuit stops with "stalled" once its lowest residual is this many outer
# iterations old.  Of the 16 blocky 32x32 problems at m/K = 3 (K = 40, side
# 2, the benchmark's generators, seeds 0-7, images 0-1), 14 recover in 13,768
# prox iterations and 168 outer iterations when the pursuit runs to its 50
# and returns the last iterate.  Patience 3 recovers 12 in 6,598 prox
# iterations, 5 the same 14 in 7,767 (87 outer), and 10 the same 14 in 8,329
# (97 outer).  At m/K = 4 all 16 recover in 3,729 with or without the stop.
STALL_PATIENCE = 5


@dataclass(frozen=True)
class MeasurementModel:
    """Dense linear acquisition operator ``phi`` of shape (M, N)."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ShapeError(f"measurement matrix must be 2-D and nonempty, got {phi.shape}")
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.phi @ np.asarray(x, dtype=float).ravel()

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        return self.phi.T @ np.asarray(r, dtype=float)

    def columns(self, support: np.ndarray) -> np.ndarray:
        return self.phi[:, support]


@dataclass(frozen=True)
class ColampConfig:
    """Pursuit controls.

    ``lam0``/``lam_growth`` set the geometric prox-weight schedule
    ``lam_n = lam0 * lam_growth**(n-1)``.  ``eps_res=None`` resolves to
    ``1e-6 * ||y||`` at solve time.  ``prox`` supplies the inner ADMM
    controls; its ``lam`` field is overridden by the schedule.  The
    defaults are the settings the compressive-sensing experiments run, tuned
    on unit-amplitude 32x32 blocky images.
    """

    k: int
    lam0: float = 0.6
    lam_growth: float = 1.02
    max_iters: int = 50
    eps_res: Optional[float] = None
    # colamp_solve stops each prox once the gap certifies the support it
    # reads (SUPPORT_REL_TOL), so the gap tolerances are only a backstop: an
    # all-shrunk prox (x* = 0) never certifies a support and stops on them.
    # The cap binds on calls that certify slowly.  Of 16 blocky 32x32
    # problems at m/K = 3 (K = 40, side 2, the benchmark's generators, seeds
    # 0-7, images 0-1), 14 recover exactly in 7,767 prox iterations, none
    # capped, with the spectral penalty and the stall stop (STALL_PATIENCE);
    # 13,768 without the stop, at caps 1500, 1000 and 500 alike.
    prox: ProxConfig = ProxConfig(lam=0.0, max_iters=1500, tol_abs=1e-11, tol_rel=1e-9)

    def __post_init__(self):
        check_count(self.k, "target sparsity k")
        check_nonnegative(self.lam0, "lam0")
        check_finite(self.lam_growth, "lam_growth")
        if self.lam_growth < 1:
            raise ConfigError("lam_growth must be >= 1")
        check_count(self.max_iters, "max_iters")
        if self.eps_res is not None:
            check_nonnegative(self.eps_res, "eps_res")


def truncate_top_k(x_s: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of a 1-D array (ties broken by
    lowest index), zero the rest.  Shorter inputs pass through unchanged.
    Raises :class:`ShapeError` on input that is not 1-D."""
    check_count(k, "k")
    x_s = np.asarray(x_s, dtype=float)
    if x_s.ndim != 1:
        raise ShapeError(f"truncate_top_k needs a 1-D array, got shape {x_s.shape}")
    if x_s.size <= k:
        return x_s.copy()
    order = np.argsort(-np.abs(x_s), kind="stable")
    out = np.zeros_like(x_s)
    keep = order[:k]
    out[keep] = x_s[keep]
    return out


def colamp_solve(y, model: MeasurementModel, cliques: CliqueSystem,
                 cfg: ColampConfig) -> tuple[np.ndarray, SolverReport]:
    """Run the pursuit.

    Parameters
    ----------
    y : (M,) array
        Measurements.
    model : MeasurementModel
        Acquisition operator; its column count must equal the clique grid's
        pixel count.
    cliques : CliqueSystem
        Block structure for the support-refinement prox.
    cfg : ColampConfig
        Sparsity target, weight schedule, stopping controls.

    Returns
    -------
    (x, report)
        The lowest-residual iterate as an image ``(H, W)``, and a report
        tracing ``||Phi x - y||^2`` and ``||r||`` at every outer iteration
        run.  The run stops with ``"converged"`` once ``||r|| <= eps_res``,
        where the last iterate is the best, or with ``"underdetermined"``
        instead when that iterate has ``m`` or more nonzeros, whose
        least-squares fit meets any ``y``.  It stops with ``"stalled"`` once
        the best iterate is ``STALL_PATIENCE`` outer iterations old, and
        with ``"max-iterations"`` at ``cfg.max_iters``.  An empty support
        after the prox is retried once at half the weight; if it stays empty
        the run terminates with reason ``"support-collapse"``.
        ``report.extra`` holds the outer iteration of the returned iterate
        (``"best_iteration"``, 0 for the zero start), its nonzero count
        (``"support_size"``), the iteration count of every prox call, in
        call order
        (``"prox_iterations"``), how many calls stopped for each reason
        (``"prox_terminations"``), and how many penalty changes the calls
        made by the spectral rule and by its fallback (``"rho_spectral"``
        and ``"rho_fallback"``) and how many penalty estimates they ran
        (``"rho_estimates"``), each summed over the calls.  Measurements whose
        norm overflows raise ``ConfigError``.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != model.m:
        raise ShapeError("measurement length does not match operator rows")
    if model.n != cliques.shape.n:
        raise ShapeError("operator columns do not match the clique grid pixel count")
    check_finite(y, "measurements")
    check_finite(model.phi, "measurement matrix")
    shape = (cliques.shape.height, cliques.shape.width)
    y_norm = float(np.linalg.norm(y))
    if not np.isfinite(y_norm):
        # finite measurements whose squares overflow: the default residual
        # tolerance would be inf and stop the pursuit before it starts
        raise ConfigError("the measurements' norm is not finite")
    eps_res = cfg.eps_res if cfg.eps_res is not None else 1e-6 * y_norm
    t0 = time.perf_counter()

    x = np.zeros(model.n)
    r = y.copy()
    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    prox_iterations: list[int] = []
    prox_terminations: Counter = Counter()
    # the prox calls' penalty changes, by the rule that made them, and their
    # penalty estimates
    rho_rules: Counter = Counter(rho_spectral=0, rho_fallback=0, rho_estimates=0)
    lam_n = cfg.lam0

    # the lowest-residual iterate so far, and its outer iteration (0: x = 0)
    best_x, best_residual, best_iteration = x, np.inf, 0

    n = 0
    while n < cfg.max_iters and float(np.linalg.norm(r)) > eps_res:
        n += 1
        lam_n = cfg.lam0 * cfg.lam_growth ** (n - 1)
        v = (model.adjoint(r) + x).reshape(shape)

        for lam in (lam_n, lam_n / 2.0):
            prox_res = prox_block_norm(v, cliques, replace(cfg.prox, lam=lam),
                                       support_tol=SUPPORT_REL_TOL)
            prox_iterations.append(prox_res.report.iterations)
            prox_terminations[prox_res.report.termination_reason] += 1
            for rule in rho_rules:
                rho_rules[rule] += prox_res.report.extra.get(rule, 0)
            support = _support_of(prox_res.x, v)
            if support.size:
                break
        else:
            reason = "support-collapse"
            objective_trace.append(float(r @ r))
            residual_trace.append(float(np.linalg.norm(r)))
            break

        x_s = np.linalg.lstsq(model.columns(support), y, rcond=None)[0]
        x = np.zeros(model.n)
        x[support] = truncate_top_k(x_s, cfg.k)
        r = y - model.forward(x)

        objective_trace.append(float(r @ r))
        residual_trace.append(float(np.linalg.norm(r)))
        if residual_trace[-1] < best_residual:
            best_x, best_residual, best_iteration = x, residual_trace[-1], n
        elif n - best_iteration >= STALL_PATIENCE:
            reason = "stalled"
            break

    support_size = int(np.count_nonzero(best_x))
    if reason == "max-iterations" and float(np.linalg.norm(r)) <= eps_res:
        # the last iterate, the only one within eps_res, so the best; with m
        # or more columns any y has an exact fit, which certifies nothing
        reason = "converged" if support_size < model.m else "underdetermined"

    report = SolverReport(objective_trace, residual_trace, reason, iterations=n,
                          wall_clock=time.perf_counter() - t0,
                          extra={"final_lambda": lam_n, "support_size": support_size,
                                 "best_iteration": best_iteration,
                                 "prox_iterations": prox_iterations,
                                 "prox_terminations": dict(prox_terminations),
                                 **rho_rules})
    return best_x.reshape(shape), report


def _support_of(x_r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entries of the prox output above ``SUPPORT_REL_TOL * max|x_r|``.  When
    the prox stopped with ``"support-certified"`` each of them is nonzero in
    the exact prox: the primal and dual sides of its duality gap ``G`` put
    the exact prox within ``(d + sqrt(2G - d^2))/2`` of ``x_r``, ``d`` the
    distance from ``x_r`` to the dual point's primal image, and that radius
    was at most ``SUPPORT_REL_TOL * max|x_r|``.  It never exceeds the
    one-sided bound ``sqrt(G)``, so the prox stops no later than on that
    bound.  An output whose peak is at solver-noise level relative to the
    prox input is the all-shrunk solution: its surviving entries are ADMM
    residue, not support."""
    flat = np.abs(np.asarray(x_r, dtype=float).ravel())
    peak = float(flat.max()) if flat.size else 0.0
    v_peak = float(np.max(np.abs(v))) if np.asarray(v).size else 0.0
    if peak == 0.0 or peak <= ZERO_SOLUTION_REL_TOL * v_peak:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(flat > SUPPORT_REL_TOL * peak)
