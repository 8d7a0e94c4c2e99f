"""CoLaMP: greedy sparse recovery with a convex block-structured support step.

Solves ``argmin ||Phi x - y||^2 + lam * J(x)  s.t.  ||x||_0 <= K`` by
alternating (1) a matched-filter proxy ``v = Phi^T r + x``, (2) support
detection through the overlapping-block prox (every sub-step is convex, so
each support refinement is a global minimizer), (3) least squares on the
detected support via conjugate gradients plus truncation to the K largest
entries, and (4) a residual update.  The prox weight grows geometrically
across iterations, which increasingly penalizes isolated blocky noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .common import AllocationTracker, ConfigError, ShapeError, SolverReport, check_finite
from .grids import CliqueSystem
from .prox import ProxConfig, prox_block_norm

SUPPORT_REL_TOL = 1e-10  # prox output below this (relative to its max) counts as zero
ZERO_SOLUTION_REL_TOL = 1e-8  # all-shrunk prox outputs leave only solver-noise entries


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


def _default_prox_cfg() -> ProxConfig:
    # Tight tolerances so entries that belong off-support fall below the
    # SUPPORT_REL_TOL threshold instead of lingering at ADMM-residual level.
    return ProxConfig(lam=0.0, max_iters=2000, tol_abs=1e-12, tol_rel=1e-10)


@dataclass(frozen=True)
class ColampConfig:
    """Pursuit controls.

    ``lam0``/``lam_growth`` set the geometric prox-weight schedule
    ``lam_n = lam0 * lam_growth**(n-1)``.  ``eps_res=None`` resolves to
    ``1e-6 * ||y||`` at solve time.  ``prox`` supplies the inner ADMM
    controls; its ``lam`` field is overridden by the schedule.
    """

    k: int
    lam0: float = 16.0
    lam_growth: float = 1.02
    max_iters: int = 20
    eps_res: Optional[float] = None
    prox: ProxConfig = field(default_factory=_default_prox_cfg)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("target sparsity k must be >= 1")
        check_finite(self.lam0, "lam0")
        if self.lam0 < 0:
            raise ConfigError("lam0 must be nonnegative")
        check_finite(self.lam_growth, "lam_growth")
        if self.lam_growth < 1:
            raise ConfigError("lam_growth must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.eps_res is not None:
            check_finite(self.eps_res, "eps_res")
            if self.eps_res < 0:
                raise ConfigError("eps_res must be nonnegative")


def cg_solve_normal(phi_s: np.ndarray, y: np.ndarray, tol: float = 1e-10,
                    max_iters: Optional[int] = None) -> tuple[np.ndarray, bool]:
    """Conjugate gradients on the normal equations ``Phi_s^T Phi_s x = Phi_s^T y``.

    Returns the iterate with the smallest normal-equation residual and a
    degeneracy flag.  The flag is set for structurally rank-deficient
    systems (more columns than rows) and when curvature collapse reveals
    numerical deficiency; the iterate is still the best least-squares
    estimate encountered.  Convergence target:
    ``||Phi_s^T (Phi_s x - y)|| <= tol * ||Phi_s^T y||``.
    """
    a = np.asarray(phi_s, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ShapeError("support submatrix must be 2-D with at least one column")
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != a.shape[0]:
        raise ShapeError("measurement vector length does not match matrix rows")
    k = a.shape[1]
    if max_iters is None:
        max_iters = 4 * k

    b = a.T @ y
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(k)
    degenerate = k > a.shape[0]
    if b_norm == 0.0:
        return x, degenerate
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x = x.copy()
    best_res = math.sqrt(rs)

    for _ in range(max_iters):
        if math.sqrt(rs) <= tol * b_norm:
            break
        ap = a.T @ (a @ p)
        p_ap = float(p @ ap)
        if p_ap <= 1e-14 * float(p @ p):
            degenerate = True
            break
        step = rs / p_ap
        x = x + step * p
        r = r - step * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) < best_res:
            best_res = math.sqrt(rs_new)
            best_x = x.copy()
        p = r + (rs_new / rs) * p
        rs = rs_new

    return best_x, degenerate


def truncate_top_k(x_s: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries (ties broken by lowest index),
    zero the rest.  Shorter inputs pass through unchanged."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    x_s = np.asarray(x_s, dtype=float)
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
        Recovered image ``(H, W)`` and a report tracing ``||Phi x - y||^2``
        and ``||r||`` per iteration.  An empty support after the prox is
        retried once at half the weight; if it stays empty the run terminates
        with reason ``"support-collapse"``.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != model.m:
        raise ShapeError("measurement length does not match operator rows")
    if model.n != cliques.shape.n:
        raise ShapeError("operator columns do not match the clique grid pixel count")
    check_finite(y, "measurements")
    check_finite(model.phi, "measurement matrix")
    shape = (cliques.shape.height, cliques.shape.width)
    eps_res = cfg.eps_res if cfg.eps_res is not None else 1e-6 * float(np.linalg.norm(y))
    t0 = time.perf_counter()

    tracker = AllocationTracker()
    x = np.zeros(model.n)
    r = y.copy()
    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    support_size = 0
    degenerate_count = 0
    lam_n = cfg.lam0

    n = 0
    while n < cfg.max_iters and float(np.linalg.norm(r)) > eps_res:
        n += 1
        lam_n = cfg.lam0 * cfg.lam_growth ** (n - 1)
        tracker.register("pursuit-proxy", model.n)
        v = (model.adjoint(r) + x).reshape(shape)

        warm = x.reshape(shape)
        prox_res = prox_block_norm(v, cliques, replace(cfg.prox, lam=lam_n),
                                   x0=warm, tracker=tracker)
        support = _support_of(prox_res.x, v)
        if support.size == 0:
            prox_res = prox_block_norm(v, cliques, replace(cfg.prox, lam=lam_n / 2.0),
                                       x0=warm, tracker=tracker)
            support = _support_of(prox_res.x, v)
            if support.size == 0:
                tracker.release("pursuit-proxy")
                reason = "support-collapse"
                objective_trace.append(float(r @ r))
                residual_trace.append(float(np.linalg.norm(r)))
                break
        tracker.release("pursuit-proxy")

        x_s, degen = cg_solve_normal(model.columns(support), y, tol=1e-10,
                                     max_iters=4 * support.size)
        degenerate_count += int(degen)
        x = np.zeros(model.n)
        x[support] = truncate_top_k(x_s, cfg.k)
        r = y - model.forward(x)
        support_size = int(np.count_nonzero(x))

        objective_trace.append(float(r @ r))
        residual_trace.append(float(np.linalg.norm(r)))

    if reason != "support-collapse" and float(np.linalg.norm(r)) <= eps_res:
        reason = "converged"

    report = SolverReport(len(objective_trace), objective_trace, residual_trace,
                          reason, peak_aux_entries=tracker.peak,
                          wall_clock=time.perf_counter() - t0,
                          extra={"final_lambda": lam_n, "support_size": support_size,
                                 "cg_degenerate_iterations": degenerate_count})
    return x.reshape(shape), report


def _support_of(x_r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact nonzeros of the prox output, with entries below
    ``SUPPORT_REL_TOL * max|x_r|`` treated as zero.  An output whose peak is
    at solver-noise level relative to the prox input is the all-shrunk
    solution: its surviving entries are ADMM residue, not support."""
    flat = np.abs(np.asarray(x_r, dtype=float).ravel())
    peak = float(flat.max()) if flat.size else 0.0
    v_peak = float(np.max(np.abs(v))) if np.asarray(v).size else 0.0
    if peak == 0.0 or peak <= ZERO_SOLUTION_REL_TOL * v_peak:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(flat > SUPPORT_REL_TOL * peak)
