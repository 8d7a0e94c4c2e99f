"""Sparse-plus-low-rank decomposition by forward-backward splitting.

Minimizes ``||Z||_* + lam * Jeps(X) + mu/2 * ||Y - Z - X||_F^2`` over an
``(H, W, L)`` frame stack, where ``Jeps`` is the smoothed overlapping-block
penalty applied frame-wise.  Each iteration takes forward gradient steps on
the smooth terms (block gradient from exact window sums, ``2 (side - 1)``
adds per pixel and sum) and a backward singular-value-thresholding step on
the nuclear norm.  In the paper's count the algorithm's state is four
stack-sized buffers (X, Z, gradient, residual): ``4 * N * L`` entries, versus
``(2*side^2 + 4) * N * L`` for a consensus-ADMM treatment of the same
objective.  Line-search trials and window sums add temporaries on top; the
``memory-benchmark`` experiment reports the peak measured with tracemalloc.

The block penalty comes from the regularizer's evaluator pair, batched over
frames.  Each line-search trial computes the smoothed clique norms of its
sparse part, whose sum is the trial's penalty value.  The accepted trial's
norms give the next iteration's gradient through one full window sum, and
its smooth value is the next iteration's starting value, so no window sum is
repeated at an accepted point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .common import (ConfigError, NumericalError, ShapeError, SolverReport, check_count,
                     check_finite)
from .grids import GridShape, build_clique_system
from .regularizer import block_norm_smoothed, smoothed_clique_norms, smoothed_weight_map

_BACKTRACK_SHRINK = 0.5
_BACKTRACK_GROW = 1.25
_MAX_HALVINGS = 60

# Solver-side smoothing default, relative to the data scale.  The smoothing
# level bounds the usable step through the gradient's curvature (the initial
# step is 1/(mu + lam/eps)), so the decomposition solver defaults to a larger
# smoothing than bias alone would suggest; pass eps explicitly for sharper
# shrinkage at the cost of many more iterations.
EPS_SCALE_REL = 3e-3


@dataclass(frozen=True)
class RpcaConfig:
    """Weights and stepping policy for :func:`solve_rpca`.

    ``lam=None`` resolves to :func:`default_lambda` for the frame size;
    ``eps=None`` resolves to the scale-relative smoothing default of the
    observed stack.  ``alpha="auto"`` enables backtracking line search with
    a Lipschitz-motivated initial step ``1 / (mu + lam/eps)``; a float fixes
    the step size.  The run stops once an iteration changes the objective by
    at most ``tol_obj`` times its magnitude.  That test and the line search's
    slack are relative with no absolute floor, so scaling ``y`` and ``eps``
    by ``c`` and ``mu`` by ``1/c`` leaves the iteration count unchanged.
    """

    lam: Optional[float] = None
    mu: float = 1.0
    alpha: Union[float, str] = "auto"
    eps: Optional[float] = None
    max_iters: int = 500
    tol_obj: float = 1e-8
    clique_side: int = 2

    def __post_init__(self):
        check_finite(self.mu, "mu")
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if self.lam is not None:
            check_finite(self.lam, "lam")
            if self.lam < 0:
                raise ConfigError("lam must be nonnegative")
        if isinstance(self.alpha, str):
            if self.alpha != "auto":
                raise ConfigError("alpha must be a positive number or 'auto'")
        else:
            check_finite(self.alpha, "alpha")
            if self.alpha <= 0:
                raise ConfigError("alpha must be positive when fixed")
        if self.eps is not None:
            check_finite(self.eps, "eps")
            if self.eps <= 0:
                raise ConfigError("eps must be positive")
        check_count(self.max_iters, "max_iters")
        check_finite(self.tol_obj, "tol_obj")
        if self.tol_obj < 0:
            raise ConfigError("tol_obj must be nonnegative")
        check_count(self.clique_side, "clique side")


@dataclass
class RpcaResult:
    """Decomposition output: sparse/foreground ``x``, low-rank/background ``z``,
    and the run report (rank and resolved weights in ``report.extra``)."""

    x: np.ndarray
    z: np.ndarray
    report: SolverReport


def default_lambda(side: int, n_pixels: int) -> float:
    """Sparsity weight ``1 / (side * sqrt(n_pixels))``.

    The ``1/sqrt(n)`` baseline of plain l1 robust PCA is divided by the
    clique side because every entry is shared by up to ``side**2``
    overlapping penalty terms.
    """
    if side < 1 or n_pixels < 1:
        raise ConfigError("side and pixel count must be >= 1")
    return 1.0 / (side * math.sqrt(n_pixels))


def _svd_soft(q: np.ndarray, delta: float):
    try:
        u, s, vt = np.linalg.svd(q, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on {q.shape} matrix: {exc}") from exc
    s_shrunk = np.maximum(s - delta, 0.0)
    return (u * s_shrunk) @ vt, s_shrunk


def svt(q, delta: float) -> np.ndarray:
    """Singular value thresholding: the prox of ``delta * ||.||_*``.

    Soft-thresholds all singular values by ``delta``; never increases rank.
    """
    q = np.asarray(q, dtype=float)
    if delta < 0:
        raise ConfigError("threshold must be nonnegative")
    if not np.all(np.isfinite(q)):
        raise ConfigError("input matrix must be finite")
    out, _ = _svd_soft(q, delta)
    return out


def numerical_rank(a: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values above ``rel_tol * sigma_max``."""
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _check_stack(y) -> tuple[np.ndarray, GridShape]:
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise ShapeError(f"expected an (H, W, L) stack, got shape {y.shape}")
    if y.shape[2] < 1:
        raise ConfigError("stack must contain at least one frame")
    check_finite(y, "stack entries")
    return y, GridShape(y.shape[0], y.shape[1])


def _resolve(y: np.ndarray, shape: GridShape, cfg: RpcaConfig) -> tuple[float, float]:
    lam = cfg.lam if cfg.lam is not None else default_lambda(cfg.clique_side, shape.n)
    if cfg.eps is not None:
        eps = cfg.eps
    else:
        scale = float(np.max(np.abs(y))) if y.size else 0.0
        eps = EPS_SCALE_REL * max(1.0, scale)
    return lam, eps


def rpca_objective(x, z, y, cfg: RpcaConfig) -> float:
    """Exact objective ``||Z||_* + lam * Jeps(X) + mu/2 * ||Y - Z - X||_F^2``.

    The smoothed penalty is evaluated frame by frame with
    :func:`block_norm_smoothed`, not through the solver's batched evaluator.
    """
    y, shape = _check_stack(y)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != y.shape or z.shape != y.shape:
        raise ShapeError("X, Z, Y shapes must agree")
    cliques = build_clique_system(shape, cfg.clique_side)
    lam, eps = _resolve(y, shape, cfg)
    penalty = sum(block_norm_smoothed(x[:, :, t], cliques, eps) for t in range(y.shape[2]))
    nuclear = float(np.linalg.svd(z.reshape(shape.n, -1), compute_uv=False).sum())
    fidelity = 0.5 * cfg.mu * float(np.sum((y - z - x) ** 2))
    return nuclear + lam * penalty + fidelity


def solve_rpca(y, cfg: RpcaConfig) -> RpcaResult:
    """Decompose a stack into block-sparse and low-rank parts.

    Parameters
    ----------
    y : (H, W, L) array
        Observed frames.
    cfg : RpcaConfig
        Weights and stepping policy.

    Returns
    -------
    RpcaResult
        ``x`` (sparse), ``z`` (low rank), and a report whose trace is
        nonincreasing when backtracking is enabled.  Divergence under a fixed
        step (objective exceeding 10x its starting value) terminates with
        reason ``"diverged"`` rather than raising; reduce ``alpha``.
    """
    y, shape = _check_stack(y)
    side = cfg.clique_side
    if side > min(shape.height, shape.width):
        raise ConfigError(f"clique side {side} exceeds frame {shape.height}x{shape.width}")
    lam, eps = _resolve(y, shape, cfg)
    mu = cfg.mu
    n, n_frames = shape.n, y.shape[2]
    t0 = time.perf_counter()

    x = np.zeros_like(y)
    z = np.zeros_like(y)

    auto_step = cfg.alpha == "auto"
    alpha = 1.0 / (mu + lam / eps) if auto_step else float(cfg.alpha)

    def clique_norms(x_):
        frames = np.moveaxis(x_, -1, 0)
        return smoothed_clique_norms(frames * frames, side, eps)

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    # clique norms and smooth part at the current point, later those of the
    # accepted trial; Z0 = 0 has nuclear norm 0
    norms = clique_norms(x)
    h_new = lam * float(norms.sum()) + 0.5 * mu * float(np.sum(y ** 2))
    obj_start = h_new
    obj_prev = obj_start
    extra = {"lambda": lam, "epsilon": eps, "mu": mu}

    for _ in range(cfg.max_iters):
        resid = y - z - x
        h_old = h_new
        frames = np.moveaxis(x, -1, 0)
        gx = lam * np.moveaxis(frames * smoothed_weight_map(norms, side), 0, -1) - mu * resid
        norms = None  # the gradient is built; drop the norms before the trials
        gz = -mu * resid

        halvings = 0
        while True:
            x_new = x - alpha * gx
            z_fwd = z - alpha * gz
            z_mat, svals = _svd_soft(z_fwd.reshape(n, n_frames), alpha)
            z_new = z_mat.reshape(y.shape)
            resid_new = y - z_new - x_new
            resid_sq = float(np.square(resid_new, out=resid_new).sum())
            norms = clique_norms(x_new)
            h_new = lam * float(norms.sum()) + 0.5 * mu * resid_sq
            if not auto_step:
                break
            dx = x_new - x
            dz = z_new - z
            model = h_old + float(np.vdot(gx, dx).real) + float(np.vdot(gz, dz).real)
            # the steps are not read again: square them in place
            model += (float(np.square(dx, out=dx).sum())
                      + float(np.square(dz, out=dz).sum())) / (2.0 * alpha)
            if h_new <= model + 1e-12 * abs(h_old):
                break
            norms = None  # rejected trial
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise NumericalError("backtracking failed; the smooth gradient is suspect")
            alpha *= _BACKTRACK_SHRINK

        x, z = x_new, z_new
        obj = h_new + float(svals.sum())
        objective_trace.append(obj)
        residual_trace.append(math.sqrt(resid_sq))

        if not auto_step and obj > 10.0 * max(obj_start, 1e-300):
            reason = "diverged"
            extra["advice"] = "objective grew 10x from its starting value; reduce alpha"
            break
        if abs(obj_prev - obj) <= cfg.tol_obj * abs(obj_prev):
            reason = "converged"
            break
        obj_prev = obj
        if auto_step:
            alpha *= _BACKTRACK_GROW

    extra["rank"] = numerical_rank(z.reshape(n, n_frames))
    extra["alpha_final"] = alpha
    report = SolverReport(len(objective_trace), objective_trace, residual_trace,
                          reason, wall_clock=time.perf_counter() - t0, extra=extra)
    return RpcaResult(x, z, report)
