"""Block total-variation denoising of grayscale images.

Minimizes ``1/2 ||x - y||^2 + lam * sum_c ||(grad x)_c||_{2,eps}`` where each
clique gathers the horizontal and vertical forward differences over one
``side x side`` patch (one group of ``2*side^2`` values per patch), coupling
edge orientation within a neighborhood.  The smoothed objective is minimized
by gradient descent with an Armijo line search of its own.

The clique norms and their scatter come from the regularizer's evaluator
pair, exact window sums of the per-pixel squared gradient magnitude
``dh^2 + dv^2``.  Each evaluation of the objective returns, with its value,
the forward differences and smoothed clique norms it computed.  The line
search keeps those of the trial it accepts, and the next gradient is built
from them, so an iteration makes one valid window sum per trial and one full
window sum for its gradient: the accepted point is never evaluated twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .common import (ConfigError, NumericalError, ShapeError, SolverReport, check_count,
                     check_finite)
from .grids import GridShape
from .regularizer import smoothed_clique_norms, smoothed_weight_map


class GradientField(NamedTuple):
    """Stacked forward differences of an image: ``dh[r, c] = x[r, c+1] - x[r, c]``
    (zero in the last column) and ``dv[r, c] = x[r+1, c] - x[r, c]`` (zero in
    the last row)."""

    dh: np.ndarray
    dv: np.ndarray


def discrete_gradient(x) -> GradientField:
    """Forward-difference gradient with zero last row/column."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {x.shape}")
    dh = np.zeros_like(x)
    dv = np.zeros_like(x)
    dh[:, :-1] = x[:, 1:] - x[:, :-1]
    dv[:-1, :] = x[1:, :] - x[:-1, :]
    return GradientField(dh, dv)


def discrete_gradient_adjoint(g: GradientField) -> np.ndarray:
    """Exact algebraic transpose of :func:`discrete_gradient` (negative divergence)."""
    dh = np.asarray(g.dh, dtype=float)
    dv = np.asarray(g.dv, dtype=float)
    if dh.shape != dv.shape or dh.ndim != 2:
        raise ShapeError("gradient field channels must be matching 2-D arrays")
    out = np.zeros_like(dh)
    out[:, 1:] += dh[:, :-1]
    out[:, :-1] -= dh[:, :-1]
    out[1:, :] += dv[:-1, :]
    out[:-1, :] -= dv[:-1, :]
    return out


@dataclass(frozen=True)
class BlockTvConfig:
    """Denoiser controls.

    ``eps=None`` resolves to ``1e-4 * max(1, max|forward difference of y|)``,
    relative to the scale of the input's gradient field.  Each step is
    chosen by Armijo line search, starting from twice the last accepted
    step.  The run stops once an iteration changes the objective by at most
    ``tol_obj`` times its magnitude, or once the gradient norm is at most
    ``1e-12 * ||y||``.  Neither test has an absolute floor, so scaling
    ``y``, ``lam`` and ``eps`` by ``c`` leaves the iteration count unchanged.
    """

    lam: float
    eps: Optional[float] = None
    clique_side: int = 2
    max_iters: int = 500
    tol_obj: float = 1e-10

    def __post_init__(self):
        check_finite(self.lam, "lam")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if self.eps is not None:
            check_finite(self.eps, "eps")
            if self.eps <= 0:
                raise ConfigError("eps must be positive")
        check_count(self.clique_side, "clique side")
        check_count(self.max_iters, "max_iters")
        check_finite(self.tol_obj, "tol_obj")
        if self.tol_obj < 0:
            raise ConfigError("tol_obj must be nonnegative")


def denoise_block_tv(y, cfg: BlockTvConfig) -> tuple[np.ndarray, SolverReport]:
    """Denoise ``y`` by smoothed block-TV gradient descent.

    Returns the restored image and a report whose objective trace is
    nonincreasing.  If the starting point already satisfies the
    gradient-norm certificate the solver exits without stepping.
    """
    y = np.asarray(y, dtype=float)
    shape = GridShape.of(y)
    check_finite(y, "input image")
    side = cfg.clique_side
    if side > min(shape.height, shape.width):
        raise ConfigError(f"clique side {side} exceeds image {shape.height}x{shape.width}")
    t0 = time.perf_counter()

    if cfg.eps is not None:
        eps = cfg.eps
    else:
        g0 = discrete_gradient(y)
        eps = 1e-4 * max(1.0, float(np.abs(g0.dh).max()), float(np.abs(g0.dv).max()))
    lam = float(cfg.lam)

    def evaluate(x):
        """Objective at ``x``, and the forward differences and smoothed clique
        norms it was computed from (the state :func:`gradient` needs)."""
        d = discrete_gradient(x)
        norms = smoothed_clique_norms(d.dh * d.dh + d.dv * d.dv, side, eps)
        return 0.5 * float(np.sum((x - y) ** 2)) + lam * float(norms.sum()), d, norms

    def gradient(x, d, norms):
        weight_map = smoothed_weight_map(norms, side)
        return (x - y) + lam * discrete_gradient_adjoint(
            GradientField(d.dh * weight_map, d.dv * weight_map))

    x = y.copy()
    grad_tol = 1e-12 * float(np.linalg.norm(y))
    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    obj_prev, d, norms = evaluate(x)
    if not np.isfinite(obj_prev):
        raise ConfigError("objective is not finite at the starting point")
    alpha = 1.0

    for _ in range(cfg.max_iters):
        g = gradient(x, d, norms)
        d = norms = None  # the gradient is built; drop its state before the trials
        gnorm = float(np.linalg.norm(g))
        if gnorm <= grad_tol:
            reason = "converged"
            break
        gsq = float(np.vdot(g, g))
        halvings = 0
        while True:
            x_new = x - alpha * g
            obj, d, norms = evaluate(x_new)
            # strict decrease guards against roundoff plateaus spuriously
            # satisfying the Armijo inequality at vanishing steps
            if obj <= obj_prev - 1e-4 * alpha * gsq and obj < obj_prev:
                break
            x_new = d = norms = None  # rejected trial
            halvings += 1
            if halvings > 60:
                raise NumericalError("no acceptable step after 60 halvings")
            alpha *= 0.5

        x = x_new
        objective_trace.append(obj)
        residual_trace.append(gnorm)
        if abs(obj_prev - obj) <= cfg.tol_obj * abs(obj_prev):
            reason = "converged"
            break
        obj_prev = obj
        alpha *= 2.0  # retry a larger step next iteration; Armijo halves as needed

    report = SolverReport(len(objective_trace), objective_trace, residual_trace,
                          reason, wall_clock=time.perf_counter() - t0,
                          extra={"epsilon": eps})
    return x, report
