"""Block total-variation denoising of grayscale images.

Minimizes ``1/2 ||x - y||^2 + lam * sum_c ||(grad x)_c||_{2,eps}`` where each
clique gathers the horizontal and vertical forward differences over one
``side x side`` patch (one group of ``2*side^2`` values per patch), coupling
edge orientation within a neighborhood.  The smoothed objective is minimized
by gradient descent with an Armijo line search of its own.  Each search
starts from the last accepted step and only halves it: the nonincreasing
backtracking of Beck & Teboulle (SIAM J. Imaging Sci. 2009), which keeps the
step at least ``1/(2L)``, ``L`` the Lipschitz constant of the smoothed
objective's gradient.  A step that grows again after each accepted trial is
halved back in nearly every iteration, and half of all trials are rejected.

The clique norms and their scatter come from the regularizer's evaluator
pair, exact window sums of the per-pixel squared gradient magnitude
``dh^2 + dv^2``.  Each evaluation of the objective returns, with its value,
the smoothed clique norms and residual ``x - y`` it computed.  The line
search keeps those of the trial it accepts, and the next gradient is built
from them, so an iteration makes one valid window sum per trial and one full
window sum for its gradient: the accepted point is never evaluated twice.
The gradient rebuilds the forward differences of the accepted point, two
subtractions, rather than keep them from its evaluation in two more images.

Besides its copy ``x`` of the input, a solve allocates one block of four
image-sized arrays, before the first iteration:

- ``sq`` takes an evaluation's horizontal differences, squared in place,
  adds the squared vertical ones to them, and then, once the valid window
  sum has spent it, the residual;
- ``scratch`` takes the vertical differences, then the valid window sum's
  row pass and, at its front, the clique norms, then the full window sum's
  row pass, then the rebuilt horizontal differences;
- ``free`` takes the weight map and then the gradient, in every
  iteration;
- ``spare`` takes the rebuilt vertical differences and then the line
  search's trial points, and trades places with ``x`` when a trial is
  accepted.

The evaluator pair, the window sums and the difference operators fill them
through their ``out=`` and ``scratch=`` arguments, under the window sums'
buffer rule (:mod:`blocksparse.fftops`).  The weight map spends the norms:
it forms their reciprocals in place and places them in its own buffer
before its full window sum's row pass overwrites the scratch image.  The
gradient is built in the weight map's buffer, as :mod:`blocksparse.rpca`
builds its, by the adjoint of the rebuilt differences times the map.  An
accepted trial's buffer becomes ``x``, and ``x``'s takes the next trial
point, so an iteration allocates nothing image-sized.  ``x`` is returned in
the solve's own copy of the input, not as a view that would keep the block
alive.  Each buffer is filled by the operations, in the order, that made
a new array before, so the iterates are those of a solve that allocates.
Block-TV still reaches the window sums only through the names
:mod:`blocksparse.regularizer` binds, and uses the arrays its calls return.
The difference operators work on the flattened image, as the window sums
do, and fix up the one column a shift carries across a row's end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .common import (ConfigError, NumericalError, ShapeError, SolverReport, check_count,
                     check_finite, check_nonnegative, check_positive, flat_view)
from .grids import GridShape, build_clique_system
from .regularizer import smoothed_clique_norms, smoothed_weight_map

_EPS = float(np.finfo(float).eps)


class GradientField(NamedTuple):
    """Stacked forward differences of an image: ``dh[r, c] = x[r, c+1] - x[r, c]``
    (zero in the last column) and ``dv[r, c] = x[r+1, c] - x[r, c]`` (zero in
    the last row)."""

    dh: np.ndarray
    dv: np.ndarray


def _check_apart(out, *inputs) -> None:
    if any(np.may_share_memory(o, a) for o in out for a in inputs):
        raise ValueError("out must not share memory with the input")


def discrete_gradient(x, out: Optional[GradientField] = None) -> GradientField:
    """Forward-difference gradient with zero last row/column.

    ``out``, a pair of C-contiguous float arrays shaped like ``x``, receives
    the two channels in place of new arrays; it must not share memory with
    ``x``.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {x.shape}")
    if out is None:
        out = GradientField(np.empty_like(x), np.empty_like(x))
    else:
        _check_apart(out, x)
    dh, dv = out
    # the horizontal differences of the flattened image; the one across each
    # row's end lands in the last column, which is then zeroed
    flat = x.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=flat_view(dh, x.shape)[:-1])
    dh[:, -1:] = 0.0
    np.subtract(x[1:], x[:-1], out=dv[:-1])
    dv[-1:] = 0.0
    return GradientField(dh, dv)


def discrete_gradient_adjoint(g: GradientField, out=None) -> np.ndarray:
    """Exact algebraic transpose of :func:`discrete_gradient` (negative divergence).

    ``out``, a C-contiguous float array shaped like a channel, receives the
    result in place of a new array; it must not share memory with either
    channel.
    """
    dh = np.ascontiguousarray(g.dh, dtype=float)
    dv = np.ascontiguousarray(g.dv, dtype=float)
    if dh.shape != dv.shape or dh.ndim != 2:
        raise ShapeError("gradient field channels must be matching 2-D arrays")
    if out is None:
        out = np.empty_like(dh)
    else:
        _check_apart((out,), dh, dv)
    # out[:, c] = dh[:, c - 1] - dh[:, c], on the flattened arrays: the shift
    # carries each row's last dh into the next row's first column, which is
    # then zeroed, and the last column, which takes no -dh term, is restored
    flat, dh_flat = flat_view(out, dh.shape), dh.reshape(-1)
    np.copyto(flat[1:], dh_flat[:-1])
    out[:, :1] = 0.0
    last = out[:, -1:].copy()
    flat -= dh_flat
    out[:, -1:] = last
    out[1:] += dv[:-1]
    out[:-1] -= dv[:-1]
    return out


@dataclass(frozen=True)
class BlockTvConfig:
    """Denoiser controls; the defaults are the settings the
    ``blocktv-denoise`` experiment runs.

    ``eps=None`` resolves to ``1e-4 * max(1, max|forward difference of y|)``,
    relative to the scale of the input's gradient field.  Each step is
    chosen by Armijo line search, starting from the last accepted step (1
    at the first iteration) and halving it until the objective decreases
    enough; the step never grows.  The run stops once an iteration changes
    the objective by at most ``tol_obj`` times its magnitude, or once the
    gradient norm is at most ``1e-12 * ||y||``, or at the objective's
    roundoff floor (:func:`denoise_block_tv`).  No test has an absolute
    floor, so scaling ``y``, ``lam`` and ``eps`` by ``c`` leaves the
    iteration count unchanged.
    """

    lam: float
    eps: Optional[float] = None
    clique_side: int = 2
    max_iters: int = 300
    tol_obj: float = 1e-9

    def __post_init__(self):
        check_nonnegative(self.lam, "lam")
        if self.eps is not None:
            check_positive(self.eps, "eps")
        check_count(self.clique_side, "clique side")
        check_count(self.max_iters, "max_iters")
        check_nonnegative(self.tol_obj, "tol_obj")


def denoise_block_tv(y, cfg: BlockTvConfig) -> tuple[np.ndarray, SolverReport]:
    """Denoise ``y`` by smoothed block-TV gradient descent.

    Returns the restored image and a report whose objective trace is
    nonincreasing.  If the starting point already satisfies the
    gradient-norm certificate the solver exits without stepping.  The
    reason ``"stalled"`` means the solve reached the objective's roundoff
    floor: a line-search trial was rejected whose first-order decrease
    ``alpha * ||g||^2`` is at most the rounding of the objective,
    ``eps_mach * |f|``, so no step could show a decrease, and the last
    accepted iterate is returned.  A line search that rejects 61 trials
    raises :class:`NumericalError`, as one along a gradient that is not a
    descent direction does.
    """
    y = np.asarray(y, dtype=float)
    shape = GridShape.of(y)
    check_finite(y, "input image")
    side = build_clique_system(shape, cfg.clique_side).side  # rejects a side that does not fit
    t0 = time.perf_counter()

    # one block of buffers per solve, so that an iteration allocates nothing
    # image-sized; the module docstring gives each buffer's roles
    sq, scratch, free, spare = np.empty((4,) + y.shape)

    if cfg.eps is not None:
        eps = cfg.eps
    else:
        d = discrete_gradient(y, out=GradientField(sq, scratch))
        eps = 1e-4 * max(1.0, float(np.abs(d.dh).max()), float(np.abs(d.dv).max()))
    lam = float(cfg.lam)

    def evaluate(x):
        """Objective at ``x`` and the smoothed clique norms it was computed
        from.  Its residual ``x - y`` is left in ``sq``: with the norms, the
        state :func:`gradient` needs."""
        dh, dv = discrete_gradient(x, out=GradientField(sq, scratch))
        dh *= dh
        dv *= dv
        dh += dv  # in sq
        # the window sum spends sq, which then takes the residual
        norms = smoothed_clique_norms(sq, side, eps, scratch=scratch)
        resid = np.subtract(x, y, out=sq)
        return 0.5 * float(np.vdot(resid, resid)) + lam * float(norms.sum()), norms

    def gradient(x, norms, out, spare):
        """``(x - y) + lam * D^T (weight_map * D x)`` at ``x``, the point last
        evaluated, ``D`` the forward difference, built in ``out``, which
        first takes the weight map.  It spends ``norms``, and ``scratch``,
        which holds them, takes the full window sum's row pass, then with
        ``spare`` the rebuilt ``D x``."""
        weight_map = smoothed_weight_map(norms, side, out=out, scratch=scratch)
        d = discrete_gradient(x, out=GradientField(scratch, spare))
        for channel in d:
            channel *= weight_map
        out = discrete_gradient_adjoint(d, out=out)
        out *= lam
        out += sq
        return out

    x = own = y.copy()
    grad_tol = 1e-12 * float(np.linalg.norm(y))
    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    obj_prev, norms = evaluate(x)
    if not np.isfinite(obj_prev):
        raise ConfigError("objective is not finite at the starting point")
    alpha = 1.0
    total_halvings = 0

    for _ in range(cfg.max_iters):
        g = gradient(x, norms, free, spare)
        gsq = float(np.vdot(g, g))
        gnorm = float(np.sqrt(gsq))
        if gnorm <= grad_tol:
            reason = "converged"
            break
        halvings = 0
        while True:
            x_new = np.multiply(g, alpha, out=spare)
            np.subtract(x, x_new, out=x_new)
            obj, norms = evaluate(x_new)
            # strict decrease guards against roundoff plateaus spuriously
            # satisfying the Armijo inequality at vanishing steps
            if obj <= obj_prev - 1e-4 * alpha * gsq and obj < obj_prev:
                break
            halvings += 1
            if halvings > 60:
                raise NumericalError("no acceptable step after 60 halvings")
            if alpha * gsq <= _EPS * abs(obj_prev):
                # even the first-order decrease is below the objective's
                # rounding, so no smaller step can show a decrease either
                reason = "stalled"
                break
            alpha *= 0.5

        total_halvings += halvings
        if reason == "stalled":
            break
        # the accepted trial's buffer becomes x, and x's takes the next trial
        x, spare = x_new, x
        objective_trace.append(obj)
        residual_trace.append(gnorm)
        if abs(obj_prev - obj) <= cfg.tol_obj * abs(obj_prev):
            reason = "converged"
            break
        obj_prev = obj

    if x is not own:
        # a view into the block would keep the block alive with it
        np.copyto(own, x)
        x = own
    report = SolverReport(objective_trace, residual_trace, reason,
                          iterations=len(objective_trace), wall_clock=time.perf_counter() - t0,
                          extra={"epsilon": eps, "halvings": total_halvings,
                                 "alpha_final": alpha})
    return x, report
