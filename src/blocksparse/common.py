"""Shared solver plumbing: errors, run reports, input checks, and the
backtracking descent loop under the two smoothed solvers."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

TERMINATION_REASONS = ("converged", "max-iterations", "support-collapse", "support-certified",
                       "stalled", "underdetermined")


class ConfigError(ValueError):
    """Invalid solver or problem configuration."""


class ShapeError(ValueError):
    """Array operands have inconsistent shapes."""


class NumericalError(RuntimeError):
    """A numerical routine broke down (SVD failure, line-search failure, ...)."""


@dataclass
class SolverReport:
    """Outcome of a single solver run.

    :attr:`iterations` is the number of iterations the solver ran, set by
    the solver.  ``objective_trace`` and ``residual_trace`` hold one entry
    per iteration the solver evaluated them at, so their common length is
    at most :attr:`iterations`: block-TV, RPCA and CoLaMP trace every
    completed iteration, and the prox only the iterations at which it
    checked its duality gap (:mod:`blocksparse.prox`).
    Solver-specific scalars (ranks, resolved weights, ...) live in
    ``extra``.  No solver counts its own memory; the memory benchmark
    measures peaks from outside with ``tracemalloc``.
    """

    objective_trace: list[float]
    residual_trace: list[float]
    termination_reason: str
    iterations: int
    wall_clock: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.termination_reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {self.termination_reason!r}")
        if len(self.objective_trace) != len(self.residual_trace):
            raise ValueError("objective and residual traces must have equal lengths")
        if self.iterations < len(self.objective_trace):
            raise ValueError(f"{self.iterations} iterations cannot leave "
                             f"{len(self.objective_trace)} trace entries")


def check_finite(value, what: str) -> None:
    """Raise :class:`ConfigError` unless every entry of ``value`` is finite.

    Solvers call this on their data, and configs on their weights, before
    any iteration: a NaN would otherwise run the whole iteration budget and
    come back labelled ``"max-iterations"``, and ``nan < 0`` is false, so a
    sign check alone lets it through.
    """
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{what} must be finite")


def check_count(value, what: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer (Python or
    NumPy, not ``bool``) of at least 1.

    Iteration caps, sparsity targets and clique sides feed ``range`` and
    array shapes; a float there, even NaN, passes a ``< 1`` check and fails
    later with a ``TypeError``, or not at all.
    """
    # the exact-type test spares plain ints the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{what} must be >= 1")


def check_nonnegative(value, what: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is finite and ``>= 0``."""
    check_finite(value, what)
    if value < 0:
        raise ConfigError(f"{what} must be nonnegative")


def check_positive(value, what: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is finite and ``> 0``."""
    check_finite(value, what)
    if value <= 0:
        raise ConfigError(f"{what} must be positive")


def flat_view(a, shape=None) -> np.ndarray:
    """The 1-D view of ``a``, a buffer a caller passed in to be written.

    Raises :class:`ShapeError` unless ``a`` has ``shape`` (when given), and
    ``ValueError`` unless it is a C-contiguous float64 array: a reshape of
    any other would be a copy, and the writes would miss ``a``.
    """
    if shape is not None and a.shape != shape:
        raise ShapeError(f"buffer has shape {a.shape}, expected {shape}")
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("a buffer must be a C-contiguous float64 array")
    return a.reshape(-1)


def descend(gradient, trial, accept, alpha: float, grow: float, max_iters: int,
            tol_obj: float, obj: float, t0: float, extra: dict,
            grad_tol: float = -1.0) -> SolverReport:
    """Backtracking descent from a point of objective ``obj``: the loop that
    :func:`blocksparse.rpca.solve_rpca` and
    :func:`blocksparse.blocktv.denoise_block_tv` share.

    The solver supplies what is its own, as closures over its buffers:

    - ``gradient()`` builds the gradient at the current point and returns
      its norm; a norm of at most ``grad_tol`` stops the run
      ``"converged"`` before a step;
    - ``trial(alpha, obj)`` builds the point a step ``alpha`` away and
      returns its verdict: true accepts it, false halves ``alpha`` for
      another trial, and ``None`` stops the run ``"stalled"`` at the
      current point, for a step below the objective's roundoff;
    - ``accept(alpha)`` makes the accepted trial the current point and
      returns its objective and the residual to trace;
    - ``grow`` multiplies the step after each accepted trial.

    The run stops ``"converged"`` once an iteration changes the objective
    by at most ``tol_obj`` times its magnitude.  A 61st rejected trial in
    one iteration raises :class:`NumericalError`, before a stall verdict is
    honoured, as along a gradient that is not a descent direction.  The
    report's wall clock runs from ``t0``, and ``extra`` gains ``halvings``,
    the rejected trials of the run, and ``alpha_final``, the last step.
    """
    if not np.isfinite(obj):
        raise ConfigError("objective is not finite at the starting point")
    objective_trace, residual_trace = [], []
    reason = "max-iterations"
    halvings = 0
    for _ in range(max_iters):
        if gradient() <= grad_tol:
            reason = "converged"
            break
        rejected = 0
        while not (verdict := trial(alpha, obj)):
            rejected += 1
            if rejected > 60:
                raise NumericalError("backtracking failed: no acceptable step after 60 halvings")
            if verdict is None:
                break
            alpha *= 0.5
        halvings += rejected
        if verdict is None:
            reason = "stalled"
            break
        obj_new, residual = accept(alpha)
        objective_trace.append(obj_new)
        residual_trace.append(residual)
        if abs(obj - obj_new) <= tol_obj * abs(obj):
            reason = "converged"
            break
        obj = obj_new
        alpha *= grow
    extra.update(halvings=halvings, alpha_final=alpha)
    return SolverReport(objective_trace, residual_trace, reason, iterations=len(objective_trace),
                        wall_clock=time.perf_counter() - t0, extra=extra)
