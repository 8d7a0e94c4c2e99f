"""Shared solver plumbing: run reports, input checks, Armijo line search,
allocation accounting."""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

TERMINATION_REASONS = ("converged", "max-iterations", "diverged", "support-collapse")


class ConfigError(ValueError):
    """Invalid solver or problem configuration."""


class ShapeError(ValueError):
    """Array operands have inconsistent shapes."""


class NumericalError(RuntimeError):
    """A numerical routine broke down (SVD failure, line-search failure, ...)."""


class StepFailureError(NumericalError):
    """Armijo search exhausted its halvings; usually signals a wrong gradient."""


@dataclass
class SolverReport:
    """Outcome of a single solver run.

    ``objective_trace`` and ``residual_trace`` hold one entry per completed
    iteration.  ``peak_aux_entries`` counts declared working-buffer entries
    (element counts, not bytes) and excludes problem inputs.  Solver-specific
    scalars (ranks, resolved weights, ...) live in ``extra``.
    """

    iterations: int
    objective_trace: list[float]
    residual_trace: list[float]
    termination_reason: str
    peak_aux_entries: int = 0
    wall_clock: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.termination_reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {self.termination_reason!r}")
        if len(self.objective_trace) != self.iterations or len(self.residual_trace) != self.iterations:
            raise ValueError("trace lengths must equal the number of iterations performed")


class AllocationTracker:
    """Counts live working-buffer entries and remembers the peak for one run.

    The peak is nondecreasing during a run; use a fresh tracker per run.
    Registration is thread-safe so frame-parallel workers can share one
    tracker.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._live: dict[str, int] = {}
        self._current = 0
        self._peak = 0

    def register(self, tag: str, entries: int):
        with self._lock:
            self._current += int(entries)
            self._live[tag] = self._live.get(tag, 0) + int(entries)
            if self._current > self._peak:
                self._peak = self._current

    def release(self, tag: str):
        with self._lock:
            self._current -= self._live.pop(tag, 0)

    @property
    def current(self) -> int:
        return self._current

    @property
    def peak(self) -> int:
        return self._peak


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


class AcceptedStep(NamedTuple):
    """The step :func:`backtrack_step` accepted: its size, the new point
    ``x - alpha*g``, and what ``f`` returned there (value and ``aux``)."""

    alpha: float
    x: np.ndarray
    value: float
    aux: Any


def backtrack_step(f, x, fx: float, g, alpha0: float, shrink: float = 0.5,
                   c: float = 1e-4, max_halvings: int = 60) -> AcceptedStep:
    """Armijo backtracking: largest ``alpha0 * shrink**k`` satisfying sufficient decrease.

    ``f(z)`` returns ``(value, aux)``; ``fx`` is the caller's value of ``f``
    at ``x``, so ``f`` is evaluated only at trial points.  Accepts ``alpha``
    when ``f(x - alpha*g) <= fx - c*alpha*||g||^2`` and hands back the trial
    point with ``f``'s value and ``aux`` there, so that the caller can reuse
    whatever ``f`` computed along the way.  A rejected trial's ``aux`` is
    dropped before the next trial is evaluated.  A zero gradient returns
    ``alpha0`` with ``x`` and ``fx`` unchanged and ``aux=None`` (no trial is
    made).  Raises :class:`StepFailureError` after ``max_halvings`` rejected
    halvings.
    """
    if alpha0 <= 0:
        raise ConfigError("initial step must be positive")
    fx = float(fx)
    if not np.isfinite(fx):
        raise ConfigError("objective is not finite at the current iterate")
    g = np.asarray(g)
    gsq = float(np.vdot(g, g).real)
    if gsq == 0.0:
        return AcceptedStep(float(alpha0), x, fx, None)
    alpha = float(alpha0)
    for _ in range(max_halvings + 1):
        x_new = x - alpha * g
        f_new, aux = f(x_new)
        f_new = float(f_new)
        # strict decrease guards against roundoff plateaus spuriously
        # satisfying the Armijo inequality at vanishing steps
        if f_new <= fx - c * alpha * gsq and f_new < fx:
            return AcceptedStep(alpha, x_new, f_new, aux)
        x_new = aux = None
        alpha *= shrink
    raise StepFailureError("no acceptable step after %d halvings" % max_halvings)
