"""Shared solver plumbing: errors, run reports and input checks."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

TERMINATION_REASONS = ("converged", "max-iterations", "support-collapse", "support-certified")


class ConfigError(ValueError):
    """Invalid solver or problem configuration."""


class ShapeError(ValueError):
    """Array operands have inconsistent shapes."""


class NumericalError(RuntimeError):
    """A numerical routine broke down (SVD failure, line-search failure, ...)."""


@dataclass
class SolverReport:
    """Outcome of a single solver run.

    ``objective_trace`` and ``residual_trace`` hold one entry per completed
    iteration, so their common length is :attr:`iterations`.
    Solver-specific scalars (ranks, resolved weights, ...) live in
    ``extra``.  No solver counts its own memory; the memory benchmark
    measures peaks from outside with ``tracemalloc``.
    """

    objective_trace: list[float]
    residual_trace: list[float]
    termination_reason: str
    wall_clock: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.termination_reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {self.termination_reason!r}")
        if len(self.objective_trace) != len(self.residual_trace):
            raise ValueError("objective and residual traces must have equal lengths")

    @property
    def iterations(self) -> int:
        """The number of iterations performed."""
        return len(self.objective_trace)


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
