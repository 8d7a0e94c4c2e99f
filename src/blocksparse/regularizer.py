"""Overlapping-block l1/l2 regularizer: exact value, hyperbolic smoothing, gradients.

The penalty sums the l2 norms of all clique restrictions of an image; the
smoothed variant replaces each norm ``||x_c||`` by ``sqrt(||x_c||^2 + eps^2)``
so the penalty becomes differentiable everywhere.

Every clique sum is an exact window sum from :mod:`blocksparse.fftops`
(``side`` shifted-slice adds along rows, then ``side`` along columns): a
clique that is zero everywhere gets a norm of exactly 0.  :func:`block_norm`,
:func:`block_norm_smoothed` and the objective trace of
:func:`blocksparse.prox.prox_block_norm` take the valid sum of ``x*x``;
``tests/helpers.py`` assembles the gradient clique by clique as the
reference.

The smoothed solvers share one evaluator pair:

- :func:`smoothed_clique_norms` turns a per-pixel squared magnitude ``sq``
  into the smoothed clique norms ``sqrt(box_valid(sq, side) + eps^2)``; their
  sum is the penalty.  ``sq`` is ``x*x`` for the plain penalty (frame-batched
  in :mod:`rpca`) and ``dh^2 + dv^2`` for block-TV (:mod:`blocktv`).
- :func:`smoothed_weight_map` turns those norms into the per-pixel weight
  ``box_full(1/norms, side)``; the gradient is the weight times ``x`` (or
  times each gradient channel, for block-TV).

Splitting value and gradient at the norms lets a line search keep the norms
of the trial it accepts and build the next gradient from them, with one valid
and one full window sum per accepted point.  Every function here calls the
window sums through this module's names, so a wrapper installed there sees
every sum the penalty and the smoothed solvers make.
"""

from __future__ import annotations

import numpy as np

from .common import ConfigError, ShapeError
from .fftops import box_correlate_full, box_correlate_valid
from .grids import CliqueSystem


def default_epsilon(x) -> float:
    """Scale-relative smoothing default: ``1e-4 * max(1, max|x|)``."""
    x = np.asarray(x, dtype=float)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return 1e-4 * max(1.0, scale)


def _checked(x, cliques: CliqueSystem) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(
            f"image shape {x.shape} does not match clique grid "
            f"{cliques.shape.height}x{cliques.shape.width}")
    return x


def block_norm(x, cliques: CliqueSystem) -> float:
    """Sum of clique l2 norms.  Zero iff x vanishes on every covered pixel."""
    x = _checked(x, cliques)
    return float(np.sqrt(box_correlate_valid(x * x, cliques.side)).sum())


def block_norm_smoothed(x, cliques: CliqueSystem, eps: float) -> float:
    """Smoothed penalty ``sum_c sqrt(||x_c||^2 + eps^2)``; equals
    :func:`block_norm` at ``eps == 0``."""
    x = _checked(x, cliques)
    if eps < 0:
        raise ConfigError("smoothing eps must be nonnegative")
    return float(np.sqrt(box_correlate_valid(x * x, cliques.side) + eps * eps).sum())


def smoothed_clique_norms(sq, side: int, eps: float) -> np.ndarray:
    """Smoothed clique norms ``sqrt(box_valid(sq, side) + eps^2)``.

    ``sq`` holds per-pixel squared magnitudes ``(..., h, w)``, leading axes
    batched; the result is indexed by clique corner ``(..., h-side+1,
    w-side+1)`` and sums to the smoothed penalty.  Positive for ``eps > 0``.
    """
    return np.sqrt(box_correlate_valid(sq, side) + eps * eps)


def smoothed_weight_map(norms: np.ndarray, side: int) -> np.ndarray:
    """Per-pixel gradient weight ``box_full(1/norms, side)``: the sum of
    ``1/norm`` over the cliques covering each pixel, from the
    output of :func:`smoothed_clique_norms`."""
    return box_correlate_full(1.0 / norms, side)


def block_norm_smoothed_grad(x, cliques: CliqueSystem, eps: float) -> np.ndarray:
    """Gradient of the smoothed penalty via the evaluator pair:
    ``x * smoothed_weight_map(smoothed_clique_norms(x*x))``.

    Per pixel p the gradient is ``x_p * sum_{c containing p} (||x_c||^2 +
    eps^2)^(-1/2)``.  Requires ``eps > 0`` (the unsmoothed penalty is not
    differentiable at zero cliques).
    """
    x = _checked(x, cliques)
    if eps <= 0:
        raise ConfigError("gradient evaluation requires eps > 0")
    norms = smoothed_clique_norms(x * x, cliques.side, eps)
    return x * smoothed_weight_map(norms, cliques.side)
