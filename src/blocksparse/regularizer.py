"""Overlapping-block l1/l2 regularizer: exact value, hyperbolic smoothing, gradients.

The penalty sums the l2 norms of all clique restrictions of an image; the
smoothed variant replaces each norm ``||x_c||`` by ``sqrt(||x_c||^2 + eps^2)``
so the penalty becomes differentiable everywhere.

Every clique sum is an exact window sum from :mod:`blocksparse.fftops`
(``side`` shifted adds along rows, then ``side`` along columns): a
clique that is zero everywhere gets a norm of exactly 0.  ``tests/helpers.py``
assembles the value and gradient clique by clique as the reference.

Every solver scores the penalty through one evaluator pair:

- :func:`smoothed_clique_norms` turns a per-pixel squared magnitude ``sq``
  into the smoothed clique norms ``sqrt(box_valid(sq, side) + eps^2)``; their
  sum is the penalty.  ``sq`` is ``x*x`` for the plain penalty (frame-batched
  in :mod:`rpca`) and ``dh^2 + dv^2`` for block-TV (:mod:`blocktv`).  With
  ``eps = 0`` they are the exact clique norms, bit for bit those of the
  valid sum's square root, since adding 0 to a nonnegative sum is exact:
  :func:`block_norm` and the objective of
  :func:`blocksparse.prox.prox_block_norm` sum them for ``J(x)``.
- :func:`smoothed_weight_map` turns those norms into the per-pixel weight
  ``box_full(1/norms, side)``; the gradient is the weight times ``x`` (or
  times each gradient channel, for block-TV).

Splitting value and gradient at the norms lets a line search keep the norms
of the trial it accepts and build the next gradient from them, with one valid
and one full window sum per accepted point.  Every function here calls the
window sums through this module's names, and no other module calls them, so
a wrapper installed there sees every window sum the package makes.  Each
function adds ``eps^2`` and takes the square root in place on the window
sums it owns.

Both evaluator functions follow the window sums' buffer rule
(:mod:`blocksparse.fftops`): NumPy-style ``out=``, and ``scratch=`` for the
one intermediate pass, so a solver can keep their results in buffers it
allocates once; without them they allocate, with the same result bit for
bit.  A caller that passes ``scratch`` hands over the input, which is spent:
the clique norms run the valid sum's column pass over their ``sq``, and the
weight map turns its ``norms`` into reciprocals in place.
"""

from __future__ import annotations

import numpy as np

from .common import ShapeError
from .fftops import box_correlate_full, box_correlate_valid
from .grids import CliqueSystem


def block_norm(x, cliques: CliqueSystem) -> float:
    """The paper's penalty ``J(x)``: the sum of clique l2 norms.  Zero iff x
    vanishes on every covered pixel.

    No solver calls it; it is the public way to score any image, such as a
    recovery or a baseline's output, against the penalty that
    :func:`blocksparse.prox.prox_block_norm` and CoLaMP minimise.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(
            f"image shape {x.shape} does not match clique grid "
            f"{cliques.shape.height}x{cliques.shape.width}")
    return float(smoothed_clique_norms(x * x, cliques.side, 0.0).sum())


def smoothed_clique_norms(sq, side: int, eps: float, out=None, scratch=None) -> np.ndarray:
    """Smoothed clique norms ``sqrt(box_valid(sq, side) + eps^2)``.

    ``sq`` holds per-pixel squared magnitudes ``(..., h, w)``, leading axes
    batched; the result is indexed by clique corner ``(..., h-side+1,
    w-side+1)`` and sums to the smoothed penalty.  Positive for ``eps > 0``;
    ``eps = 0`` gives the exact clique norms.
    ``out`` and ``scratch`` go to the valid window sum; ``out`` may share
    memory with ``sq`` or ``scratch``.  Given ``scratch``, the window sum
    keeps its row pass there and its column pass in ``sq``, which is spent.
    """
    norms = box_correlate_valid(sq, side, out=out, scratch=scratch)
    norms += eps * eps
    return np.sqrt(norms, out=norms)


def smoothed_weight_map(norms: np.ndarray, side: int, out=None, scratch=None) -> np.ndarray:
    """Per-pixel gradient weight ``box_full(1/norms, side)``: the sum of
    ``1/norm`` over the cliques covering each pixel, from the
    output of :func:`smoothed_clique_norms`.

    ``out`` and ``scratch`` go to the full window sum (see
    :func:`blocksparse.fftops.box_correlate_full`).  Given ``scratch``, the
    reciprocals overwrite ``norms``, which is spent, and with ``out`` as well
    the map allocates nothing.  Without ``scratch`` the reciprocals are a new
    array and ``norms`` is left intact.  ``out`` may share memory with
    ``norms``.
    """
    inverse = np.divide(1.0, norms, out=None if scratch is None else norms)
    return box_correlate_full(inverse, side, out=out, scratch=scratch)
