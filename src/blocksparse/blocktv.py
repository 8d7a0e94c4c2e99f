"""Block total-variation denoising of grayscale images.

Minimizes ``1/2 ||x - y||^2 + lam * sum_c ||(grad x)_c||_{2,eps}`` where each
clique gathers the horizontal and vertical forward differences over one
``side x side`` patch (one group of ``2*side^2`` values per patch), coupling
edge orientation within a neighborhood.  The smoothed objective is minimized
by gradient descent in :func:`blocksparse.common.descend`, the backtracking
loop that RPCA shares, with Armijo's test as the solve's trial verdict and
growth factor 1.  Each search starts from the last accepted step and only
halves it: the nonincreasing backtracking of Beck & Teboulle (SIAM J.
Imaging Sci. 2009), which keeps the step at least ``1/(2L)``, ``L`` the
Lipschitz constant of the smoothed objective's gradient.  A step that grows
again after each accepted trial is halved back in nearly every iteration,
and half of all trials are rejected.

The clique norms and their scatter come from the regularizer's evaluator
pair, exact window sums of the per-pixel squared gradient magnitude
``dh^2 + dv^2``.  Each evaluation of the objective returns, with its value,
the smoothed clique norms it computed.  The line search keeps those of the
trial it accepts, and the next gradient is built from them, so an iteration
makes one valid window sum per trial and one full window sum for its
gradient: the accepted point is never evaluated twice.  The gradient
rebuilds the forward differences of the accepted point, two subtractions,
and its residual ``x - y``, one more, rather than keep them from its
evaluation in three more images.

Besides its iterate ``x``, the solve's own copy of the input, a solve
allocates one block of three image-sized arrays, before the first
iteration:

- ``scratch`` takes each trial point ``x - alpha * g``, which its
  evaluation spends: the point's vertical differences overwrite it, are
  squared in place, and then the valid window sum's row pass and, at its
  front, the clique norms take it; then the full window sum's row pass,
  then the rebuilt horizontal differences of ``x``;
- ``sq`` takes a trial's residual, then its horizontal differences,
  squared in place, to which the squared vertical ones are added, for the
  valid window sum to spend; then the rebuilt vertical differences of
  ``x``, then the residual ``x - y``;
- ``free`` takes the weight map and then the gradient, in every
  iteration, and, once a trial is accepted, ``alpha * g``.

A trial point is spent where it is formed.  Its residual is summed first,
then its horizontal differences are taken, and then its vertical ones
overwrite it: a shift by one row that runs forward reads each entry before
the pass writes it, and NumPy's overlap check sees that and makes no copy.
An accepted trial is not kept: ``x`` is stepped in place by the trial's
two operations, ``x - alpha * g``, which give the same bits.

The block takes one page more than its three images, to place each at
least ``_NEAR`` bytes, modulo the page size, from the others and from ``x``
and ``y``.  Every pass of the solve writes one of these arrays while it
reads others, often a few entries from where it writes, and an allocator
that packs them leaves them 0 or 16 bytes apart modulo the page: a store
and a later load that close look dependent to the CPU.

The evaluator pair, the window sums and the difference operators fill the
buffers through their ``out=`` and ``scratch=`` arguments, under the window
sums' buffer rule (:mod:`blocksparse.fftops`).  The weight map spends the
norms: it forms their reciprocals in place and places them in its own
buffer before its full window sum's row pass overwrites the scratch image.
The gradient is built in the weight map's buffer, as :mod:`blocksparse.rpca`
builds its, by the adjoint of the rebuilt differences times the map, and
the residual rebuilt in ``sq`` is added to it.  So an iteration allocates
nothing image-sized, and ``x`` is returned as it is, not as a view that
would keep the block alive.  Each buffer is filled by the operations, in
the order, that made a new array before, so the iterates are those of a
solve that allocates.  Block-TV still reaches the window sums only through
the names :mod:`blocksparse.regularizer` binds, and uses the arrays its
calls return.  The difference operators work on the flattened image, as the
window sums do, and fix up the one column a shift carries across a row's
end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .common import (ShapeError, SolverReport, check_count, check_finite, check_nonnegative,
                     check_positive, descend, flat_view)
from .grids import GridShape, build_clique_system
from .regularizer import smoothed_clique_norms, smoothed_weight_map

_EPS = float(np.finfo(float).eps)
# a store and a later load whose addresses lie within about a cache line of
# each other modulo the page size look dependent to the CPU: alone, a 128x128
# subtraction whose output sat 8 to 48 bytes from an input there ran twice as
# long
_PAGE = 4096
_NEAR = 128  # bytes: a cache line, and a shift by up to 7 entries


class GradientField(NamedTuple):
    """Stacked forward differences of an image: ``dh[r, c] = x[r, c+1] - x[r, c]``
    (zero in the last column) and ``dv[r, c] = x[r+1, c] - x[r, c]`` (zero in
    the last row)."""

    dh: np.ndarray
    dv: np.ndarray


def _check_apart(out, *inputs) -> None:
    if any(np.may_share_memory(o, a) for o in out for a in inputs):
        raise ValueError("out must not share memory with the input")


def _image_block(k: int, shape: tuple, *apart) -> list:
    """``k`` new images of ``shape`` from one allocation, whose offsets
    modulo the page size lie at least ``_NEAR`` bytes from one another's and
    from those of the arrays in ``apart``, at most ``8 - k`` of them."""
    n = math.prod(shape)
    page = _PAGE // 8  # entries
    stride = -(-n // page) * page  # whole pages per image
    block = np.empty(k * stride + page)
    taken = [a.ctypes.data % _PAGE for a in apart]
    # of eight places 512 bytes apart, each array in apart rules out at most one
    places = [c for c in range(0, _PAGE, 512)
              if all(_NEAR <= (c - t) % _PAGE <= _PAGE - _NEAR for t in taken)]
    # each image starts less than a page into its stride, in increasing
    # order, so the images do not overlap
    starts = sorted((c - block.ctypes.data) % _PAGE // 8 for c in places[:k])
    return [block[i * stride + j:i * stride + j + n].reshape(shape) for i, j in enumerate(starts)]


def discrete_gradient(x, out: Optional[GradientField] = None) -> GradientField:
    """Forward-difference gradient with zero last row/column.

    ``out``, a pair of C-contiguous float arrays shaped like ``x``, receives
    the two channels in place of new arrays.  Its ``dh`` must not share
    memory with ``x``, nor its ``dv``, unless ``dv`` is ``x`` itself, a
    C-contiguous float array: its vertical differences then overwrite it,
    once the horizontal ones are taken.
    """
    in_place = out is not None and out.dv is x
    if not in_place:
        x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {x.shape}")
    if out is None:
        out = GradientField(np.empty_like(x), np.empty_like(x))
    else:
        _check_apart(out[:1] if in_place else out, x)
    dh, dv = out
    # the differences of the flattened image by one entry and by one row;
    # the horizontal one across each row's end lands in the last column,
    # which is then zeroed.  Both shifts run forward, so the vertical one
    # may overwrite its own input: each entry is read before it is written
    flat = flat_view(x)
    n, w = flat.size, x.shape[1]
    np.subtract(flat[1:], flat[:-1], out=flat_view(dh, x.shape)[:-1])
    dh[:, -1:] = 0.0
    np.subtract(flat[w:], flat[:n - w], out=flat_view(dv, x.shape)[:n - w])
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
    chosen by Armijo line search in :func:`blocksparse.common.descend`,
    starting from the last accepted step (1 at the first iteration) and
    halving it until the objective decreases enough; the step never grows.
    The run stops once an iteration changes the objective by at most
    ``tol_obj`` times its magnitude, or once the gradient norm is at most
    ``1e-12 * ||y||``, or at the objective's roundoff floor
    (:func:`denoise_block_tv`).  No test has an absolute floor, so scaling
    ``y``, ``lam`` and ``eps`` by ``c`` leaves the iteration count
    unchanged.
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

    # the iterate, and one block of buffers per solve placed apart from it
    # and y, so that an iteration allocates nothing image-sized; the module
    # docstring gives each buffer's roles
    x = y.copy()
    sq, scratch, free = _image_block(3, y.shape, x, y)

    if cfg.eps is not None:
        eps = cfg.eps
    else:
        # max|d| read as max(max d, -min d), which is exact and makes no |d|
        dh, dv = discrete_gradient(y, out=GradientField(sq, scratch))
        eps = 1e-4 * max(1.0, float(dh.max()), -float(dh.min()),
                         float(dv.max()), -float(dv.min()))
    lam = float(cfg.lam)

    def evaluate(t):
        """Objective at ``t``, a point in ``scratch``, which it spends, and
        the smoothed clique norms it was computed from, at ``scratch``'s
        front."""
        resid = np.subtract(t, y, out=sq)
        fit = 0.5 * float(np.vdot(resid, resid))
        # the vertical differences overwrite t
        dh, dv = discrete_gradient(t, out=GradientField(sq, t))
        dh *= dh
        dv *= dv
        dh += dv  # in sq
        # the window sum spends sq, and its row pass spends scratch
        norms = smoothed_clique_norms(sq, side, eps, scratch=scratch)
        return fit + lam * float(norms.sum()), norms

    np.copyto(scratch, x)
    obj, norms = evaluate(scratch)
    # the gradient's squared norm and norm, and the last trial's objective,
    # live across the closures
    gsq = gnorm = obj_new = None

    def gradient():
        """``(x - y) + lam * D^T (weight_map * D x)`` at ``x``, the point last
        evaluated, ``D`` the forward difference, built in ``free``, which
        first takes the weight map; returns its norm.  It spends ``norms``,
        and ``scratch``, which holds them, takes the full window sum's row
        pass, then with ``sq`` the rebuilt ``D x``; ``sq`` then takes the
        residual."""
        nonlocal gsq, gnorm
        weight_map = smoothed_weight_map(norms, side, out=free, scratch=scratch)
        d = discrete_gradient(x, out=GradientField(scratch, sq))
        for channel in d:
            channel *= weight_map
        g = discrete_gradient_adjoint(d, out=free)
        g *= lam
        g += np.subtract(x, y, out=sq)
        gsq = float(np.vdot(g, g))
        gnorm = float(np.sqrt(gsq))
        return gnorm

    def trial(alpha, obj):
        """``x - alpha * g`` in ``scratch``, accepted on Armijo's test."""
        nonlocal obj_new, norms
        obj_new, norms = evaluate(np.subtract(x, np.multiply(free, alpha, out=scratch),
                                              out=scratch))
        # strict decrease guards against roundoff plateaus spuriously
        # satisfying the Armijo inequality at vanishing steps
        if obj_new <= obj - 1e-4 * alpha * gsq and obj_new < obj:
            return True
        # a first-order decrease below the objective's rounding stalls the
        # solve: no smaller step can show a decrease either
        return None if alpha * gsq <= _EPS * abs(obj) else False

    def accept(alpha):
        """The accepted trial, rebuilt in ``x`` by the trial's two
        operations: the same bits."""
        np.subtract(x, np.multiply(free, alpha, out=free), out=x)
        return obj_new, gnorm

    report = descend(gradient, trial, accept, 1.0, 1.0, cfg.max_iters, cfg.tol_obj, obj, t0,
                     {"epsilon": eps}, grad_tol=1e-12 * float(np.linalg.norm(y)))
    return x, report
