"""Exact sums of an array over ``side x side`` windows.

Every clique sum of the package comes from :func:`box_correlate_valid`: it
adds ``side`` shifted copies along the rows, then ``side`` along the
columns, so it costs ``2 (side - 1)`` adds per entry.  Each sum is a plain
sum of its window's entries, so a window of zeros sums to exactly 0 and a
nonnegative input gives nonnegative sums.  :func:`box_correlate_full` is the
same sum over the zero-padded array, and the adjoint of the valid sum.
Only :mod:`blocksparse.regularizer` calls the two sums; every solver reaches
them through its evaluator.

Both run every add on whole C-contiguous arrays taken as one flat vector: a
shift by ``k`` rows is a shift by ``k`` row lengths, and a shift by ``k``
columns a shift by ``k``.  The entries a shift carries across a row's end,
or a batch item's, land where the result is discarded (the valid sum's last
``side - 1`` rows and columns) or are zeros (the full sum's padding).  A
NumPy operation on a column slice of a 2-D array allocates iteration
buffers, and took 2 to 5 times as long as the flat form at 64x64 to
192x192 (one thread, 2-core x86 host).

The full sum needs no array larger than its output.  It places its input
at the top left of its zeroed output, scatter-adds row shifts of that into a
zeroed row pass, then column shifts of the row pass into the zeroed output,
each time adding shift ``side - 1`` first and shift 0 last.  An output entry
then adds the input's entries in the order in which the valid sum of the
padded array meets them, and the terms that come from the padding are zeros,
so the two agree bit for bit (a zero's sign may differ).

Both sums follow one buffer rule.  They take NumPy-style ``out=``, and
allocate it when it is not given.  Each keeps at most one intermediate
array, its row pass, in ``scratch`` when one is given: a C-contiguous float
array of at least the larger of the input's and the output's size, of which
the first entries are used.  A caller that passes ``scratch`` hands over its
input, which the sum may overwrite (spend): the valid sum runs its column
pass over it.  Without ``scratch`` a sum allocates its passes and leaves
its input intact.  ``out`` may share memory with the input: the valid sum
reads its input before it writes ``out``, and the full sum places it there
by an assignment, which NumPy makes safe for overlap.  The valid sum's
``out`` may also share memory with ``scratch``, whose row pass is spent by
then.  ``scratch`` must not share memory with the input, nor with the full
sum's ``out``.

Inputs may carry leading batch axes; the windows slide over the last two.
The module keeps its old name because the benchmark imports it by that name.
"""

from __future__ import annotations

import math

import numpy as np

from .common import flat_view


def _passes(scratch, shape) -> np.ndarray:
    """An array of ``shape`` for a sum's intermediate pass: the first
    ``prod(shape)`` entries of ``scratch``, or a new array."""
    if scratch is None:
        return np.empty(shape)
    n = math.prod(shape)
    flat = flat_view(scratch)
    if flat.size < n:
        raise ValueError(f"scratch holds {flat.size} entries; the sum needs {n}")
    return flat[:n].reshape(shape)


def _shift_sum(src: np.ndarray, n: int, step: int, side: int, acc: np.ndarray) -> None:
    """``acc[:n] = src[:n] + src[step:step + n] + ...``, ``side`` terms
    added in that order."""
    acc = acc[:n]
    if side == 1:
        np.copyto(acc, src[:n])
    else:
        np.add(src[:n], src[step:step + n], out=acc)
    for k in range(2, side):
        acc += src[k * step:k * step + n]


def box_correlate_valid(a: np.ndarray, side: int, out=None, scratch=None) -> np.ndarray:
    """Valid-mode correlation: sums of every fully-contained ``side x side`` box.

    Output spatial shape is ``(h - side + 1, w - side + 1)``, indexed by the
    box's top-left corner.  The sums go into ``out`` if given.  ``scratch``
    (at least ``a``'s size) holds the row pass, and the column pass then
    overwrites ``a``: given ``scratch``, the input is spent.  Without it both
    passes are new arrays and ``a`` is left intact.  ``out`` may share memory
    with ``a`` or ``scratch``; ``scratch`` may not share memory with ``a``.
    """
    a = np.ascontiguousarray(a, dtype=float)
    h, w = a.shape[-2:]
    if side > min(h, w):
        raise ValueError(f"box side {side} exceeds array extent {h}x{w}")
    rows = _passes(scratch, a.shape)
    cols = np.empty(a.shape) if scratch is None else a  # given scratch, the column pass spends a
    # rows[..., r, :] sums a's rows r to r + side - 1 (for r < h - side + 1),
    # and cols[..., r, c] sums rows[..., r, c:c + side] (for c < w - side + 1)
    n = a.size - (side - 1) * w
    _shift_sum(a.reshape(-1), n, w, side, rows.reshape(-1))
    _shift_sum(rows.reshape(-1), n - (side - 1), 1, side, cols.reshape(-1))
    sums = cols[..., :h - side + 1, :w - side + 1]
    rows = None  # releases an allocated row pass before the result is copied
    if out is None:
        return sums.copy()
    np.copyto(out, sums)
    return out


def box_correlate_full(a: np.ndarray, side: int, out=None, scratch=None) -> np.ndarray:
    """Full-mode correlation of ``a`` (..., h, w) with a ``side``-box filter.

    Output spatial shape is ``(h + side - 1, w + side - 1)``; entry ``(r, c)``
    sums ``a`` over the box positions that cover it.  It equals the valid
    sum of ``a`` zero-padded by ``side - 1`` on each side, bit for bit.
    The input is placed in ``out``, which must be C-contiguous, and
    ``scratch`` (at least the output's size) holds the row pass.  ``out``
    may share memory with ``a``; ``scratch`` may share memory with neither.
    """
    a = np.asarray(a, dtype=float)
    h, w = a.shape[-2:]
    shape = a.shape[:-2] + (h + side - 1, w + side - 1)
    wf = shape[-1]
    rows = _passes(scratch, shape).reshape(-1)
    if out is None:
        out = np.empty(shape)
    placed = flat_view(out, shape)
    # a plain assignment into the strided view; a ufunc writing there would
    # allocate an iteration buffer
    out[..., :h, :w] = a
    out[..., :h, w:] = 0.0
    out[..., h:, :] = 0.0
    # rows[..., r, :] sums the placed rows r - side + 1 to r; the shifts wrap
    # into the zero rows below each batch item, and the column pass into the
    # zero columns right of each row.  The row pass spends the placed input,
    # so the column pass may refill out
    for src, acc, step in ((placed, rows, wf), (rows, placed, 1)):
        acc.fill(0.0)
        for k in range(side - 1, -1, -1):
            acc[k * step:] += src[:src.size - k * step]
    return out
