"""Exact sums of an array over ``side x side`` windows.

Every clique sum of the package comes from :func:`box_correlate_valid`: it
adds ``side`` shifted copies along the rows, then ``side`` along the
columns, so it costs ``2 (side - 1)`` adds per entry.  Each sum is a plain
sum of its window's entries, so a window of zeros sums to exactly 0 and a
nonnegative input gives nonnegative sums.  :func:`box_correlate_full` is the
same sum over the zero-padded array, and the adjoint of the valid sum.

Both run every add on whole C-contiguous arrays taken as one flat vector: a
shift by ``k`` rows is a shift by ``k`` row lengths, and a shift by ``k``
columns a shift by ``k``.  The entries a shift carries across a row's end,
or a batch item's, land where the result is discarded (the valid sum's last
``side - 1`` rows and columns) or are zeros (the full sum's padding).  A
NumPy operation on a column slice of a 2-D array allocates iteration
buffers, and took 2 to 5 times as long as the flat form at 64x64 to
192x192 (one thread, 2-core x86 host).

The full sum needs no array larger than its output.  It places its input
at the top left of a zeroed array of the output's shape, scatter-adds row
shifts of that into a zeroed row pass, then column shifts of the row pass
into one zeroed output, each time adding shift ``side - 1`` first and shift
0 last.  An output entry then adds the input's
entries in the order in which the valid sum of the padded array meets them,
and the terms that come from the padding are zeros, so the two agree bit for
bit (a zero's sign may differ).

Both sums take NumPy-style ``out=``, and ``scratch=`` for their
intermediate arrays, so that a solver calling them every iteration can keep
those in buffers of its own; each allocates what it is not given.  The full
sum keeps two arrays in ``scratch``, its placed input and its row pass.  The
valid sum keeps only its row pass there: given ``scratch``, it runs its column
pass over its input, which it spends, so a caller passes an input it is done
with.  Without ``scratch`` it allocates both passes and leaves its input
untouched.  Each sum writes ``out`` only after it has read its input, so
``out`` may share memory with the input; the valid sum's ``out`` may also
share memory with ``scratch``, whose row pass is spent by then.  ``scratch``
must not share memory with the input, nor with the full sum's ``out``.

Inputs may carry leading batch axes; the windows slide over the last two.
The module keeps its old name because the benchmark imports it by that name.
"""

from __future__ import annotations

import math

import numpy as np

from .common import flat_view


def _passes(scratch, shape, count: int) -> list:
    """``count`` arrays of ``shape`` for a sum's intermediate results: the
    first ``count * prod(shape)`` entries of ``scratch``, or new arrays."""
    if scratch is None:
        return [np.empty(shape) for _ in range(count)]
    n = math.prod(shape)
    flat = flat_view(scratch)
    if flat.size < count * n:
        raise ValueError(f"scratch holds {flat.size} entries; the sum needs {count * n}")
    return [flat[k * n:(k + 1) * n].reshape(shape) for k in range(count)]


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
    box's top-left corner.  The sums go into ``out`` if given.  ``scratch``,
    a C-contiguous float array of at least ``a``'s size, holds the row pass,
    and the column pass then overwrites ``a``: given ``scratch``, the input
    is spent.  Without it both passes are new arrays and ``a`` is left
    intact.  ``out`` may share memory with ``a`` or ``scratch``; ``scratch``
    may not share memory with ``a``.
    """
    a = np.ascontiguousarray(a, dtype=float)
    h, w = a.shape[-2:]
    if side > min(h, w):
        raise ValueError(f"box side {side} exceeds array extent {h}x{w}")
    if scratch is None:
        rows, cols = _passes(None, a.shape, 2)
    else:
        (rows,), cols = _passes(scratch, a.shape, 1), a  # the column pass spends a
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
    ``out`` must be C-contiguous, and ``scratch`` hold twice the output's
    size, for the placed input and the row pass.  ``out`` may share memory
    with ``a``; ``scratch`` may share memory with neither.
    """
    a = np.asarray(a, dtype=float)
    h, w = a.shape[-2:]
    shape = a.shape[:-2] + (h + side - 1, w + side - 1)
    wf = shape[-1]
    placed, rows = _passes(scratch, shape, 2)
    placed[..., :h, :w] = a
    placed[..., :h, w:] = 0.0
    placed[..., h:, :] = 0.0
    if out is None:
        out = np.empty(shape)
    # rows[..., r, :] sums placed's rows r - side + 1 to r; the shifts wrap
    # into the zero rows below each batch item, and the column pass into the
    # zero columns right of each row
    for src, acc, step in ((placed, rows, wf), (rows, flat_view(out, shape), 1)):
        src, acc = src.reshape(-1), acc.reshape(-1)
        acc.fill(0.0)
        for k in range(side - 1, -1, -1):
            acc[k * step:] += src[:src.size - k * step]
    return out
