"""Exact sums of an array over ``side x side`` windows.

Every clique sum of the package comes from :func:`box_correlate_valid`: it
adds ``side`` shifted copies along the rows, then ``side`` along the
columns, so it costs ``2 (side - 1)`` adds per entry.  Each sum is a plain
sum of its window's entries, so a window of zeros sums to exactly 0 and a
nonnegative input gives nonnegative sums.  :func:`box_correlate_full` is the
same sum over the zero-padded array, and the adjoint of the valid sum.
Only :mod:`blocksparse.regularizer` calls the two sums; every solver reaches
them through its evaluator.

Both sums run one kernel twice, over rows and then over columns: output
entry ``j`` adds the input's entries ``j``, ``j + step``, ...,
``j + (side - 1) step`` in that order, and counts the terms past the input's
end as 0.  Each pass runs on a whole C-contiguous array taken as one flat
vector: a shift by ``k`` rows is a shift by ``k`` row lengths, and a shift
by ``k`` columns a shift by ``k``.  A NumPy operation on a column slice of a
2-D array allocates iteration buffers, and took 2 to 5 times as long as the
flat form at 64x64 to 192x192 (one thread, 2-core x86 host).

The valid sum runs the two passes over its input; the entries that a shift
carries across a row's end, or a batch item's, land in the last
``side - 1`` rows and columns, which it discards.  The full sum places its
input at the bottom right of its output, zeroes the top ``side - 1`` rows
and the left ``side - 1`` columns, and runs the same two passes over that.
A shift that runs past a batch item then reads the next item's zero rows,
one that runs past a row reads the next row's zero columns (the row pass
keeps them zero), and one that runs past the end counts as 0, so each
entry is the valid sum of the zero-padded array, with the same adds in the
same order (a zero's sign may differ).  The full sum needs no array larger
than its output.

Both sums follow one buffer rule.  Each keeps one intermediate array, its
row pass, in ``scratch`` when one is given, else in a new array.
``scratch`` is a C-contiguous float array of at least the larger of the
input's and the output's size, of which the first entries are used.  The
valid sum spends its input (a C-contiguous float array; any other is
copied first): it runs its column pass over it, and returns its sums in the
first entries of the row pass, which is spent by then, so it allocates at
most that one pass.  The full sum places its input in its output before
its row pass, so its ``scratch`` may hold that input, which the row pass
then overwrites; otherwise the input is left intact.  It takes
NumPy-style ``out=`` and allocates it when it is not given; ``out`` may
share memory with the input, which the full sum places there by an
assignment that NumPy makes safe for overlap.  ``scratch`` must not share
memory with the valid sum's input, nor with the full sum's ``out``.

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


def _shift_sum(src: np.ndarray, step: int, side: int, acc: np.ndarray) -> None:
    """``acc[j] = src[j] + src[j + step] + ... + src[j + (side - 1) step]``,
    ``side`` terms added in that order, those past ``src``'s end taken as 0."""
    if side == 1:
        np.copyto(acc, src)
        return
    np.add(src[:-step], src[step:], out=acc[:-step])
    acc[-step:] = src[-step:]
    for k in range(2, side):
        acc[:-k * step] += src[k * step:]


def _box_passes(flat: np.ndarray, w: int, side: int, rows: np.ndarray) -> None:
    """Overwrites ``flat``, rows of length ``w``, with its sums over the
    ``side x side`` window at each top-left corner, terms past its end
    taken as 0: the row pass goes to ``rows`` (``flat``'s size), and the
    column pass back over ``flat``."""
    # rows[..., r, :] sums the rows r to r + side - 1, and flat's [..., r, c]
    # then sums rows[..., r, c:c + side]
    _shift_sum(flat, w, side, rows)
    _shift_sum(rows, 1, side, flat)


def box_correlate_valid(a: np.ndarray, side: int, scratch=None) -> np.ndarray:
    """Valid-mode correlation: sums of every fully-contained ``side x side`` box.

    Output spatial shape is ``(h - side + 1, w - side + 1)``, indexed by the
    box's top-left corner.  The row pass goes to ``scratch`` (at least
    ``a``'s size) or a new array, the column pass then overwrites ``a``,
    which is spent, and the sums are returned in the first entries of the
    row pass.  ``scratch`` may not share memory with ``a``.
    """
    a = np.ascontiguousarray(a, dtype=float)
    h, w = a.shape[-2:]
    if side > min(h, w):
        raise ValueError(f"box side {side} exceeds array extent {h}x{w}")
    rows = _passes(scratch, a.shape).reshape(-1)
    _box_passes(a.reshape(-1), w, side, rows)
    sums = a[..., :h - side + 1, :w - side + 1]
    out = rows[:sums.size].reshape(sums.shape)  # over the spent row pass
    np.copyto(out, sums)
    return out


def box_correlate_full(a: np.ndarray, side: int, out=None, scratch=None) -> np.ndarray:
    """Full-mode correlation of ``a`` (..., h, w) with a ``side``-box filter.

    Output spatial shape is ``(h + side - 1, w + side - 1)``; entry ``(r, c)``
    sums ``a`` over the box positions that cover it.  It equals the valid
    sum of ``a`` zero-padded by ``side - 1`` on each side, bit for bit.
    The input is placed at the bottom right of ``out``, which must be
    C-contiguous, and ``scratch`` (at least the output's size) then holds
    the row pass, so ``scratch`` may hold ``a``, which it then overwrites;
    otherwise ``a`` is left intact.  ``out`` may share memory with ``a``; ``scratch`` may not
    share memory with ``out``.
    """
    a = np.asarray(a, dtype=float)
    h, w = a.shape[-2:]
    top = side - 1
    shape = a.shape[:-2] + (h + top, w + top)
    rows = _passes(scratch, shape).reshape(-1)
    if out is None:
        out = np.empty(shape)
    flat = flat_view(out, shape)
    # plain assignments into the strided views; a ufunc writing there would
    # allocate an iteration buffer.  Zeroing after the placement keeps an
    # input held in out's own storage intact until it is placed
    out[..., top:, top:] = a
    out[..., :top, :] = 0.0
    out[..., top:, :top] = 0.0
    _box_passes(flat, shape[-1], side, rows)
    return out
