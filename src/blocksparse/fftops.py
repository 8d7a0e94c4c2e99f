"""Exact sums of an array over ``side x side`` windows.

Every clique sum of the package comes from :func:`box_correlate_valid`: it
adds ``side`` shifted slices along the rows, then ``side`` along the columns,
so it costs ``2 (side - 1)`` adds per entry.  Each sum is a plain sum of its
window's entries, so a window of zeros sums to exactly 0 and a nonnegative
input gives nonnegative sums.  :func:`box_correlate_full` is the same sum
over the zero-padded array; it is the adjoint of the valid sum.

Inputs may carry leading batch axes; the windows slide over the last two.
The module keeps its old name because the benchmark imports it by that name.
"""

from __future__ import annotations

import numpy as np


def box_correlate_valid(a: np.ndarray, side: int) -> np.ndarray:
    """Valid-mode correlation: sums of every fully-contained ``side x side`` box.

    Output spatial shape is ``(h - side + 1, w - side + 1)``, indexed by the
    box's top-left corner.
    """
    a = np.asarray(a, dtype=float)
    h, w = a.shape[-2:]
    if side > min(h, w):
        raise ValueError(f"box side {side} exceeds array extent {h}x{w}")
    hv, wv = h - side + 1, w - side + 1
    rows = a[..., :hv, :].copy()
    for k in range(1, side):
        rows += a[..., k:k + hv, :]
    out = rows[..., :wv].copy()
    for k in range(1, side):
        out += rows[..., k:k + wv]
    return out


def box_correlate_full(a: np.ndarray, side: int) -> np.ndarray:
    """Full-mode correlation of ``a`` (..., h, w) with a ``side``-box filter.

    Output spatial shape is ``(h + side - 1, w + side - 1)``; entry ``(r, c)``
    sums ``a`` over the box positions that cover it.
    """
    a = np.asarray(a, dtype=float)
    pad = [(0, 0)] * (a.ndim - 2) + [(side - 1, side - 1)] * 2
    return box_correlate_valid(np.pad(a, pad), side)
