"""Recovery metrics: relative error, PSNR, support precision/recall."""

from __future__ import annotations

import math

import numpy as np

from .common import ShapeError, check_positive


def _exponent(top: float) -> int:
    """0 when ``top`` lies in [2^-250, 2^250] (or is 0 or not finite), else
    the power of two ``k`` that brings it to [0.5, 1) as ``top / 2^k``.

    Arrays whose peak magnitude lies in that range square and sum without
    overflow, and without losing the peak's square to underflow; a power of
    two scales the others there exactly.
    """
    if math.isfinite(top) and top > 0.0 and not 2.0 ** -250 <= top <= 2.0 ** 250:
        return math.frexp(top)[1]
    return 0


def _peak(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _sum_of_squares(d: np.ndarray) -> tuple[float, int]:
    """``(s, k)`` with ``sum(d * d) = s 4^k``: ``d`` is divided by ``2^k``,
    from its own peak magnitude, before it is squared."""
    k = _exponent(_peak(d))
    if k:
        d = np.ldexp(d, -k)
    # NumPy's pairwise sum, not a BLAS dot product: a threaded BLAS splits long
    # products across threads, so the last digit would depend on the thread count
    return float(np.sum(d * d)), k


def _ldexp(x: float, k: int) -> float:
    """``x 2^k``, or inf where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _difference(estimate, truth, peak: float = 0.0) -> tuple[np.ndarray, np.ndarray, int]:
    """``(estimate - truth) / 2^k`` and ``truth``, as floats of one shape
    (NumPy would broadcast others and score, say, a row against a column),
    and ``k``: the :func:`_exponent` of the peak magnitude of the two and
    ``peak``, so that the difference cannot overflow."""
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ShapeError(f"estimate shape {e.shape} does not match truth shape {t.shape}")
    k = _exponent(max(peak, _peak(e), _peak(t)))
    d = np.ldexp(e, -k) - np.ldexp(t, -k) if k else e - t
    return d, t, k


def relative_error(estimate, truth) -> float:
    """``||estimate - truth|| / ||truth||``, or plain ``||estimate||`` when
    the truth is identically zero.  Scaling both inputs by a power of two
    leaves the ratio unchanged, and each norm is taken at its own scale, so
    neither underflows however far apart the two lie."""
    d, t, k = _difference(estimate, truth)
    (ds, dk), (ts, tk) = _sum_of_squares(d), _sum_of_squares(t)
    if ts > 0.0:
        return _ldexp(math.sqrt(ds) / math.sqrt(ts), dk + k - tk)
    return _ldexp(math.sqrt(ds), dk + k)


def psnr_db(estimate, truth, peak: float) -> float:
    """Peak signal-to-noise ratio against a declared peak value, which must be
    finite and positive.  Scaling the inputs and the peak by one power of two
    leaves it unchanged, and the peak and the error are each taken at their
    own scale, so neither square overflows or underflows."""
    check_positive(peak, "peak")
    d, _, k = _difference(estimate, truth, peak)
    s, dk = _sum_of_squares(d)
    if s == 0.0:
        return math.inf
    peak = math.ldexp(peak, -k)
    pk = _exponent(peak)
    peak = math.ldexp(peak, -pk)
    # peak^2 / mse with mse = (s / n) 4^dk and the peak divided by 2^pk
    return 10.0 * math.log10(peak * peak / (s / d.size)) + 20.0 * (pk - dk) * math.log10(2.0)


# The support of an estimate: its entries above this fraction of its peak
# magnitude.  Every experiment scores supports at this one threshold.
SUPPORT_REL_THRESHOLD = 0.1


def support_set(x) -> np.ndarray:
    """Indices with magnitude above ``SUPPORT_REL_THRESHOLD * max|x|``."""
    flat = np.abs(np.asarray(x, dtype=float).ravel())
    peak = float(flat.max()) if flat.size else 0.0
    if peak == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(flat > SUPPORT_REL_THRESHOLD * peak)


def support_prf(predicted: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall, and F-measure of a predicted support index set."""
    pred = set(np.asarray(predicted).ravel().tolist())
    true = set(np.asarray(truth).ravel().tolist())
    if not pred and not true:
        return 1.0, 1.0, 1.0
    hits = len(pred & true)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(true) if true else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)

