"""Recovery metrics: relative error, PSNR, support precision/recall."""

from __future__ import annotations

import math

import numpy as np

from .common import ShapeError, check_positive


def _norm(d: np.ndarray) -> float:
    # NumPy's pairwise sum, not a BLAS dot product: a threaded BLAS splits long
    # products across threads, so the last digit would depend on the thread count
    return math.sqrt(float(np.sum(d * d)))


def _difference(estimate, truth, peak: float = 0.0) -> tuple[np.ndarray, np.ndarray, int]:
    """``estimate - truth`` and ``truth`` as floats of one shape (NumPy
    would broadcast others and score, say, a row against a column), and the
    power of two ``exp`` both were scaled by.

    Arrays whose peak magnitude lies in [2^-250, 2^250] square and sum
    without overflow, and without losing the peak's square to underflow, and
    are left as they are (``exp`` 0).  Outside that range the peak magnitude
    of the two and ``peak`` is brought to [0.5, 1) by a power of two, which
    is exact.
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ShapeError(f"estimate shape {e.shape} does not match truth shape {t.shape}")
    top = max([peak] + [float(np.max(np.abs(a))) for a in (e, t) if a.size])
    exp = 0
    if math.isfinite(top) and top > 0.0 and not 2.0 ** -250 <= top <= 2.0 ** 250:
        exp = -math.frexp(top)[1]
        e, t = np.ldexp(e, exp), np.ldexp(t, exp)
    return e - t, t, exp


def relative_error(estimate, truth) -> float:
    """``||estimate - truth|| / ||truth||``, or plain ``||estimate||`` when
    the truth is identically zero.  Scaling both inputs by a power of two
    leaves the ratio unchanged, however far the squares would overflow or
    underflow."""
    d, t, exp = _difference(estimate, truth)
    denom = _norm(t)
    return _norm(d) / denom if denom > 0.0 else math.ldexp(_norm(d), -exp)


def psnr_db(estimate, truth, peak: float) -> float:
    """Peak signal-to-noise ratio against a declared peak value, which must be
    finite and positive.  Scaling the inputs and the peak by one power of two
    leaves it unchanged."""
    check_positive(peak, "peak")
    d, _, exp = _difference(estimate, truth, peak)
    peak = math.ldexp(peak, exp)
    mse = float(np.mean(d ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


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

