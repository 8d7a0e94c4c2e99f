"""Recovery metrics: relative error, PSNR, support precision/recall."""

from __future__ import annotations

import math

import numpy as np

from .common import check_positive


def _norm(d: np.ndarray) -> float:
    # NumPy's pairwise sum, not a BLAS dot product: a threaded BLAS splits long
    # products across threads, so the last digit would depend on the thread count
    return math.sqrt(float(np.sum(d * d)))


def relative_error(estimate, truth) -> float:
    """``||estimate - truth|| / ||truth||`` (plain ``||estimate||`` scale-free
    fallback when the truth is identically zero)."""
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    denom = _norm(t)
    if denom == 0.0:
        return _norm(e)
    return _norm(e - t) / denom


def psnr_db(estimate, truth, peak: float) -> float:
    """Peak signal-to-noise ratio against a declared peak value, which must be
    finite and positive."""
    check_positive(peak, "peak")
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    mse = float(np.mean((e - t) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def support_set(x, rel_threshold: float = 0.1) -> np.ndarray:
    """Indices with magnitude above ``rel_threshold * max|x|``."""
    flat = np.abs(np.asarray(x, dtype=float).ravel())
    peak = float(flat.max()) if flat.size else 0.0
    if peak == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(flat > rel_threshold * peak)


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

