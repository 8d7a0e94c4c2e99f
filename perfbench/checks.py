"""Correctness checks for the benchmark's solver outputs.

Every quantity here is computed with plain NumPy from the documented
definitions: clique norms come from sliding windows, the prox dual point from
strided clique blocks, and objectives from their formulas.  Nothing is taken
from the solvers' own evaluators, and nothing is compared against a stored
copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class CheckError(AssertionError):
    """A solver output failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def clique_sq_norms(a: np.ndarray, side: int) -> np.ndarray:
    """Squared l2 norm of every fully-contained ``side x side`` window of the
    last two axes, indexed by the window's top-left corner."""
    return sliding_window_view(a * a, (side, side), axis=(-2, -1)).sum(axis=(-2, -1))


def support(x: np.ndarray, rel: float = 0.1) -> set:
    """Indices whose magnitude exceeds ``rel`` times the peak magnitude."""
    flat = np.abs(np.asarray(x, dtype=float)).ravel()
    peak = float(flat.max()) if flat.size else 0.0
    if peak == 0.0:
        return set()
    return set(np.flatnonzero(flat > rel * peak).tolist())


def f_measure(predicted: set, truth: set) -> float:
    """Harmonic mean of precision and recall of a predicted index set."""
    if not predicted and not truth:
        return 1.0
    hits = len(predicted & truth)
    if hits == 0:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def psnr(estimate: np.ndarray, truth: np.ndarray, peak: float) -> float:
    mse = float(np.mean((np.asarray(estimate, dtype=float) - truth) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)


def check_monotone(trace, rel: float = 1e-10) -> None:
    """The objective trace never increases (beyond ``rel`` roundoff)."""
    t = [float(v) for v in trace]
    _require(len(t) > 0, "empty objective trace")
    _require(all(math.isfinite(v) for v in t), "non-finite objective trace entry")
    for k, (a, b) in enumerate(zip(t, t[1:]), start=1):
        _require(b <= a + rel * max(1.0, abs(a)),
                 f"objective increases at iteration {k + 1}: {a!r} -> {b!r}")


def _check_matches(recomputed: float, reported: float, rel: float) -> None:
    _require(abs(recomputed - reported) <= rel * max(1.0, abs(recomputed)),
             f"recomputed objective {recomputed!r} differs from the last trace "
             f"entry {reported!r}")


# ---------------------------------------------------------------------------
# cs-colamp


def check_cs(x: np.ndarray, truth: np.ndarray, k: int, exact: bool) -> None:
    """Every recovery is finite with at most ``k`` nonzeros.  In the exact
    regime the nonzero set equals the planted support and the relative error
    is at most 1e-6."""
    x = np.asarray(x, dtype=float)
    _require(x.shape == truth.shape, f"output shape {x.shape} != {truth.shape}")
    _require(bool(np.all(np.isfinite(x))), "output has non-finite entries")
    nnz = int(np.count_nonzero(x))
    _require(nnz <= k, f"{nnz} nonzeros exceed the sparsity target {k}")
    if exact:
        _require(set(np.flatnonzero(x).tolist()) == set(np.flatnonzero(truth).tolist()),
                 "recovered support differs from the planted support")
        err = float(np.linalg.norm(x - truth) / np.linalg.norm(truth))
        _require(err <= 1e-6, f"relative error {err:.3e} exceeds 1e-6")


# ---------------------------------------------------------------------------
# prox-denoise


def block_penalty(x: np.ndarray, side: int) -> float:
    """Sum of the l2 norms of all fully-contained ``side x side`` cliques."""
    return float(np.sqrt(clique_sq_norms(x, side)).sum())


def prox_dual_gap(v: np.ndarray, x: np.ndarray, u: np.ndarray, rho: float,
                  lam: float, side: int) -> float:
    """Relative weak-duality gap of a prox output for
    ``min ||x - v||^2 + lam * sum_c ||x_c||``.

    Row ``i`` of ``-rho * u`` is the subgradient share of clique subset
    ``i = (top % side) * side + (left % side)``.  Each clique block of it is
    projected onto the ball of radius ``lam`` and scattered back, giving a
    dual-feasible ``g``; ``<g, v> - ||g||^2 / 4`` then bounds the optimum
    from below.
    """
    h, w = v.shape
    g = np.zeros_like(v)
    for p in range(side):
        for q in range(side):
            nh, nw = (h - p) // side, (w - q) // side
            if nh == 0 or nw == 0:
                continue
            share = (-rho * u[p * side + q]).reshape(h, w)
            blocks = share[p:p + nh * side, q:q + nw * side].reshape(nh, side, nw, side)
            norms = np.sqrt(np.einsum("aibj,aibj->ab", blocks, blocks))
            scale = np.minimum(1.0, lam / np.maximum(norms, np.finfo(float).tiny))
            g[p:p + nh * side, q:q + nw * side] += (
                blocks * scale[:, None, :, None]).reshape(nh * side, nw * side)
    primal = float(np.sum((x - v) ** 2)) + lam * block_penalty(x, side)
    dual = float(np.vdot(g, v)) - float(np.vdot(g, g)) / 4.0
    return (primal - dual) / max(abs(primal), np.finfo(float).tiny)


PROX_GAP_TOL = 1e-4


def check_prox(v: np.ndarray, x: np.ndarray, u, rho: float, lam: float,
               side: int) -> float:
    """The output is finite and its relative duality gap is at most
    ``PROX_GAP_TOL``.  Returns the gap."""
    _require(x.shape == v.shape, f"output shape {x.shape} != {v.shape}")
    _require(bool(np.all(np.isfinite(x))), "output has non-finite entries")
    _require(u is not None and np.shape(u) == (side * side, v.size),
             "scaled duals missing or misshapen")
    gap = prox_dual_gap(v, x, np.asarray(u), rho, lam, side)
    _require(gap <= PROX_GAP_TOL, f"relative duality gap {gap:.3e} exceeds {PROX_GAP_TOL}")
    return gap


# ---------------------------------------------------------------------------
# rpca-fbs


def rpca_objective(x, z, y, lam: float, eps: float, mu: float, side: int) -> float:
    """``||Z||_* + lam * sum_t sum_c sqrt(||X_c||^2 + eps^2) + mu/2 ||Y - Z - X||^2``."""
    n_frames = y.shape[2]
    nuclear = float(np.linalg.svd(z.reshape(-1, n_frames), compute_uv=False).sum())
    frames = np.moveaxis(x, -1, 0)
    penalty = float(np.sqrt(clique_sq_norms(frames, side) + eps * eps).sum())
    fidelity = 0.5 * mu * float(np.sum((y - z - x) ** 2))
    return nuclear + lam * penalty + fidelity


def check_rpca(x, z, y, trace, lam: float, eps: float, mu: float, side: int,
               rank: int) -> None:
    """Monotone trace, recomputed objective equal to the last trace entry, and
    a low-rank part of the planted rank."""
    _require(bool(np.all(np.isfinite(x)) and np.all(np.isfinite(z))),
             "output has non-finite entries")
    check_monotone(trace)
    _check_matches(rpca_objective(x, z, y, lam, eps, mu, side), float(trace[-1]), 1e-8)
    s = np.linalg.svd(z.reshape(-1, y.shape[2]), compute_uv=False)
    est = int(np.count_nonzero(s > 1e-6 * s[0])) if s[0] > 0 else 0
    _require(est == rank, f"low-rank part has rank {est}, planted rank is {rank}")


# ---------------------------------------------------------------------------
# blocktv-denoise


def forward_differences(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical forward differences, zero in the last column
    and row respectively."""
    dh = np.zeros_like(x)
    dv = np.zeros_like(x)
    dh[:, :-1] = np.diff(x, axis=1)
    dv[:-1, :] = np.diff(x, axis=0)
    return dh, dv


def blocktv_objective(x, y, lam: float, eps: float, side: int) -> float:
    """``1/2 ||x - y||^2 + lam * sum_c sqrt(||(grad x)_c||^2 + eps^2)``."""
    dh, dv = forward_differences(x)
    group_sq = clique_sq_norms(dh, side) + clique_sq_norms(dv, side)
    return 0.5 * float(np.sum((x - y) ** 2)) + lam * float(np.sqrt(group_sq + eps * eps).sum())


def check_blocktv(x, y, clean, trace, lam: float, eps: float, side: int) -> None:
    """Monotone trace, recomputed objective equal to the last trace entry, and
    an output PSNR above the input PSNR."""
    _require(bool(np.all(np.isfinite(x))), "output has non-finite entries")
    check_monotone(trace)
    _check_matches(blocktv_objective(x, y, lam, eps, side), float(trace[-1]), 1e-9)
    p_in, p_out = psnr(y, clean, 1.0), psnr(x, clean, 1.0)
    _require(p_out > p_in, f"output PSNR {p_out:.2f} dB does not exceed input {p_in:.2f} dB")
