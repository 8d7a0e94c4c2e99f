"""Sparse-plus-low-rank decomposition by forward-backward splitting.

Minimizes ``||Z||_* + lam * Jeps(X) + mu/2 * ||Y - Z - X||_F^2`` over an
``(H, W, L)`` frame stack, where ``Jeps`` is the smoothed overlapping-block
penalty applied frame-wise.  Each iteration takes forward gradient steps on
the smooth terms (block gradient from exact window sums, ``2 (side - 1)``
adds per pixel and sum) and a backward singular-value-thresholding step on
the nuclear norm.

Inside the solve the stack is frame-major: ``y`` is read through an ``(L, H,
W)`` view of the caller's array, not copied, and ``x``, ``z`` and the working
buffers are contiguous ``(L, H, W)`` arrays, so the window sums take
contiguous frames and the SVT matrix is the plain ``(L, N)`` reshape; ``x``
and ``z`` are returned as ``(H, W, L)`` views of the frame-major results.
``y`` enters the iterations only elementwise.  Its squared norm, the one sum
over it, is taken once over a copy in a working buffer, so that it adds in a
contiguous stack's order whatever the caller's layout.  The trial's
majorisation model needs no stack pass of its own: the ``x`` step is
``-alpha * gx``, and the SVT moves its forward point by ``sum(min(s,
alpha)^2)`` in squared norm, ``s`` its singular values.

The SVT eigendecomposes the ``L x L`` Gram matrix of the short side instead
of taking an SVD of the ``N x L`` matrix: 0.26 against 0.92 ms per call at
4096 x 10 inside the ``rpca-fbs`` benchmark solves (one BLAS thread, 2-core
x86 host).  The Gram matrix squares the condition number, so the
eigenvalues far below the largest are resolved again from the Gram matrix of
their own rows (:func:`_gram_eigh`); against a LAPACK SVD the result agrees
to about 1e-14 relative, and ``tests/test_rpca.py`` checks 1e-10 up to
condition number 1e8.  The rank in the report counts the last SVT's shrunk
singular values, with no second SVD.

In the paper's count the algorithm's state is four stack-sized buffers (X,
Z, gradient, residual): ``4 * N * L`` entries, versus ``(2*side^2 + 4) * N *
L`` for a consensus-ADMM treatment of the same objective.  The solve holds
seven: ``x``, ``z``, the trial's SVT output, ``gx``, ``gz``, a step buffer and
a row-pass buffer.  In each trial the step buffer holds the forward point
``z - alpha * gz`` for the SVT, then the trial's ``x - alpha * gx``, then its
squares, which the valid window sum spends; the row-pass buffer holds the
residual ``y - z_new - x_new``, squared in place for its norm, then the
window sum's row pass, whose first entries keep the clique norms.  Only an
accepted trial's ``x`` is kept, rebuilt in place of ``x`` by the same two
operations, so no trial ``x`` lives through the window sum.  The next weight
map is built over the norms, with the spent ``gx`` as its row pass, so those
two buffers swap roles each iteration, and ``gz`` is rebuilt in its own.
tracemalloc reads a peak of about 7.2 stack copies on a 64x64x10 stack, set
inside a trial's valid window sum; a frame-major copy of ``y`` or a trial
``x`` held there would add a stack each.  The fraction is NumPy's buffer
for the strided reads of ``y``, at most 8,192 entries: a whole copy of
``memory-benchmark``'s 16x16x4 stack, which reads 8.5 copies.

The four working buffers are one block per solve, which leaves the SVT's
output an iteration's only stack-sized allocation.  As four arrays they
read ``rpca-fbs`` ``setup_s`` of about 1.6 ms against 0.6 ms, by the heap
each solve leaves to the benchmark's next set-up (one BLAS thread, 2-core
x86 host).  ``x`` and ``z`` are arrays of their own, not views into the
block, which would keep it alive with them.

The block penalty comes from the regularizer's evaluator pair, batched over
frames.  Each line-search trial computes the smoothed clique norms of its
sparse part, whose sum is the trial's penalty value.  The accepted trial's
norms give the next iteration's gradient through one full window sum, and
its smooth value is the next iteration's starting value, so no window sum is
repeated at an accepted point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import (ConfigError, NumericalError, ShapeError, SolverReport, check_count,
                     check_finite, check_nonnegative, check_positive)
from .grids import GridShape, build_clique_system
from .regularizer import smoothed_clique_norms, smoothed_weight_map

_BACKTRACK_SHRINK = 0.5
# Unlike block-TV's, the step grows again after each accepted trial.  A step
# that never grows keeps the smallest step the early iterations needed (half
# the starting 1/(mu + lam/eps) on the rpca-fbs benchmark) until the
# iteration cap: there it cut f_measure from 0.911 to 0.765, 0.932 to 0.862
# and 0.918 to 0.723 at seeds 0-2, and psnr_db by 6-8 dB.
_BACKTRACK_GROW = 1.25
_MAX_HALVINGS = 60

# Solver-side smoothing default, relative to the data scale.  The smoothing
# level bounds the usable step through the gradient's curvature (the initial
# step is 1/(mu + lam/eps)), so the decomposition solver defaults to a larger
# smoothing than bias alone would suggest; pass eps explicitly for sharper
# shrinkage at the cost of many more iterations.
EPS_SCALE_REL = 3e-3

# The SVT's Gram matrix: eigenvalues below _DEFLATE times the largest are
# resolved again (see _gram_eigh), and the input is rescaled when its trace
# falls outside _GRAM_RANGE, where squaring the entries overflows or loses
# digits to underflow.  Bounds at 2^±601, or any near 2^±600, give the same
# results on the tests and the benchmark: the traces they meet lie within
# 2^±120 of 1, or are inf or 0.
_DEFLATE = 1e-4
_GRAM_RANGE = (2.0 ** -600, 2.0 ** 600)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RpcaConfig:
    """Weights and stopping rule for :func:`solve_rpca`.

    ``lam=None`` resolves to :func:`default_lambda` for the frame size;
    ``eps=None`` resolves to the scale-relative smoothing default of the
    observed stack.  Steps are chosen by backtracking line search from the
    Lipschitz-motivated initial step ``1 / (mu + lam/eps)``.  The run stops
    once an iteration changes the objective by at most ``tol_obj`` times its
    magnitude.  That test and the line search's slack are relative with no
    absolute floor, so scaling ``y`` and ``eps`` by ``c`` and ``mu`` by
    ``1/c`` leaves the iteration count unchanged.
    """

    lam: Optional[float] = None
    mu: float = 1.0
    eps: Optional[float] = None
    max_iters: int = 500
    tol_obj: float = 1e-8
    clique_side: int = 2

    def __post_init__(self):
        check_positive(self.mu, "mu")
        if self.lam is not None:
            check_nonnegative(self.lam, "lam")
        if self.eps is not None:
            check_positive(self.eps, "eps")
        check_count(self.max_iters, "max_iters")
        check_nonnegative(self.tol_obj, "tol_obj")
        check_count(self.clique_side, "clique side")


@dataclass
class RpcaResult:
    """Decomposition output: sparse/foreground ``x``, low-rank/background ``z``
    (``(H, W, L)`` views of frame-major arrays), and the run report (rank and
    resolved weights in ``report.extra``)."""

    x: np.ndarray
    z: np.ndarray
    report: SolverReport


def default_lambda(side: int, n_pixels: int) -> float:
    """Sparsity weight ``1 / (side * sqrt(n_pixels))``.

    The ``1/sqrt(n)`` baseline of plain l1 robust PCA is divided by the
    clique side because every entry is shared by up to ``side**2``
    overlapping penalty terms.
    """
    check_count(side, "side")
    check_count(n_pixels, "pixel count")
    return 1.0 / (side * math.sqrt(n_pixels))


def _gram_eigh(a: np.ndarray, gram: np.ndarray, floor: float):
    """Eigenvalues (ascending) and eigenvectors of ``gram = a @ a.T``.

    The Gram matrix is formed and decomposed to within ``2 * a.size * eps *
    w_max`` (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.5),
    so its small eigenvalues and their eigenvectors are poorly resolved.
    Those below ``_DEFLATE * w_max`` are resolved again from the Gram matrix
    of their own rows ``V_k^T a``, whose entries are on their scale, unless
    all of them are certainly below ``floor`` (the squared threshold, below
    which they are all shrunk to zero).
    """
    w, v = np.linalg.eigh(gram)
    k = int(np.count_nonzero(w < _DEFLATE * w[-1]))
    if 0 < k < w.size and w[k - 1] + 2 * a.size * _EPS * w[-1] >= floor:
        b = v[:, :k].T @ a
        w[:k], rot = _gram_eigh(b, b @ b.T, floor)
        v[:, :k] = v[:, :k] @ rot
    return w, v


def _svd_soft(q: np.ndarray, delta: float):
    """Singular value thresholding of ``q``, with the singular values of
    ``q`` and their shrunk values.

    Works on the Gram matrix ``G = a a^T`` of the short side (``a`` is ``q``
    or its transpose): with ``G = V diag(s^2) V^T`` the result is
    ``V diag(max(s - delta, 0) / s) V^T a``.
    """
    a = q.T if q.shape[0] > q.shape[1] else q
    with np.errstate(over="ignore"):
        gram = a @ a.T
    base, exp, floor = a, 0, delta * delta
    if not _GRAM_RANGE[0] < gram.trace() < _GRAM_RANGE[1]:
        peak = float(np.max(np.abs(a)))
        if peak > 0.0:
            # squaring overflowed or lost digits to underflow: bring the
            # entries to unit scale by a power of two, which is exact
            exp = -math.frexp(peak)[1]
            base = np.ldexp(a, exp)
            gram, floor = base @ base.T, 0.0
    try:
        w, v = _gram_eigh(base, gram, floor)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed on {q.shape} matrix: {exc}") from exc
    s = np.ldexp(np.sqrt(np.maximum(w, 0.0)), -exp)
    s_shrunk = np.maximum(s - delta, 0.0)
    keep = np.divide(s_shrunk, s, out=np.zeros_like(s), where=s_shrunk > 0.0)
    out = ((v * keep) @ v.T) @ a
    return (out if a is q else out.T), s, s_shrunk


def svt(q, delta: float) -> np.ndarray:
    """Singular value thresholding: the prox of ``delta * ||.||_*``.

    Soft-thresholds all singular values by ``delta``; never increases rank.
    It is the nuclear-norm prox that :func:`solve_rpca` applies at every
    step, public for callers that need that prox on their own matrices;
    ``tests/test_rpca.py`` checks it against a LAPACK SVD.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ShapeError(f"SVT needs a 2-D matrix, got shape {q.shape}")
    check_nonnegative(delta, "threshold")
    check_finite(q, "input matrix")
    if q.size == 0:
        return q.copy()
    out, _, _ = _svd_soft(q, float(delta))
    return out


def _rank_of(s: np.ndarray, rel_tol: float) -> int:
    top = float(s.max()) if s.size else 0.0
    return int(np.count_nonzero(s > rel_tol * top)) if top > 0.0 else 0


def _sum_sq(a: np.ndarray) -> float:
    """``sum(a**2)``, squaring ``a`` in place."""
    return float(np.square(a, out=a).sum())


def _check_stack(y) -> tuple[np.ndarray, GridShape]:
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise ShapeError(f"expected an (H, W, L) stack, got shape {y.shape}")
    if y.shape[2] < 1:
        raise ConfigError("stack must contain at least one frame")
    check_finite(y, "stack entries")
    return y, GridShape(y.shape[0], y.shape[1])


def _resolve(y: np.ndarray, shape: GridShape, cfg: RpcaConfig) -> tuple[float, float]:
    lam = cfg.lam if cfg.lam is not None else default_lambda(cfg.clique_side, shape.n)
    if cfg.eps is not None:
        eps = cfg.eps
    else:
        scale = float(np.max(np.abs(y))) if y.size else 0.0
        eps = EPS_SCALE_REL * max(1.0, scale)
    return lam, eps


def solve_rpca(y, cfg: RpcaConfig) -> RpcaResult:
    """Decompose a stack into block-sparse and low-rank parts.

    Parameters
    ----------
    y : (H, W, L) array
        Observed frames.
    cfg : RpcaConfig
        Weights and stopping rule.

    Returns
    -------
    RpcaResult
        ``x`` (sparse), ``z`` (low rank), and a report whose trace is
        nonincreasing.
    """
    y, shape = _check_stack(y)
    side = build_clique_system(shape, cfg.clique_side).side  # rejects a side that does not fit
    lam, eps = _resolve(y, shape, cfg)
    mu = cfg.mu
    t0 = time.perf_counter()

    # frame-major view: the window sums take (L, H, W) frames and the SVT the
    # (L, n) matrix, both read from the solve's own contiguous buffers
    y = np.moveaxis(y, -1, 0)
    n_frames = y.shape[0]
    x = np.zeros(y.shape)
    z = np.zeros(y.shape)
    # the four working stacks, one block per solve: the step buffer (forward
    # point, trial x, squares), the gradient gx, the row pass (residual, then
    # the clique norms), and gz
    step, gx, rows, gz = np.empty((4,) + y.shape)

    alpha = 1.0 / (mu + lam / eps)

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    # ||y||^2 summed over a frame-major copy, in the order of a contiguous
    # stack; the row pass is free until the first window sum
    np.copyto(rows, y)
    y_sq = float(np.einsum("ijk,ijk->", rows, rows))
    # clique norms and smooth part at the current point, later those of the
    # accepted trial; Z0 = 0 has nuclear norm 0
    norms = smoothed_clique_norms(np.multiply(x, x, out=step), side, eps, scratch=rows)
    h_new = lam * float(norms.sum()) + 0.5 * mu * y_sq
    if not math.isfinite(h_new):
        # finite data whose squares overflow: every trial would compare inf
        raise ConfigError("objective is not finite at the starting point")
    obj_prev = h_new
    extra = {"lambda": lam, "epsilon": eps, "mu": mu}
    total_halvings = 0

    for _ in range(cfg.max_iters):
        h_old = h_new
        # gx = lam * x * weights + gz and gz = mu * (z + x - y), built in
        # place: the weights over the norms, with the previous gradient's
        # buffer as their row pass, which the trials' row passes then take
        gx, rows = smoothed_weight_map(norms, side, out=rows, scratch=gx), gx
        gx *= x
        gx *= lam
        np.add(z, x, out=gz)
        gz -= y
        gz *= mu
        gx += gz
        grad_sq = float(np.einsum("ijk,ijk->", gx, gx) + np.einsum("ijk,ijk->", gz, gz))

        halvings = 0
        while True:
            # the step buffer holds z - alpha*gz for the SVT, then the trial's
            # x - alpha*gx, then its squares, which the window sum spends; the
            # residual y - z_new - x_new goes to the row pass first
            np.multiply(gz, -alpha, out=step)
            step += z
            z_new, s, svals = _svd_soft(step.reshape(n_frames, -1), alpha)
            z_new = z_new.reshape(y.shape)
            np.multiply(gx, -alpha, out=step)
            step += x
            np.subtract(y, z_new, out=rows)
            rows -= step
            resid_sq = _sum_sq(rows)
            norms = smoothed_clique_norms(np.multiply(step, step, out=step), side, eps,
                                          scratch=rows)
            h_new = lam * float(norms.sum()) + 0.5 * mu * resid_sq
            # the majorisation at the trial: the gradient terms of both steps
            # give -alpha/2 * grad_sq, and the SVT's move min(s, alpha) per
            # singular value adds its squared norm over 2*alpha
            model = (h_old - 0.5 * alpha * grad_sq
                     + float(np.square(s - svals).sum()) / (2.0 * alpha))
            # the slack allows for roundoff.  At 2e-12 it accepts the same
            # trials in the benchmark, where none comes within 1e-8 |h_old|
            # of the model; in the tests a few trials do, and their checks'
            # tolerances do not see the changed iterates
            if h_new <= model + 1e-12 * abs(h_old):
                break
            z_new = None  # rejected trial, freed before the next SVT
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise NumericalError("backtracking failed; the smooth gradient is suspect")
            alpha *= _BACKTRACK_SHRINK

        total_halvings += halvings
        # the accepted trial's x, rebuilt by the trial's two operations
        np.multiply(gx, -alpha, out=step)
        x += step
        z = z_new
        obj = h_new + float(svals.sum())
        objective_trace.append(obj)
        residual_trace.append(math.sqrt(resid_sq))

        if abs(obj_prev - obj) <= cfg.tol_obj * abs(obj_prev):
            reason = "converged"
            break
        obj_prev = obj
        alpha *= _BACKTRACK_GROW

    # the last SVT's shrunk values are the singular values of z
    extra["rank"] = _rank_of(svals, 1e-8)
    extra["alpha_final"] = alpha
    extra["halvings"] = total_halvings
    report = SolverReport(objective_trace, residual_trace, reason,
                          iterations=len(objective_trace),
                          wall_clock=time.perf_counter() - t0, extra=extra)
    return RpcaResult(np.moveaxis(x, 0, -1), np.moveaxis(z, 0, -1), report)
