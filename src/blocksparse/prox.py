"""Proximal operator of the overlapping-block penalty via consensus ADMM.

Solves ``argmin_x ||x - v||^2 + lam * sum_c ||x_c||_2``.  Note the data term
carries coefficient 1, not 1/2: this prox equals the standard
``argmin 1/2||x - v||^2 + (lam/2) * J(x)``, so a single isolated group is
shrunk with threshold ``lam / 2``.  To reproduce the 1/2-convention prox
with weight ``tau``, pass ``lam = 2 * tau``.

The penalty is split over the ``side**2`` disjoint clique subsets, one
consensus copy ``z^i`` per subset, which makes every z-update a closed-form
group shrinkage.

**Tile layout.**  Subset ``i = a*side + b`` holds the cliques whose top-left
corner ``(top, left)`` has ``top % side == a`` and ``left % side == b``.
They tile rows ``[a, a + nh*side)`` and columns ``[b, b + nw*side)`` of the
grid, with ``nh = (H - a)//side`` and ``nw = (W - b)//side``, and no two of
them share a pixel.  Copy ``z^i``, seen as an ``H x W`` image, is therefore
read through one strided ``(nh, side, nw*side)`` view of that region: the
squared norm of tile ``(p, q)`` is the sum over the view's middle axis and
over columns ``[q*side, (q+1)*side)`` of its last axis.  The z-update sets
``z^i = x - u^i`` and scales each tile of the view in place by
``max(1 - tau/||tile||, 0)`` with ``tau = lam/rho``; pixels outside the tiles
(a border narrower than ``side``) keep ``x - u^i``.  A subset with
``nh == 0`` or ``nw == 0`` holds no clique.  No index array is read.

Each iteration updates ``x``, then the stacked copies ``Z`` (``s x n``), then
the scaled duals ``U``.  In the generic ADMM form ``Ax + BZ = 0`` with ``A``
the ``s`` stacked identities and ``B = -I`` (Boyd et al. 2011, *Distributed
Optimization and Statistical Learning via ADMM*, section 3.3), iteration ``k``
has

- primal residual ``r_k = ||Z_k - 1 x_k^T||_F``;
- dual residual ``s_k = rho * s * ||zbar_k - zbar_{k-1}||``, where ``zbar``
  is the mean copy.  ``Z`` is the second block updated, so the dual residual
  comes from its change; ``zbar_0`` is the mean of the starting copies;
- tolerances ``eps_pri = sqrt(s*n)*tol_abs + tol_rel*max(sqrt(s)*||x_k||,
  ||Z_k||_F)`` and ``eps_dual = sqrt(n)*tol_abs + tol_rel*rho*s*||ubar_k||``.

The x-update ``x = (2v + rho * sum_i (z^i + u^i)) / (2 + s*rho)`` needs only
the means: ``sum_i (z^i + u^i) = s*(zbar + ubar)``.  ``zbar`` is formed for
the dual residual anyway, and ``ubar`` is kept as an n-vector updated by
``ubar += zbar - x``, which is exact because ``U += Z - 1 x^T``.

The solve stops when ``r_k <= eps_pri`` and ``s_k <= eps_dual``.  The dual
test is checked first; ``||Z_k||_F``, an ``s x n`` pass, is taken only when
it passes, which leaves every stop decision unchanged.
``residual_trace`` holds ``r_k + s_k`` per iteration.  That sum is not
guaranteed to be monotone.  What ADMM does guarantee is that
``||Z_k - Z_{k-1}||_F^2 + ||U_k - U_{k-1}||_F^2`` never increases (He & Yuan
2015, *On non-ergodic convergence rate of Douglas-Rachford ADMM*).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .common import AllocationTracker, ConfigError, ShapeError, SolverReport, check_finite
from .grids import CliqueSystem
from .regularizer import block_norm


@dataclass(frozen=True)
class ProxConfig:
    """Weight and ADMM controls for :func:`prox_block_norm`.

    ``rho=None`` resolves to ``lam + 1``.  Stopping follows the primal/dual
    residual rule with absolute plus relative tolerances, as defined in the
    module docstring.
    """

    lam: float
    rho: Optional[float] = None
    max_iters: int = 1000
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6

    def __post_init__(self):
        check_finite(self.lam, "lam")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if self.rho is not None:
            check_finite(self.rho, "rho")
            if self.rho <= 0:
                raise ConfigError("rho must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        check_finite(self.tol_abs, "tol_abs")
        check_finite(self.tol_rel, "tol_rel")
        if self.tol_abs < 0 or self.tol_rel < 0:
            raise ConfigError("tolerances must be nonnegative")

    def resolved_rho(self) -> float:
        return self.rho if self.rho is not None else self.lam + 1.0


@dataclass
class ProxResult:
    """Prox output plus the final consensus copies and scaled duals.

    ``z`` has one row per clique subset; ``rho * u`` decomposes the penalty
    subgradient at the solution, which the optimality-certificate tests use.
    Both are ``None`` when the solve short-circuits (``lam == 0``).
    """

    x: np.ndarray
    report: SolverReport
    z: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None


def group_shrink(v, tau: float) -> np.ndarray:
    """Closed-form minimizer of ``tau*||z|| + 1/2*||z - v||^2``:
    ``max(1 - tau/||v||, 0) * v`` (zero when ``||v|| <= tau``)."""
    if tau < 0:
        raise ConfigError("shrinkage threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / nv) * v


def _tile_views(z: np.ndarray, cliques: CliqueSystem) -> list:
    """Per subset, the ``(nh, side, nw*side)`` view of copy ``z[i]`` over
    the region its cliques tile (see the module docstring), or ``None`` for
    an empty subset."""
    h, w, side = cliques.shape.height, cliques.shape.width, cliques.side
    views = []
    for i in range(cliques.n_subsets):
        a, b = divmod(i, side)
        nh, nw = (h - a) // side, (w - b) // side
        if nh == 0 or nw == 0:
            views.append(None)
            continue
        region = z[i].reshape(h, w)[a:a + nh * side, b:b + nw * side]
        views.append(region.reshape(nh, side, nw * side))
    return views


def prox_block_norm(v, cliques: CliqueSystem, cfg: ProxConfig, x0=None,
                    tracker: Optional[AllocationTracker] = None) -> ProxResult:
    """Consensus-ADMM prox of the overlapping-block penalty.

    Parameters
    ----------
    v : (H, W) array
        Prox center.
    cliques : CliqueSystem
        Group structure; its grid must match ``v``.
    cfg : ProxConfig
        Weight ``lam`` and ADMM controls.
    x0 : (H, W) array, optional
        Warm start for the consensus variable (pursuit loops reuse the
        previous estimate).
    tracker : AllocationTracker, optional
        Shared accounting for the ``2 * side**2 * N`` auxiliary entries
        (consensus copies plus scaled duals); a fresh tracker is used when
        omitted.

    Returns
    -------
    ProxResult
        Solution, run report, and the final ADMM variables.  Non-convergence
        within ``max_iters`` is reported as termination reason
        ``"max-iterations"``, not raised.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(f"prox center shape {v.shape} does not match clique grid")
    check_finite(v, "prox center")
    t0 = time.perf_counter()

    if cfg.lam == 0.0:
        report = SolverReport(0, [], [], "converged", peak_aux_entries=0,
                              wall_clock=time.perf_counter() - t0)
        return ProxResult(v.copy(), report)

    n = cliques.shape.n
    s = cliques.n_subsets
    rho = cfg.resolved_rho()
    tau = cfg.lam / rho
    vflat = v.ravel()

    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != v.shape:
            raise ShapeError("warm start shape does not match prox center")
        check_finite(x0, "warm start")
        x = x0.ravel().copy()
    else:
        x = vflat.copy()

    z = np.tile(x, (s, 1))
    u = np.zeros((s, n))
    if tracker is None:
        tracker = AllocationTracker()
    tracker.register("prox-consensus-z", z.size)
    tracker.register("prox-scaled-duals", u.size)
    # r = Z - 1 x^T: one s x n buffer, rewritten every iteration
    r = np.empty_like(z)
    tiles = _tile_views(z, cliques)
    side = cliques.side
    shape = (cliques.shape.height, cliques.shape.width)

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    denom = 2.0 + s * rho
    zbar = z.mean(axis=0)
    ubar = np.zeros(n)

    for _ in range(cfg.max_iters):
        x = (2.0 * vflat + (rho * s) * (zbar + ubar)) / denom

        np.subtract(x[None, :], u, out=z)
        # an all-zero tile has norm 0; tau/0 = inf gives it scale 0
        with np.errstate(divide="ignore"):
            for view in tiles:
                if view is None:
                    continue
                nh, _, cols = view.shape
                norms = np.sqrt(np.einsum("ijk,ijk->ik", view, view)
                                .reshape(nh, cols // side, side).sum(axis=2))
                scale = np.maximum(1.0 - tau / norms, 0.0)
                view *= np.repeat(scale, side, axis=1)[:, None, :]
        np.subtract(z, x[None, :], out=r)
        u += r
        primal = float(np.linalg.norm(r))

        zbar_prev = zbar
        zbar = z.mean(axis=0)
        ubar += zbar - x
        dual = rho * s * float(np.linalg.norm(zbar - zbar_prev))
        objective_trace.append(
            float(np.sum((x - vflat) ** 2)) + cfg.lam * block_norm(x.reshape(shape), cliques))
        residual_trace.append(primal + dual)

        dual_tol = np.sqrt(n) * cfg.tol_abs + cfg.tol_rel * rho * s * np.linalg.norm(ubar)
        if dual <= dual_tol:
            primal_tol = (np.sqrt(s * n) * cfg.tol_abs
                          + cfg.tol_rel * max(np.sqrt(s) * np.linalg.norm(x), np.linalg.norm(z)))
            if primal <= primal_tol:
                reason = "converged"
                break

    report = SolverReport(len(objective_trace), objective_trace, residual_trace,
                          reason, peak_aux_entries=tracker.peak,
                          wall_clock=time.perf_counter() - t0,
                          extra={"rho": rho})
    tracker.release("prox-consensus-z")
    tracker.release("prox-scaled-duals")
    return ProxResult(x.reshape(shape), report, z=z, u=u)


def prox_block_norm_framewise(stack, cliques: CliqueSystem, cfg: ProxConfig,
                              x0=None) -> tuple[np.ndarray, list[SolverReport]]:
    """Apply :func:`prox_block_norm` independently to each frame of an
    ``(H, W, L)`` stack; returns the denoised stack and per-frame reports."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[:2] != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(f"stack shape {stack.shape} does not match clique grid")
    out = np.empty_like(stack)
    reports = []
    for t in range(stack.shape[2]):
        warm = None if x0 is None else np.asarray(x0, dtype=float)[:, :, t]
        res = prox_block_norm(stack[:, :, t], cliques, cfg, x0=warm)
        out[:, :, t] = res.x
        reports.append(res.report)
    return out, reports
