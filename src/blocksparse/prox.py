"""Proximal operator of the overlapping-block penalty via consensus ADMM.

Solves ``argmin_x ||x - v||^2 + lam * sum_c ||x_c||_2``.  Note the data term
carries coefficient 1, not 1/2: this prox equals the standard
``argmin 1/2||x - v||^2 + (lam/2) * J(x)``, so a single isolated group is
shrunk with threshold ``lam / 2``.  To reproduce the 1/2-convention prox
with weight ``tau``, pass ``lam = 2 * tau``.

The penalty is split over the ``side**2`` disjoint clique subsets, one
consensus copy ``z^i`` per subset, which makes every z-update a closed-form
group shrinkage.

**Tile layout.**  The cliques of subset ``i`` tile one region of the grid
(:attr:`blocksparse.grids.CliqueSystem.tiles`), so copy ``z^i``, seen as an
``H x W`` image, is read through one strided ``(nh, side, nw*side)`` view of
that region: the squared norm of tile ``(p, q)`` is the sum over the view's
middle axis and over columns ``[q*side, (q+1)*side)`` of its last axis.  The
z-update sets ``z^i`` to its input ``w^i`` and scales each tile of the view
in place by ``max(1 - tau/||tile||, 0)`` with ``tau = lam/rho``; pixels
outside the tiles (a border narrower than ``side``) keep ``w^i``.  No index
array is read.

**Relaxed iteration.**  Each iteration updates ``x``, then the stacked copies
``Z`` (``s x n``), then the scaled duals ``U``, with the z- and u-updates
over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011, *Distributed
Optimization and Statistical Learning via ADMM*, section 3.4.3): they read
``xhat^i = alpha*x + (1 - alpha)*z^i`` in place of ``x``, so
``z^i = shrink(xhat^i - u^i)`` and ``u^i += z^i - xhat^i``, with
``alpha = RELAXATION``.  The x-update
``x = (2v + rho * sum_i (z^i + u^i)) / (2 + s*rho)`` needs only the means:
``sum_i (z^i + u^i) = s*(zbar + ubar)``.  ``zbar`` is one pass over ``Z``;
``ubar`` is kept as an n-vector updated by
``ubar += zbar - (alpha*x + (1 - alpha)*zbar_old)``, the mean of the
u-update.  The loop carries ``r = (U - (1 - alpha) Z) / alpha`` in place of
``U``: then ``w = xhat - U = alpha*(x - r)`` and the new
``alpha*r = U - (1 - alpha) Z = Z - w``, so besides the tile scaling and
the mean an iteration makes three passes over the stacks (``r = x - r``,
``Z = alpha*r``, ``r = Z - r``), as many as plain ADMM's ``Z = x - U``,
``U += Z``, ``U -= x``.  ``U`` is formed once, at the end.

**Duality-gap certificate.**  The prox has the dual
``max_g <g, v> - ||g||^2/4`` over ``g = sum_c P_c^T w_c`` with every
``||w_c|| <= lam``; any such ``g`` bounds the optimum from below, and
``x = v - g/2`` at the optimum (Bach et al. 2012, *Optimization with
Sparsity-Inducing Penalties*, section 5).  After each z-update the
optimality of ``z^i`` for its input ``xhat^i - u^i`` gives
``-rho*u^i in lam * d||z^i_c||`` on each tile, with ``u^i`` already updated;
relaxation changes the input, not this condition.  So every clique block of
``-rho*u^i`` has norm at most ``lam``, and ``u^i`` is 0 off the tiles.  The
dual point ``g = -rho * sum_i u^i = -rho*s*ubar`` is therefore feasible as
it stands, and the dual value ``D = <g, v> - ||g||^2/4`` costs two n-vector
dot products.  The primal value
``P = ||x - v||^2 + lam * J(x)`` is the objective the loop traces.

The solve stops when ``P - D <= tol_rel*P + tol_abs*||v||^2``.  Both terms
scale with the data: ``||v||^2`` is ``P(0)``.  The data term gives
``P(x) - P(x*) >= ||x - x*||^2``, so the returned ``x`` satisfies
``||x - x*||^2 <= P - D``.  With ``tol_abs = tol_rel = 0`` no gap stop is
tested and the solve runs exactly ``max_iters`` iterations, so a gap that
roundoff makes zero or negative cannot end it.

A caller that reads only the support of ``x`` can ask for an earlier stop,
``sqrt(P - D) <= support_tol * max|x|``.  The same bound gives
``||x - x*||_inf <= sqrt(P - D)``, so every pixel above
``support_tol * max|x|`` is then certainly nonzero in ``x*``; gap-safe
screening rests on the same bound (Ndiaye, Fercoq, Gramfort & Salmon 2017,
*Gap Safe screening rules for sparsity enforcing penalties*).  Whichever of
the two stops comes first ends the solve.  ``residual_trace`` holds ``P - D``
per iteration, in the units of ``objective_trace``.  ADMM does not make the
gap monotone.  Relaxed ADMM makes ``||dZ||_F^2 + 2(alpha - 1)<dZ, dU> +
||dU||_F^2`` nonincreasing, ``dZ = Z_k - Z_{k-1}`` and ``dU = U_k -
U_{k-1}``: a fixed positive-definite quadratic form of the step of ``Z`` and
of the multiplier ``rho*U`` for ``0 < alpha < 2`` (Fang, He, Liu & Yuan
2015, *Generalized alternating direction method of multipliers*).  At
``alpha = 1`` it is He & Yuan's ``||dZ||_F^2 + ||dU||_F^2``, which the
relaxed iterates need not keep monotone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import ConfigError, ShapeError, SolverReport, check_count, check_finite
from .grids import CliqueSystem
from .regularizer import block_norm

# Over-relaxation factor alpha of the z- and u-updates, in (0, 2); alpha = 1
# is plain ADMM.  Of 1.5, 1.6, 1.7 and 1.8, 1.8 took the fewest iterations on
# cold 128x128 denoising (sides 4 and 8) and on CoLaMP's warm 32x32 calls.
RELAXATION = 1.8


@dataclass(frozen=True)
class ProxConfig:
    """Weight and ADMM controls for :func:`prox_block_norm`.

    ``rho=None`` resolves to ``lam + 1``.  The solve stops once the duality
    gap ``P - D`` of the module docstring is at most
    ``tol_rel*P + tol_abs*||v||^2``: ``P`` is the prox objective at the
    current ``x`` and ``D`` the dual value of ``g = -rho * sum_i u^i``, which
    the z-update keeps feasible.  ``tol_abs = tol_rel = 0`` disables the test,
    so exactly ``max_iters`` iterations run.
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
        check_count(self.max_iters, "max_iters")
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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||^2``, with the difference freed on return: the prox calls
    it beside the penalty's window sums, where a solve's memory peaks."""
    d = a - b
    return float(d @ d)


def group_shrink(v, tau: float) -> np.ndarray:
    """Closed-form minimizer of ``tau*||z|| + 1/2*||z - v||^2``:
    ``max(1 - tau/||v||, 0) * v`` (zero when ``||v|| <= tau``)."""
    check_finite(tau, "shrinkage threshold")
    if tau < 0:
        raise ConfigError("shrinkage threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    check_finite(v, "shrinkage input")
    nv = float(np.linalg.norm(v))
    if nv <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / nv) * v


def _tile_views(z: np.ndarray, cliques: CliqueSystem) -> list:
    """The ``(nh, side, nw*side)`` view of copy ``z[i]`` over the region each
    non-empty subset ``i`` tiles."""
    h, w, side = cliques.shape.height, cliques.shape.width, cliques.side
    views = []
    for i, tile in enumerate(cliques.tiles):
        if tile is None:
            continue
        a, b, nh, nw = tile
        region = z[i].reshape(h, w)[a:a + nh * side, b:b + nw * side]
        views.append(region.reshape(nh, side, nw * side))
    return views


def prox_block_norm(v, cliques: CliqueSystem, cfg: ProxConfig, x0=None, *,
                    support_tol: Optional[float] = None) -> ProxResult:
    """Consensus-ADMM prox of the overlapping-block penalty.

    Beyond its inputs a solve holds the consensus copies and the scaled
    duals, ``2 * side**2 * N`` entries, plus ``O(N)`` working vectors.

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
    support_tol : float, optional
        Also stop, with reason ``"support-certified"``, once
        ``sqrt(P - D) <= support_tol * max|x|``: every pixel of ``x`` above
        ``support_tol * max|x|`` is then nonzero in the exact prox.  A caller
        that reads only that support passes it; ``None`` tests no such stop.

    Returns
    -------
    ProxResult
        Solution, run report, and the final ADMM variables.  Non-convergence
        within ``max_iters`` is reported as termination reason
        ``"max-iterations"``, not raised.
    """
    if support_tol is not None:
        check_finite(support_tol, "support_tol")
        if support_tol <= 0:
            raise ConfigError("support_tol must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(f"prox center shape {v.shape} does not match clique grid")
    check_finite(v, "prox center")
    t0 = time.perf_counter()

    if cfg.lam == 0.0:
        report = SolverReport(0, [], [], "converged", wall_clock=time.perf_counter() - t0)
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

    alpha = RELAXATION
    z = np.tile(x, (s, 1))
    # the carried dual r = (U - (1 - alpha) Z) / alpha makes the relaxed
    # z-update point w = alpha*x + (1 - alpha) Z - U = alpha * (x - r)
    r = z * ((alpha - 1.0) / alpha)  # U = 0 at the start
    tiles = _tile_views(z, cliques)
    side = cliques.side
    ones = np.ones(side)
    shape = (cliques.shape.height, cliques.shape.width)

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    rs = rho * s
    c = rs / (2.0 + rs)
    cv = (2.0 / (2.0 + rs)) * vflat
    zbar = x.copy()
    ubar = np.zeros(n)
    certify = cfg.tol_abs > 0 or cfg.tol_rel > 0
    gap_floor = cfg.tol_abs * float(vflat @ vflat)

    # an all-zero tile has norm 0; tau/0 = inf gives it scale 0
    with np.errstate(divide="ignore"):
        for _ in range(cfg.max_iters):
            # x = (2v + rs*(zbar + ubar)) / (2 + rs)
            np.add(zbar, ubar, out=x)
            x *= c
            x += cv

            np.subtract(x, r, out=r)  # w / alpha
            np.multiply(r, alpha, out=z)
            for view in tiles:
                nh, _, cols = view.shape
                # row sums by a product with ones: one call at every side,
                # where a sum over the tiny last axis is several times slower
                norms = np.sqrt(np.einsum("ijk,ijk->ik", view, view)
                                .reshape(nh, cols // side, side) @ ones)
                scale = np.maximum(1.0 - tau / norms, 0.0)
                view *= np.repeat(scale, side, axis=1)[:, None, :]
            np.subtract(z, r, out=r)  # alpha*r = U - (1 - alpha) Z = Z - w
            # ubar += zbar - mean(xhat), with mean(xhat) = alpha*x + (1 - alpha)*zbar_old
            ubar -= alpha * x
            zbar *= 1.0 - alpha
            ubar -= zbar
            z.mean(axis=0, out=zbar)
            ubar += zbar

            primal = _sq_dist(x, vflat) + cfg.lam * block_norm(x.reshape(shape), cliques)
            # D = <g, v> - ||g||^2/4 at the feasible dual point g = -rho*s*ubar
            dual = -rs * float(ubar @ vflat) - 0.25 * rs * rs * float(ubar @ ubar)
            gap = primal - dual
            objective_trace.append(primal)
            residual_trace.append(gap)
            if certify and gap <= cfg.tol_rel * primal + gap_floor:
                reason = "converged"
                break
            if support_tol is not None and gap <= (support_tol * float(np.abs(x).max())) ** 2:
                reason = "support-certified"
                break

    u = r  # U = alpha*r + (1 - alpha) Z, a copy at a time so no third stack is made
    for zi, ui in zip(z, u):
        ui *= alpha
        ui += (1.0 - alpha) * zi
    report = SolverReport(len(objective_trace), objective_trace, residual_trace,
                          reason, wall_clock=time.perf_counter() - t0,
                          extra={"rho": rho})
    return ProxResult(x.reshape(shape), report, z=z, u=u)
