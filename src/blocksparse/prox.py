"""Proximal operator of the overlapping-block penalty via consensus ADMM.

Solves ``argmin_x ||x - v||^2 + lam * sum_c ||x_c||_2``.  Note the data term
carries coefficient 1, not 1/2: this prox equals the standard
``argmin 1/2||x - v||^2 + (lam/2) * J(x)``, so a single isolated group is
shrunk with threshold ``lam / 2``.  To reproduce the 1/2-convention prox
with weight ``tau``, pass ``lam = 2 * tau``.

The penalty is split over the ``side**2`` disjoint clique subsets, one
consensus copy ``z^i`` per subset, which makes every z-update a closed-form
group shrinkage.

**Tile layout.**  Subset ``i = a*side + b`` holds the cliques with corners
``(a + p*side, b + q*side)``, ``p < nh`` and ``q < nw``
(:attr:`blocksparse.grids.CliqueSystem.tiles`).  The solve's one ``s x n``
stack, the carried duals ``r`` below, holds one row per copy, row-major, in
a buffer followed by a zero tail of ``(side-1)*(W+1)`` entries.  One strided
view covers the tiles of every copy: its shape is
``(side, side, H//side, side, (W//side)*side)`` and its element strides are
``(side*n + W, n + 1, side*W, W, 1)``, so tile ``(p, q)`` of copy ``(a, b)``
is ``view[a, b, p, :, q*side:(q+1)*side]``.  The base of copy ``(a, b)`` is
``(a*side + b)*n + a*W + b``, linear in both ``a`` and ``b``.  The view
never aliases itself: within one copy each tile row covers at most ``W``
consecutive entries, and the copies' address ranges are ordered.  Its shape
is the same for every copy, so where a subset has one tile row or column
fewer (``nh = (H - a)//side``, ``nw = (W - b)//side``) the view's last one
spills into the next copy or the tail; those spill tiles are read and never
written.

The view gives the norms of the tiles one copy row ``a`` at a time: an
``einsum`` sums the squares over the view's tile rows, and one product with
ones sums those over each tile's columns, into the
``(side, side, H//side, W//side)`` array of tile scales.  Scaling the tiles
in place runs copy by copy, each through the copy's own tiles, its row of
``r`` as an ``H x W`` grid cut to rows ``[a, a + nh*side)`` and columns
``[b, b + nw*side)``, times the scales of its copy row repeated along the
columns.  It cannot run through the view, which spans several copies:
NumPy's ufunc overlap check cannot prove such an output free of
self-overlap, and it would copy the whole stack on every call.  Pixels
outside the tiles (a border narrower than ``side``) are not scaled.  No index
array is read.

**Relaxed iteration.**  Each iteration updates ``x``, then the stacked copies
``Z`` (``s x n``), then the scaled duals ``U``, with the z- and u-updates
over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011, *Distributed
Optimization and Statistical Learning via ADMM*, section 3.4.3): they read
``xhat^i = alpha*x + (1 - alpha)*z^i`` in place of ``x``, so
``z^i = shrink(xhat^i - u^i)`` and ``u^i += z^i - xhat^i``, with
``alpha = RELAXATION``.  The x-update
``x = (2v + rho * sum_i (z^i + u^i)) / (2 + s*rho)`` needs only the means:
``sum_i (z^i + u^i) = s*(zbar + ubar)``.

The loop holds neither ``Z`` nor ``U``.  It carries
``r = (U - (1 - alpha) Z) / alpha``: then the z-update's input is
``w = xhat - U = alpha*q`` with ``q = x - r``, and ``Z = shrink(alpha*q)``
scales each tile of ``alpha*q`` by ``c = max(1 - tau/(alpha*||q_tile||), 0)``,
``tau = lam/rho``, and is ``alpha*q`` off the tiles.  The u-update makes
``U = Z - w``, so the new ``r = Z - q`` is ``(alpha*c - 1) q`` on every tile
and ``(alpha - 1) q`` off the tiles.  An iteration therefore sets
``r = x - r``, which is ``q``, takes the tile norms, multiplies ``r`` by
``alpha - 1`` and then each tile by ``g = (alpha*c - 1)/(alpha - 1)``, all
in place.  Since
``Z = r + q``, ``zbar = mean(r) + mean(q)`` with ``mean(q) = x - mean(r)`` of
the previous iteration, and ``ubar = mean(Z - w) = zbar - alpha*mean(q)``:
one reduction of the stack per iteration, and ``mean(r)`` is kept as an
n-vector.

``(U, Z)`` is recovered from ``r`` and the kept scales where a check needs
it: on a tile ``U = alpha*(c - 1) q = (1 - 1/g) r``, and off the tiles
``U = 0``.  A tile with ``alpha*c = 1`` has ``r = 0`` and has lost ``q``, so a
checked iteration (below) sets every ``g`` that rounds to exactly 0 to
``eps``: ``r = (alpha - 1)*eps*q`` there, a move of at most ``eps*|q|``.  A
balancing check's primal residual is summed from ``q`` before ``r`` is
scaled, a copy of ``Z`` at a time in the scratch vector.  The gap evaluation
only reads the state.  ``U`` is formed once, at the end, in the place of
``r``.  So beyond its input a solve holds the ``s*n`` entries of ``r`` and
the tail, the ``(side, side, H//side, W//side)`` scales and five working
n-vectors (``x``, ``zbar``, ``ubar``, ``mean(r)`` and a scratch vector).

**Adaptive penalty.**  Every solve starts at ``x = v``, ``z^i = v``,
``u^i = 0`` and ``rho0 = 1 + RHO_START_WEIGHT*lam/max|v|`` (1 when ``v = 0``),
so its path depends on its input ``(v, lam)`` alone.  ``rho`` is then
balanced by residuals (Boyd et al. 2011, section 3.4.1), which leaves its
start free.  At iterations ``BALANCE_FIRST * 2**j`` (10, 20, 40, ...), after
the stop tests, the loop
compares the primal residual ``rp = ||Z - 1 x^T||_F``, summed a copy at a
time, with the dual residual
``rd = rho*sqrt(s)*||zbar_k - zbar_{k-1}||``.  Both live in the ``s x n``
stack space: ``rd`` is ``rho*||1 (zbar_k - zbar_{k-1})^T||_F``, the step of
the mean spread over the ``s`` copies.  It is not Boyd et al.'s dual
residual for this splitting: with ``x`` the first block and ``Z`` the
second, theirs is ``rho*s*(zbar_k - zbar_{k-1})`` in the ``n``-space, of
norm ``sqrt(s)`` times ``rd``, and it raises ``rho`` less readily.  The
stack-space form was chosen by measurement (constants below).  If
``rp > BALANCE_RATIO*rd``, ``rho`` is multiplied by ``BALANCE_FACTOR``; if
``rd > BALANCE_RATIO*rp``, it is divided by it.  Where both ``rp`` and
``rd/rho`` are at most ``1024*s*eps*sqrt(s*n)*max|v|`` they are rounding
error of a converged solve, not an imbalance, and ``rho`` stays.  A change
by ``f = rho_old/rho_new`` scales the scaled duals to ``f*U`` and keeps
``Z``, which in the loop's variables multiplies each tile of ``r`` by
``f + (f - 1)(1 - alpha)c/(alpha*c - 1)``, leaves ``r`` off the tiles, where
``U = 0``, sets ``ubar = f*ubar`` and takes ``mean(r)`` anew; ``tau``,
``s*rho`` and the x-update's weights follow the new ``rho``.  The doubling
schedule allows at most ``floor(log2(max_iters/BALANCE_FIRST)) + 1`` changes, so ``rho`` is fixed
after the last check and the fixed-penalty convergence theory applies from
there (He, Yang & Wang 2000, *Alternating direction method with
self-adaptive penalty parameters for monotone variational inequalities*).
Both residuals scale with the data and ``rho0`` depends only on
``lam/max|v|``, so ``(c*v, c*lam)`` follows ``c`` times the path of
``(v, lam)`` and makes the same balancing decisions.  The multiplier
``-rho*U`` is unchanged by the rescale, so the certificate below holds at
every iteration with the ``rho`` its z-update used, and the ``rho`` reported
is the final one, to be paired with the final ``u``.

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
dot products.  The primal value ``P = ||x - v||^2 + lam * J(x)`` costs four
n-vector passes and the exact clique norms of ``x*x`` from the regularizer's
evaluator (:func:`blocksparse.regularizer.smoothed_clique_norms` at
``eps = 0``): one valid window sum, which allocates its row and column
passes and its result, and their square root in place.

The gap is needed only to decide when to stop (Boyd et al. 2011, section
3.3), and at CoLaMP's size (32x32, side 2) evaluating it took 23% of an
iteration.  So ``P``, ``D``, the gap and both stop tests below
are evaluated only at the checked iterations: iteration 1, every
``GAP_STRIDE``-th after it (``k = 1 mod GAP_STRIDE``), every balancing
check and the last iteration ``max_iters`` allows.  The evaluation reads
``x`` and ``ubar`` and writes only the scratch vector, so apart from the
zero guard of ``g`` above the iterates are those of a solve that checks
every iteration.  The solve stops at the first checked
iteration whose gap passes, never before the first iteration whose gap
would pass, and every stop is decided by the gap computed exactly at the
iteration it ends on.  The gap is not monotone (below), so a stop can come
more than ``GAP_STRIDE - 1`` iterations late: in CoLaMP's calls on the
cs-colamp benchmark's problems (seed 0) 27 of 55 calls stopped 5 to 11
iterations later than a solve checking every iteration; 14 of them passed
their support test at iteration 22 and failed it at 25.

At a checked iteration the solve stops when
``P - D <= tol_rel*P + tol_abs*||v||^2``.  Both terms
scale with the data: ``||v||^2`` is ``P(0)``.  The data term gives
``P(x) - P(x*) >= ||x - x*||^2``, so the returned ``x`` satisfies
``||x - x*||^2 <= P - D``.  With ``tol_abs = tol_rel = 0`` no gap stop is
tested and the solve runs exactly ``max_iters`` iterations, so a gap that
roundoff makes zero or negative cannot end it.

A weight ``lam >= 2||v||`` gives ``x* = 0`` exactly, which the iteration
does not certify: on an 8x8 standard normal center at side 2 ``lam = 1e20``
ran to the 1,000-iteration cap with a gap of 1.30, as the gap's tolerance
does not grow with ``lam``.  So where a gap stop is tested and ``v != 0``, a
solve with ``lam**2 >= 4||v||^2`` returns ``x = 0``, "converged", after 0
iterations.  Its ``u`` gives each pixel ``(r, c)`` to the copy
``(min(r, H - side) % side, min(c, W - side) % side)``, whose tiles cover
it, with ``u = -2v/rho0`` there and 0 elsewhere: every clique block of
``-rho0*u`` is part of ``2v``, of norm at most ``lam``, so ``g = 2v`` is
dual feasible and ``D = ||v||^2 = P(0)``: the gap is 0.  Its traces are
empty, as no iteration ran.  A zero center is left to the iteration, whose
first gap is exactly 0.

A caller that reads only the support of ``x`` can ask for an earlier stop,
certified from both sides of the gap ``G = P - D + e``.  The primal bound
above gives ``a = ||x - x*||`` with ``a^2 <= P - P*``.  ``D`` is
``1/2``-strongly concave on its feasible set and ``x* = v - g*/2``, so the
point ``xt = v - g/2`` has ``b = ||xt - x*|| = ||g - g*||/2`` with
``b^2 <= D* - D``.  With ``P* = D*`` the two add up: ``a^2 + b^2 <= G``.  The
triangle inequality gives ``b >= |a - d|`` for ``d = ||x - xt||``, so
``a^2 + (a - d)^2 <= G``, and ``a`` is at most the larger root, the radius
``r = (d + sqrt(2G - d^2))/2``; where rounding leaves ``d^2 > 2G`` the radius
is ``sqrt(G)``.  At a checked iteration the scratch vector holds
``xt - x = v + (rho*s/2)*ubar - x``, and the solve stops with
``"support-certified"`` once ``r <= support_tol * max|x|``.  Then
``||x - x*||_inf <= r``, so every pixel above ``support_tol * max|x|`` is
certainly nonzero in ``x*``.  The returned ``x`` is still the ADMM iterate,
and ``report.extra["support_radius"]`` holds ``r``.  Over ``d`` the radius
is largest, ``sqrt(G)``, at ``d = sqrt(G)``, and it is ``sqrt(G/2)`` at
``d = 0``, so this stop never comes later than one on the one-sided bound
``sqrt(G) <= support_tol * max|x|``, on which gap-safe screening rests
(Ndiaye, Fercoq, Gramfort & Salmon 2017, *Gap Safe screening rules for
sparsity enforcing penalties*).  On the cs-colamp benchmark's problems
(seed 0) CoLaMP's prox calls took 10,746 iterations against the one-sided
bound's 14,537.  The allowance ``e = n*eps*(P + |<g, v>| + ||g||^2/4)``
stands for the rounding error of the computed gap: where ``x* = 0`` and
``x`` is solver residue, roundoff can make the computed ``P - D`` zero, and
without ``e`` that residue would pass as support (``v`` one spike, ``lam``
at its shrink threshold).  Whichever of the two stops comes first ends the
solve.  ``objective_trace`` holds ``P``
and ``residual_trace`` ``P - D`` at the checked iterations only, so they can
be shorter than ``report.iterations``, the number of iterations run; their
last entries are those of the returned ``x`` and ``u``.  ADMM does not make
the gap monotone.  Relaxed ADMM at a fixed ``rho`` makes ``||dZ||_F^2 +
2(alpha - 1)<dZ, dU> + ||dU||_F^2`` nonincreasing, ``dZ = Z_k - Z_{k-1}``
and ``dU = U_k - U_{k-1}``: a fixed positive-definite quadratic form of the
step of ``Z`` and of the multiplier ``rho*U`` for ``0 < alpha < 2`` (Fang,
He, Liu & Yuan 2015, *Generalized alternating direction method of
multipliers*).  Here it holds over each stretch of iterations that share one
``rho``.  At ``alpha = 1`` it is He & Yuan's ``||dZ||_F^2 + ||dU||_F^2``,
which the relaxed iterates need not keep monotone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .common import (ConfigError, ShapeError, SolverReport, check_count, check_finite,
                     check_nonnegative, check_positive)
from .grids import CliqueSystem
from .regularizer import smoothed_clique_norms

# Over-relaxation factor alpha of the z- and u-updates, in (0, 2); alpha = 1
# is plain ADMM.  Of 1.5, 1.6, 1.7 and 1.8, 1.8 took the fewest iterations on
# cold 128x128 denoising (sides 4 and 8) and on CoLaMP's 32x32 calls (then
# warm-started).
RELAXATION = 1.8

# The duality gap and the stop tests run at iteration 1, every GAP_STRIDE-th
# iteration after it, every balancing check and the cap (module docstring).
# On the cs-colamp benchmark's problems (seed 0) CoLaMP's prox calls take
# 10,493 iterations checked at every one and 10,746 at stride 4.  Measured
# with the earlier one-sided support stop: 14,252 and 14,537 iterations, and
# the time per iteration fell from 0.136 to 0.108 ms (traced, one BLAS
# thread); on cs-colamp seeds 0-2, strides 2, 4 and 8 took 42,532, 43,140 and
# 43,372 iterations against 42,477, and recovered the same problems.
GAP_STRIDE = 4

# Starting penalty rho0 = 1 + RHO_START_WEIGHT*lam/max|v| (1 when v = 0), the
# same for (c*v, c*lam) at every c > 0.  With the benchmark's generators, one
# BLAS thread and the gap checked at every iteration, weights 1, 2, 4 and 8
# took 900, 840, 774 and 877 prox iterations on prox-denoise seeds 0-3;
# 44,226, 42,477, 39,883 and 41,626 in CoLaMP's calls on cs-colamp seeds 0-2;
# and 59,771, 56,610, 55,000 and 51,832 on 16 CoLaMP problems at m/K = 3,
# which recovered the same 14 at every weight.  2 is the weight checked on the
# CS sweeps: at seed 0 every row kept the support, error, outer iterations and
# termination it had with the start lam + 1.
RHO_START_WEIGHT = 2.0

# Residual balancing of rho (module docstring): checked at iterations
# BALANCE_FIRST, 2*BALANCE_FIRST, 4*BALANCE_FIRST, ..., rho is multiplied or
# divided by BALANCE_FACTOR when one residual exceeds BALANCE_RATIO times the
# other.  On the cs-colamp benchmark's problems (seed 0), with the gap checked
# at every iteration, CoLaMP's prox calls took 28,486 iterations at a fixed
# rho, 23,456 at Boyd et al.'s ratio 10 and 17,124 at ratio 2.  With Boyd et
# al.'s n-space dual residual rho*s*||zbar_k - zbar_{k-1}|| in place of the
# stack-space one they took 20,224, and prox-denoise's seed-0 side-4 lam-0.2
# case took 169 iterations against 112 (120 at a fixed rho).
BALANCE_FIRST = 10
BALANCE_RATIO = 2.0
BALANCE_FACTOR = 2.0


@dataclass(frozen=True)
class ProxConfig:
    """Weight and ADMM controls for :func:`prox_block_norm`.

    The ADMM penalty is not a setting: it starts at ``rho0`` of the module
    docstring, from ``lam`` and ``max|v|``, and is balanced by residuals.  The
    final penalty is ``report.extra["rho"]`` and the number of changes
    ``report.extra["rho_changes"]``.  The solve stops at the first checked
    iteration (iteration 1, every ``GAP_STRIDE``-th after it, each balancing
    check and the cap) whose duality gap ``P - D`` of the module docstring
    is at most ``tol_rel*P + tol_abs*||v||^2``: ``P`` is the prox objective
    at the current ``x`` and ``D`` the dual value of ``g = -rho * sum_i u^i``,
    which the z-update keeps feasible.  ``tol_abs = tol_rel = 0`` disables
    the test, so exactly ``max_iters`` iterations run.  The report's traces
    hold ``P`` and ``P - D`` at the checked iterations, and
    ``report.iterations`` counts every iteration run.
    """

    lam: float
    max_iters: int = 1000
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6

    def __post_init__(self):
        check_nonnegative(self.lam, "lam")
        check_count(self.max_iters, "max_iters")
        check_nonnegative(self.tol_abs, "tol_abs")
        check_nonnegative(self.tol_rel, "tol_rel")


@dataclass
class ProxResult:
    """Prox output plus the final scaled duals.

    ``u`` has one row per clique subset; ``rho * u`` decomposes the penalty
    subgradient at the solution, which the optimality-certificate tests use.
    It is ``None`` when the solve short-circuits (``lam == 0``).
    """

    x: np.ndarray
    report: SolverReport
    u: Optional[np.ndarray] = None


class _TileStack:
    """The carried duals ``r``, one row per copy, their tile view and the
    tile scales.

    ``buffer`` holds the ``s x n`` rows of :attr:`r` followed by the zero
    tail that :attr:`view` spills into (module docstring).  :attr:`scale`
    is the ``(side, side, H//side, W//side)`` array of tile scales, which
    :meth:`norms` writes and :meth:`scale_tiles` reads.  :attr:`tiles`
    holds each copy's ``(a, b, nh, nw)``, an empty subset's ``(0, 0, 0, 0)``.
    """

    def __init__(self, cliques: CliqueSystem):
        h, w, side = cliques.shape.height, cliques.shape.width, cliques.side
        n = h * w
        self.side, self.grid = side, (h, w)
        self.buffer = np.zeros(side * side * n + (side - 1) * (w + 1))
        self.r = self.buffer[:side * side * n].reshape(-1, n)
        self.scale = np.empty((side, side, h // side, w // side))
        self._ones = np.ones(side)
        step = self.buffer.itemsize
        self.view = as_strided(self.buffer, shape=(side, side, h // side, side, w // side * side),
                               strides=(step * (side * n + w), step * (n + 1), step * side * w,
                                        step * w, step))
        self.tiles = [tile or (0, 0, 0, 0) for tile in cliques.tiles]
        # per copy row, each copy's own tiles in r and where their scales
        # sit in the row's scales repeated along the columns
        self.copies = [[] for _ in range(side)]
        for ri, (a, b, th, tw) in zip(self.r, self.tiles):
            self.copies[a].append((self.tiles_of(ri, (a, b, th, tw)),
                                   (b, slice(th), None, slice(tw * side))))

    def tiles_of(self, vec: np.ndarray, tile: tuple) -> np.ndarray:
        """The clique tiles of the copy ``tile = (a, b, nh, nw)`` in the
        n-vector ``vec``: a ``(nh, side, nw*side)`` view."""
        (a, b, th, tw), side = tile, self.side
        grid = vec.reshape(self.grid)
        return grid[a:a + th * side, b:b + tw * side].reshape(th, side, tw * side)

    def norms(self) -> None:
        """Set :attr:`scale` to the norm of every tile of every row of
        :attr:`r`, spill tiles included."""
        for rows, row_scales in zip(self.view, self.scale):
            # one copy row at a time keeps the squared row sums to at most n
            # entries; their sums over each tile's columns are one product
            # with ones, where a sum over the tiny last axis is several times
            # slower
            np.matmul(np.einsum("bprk,bprk->bpk", rows, rows).reshape(-1, self.side),
                      self._ones, out=row_scales.reshape(-1))
        np.sqrt(self.scale, out=self.scale)

    def scale_tiles(self) -> None:
        """Multiply each clique tile of each row of :attr:`r` in place by its
        entry of :attr:`scale`; no other entry of the buffer changes."""
        for row_scales, copies in zip(self.scale, self.copies):
            # repeated, the factors run along whole tile rows; broadcast over
            # each tile's side columns instead, NumPy loops over runs of side
            # entries, and the product took twice as long or more
            factors = row_scales.repeat(self.side, axis=-1)
            for tile, cut in copies:
                tile *= factors[cut]
            del factors  # one row's factors alive at a time

    def primal_sq(self, x: np.ndarray, alpha: float, work: np.ndarray) -> float:
        """``||Z - 1 x^T||_F^2`` for ``Z = r + q``, the rows of :attr:`r`
        holding ``q`` and ``r = (alpha - 1) q`` with each tile scaled by its
        entry of :attr:`scale`, a copy at a time through ``work``."""
        total = 0.0
        for qi, (a, b, th, tw) in zip(self.r, self.tiles):
            np.multiply(qi, alpha - 1.0, out=work)
            tiles = self.tiles_of(work, (a, b, th, tw))
            tiles *= self.scale[a, b, :th, None, :tw].repeat(self.side, axis=-1)
            work += qi
            work -= x
            total += float(work @ work)
        return total

    def clear_off_tiles(self) -> None:
        """Set every entry of :attr:`r` outside its copy's tiles to 0."""
        for ri, (a, b, th, tw) in zip(self.r, self.tiles):
            grid = ri.reshape(self.grid)
            grid[:a] = grid[a + th * self.side:] = 0.0
            grid[:, :b] = grid[:, b + tw * self.side:] = 0.0


def _screened_duals(v: np.ndarray, side: int, rho: float) -> np.ndarray:
    """The scaled duals that certify ``x = 0`` for ``lam >= 2||v||``: each
    pixel ``(r, c)`` goes to the copy ``(min(r, H - side) % side,
    min(c, W - side) % side)``, with ``u = -2v/rho`` there and 0 elsewhere."""
    h, w = v.shape
    copy_row = np.minimum(np.arange(h), h - side) % side
    copy_col = np.minimum(np.arange(w), w - side) % side
    owner = (copy_row[:, None] * side + copy_col[None, :]).ravel()
    u = np.zeros((side * side, h * w))
    u[owner, np.arange(h * w)] = (-2.0 / rho) * v.ravel()
    return u


def _support_radius(dist: float, gap: float) -> float:
    """The radius about ``x`` that holds the exact prox, given
    ``dist = ||x - xt||`` and the gap ``G`` with its rounding allowance
    (module docstring): ``(dist + sqrt(2G - dist**2))/2``, or ``sqrt(G)``
    where rounding leaves ``dist**2 > 2G``.  A ``G`` below 0 counts as 0."""
    gap = max(gap, 0.0)
    slack = 2.0 * gap - dist * dist
    return 0.5 * (dist + math.sqrt(slack)) if slack >= 0.0 else math.sqrt(gap)


def prox_block_norm(v, cliques: CliqueSystem, cfg: ProxConfig, *,
                    support_tol: Optional[float] = None) -> ProxResult:
    """Consensus-ADMM prox of the overlapping-block penalty.

    Every solve starts from ``v`` (``x = v``, copies ``v``, duals 0) at the
    penalty ``rho0`` of the module docstring, so its result depends on
    ``(v, cfg)`` alone.  Beyond its inputs a solve holds one stack, the
    carried duals of ``side**2 * N`` entries and a tail of
    ``(side - 1)*(W + 1)``, which it returns as ``u``, plus ``O(N)`` working
    vectors; the copies are never held.  Where a gap stop
    is tested, a nonzero ``v`` with ``lam >= 2||v||`` returns the exact prox
    0 after 0 iterations.

    Parameters
    ----------
    v : (H, W) array
        Prox center.
    cliques : CliqueSystem
        Group structure; its grid must match ``v``.
    cfg : ProxConfig
        Weight ``lam`` and ADMM controls.
    support_tol : float, optional
        Also stop, with reason ``"support-certified"``, once the radius
        ``r = (d + sqrt(2G - d^2))/2`` is at most ``support_tol * max|x|``,
        where ``G = P - D + e`` is the gap with its rounding allowance and
        ``d = ||x - (v - g/2)||`` the distance from ``x`` to the dual
        point's primal image (``r = sqrt(G)`` where rounding leaves
        ``d^2 > 2G``).  The primal and dual bounds add up to ``G``, so the
        exact prox lies within ``r`` of ``x`` (module docstring), and every
        pixel of ``x`` above ``support_tol * max|x|`` is then nonzero in it.
        ``r <= sqrt(G)``, so the stop never comes later than one on the
        one-sided bound ``sqrt(G)``.  ``report.extra["support_radius"]``
        holds ``r`` at such a stop.  A caller that reads only that support
        passes it; ``None`` tests no such stop.

    Returns
    -------
    ProxResult
        Solution, run report, and the final scaled duals.  Non-convergence
        within ``max_iters`` is reported as termination reason
        ``"max-iterations"``, not raised.  A center whose squared norm
        overflows raises ``ConfigError``, as does a weight that overflows
        ``rho0`` or the objective or dual value at a checked iteration.
    """
    if support_tol is not None:
        check_positive(support_tol, "support_tol")
    v = np.asarray(v, dtype=float)
    if v.shape != (cliques.shape.height, cliques.shape.width):
        raise ShapeError(f"prox center shape {v.shape} does not match clique grid")
    check_finite(v, "prox center")
    t0 = time.perf_counter()

    if cfg.lam == 0.0:
        report = SolverReport([], [], "converged", iterations=0,
                              wall_clock=time.perf_counter() - t0)
        return ProxResult(v.copy(), report)

    n = cliques.shape.n
    s = cliques.n_subsets
    side = cliques.side
    shape = (cliques.shape.height, cliques.shape.width)
    vflat = v.ravel()
    v_sq = float(vflat @ vflat)
    if not np.isfinite(v_sq):
        # finite data whose squares overflow: the gap test would read inf <= inf
        raise ConfigError("the prox center's squared norm is not finite")
    peak = float(np.abs(vflat).max())
    rho = 1.0 + RHO_START_WEIGHT * cfg.lam / peak if peak > 0 else 1.0
    if not np.isfinite(rho):
        raise ConfigError(f"lam {cfg.lam:g} overflows the starting penalty at max|v| {peak:g}")
    certify = cfg.tol_abs > 0 or cfg.tol_rel > 0
    if certify and peak > 0 and cfg.lam * cfg.lam >= 4.0 * v_sq:
        # x* = 0 with gap 0 (module docstring)
        report = SolverReport([], [], "converged", iterations=0,
                              wall_clock=time.perf_counter() - t0,
                              extra={"rho": rho, "rho_changes": 0})
        return ProxResult(np.zeros(shape), report, u=_screened_duals(v, side, rho))

    alpha = RELAXATION
    stack = _TileStack(cliques)
    r, scale = stack.r, stack.scale
    # the carried dual r = (U - (1 - alpha) Z) / alpha, with U = 0 and Z = v
    # at the start, makes the relaxed z-update point
    # w = alpha*x + (1 - alpha) Z - U = alpha * (x - r)
    np.multiply(vflat, (alpha - 1.0) / alpha, out=r)
    rbar = r[0].copy()  # mean(r)
    x = vflat.copy()
    work = np.empty(n)

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    zbar = x.copy()
    ubar = np.zeros(n)
    gap_floor = cfg.tol_abs * v_sq
    # per unit of the magnitudes summed, a bound on the computed gap's
    # rounding error, which the support stop adds to the gap
    roundoff = n * np.finfo(float).eps
    # residuals below this, in data units, are rounding error: in converged
    # solves of up to 19x19 they settled at up to 1.5*s*eps*sqrt(s*n)*max|v|
    balance_floor = 1024.0 * s * np.finfo(float).eps * np.sqrt(s * n) * peak
    next_check = BALANCE_FIRST
    rho_changes = 0
    stride = GAP_STRIDE

    with np.errstate(divide="ignore"):
        for k in range(1, cfg.max_iters + 1):
            tau = cfg.lam / rho
            rs = rho * s
            c = rs / (2.0 + rs)
            cv = 2.0 / (2.0 + rs)
            # x = (2v + rs*(zbar + ubar)) / (2 + rs)
            np.add(zbar, ubar, out=x)
            x *= c
            # cv*v is formed in the scratch vector each time rather than kept:
            # one n-vector fewer
            x += np.multiply(vflat, cv, out=work)
            balance = k == next_check
            checked = balance or (k - 1) % stride == 0 or k == cfg.max_iters

            np.subtract(x, r, out=r)  # q = w / alpha
            # Z = shrink(alpha*q) scales each tile of alpha*q by
            # c = max(1 - tau/(alpha*||q_tile||), 0), so r = Z - q is
            # (alpha*c - 1) q on the tiles and (alpha - 1) q off them: r times
            # alpha - 1, each tile times g = (alpha*c - 1)/(alpha - 1)
            # = max(1 - tau/((alpha - 1)||q_tile||), -1/(alpha - 1)); an
            # all-zero tile has tau/0 = inf and c = 0
            stack.norms()
            np.divide(tau / (alpha - 1.0), scale, out=scale)
            np.subtract(1.0, scale, out=scale)
            np.maximum(scale, -1.0 / (alpha - 1.0), out=scale)
            if checked:
                # g = 0 would lose the q that a rescale or U reads
                scale[scale == 0.0] = np.finfo(float).eps
            if balance:
                primal_sq = stack.primal_sq(x, alpha, work)  # rp^2 = ||Z - 1 x^T||_F^2
            np.subtract(x, rbar, out=work)  # mean(q), with the previous mean(r)
            r *= alpha - 1.0
            stack.scale_tiles()
            np.add.reduce(r, axis=0, out=rbar)  # r.sum without its Python overhead
            rbar /= s
            # zbar = mean(Z) = mean(r) + mean(q); ubar = mean(Z - w) = zbar - alpha*mean(q)
            if balance:
                zbar -= rbar
                zbar -= work
                zbar_step = np.sqrt(s) * float(np.sqrt(zbar @ zbar))  # rd / rho
            np.add(rbar, work, out=zbar)
            work *= alpha
            np.subtract(zbar, work, out=ubar)
            if not checked:
                continue

            # P = ||x - v||^2 + lam * J(x), both through the scratch vector,
            # so the clique norms add only their window sum's row and
            # column passes and result to the solve's state
            np.subtract(x, vflat, out=work)
            primal = float(work @ work)
            np.multiply(x, x, out=work)
            primal += cfg.lam * float(smoothed_clique_norms(work.reshape(shape), side, 0.0).sum())
            # D = <g, v> - ||g||^2/4 at the feasible dual point g = -rho*s*ubar
            dual_lin = -rs * float(ubar @ vflat)
            dual_quad = 0.25 * rs * rs * float(ubar @ ubar)
            dual = dual_lin - dual_quad
            gap = primal - dual
            if not np.isfinite(gap):
                # a weight far above the data's scale overflowed P or D
                raise ConfigError(f"lam {cfg.lam:g} overflows the prox objective "
                                  "or its dual value")
            objective_trace.append(primal)
            residual_trace.append(gap)
            if certify and gap <= cfg.tol_rel * primal + gap_floor:
                reason = "converged"
            elif support_tol is not None:
                # the radius from both sides of the gap (module docstring),
                # with xt - x = v + (rs/2)*ubar - x in the scratch vector
                np.multiply(ubar, 0.5 * rs, out=work)
                work += vflat
                work -= x
                radius = _support_radius(
                    float(np.sqrt(work @ work)),
                    gap + roundoff * (primal + abs(dual_lin) + dual_quad))
                if radius <= support_tol * float(np.abs(x).max()):
                    reason = "support-certified"
            final = reason != "max-iterations" or k == cfg.max_iters

            f = 1.0  # rho_old / rho_new
            if balance and reason == "max-iterations":
                next_check *= 2
                primal_res = np.sqrt(primal_sq)
                dual_res = rho * zbar_step
                if max(primal_res, zbar_step) > balance_floor:  # not rounding error
                    if primal_res > BALANCE_RATIO * dual_res:
                        f = 1.0 / BALANCE_FACTOR
                    elif dual_res > BALANCE_RATIO * primal_res:
                        f = BALANCE_FACTOR
            if f != 1.0:
                # U becomes f*U, so -rho*U stays put
                rho /= f
                rho_changes += 1
                ubar *= f
            if final or f != 1.0:
                # on the tiles U = f*alpha(c - 1)/(alpha*c - 1) r, which is
                # f(1 - 1/g) r, and with Z kept the rescaled r is
                # (f + (f - 1)(1 - alpha)c/(alpha*c - 1)) r, which is
                # (f + alpha - 1 + (1 - f)/g) r / alpha; off the tiles U = 0
                # and r stays
                top, add = (-f, f) if final else ((1.0 - f) / alpha, (f + alpha - 1.0) / alpha)
                np.divide(top, scale, out=scale)
                scale += add
                stack.scale_tiles()
            if final:
                stack.clear_off_tiles()
                break
            if f != 1.0:
                np.add.reduce(r, axis=0, out=rbar)
                rbar /= s

    extra = {"rho": rho, "rho_changes": rho_changes}
    if reason == "support-certified":
        extra["support_radius"] = radius
    report = SolverReport(objective_trace, residual_trace, reason, iterations=k,
                          wall_clock=time.perf_counter() - t0, extra=extra)
    return ProxResult(x.reshape(shape), report, u=r)
