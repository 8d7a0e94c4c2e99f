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
(:attr:`blocksparse.grids.CliqueSystem.tiles`).  The copies ``Z`` are never
held whole.  A pass buffer holds the ``R*side`` copies of ``R`` consecutive
copy rows ``a0 <= a < a0 + R`` row-major, followed by a zero tail of
``(side-1)*(W+1)`` entries, and one strided view per pass covers the tiles of
its copies: its shape is ``(R, side, H//side, side, (W//side)*side)``, its
element strides are ``(side*n + W, n + 1, side*W, W, 1)`` and it starts at
entry ``a0*W``, so tile ``(p, q)`` of copy ``(a, b)`` is
``view[a - a0, b, p, :, q*side:(q+1)*side]``.  The base of copy ``(a, b)`` is
``((a - a0)*side + b)*n + a*W + b``, linear in both ``a`` and ``b``.  The view
never aliases itself: within one copy each tile row covers at most ``W``
consecutive entries, and the copies' address ranges are ordered.  Its shape
is the same for every copy, so where a subset has one tile row or column
fewer (``nh = (H - a)//side``, ``nw = (W - b)//side``) the view's last one
spills into the next copy or the tail; those spill tiles are read and never
written.

The z-update of a pass sets its copies to their input ``w`` and computes the
norms of their tiles, one copy row ``a`` at a time: an ``einsum`` sums the
squares over the view's tile rows, and one product with ones sums those over
each tile's columns.  The scales ``max(1 - tau/||tile||, 0)``,
``tau = lam/rho``, are computed over the pass's rows of the
``(side, side, H//side, W//side)`` array of scales, which is kept for every
copy in an array of its own.  The scaling in place then runs copy by copy,
each through ``view[a - a0, b, :nh, :, :nw*side]``, which holds only the
copy's own tiles, times the scales of its copy row repeated along the
columns.  It cannot run through a view that spans several copies: NumPy's
ufunc overlap check cannot prove such an output free of self-overlap, and it
would copy the whole buffer on every call.  Pixels outside the tiles (a
border narrower than ``side``) keep ``w``.  No index array is read.

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
u-update, whose terms in ``x`` and ``zbar_old`` are subtracted before the
z-update.  The loop carries ``r = (U - (1 - alpha) Z) / alpha`` in place of
``U``: then ``w = xhat - U = alpha*(x - r)`` and the new
``alpha*r = U - (1 - alpha) Z = Z - w``, so besides the tile scaling and
the mean an iteration makes three passes over the copies (``r = x - r``,
``Z = alpha*r``, ``r = Z - r``), as many as plain ADMM's ``Z = x - U``,
``U += Z``, ``U -= x``.  ``U`` is formed once, at the end.

**Passes and memory.**  ``r`` holds the whole iteration state, since ``Z``
is a function of ``x`` and ``r``, and it is the solve's one ``s x n`` stack.
An iteration runs over the copy rows in passes of
``R = max(1, min(side, PASS_ENTRIES // (side*n)))`` rows, each through the
pass buffer: ``r = x - r``, ``Z = alpha*r``, the z-update, the sum into
``zbar`` and ``r = Z - r`` for the pass's copies.  ``zbar`` is an
``np.add.reduce`` over the first pass's copies and then one addition per
copy, the left-to-right order of a reduction over the whole stack.  At a
checked iteration (below) the write ``r = Z - r`` is deferred: pass A leaves
``q = w/alpha`` in ``r`` and keeps the tile scales, the gap is tested, and
pass B rebuilds ``Z = scale_tiles(alpha*q)`` bit for bit from the kept
scales (the last pass's ``Z`` is still in the buffer), sets ``r = Z - q``,
applies a change of ``rho`` and, on the last iteration, forms
``U = alpha*r + (1 - alpha) Z`` in the place of ``r``.  The deferral is
needed because ``(U, Z)`` cannot be recovered from ``r`` alone: a tile with
scale ``c`` has ``r = (alpha*c - 1)*q``, which vanishes at ``c = 1/alpha``.
A balancing check's primal residual is summed in pass A for all passes but
the last, in the buffer the next pass overwrites, and after the gap test
for the last.  So beyond its input a solve holds the ``s*n`` entries of
``r``, the ``R*side*n`` of the buffer and its tail, and ``O(n)`` working
vectors, and its iterates are bit for bit those of a solve that holds
``Z`` and ``r`` whole.

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
error of a converged solve, not an imbalance, and ``rho`` stays.  A change by ``f =
rho_old/rho_new`` scales the scaled duals to ``f*U``, which in the loop's
variables is ``r = f*r + (f - 1)(1 - alpha)/alpha * Z``, a copy at a time,
and ``ubar = f*ubar``; ``tau``, ``s*rho`` and the x-update's weights follow
the new ``rho``.  The doubling schedule allows at most
``floor(log2(max_iters/BALANCE_FIRST)) + 1`` changes, so ``rho`` is fixed
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
``x`` and ``ubar`` and writes only the scratch vector, and the deferred
write of ``r`` gives the values of the undeferred one, so the iterates are
those of a solve that checks every iteration.  The solve stops at the first checked
iteration whose gap passes, never before the first iteration whose gap
would pass, and every stop is decided by the gap computed exactly at the
iteration it ends on.  The gap is not monotone (below), so a stop can come
more than ``GAP_STRIDE - 1`` iterations late: in CoLaMP's calls on the
cs-colamp benchmark's problems (seed 0) 30 of 55 calls stopped 5 to 11
iterations later than a solve checking every iteration; 25 of them passed
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
``sqrt(P - D + e) <= support_tol * max|x|``.  The same bound gives
``||x - x*||_inf <= sqrt(P - D)``, so every pixel above
``support_tol * max|x|`` is then certainly nonzero in ``x*``; gap-safe
screening rests on the same bound (Ndiaye, Fercoq, Gramfort & Salmon 2017,
*Gap Safe screening rules for sparsity enforcing penalties*).  The allowance
``e = n*eps*(P + |<g, v>| + ||g||^2/4)`` bounds the rounding error of the
computed gap: where ``x* = 0`` and ``x`` is solver residue, roundoff can make
the computed ``P - D`` zero, and without ``e`` that residue would pass as
support (``v`` one spike, ``lam`` at its shrink threshold).  Whichever of
the two stops comes first ends the solve.  ``objective_trace`` holds ``P``
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
# On the cs-colamp benchmark's problems (seed 0) CoLaMP's prox calls took
# 14,252 iterations checked at every one and 14,537 at stride 4, and their
# time per iteration fell from 0.136 to 0.108 ms (traced, one BLAS thread).
# In an earlier probe, on cs-colamp seeds 0-2, strides 2, 4 and 8 took
# 42,532, 43,140 and 43,372 iterations against 42,477, and recovered the
# same problems.
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


# The copies run through the pass buffer in passes of whole copy rows, of at
# most PASS_ENTRIES entries and at least one row (module docstring).  Each
# further pass adds Python calls, and at a checked iteration every pass but
# the last rebuilds its copies, so small problems run in one pass: CoLaMP's
# 32x32 side-2 calls (4,096 entries), the memory benchmark's prox (25,600)
# and 48x48 at side 6 (82,944).  With one copy row per pass everywhere the
# cs-colamp benchmark's solves took 17% longer (median of 16 interleaved
# in-process rounds, 1 faster; 2-core Xeon, 2 MiB L2 per core, one BLAS
# thread).  prox-denoise's 128x128 runs side 4 in 2 passes and side 8 in 8;
# at 2**18 (2 MiB passes) they took 3% longer (3 of 16 rounds faster).
PASS_ENTRIES = 2**17


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


@dataclass
class _Pass:
    """One pass of the copies ``first <= i < first + len(z)``.

    ``z`` holds them at the front of the pass buffer and ``view`` is their
    tile view of the module docstring.  ``scale`` is their copy rows of the
    tile scales, and ``row_scales`` the same rows flat.  ``copies`` holds,
    per copy row, each copy's own tiles and where their scales sit in the
    row's scales repeated along the columns.
    """

    first: int
    z: np.ndarray
    view: np.ndarray
    scale: np.ndarray
    row_scales: list
    copies: list


class _TileStack:
    """A pass buffer for ``rows`` copy rows of the consensus copies, its
    passes over all ``side`` copy rows, and the tile scales of every copy.

    ``buffer`` holds ``rows * side`` copies followed by the zero tail that
    the tile views spill into; :attr:`passes` are :class:`_Pass` entries, in
    order, whose ``z`` share the front of the buffer.  :attr:`scale` is the
    ``(side, side, H//side, W//side)`` array of tile scales, which a
    z-update writes and :meth:`scale_tiles` reads.
    """

    def __init__(self, cliques: CliqueSystem, rows: int):
        h, w, side = cliques.shape.height, cliques.shape.width, cliques.side
        n = h * w
        nh, nw = h // side, w // side
        self.buffer = np.zeros(rows * side * n + (side - 1) * (w + 1))
        self.scale = np.empty((side, side, nh, nw))
        self._ones = np.ones(side)
        step = self.buffer.itemsize
        strides = (step * (side * n + w), step * (n + 1), step * side * w, step * w, step)
        self.passes = []
        for a0 in range(0, side, rows):
            count = min(rows, side - a0)
            view = as_strided(self.buffer[a0 * w:], shape=(count, side, nh, side, nw * side),
                              strides=strides)
            scale = self.scale[a0:a0 + count]
            copies = [[] for _ in range(count)]
            for tile in cliques.tiles:
                if tile is None or not a0 <= tile[0] < a0 + count:
                    continue
                a, b, th, tw = tile
                copies[a - a0].append((view[a - a0, b, :th, :, :tw * side],
                                       (b, slice(th), None, slice(tw * side))))
            self.passes.append(_Pass(a0 * side, self.buffer[:count * side * n].reshape(-1, n),
                                     view, scale, [row.reshape(-1) for row in scale], copies))

    def shrink(self, p: _Pass, tau: float) -> None:
        """Group-shrink every clique tile of the copies of pass ``p`` in
        place: scale it by ``max(1 - tau/||tile||, 0)``, kept in
        :attr:`scale`.  An all-zero tile has norm 0 and ``tau/0 = inf`` gives
        it scale 0, so the caller ignores division by zero."""
        scale, ones = p.scale, self._ones
        for rows, row_scales in zip(p.view, p.row_scales):
            # one copy row at a time keeps the squared row sums to at most n
            # entries; their sums over each tile's columns are one product
            # with ones, where a sum over the tiny last axis is several times
            # slower
            np.matmul(np.einsum("bprk,bprk->bpk", rows, rows).reshape(-1, len(ones)),
                      ones, out=row_scales)
        np.sqrt(scale, out=scale)
        np.divide(tau, scale, out=scale)
        np.subtract(1.0, scale, out=scale)
        np.maximum(scale, 0.0, out=scale)
        self.scale_tiles(p)

    def scale_tiles(self, p: _Pass) -> None:
        """Multiply each clique tile of each copy of pass ``p`` in place by
        its entry of :attr:`scale`; no other entry of the buffer changes."""
        side = len(self._ones)
        for row_scales, copies in zip(p.scale, p.copies):
            # repeated, the factors run along whole tile rows; broadcast over
            # each tile's side columns instead, NumPy loops over runs of side
            # entries, and the product took twice as long or more
            factors = row_scales.repeat(side, axis=-1)
            for tile, cut in copies:
                tile *= factors[cut]
            del factors  # one row's factors alive at a time


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


def prox_block_norm(v, cliques: CliqueSystem, cfg: ProxConfig, *,
                    support_tol: Optional[float] = None) -> ProxResult:
    """Consensus-ADMM prox of the overlapping-block penalty.

    Every solve starts from ``v`` (``x = v``, copies ``v``, duals 0) at the
    penalty ``rho0`` of the module docstring, so its result depends on
    ``(v, cfg)`` alone.  Beyond its inputs a solve holds the carried duals,
    ``side**2 * N`` entries, plus one pass of the copies, at most
    ``max(PASS_ENTRIES, side*N)`` entries and a tail of
    ``(side - 1)*(W + 1)``, plus ``O(N)`` working vectors.  Where a gap stop
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
        Also stop, with reason ``"support-certified"``, once
        ``sqrt(P - D + e) <= support_tol * max|x|``, ``e`` the gap's rounding
        allowance of the module docstring: every pixel of ``x`` above
        ``support_tol * max|x|`` is then nonzero in the exact prox.  A caller
        that reads only that support passes it; ``None`` tests no such stop.

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
    stack = _TileStack(cliques, max(1, min(side, PASS_ENTRIES // (side * n))))
    x = vflat.copy()
    work = np.empty(n)
    # the carried dual r = (U - (1 - alpha) Z) / alpha, with U = 0 and Z = v
    # at the start, makes the relaxed z-update point
    # w = alpha*x + (1 - alpha) Z - U = alpha * (x - r)
    r = np.empty((s, n))
    np.multiply(vflat, (alpha - 1.0) / alpha, out=r)
    # each pass with its copies' rows of r
    passes = [(p, r[p.first:p.first + len(p.z)]) for p in stack.passes]
    first, last = stack.passes[0], stack.passes[-1]

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

            # ubar += zbar - mean(xhat), with mean(xhat) = alpha*x + (1 - alpha)*zbar_old
            ubar -= np.multiply(x, alpha, out=work)
            if balance:
                np.copyto(work, zbar)  # zbar_{k-1}, for the dual residual
            zbar *= 1.0 - alpha
            ubar -= zbar
            primal_sq = 0.0
            for p, q in passes:
                np.subtract(x, q, out=q)  # w / alpha
                np.multiply(q, alpha, out=p.z)
                stack.shrink(p, tau)
                if p is first:
                    np.add.reduce(p.z, axis=0, out=zbar)  # z.sum without its Python overhead
                else:
                    for zi in p.z:
                        zbar += zi
                if not checked:
                    np.subtract(p.z, q, out=q)  # alpha*r = U - (1 - alpha) Z = Z - w
                elif balance and p is not last:
                    # rp = ||Z - 1 x^T||_F, a copy at a time, in the copies
                    # that the next pass overwrites
                    for zi in p.z:
                        np.subtract(zi, x, out=zi)
                        primal_sq += float(zi @ zi)
            zbar /= s
            ubar += zbar
            if balance:
                work -= zbar
                zbar_step = np.sqrt(s) * float(np.sqrt(work @ work))  # rd / rho
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
            elif support_tol is not None and (
                    gap + roundoff * (primal + abs(dual_lin) + dual_quad)
                    <= (support_tol * float(np.abs(x).max())) ** 2):
                reason = "support-certified"
            final = reason != "max-iterations" or k == cfg.max_iters

            f = None  # rho_old / rho_new, when rho changes
            if balance and reason == "max-iterations":
                # residual balancing: rp = ||Z - 1 x^T||_F, the last pass's
                # copies still in the buffer
                next_check *= 2
                for zi in last.z:
                    np.subtract(zi, x, out=work)
                    primal_sq += float(work @ work)
                primal_res = np.sqrt(primal_sq)
                dual_res = rho * zbar_step
                if max(primal_res, zbar_step) > balance_floor:  # not rounding error
                    if primal_res > BALANCE_RATIO * dual_res:
                        f = 1.0 / BALANCE_FACTOR
                    elif dual_res > BALANCE_RATIO * primal_res:
                        f = BALANCE_FACTOR
            if f is not None:
                # U becomes f*U, so -rho*U stays put; in the carried r that is
                # r = f*r + (f - 1)(1 - alpha)/alpha * Z, a copy at a time
                rho /= f
                rho_changes += 1
                ubar *= f
                grow = (f - 1.0) * (1.0 - alpha) / alpha
            # the last pass first, while its Z is in the buffer
            for p, q in reversed(passes):
                if p is not last:  # rebuilt: later passes overwrote its Z
                    np.multiply(q, alpha, out=p.z)
                    stack.scale_tiles(p)
                np.subtract(p.z, q, out=q)  # alpha*r = U - (1 - alpha) Z = Z - w
                if f is not None:
                    for ri, zi in zip(q, p.z):
                        ri *= f
                        ri += np.multiply(zi, grow, out=work)
                if final:
                    # U = alpha*r + (1 - alpha) Z, in the place of r
                    for ui, zi in zip(q, p.z):
                        ui *= alpha
                        ui += np.multiply(zi, 1.0 - alpha, out=work)
            if reason != "max-iterations":
                break

    report = SolverReport(objective_trace, residual_trace, reason, iterations=k,
                          wall_clock=time.perf_counter() - t0,
                          extra={"rho": rho, "rho_changes": rho_changes})
    return ProxResult(x.reshape(shape), report, u=r)
