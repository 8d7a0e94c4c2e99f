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
in place runs copy by copy, each through the grid rows its tiles span, rows
``[a, a + nh*side)`` of its row of ``r`` as an ``H x W`` grid, a contiguous
block: the block, seen as ``(nh, side, W)``, is multiplied by one row of
``W`` factors per tile row, each tile's scale repeated along its columns and
1 in the columns ``[0, b)`` and ``[b + nw*side, W)`` beside the tiles.  It
cannot run through the view, which spans several copies: NumPy's ufunc
overlap check cannot prove such an output free of self-overlap, and it would
copy the whole stack on every call.  Pixels outside the tiles (a border
narrower than ``side``) are not scaled.  No index array is read.

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
``Z = r + q`` and ``U = r + (1 - alpha) q``, the x-update reads
``zbar + ubar = 2 mean(r) + (2 - alpha) mean(q)``, with
``mean(q) = x - mean(r)`` of the previous iteration: one reduction of the
stack per iteration, and ``mean(r)`` and ``mean(q)`` are kept as n-vectors.

``U`` is recovered from ``r`` and the scales where a change of the penalty
or the end needs it (:class:`_TileStack`): on a tile ``q = r/((alpha - 1) g)``,
so ``U = r + (1 - alpha) q = (1 - 1/g) r``; off the tiles ``g`` counts as 1
and ``U = 0``.  A tile with ``alpha*c = 1`` has ``r = 0`` and has lost ``q``,
so every iteration sets each ``g`` that rounds to exactly 0 to ``eps``:
``r = (alpha - 1)*eps*q`` there, a move of at most ``eps*|q|``.  ``U`` is
formed once, at the end, in the place of ``r``.  So beyond its input a solve
holds the ``s*n`` entries of ``r`` and the tail, one
``(side, side, H//side, W//side)`` array of tile scales (about ``n``
entries) and three working n-vectors: ``x``, ``mean(r)`` and a scratch
vector, which carries ``mean(q)`` from the end of one iteration to the
x-update of the next.  An estimate of the penalty (below) keeps two
n-vectors from two iterations before it and allocates three more, a checked
iteration allocates one, and the scaling of the tiles ``n/side`` factors.

**Adaptive penalty.**  Every solve starts at ``x = v``, ``z^i = v``,
``u^i = 0`` and ``rho0 = 1 + RHO_START_WEIGHT*lam/max|v|`` (1 when ``v = 0``),
so its path depends on its input ``(v, lam)`` alone.  At every
``SPECTRAL_STRIDE``-th iteration ``k``, after the stop tests, ``rho`` is set
by spectral penalty selection (Xu, Figueiredo & Goldstein 2017, *Adaptive
ADMM with spectral penalty parameter selection*; Xu, Figueiredo, Yuan, Studer
& Goldstein 2017, *Adaptive relaxed ADMM*).  For the constraint
``1 x^T - Z = 0`` the multiplier is ``lam_k = rho*U_k``, and ``-lam_k`` is a
subgradient of the penalty at ``Z_k``, so ``dZ = Z_k - Z_{k-2}`` and
``dlam = lam_k - lam_{k-2}`` sample its curvature.  With ``dG = -dZ`` the
steepest-descent step ``||dlam||^2/<dG, dlam>`` and the minimum-gradient
step ``<dG, dlam>/||dG||^2`` give the hybrid ``beta``: the latter where it
exceeds half the former, else the former less half the latter.  ``rho``
moves to the power of two nearest ``beta``, as a multiple of ``rho``, when
the correlation ``<dG, dlam>/(||dG|| ||dlam||)`` exceeds
``SPECTRAL_MIN_CORRELATION`` and neither ``||dZ||`` nor ``||dU||`` is below
``SPECTRAL_NOISE*sqrt(s)*||v||``, the rounding noise of forming them.
Only this ``beta`` of the two dual curvatures is estimated.  The other,
``alpha``, would come from the x-update's multipliers
``lamhat_k = rho*(U_{k-1} + Z_{k-1} - 1 x_k^T)``; the x-update makes
``sum_i lamhat_k^i = 2(x_k - v)``, so its minimum-gradient estimate is
``2/s`` on every solve, and its steepest-descent estimate, which would need
``U + Z`` of iterations ``k - 1`` and ``k - 3`` as well, is not taken.

The products are sampled on copy 0 alone, the subset ``(0, 0)``, which is
never empty and has no fewer tiles than any other copy.  Two iterations
before each estimate the solve forms its ``q = x - r`` before the stack's
pass ``r = x - r`` and, after the tiles are scaled, keeps
``Z_{k-2} = r + q`` and ``U_{k-2} = r + (1 - alpha) q``; at the estimate
iteration ``k`` it forms ``Z_k`` and ``U_k`` the same way.  ``rho`` changes
only at estimates and ``SPECTRAL_STRIDE >= 3``, so both ``U`` are at one
penalty.  Copy 0's ``||Z_k - x_k||^2``, for the square of the primal
residual ``rp = ||Z_k - 1 x_k^T||_F``, and its ``||dZ||^2``, ``<dZ, dU>``
and ``||dU||^2`` are multiplied by ``s``, so that the noise test, the
rounding floor and balancing below compare quantities at the whole stack's
scale.  The copies are translates of one another, so one of them
estimates the same curvature, as subsampled curvature pairs do in
stochastic quasi-Newton methods (Byrd, Hansen, Nocedal & Singer 2016, *A
stochastic quasi-Newton method for large-scale optimization*).  In prox
iterations on the benchmark's prox-denoise seeds 0-7 and in CoLaMP's calls
on cs-colamp seeds 0-3, copy 0 takes 1,104 and 8,614, where copy row 0,
the ``side`` copies ``(0, b)`` recovered from ``r`` by dividing by the tile
scales of the last three iterations, took 1,016 and 7,550 at about a
quarter more time per iteration; on seeds 10-17 and 10-13, which chose
nothing, 1,168 and 8,484 against 980 and 7,792.

Where the correlation test fails, ``rho`` falls back on residual balancing
(Boyd et al. 2011, section 3.4.1) against
``rd = rho*sqrt(s)*||zbar_k - zbar_{k-1}||``, the step of the
mean spread over the ``s`` copies in the stack space: it gives a verdict of
a factor 2 up where ``rp > BALANCE_RATIO*rd``, down where
``rd > BALANCE_RATIO*rp``, and none otherwise, and the verdict is taken only
where the last estimate gave the same one, since balancing at every estimate
made ``rho`` oscillate.  Where both ``rp`` and ``rd/rho`` are at most
``1024*s*eps*sqrt(s*n)*max|v|`` they are rounding error of a converged
solve, and ``rho`` stays.

Every change is a power of two, at most ``1 + SPECTRAL_SAFEGUARD/k**2``
(Xu et al.'s safeguard), so none comes after iteration
``sqrt(SPECTRAL_SAFEGUARD)``, and ``rho`` stays within ``RHO_OCTAVES`` powers
of two of ``rho0``.  So the changes are finitely many and bounded, ``rho`` is
fixed after the last one, and the fixed-penalty convergence theory applies
from there (He, Yang & Wang 2000, *Alternating direction method with
self-adaptive penalty parameters for monotone variational inequalities*).
A change by ``f = rho_old/rho_new`` scales the scaled duals to ``f*U`` and
keeps ``Z``, which in the loop's variables multiplies each tile of ``r`` by
``f + (f - 1)(1 - alpha)c/(alpha*c - 1)``, leaves ``r`` off the tiles, where
``U = 0``, and takes ``mean(r)`` anew, with ``mean(q) = zbar - mean(r)``;
``tau``, ``s*rho`` and the x-update's weights follow the new ``rho``.  The
estimates, both residuals and their floors scale with the data, ``rho0``
depends only on ``lam/max|v|`` and a change by a power of two is exact, so
``(c*v, c*lam)`` follows ``c`` times the path of ``(v, lam)`` and makes the
same changes.  The multiplier ``-rho*U`` is unchanged by the rescale, so the
certificate below holds at every iteration with the ``rho`` its z-update
used, and the ``rho`` reported is the final one, to be paired with the final
``u``.

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
``GAP_STRIDE``-th after it (``k = 1 mod GAP_STRIDE``) and the last
iteration ``max_iters`` allows.  ``P`` is evaluated right after the
x-update, in the scratch vector, and ``D`` from ``ubar`` formed in one
allocated n-vector, so the iterates are those of a solve that checks every
iteration.  The solve stops at the first checked
iteration whose gap passes, never before the first iteration whose gap
would pass, and every stop is decided by the gap computed exactly at the
iteration it ends on.  The gap is not monotone (below), so a stop can come
more than ``GAP_STRIDE - 1`` iterations late: in CoLaMP's calls on the
cs-colamp benchmark's problems (seed 0) 40 of 55 calls stopped 1 to 9
iterations later than a solve checking every iteration, and 7 of them
passed their stop test between two checked iterations and failed it at the
next one.

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
is ``sqrt(G)``.  At a checked iteration one allocated n-vector holds
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
(seed 0) CoLaMP's prox calls took 2,487 iterations against the one-sided
bound's 2,935 (10,746 against 14,537 with residual balancing at iterations
10, 20, 40, ...).  The allowance ``e = n*eps*(P + |<g, v>| + ||g||^2/4)``
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
# iteration after it and the cap (module docstring).  Strides 1, 2, 4 and 8
# took 1,065, 1,078, 1,104 and 1,152 prox iterations on the benchmark's
# prox-denoise seeds 0-7 and 8,284, 8,450, 8,614 and 8,770 in CoLaMP's calls
# on cs-colamp seeds 0-3, with the same recoveries; at the 23% of an
# iteration that a check costs at CoLaMP's size (module docstring), stride 4
# is the cheapest of the four.
GAP_STRIDE = 4

# Starting penalty rho0 = 1 + RHO_START_WEIGHT*lam/max|v| (1 when v = 0), the
# same for (c*v, c*lam) at every c > 0.  Weights 1, 2, 4 and 8 took 1,152,
# 1,104, 1,204 and 1,124 prox iterations on prox-denoise seeds 0-7; 8,686,
# 8,614, 9,242 and 8,802 in CoLaMP's calls on cs-colamp seeds 0-3; and 8,128,
# 7,767, 7,640 and 8,816 on 16 CoLaMP problems at m/K = 3 (the benchmark's
# generators, seeds 0-7, images 0-1), which recovered the same 14 at every
# weight.  2 is the weight checked on the CS sweeps: at seed 0 every row kept
# the support, error, outer iterations and termination it had with the start
# lam + 1.
RHO_START_WEIGHT = 2.0

# Spectral penalty selection (module docstring).  Counts are prox
# iterations on the benchmark's prox-denoise seeds 0-7 and in CoLaMP's calls
# on cs-colamp seeds 0-3, each measured by changing one constant or mechanism
# of the rule as it stands; the rule as it stands takes 1,104 and 8,614.
# Every such run converged or stopped on its support, and recovered the same
# cs-colamp problems.
#
# Every SPECTRAL_STRIDE-th iteration rho is estimated.  Strides 3, 4, 5 and 6
# took 1,104, 1,104, 1,136 and 1,136 and 8,614, 8,394, 9,714 and 10,306
# iterations, and on 16 CoLaMP problems at m/K = 3 (RHO_START_WEIGHT) 7,767,
# 8,763, 8,947 and 10,411, recovering the same 14.  The kept copy 0 needs a
# stride of at least 3 (module docstring).
SPECTRAL_STRIDE = 3
# The estimate counts where the correlation of -dZ and dlam exceeds this.
# 0.05, 0.1, 0.15, 0.2 and 0.25 took 1,244, 1,124, 1,104, 1,084 and 1,284
# and 10,614, 8,902, 8,614, 10,622 and 17,450 iterations.  At seed 0 the
# test passes at 122 of 654 estimates on cs-colamp and 20 of 44 on
# prox-denoise, and the fallback below sets rho at the others.
SPECTRAL_MIN_CORRELATION = 0.15
# A change at iteration k is at most a factor 1 + SPECTRAL_SAFEGUARD/k**2, so
# none comes after iteration 1,000.  1e4, 1e5, 1e6 and 1e10 took 1,100,
# 1,104, 1,104 and 1,104 and 16,026 (4 calls capped), 8,642, 8,614 and 8,618.
SPECTRAL_SAFEGUARD = 1e6
# Steps of Z or U below SPECTRAL_NOISE*sqrt(s)*||v|| count as the rounding
# noise of forming them as r + q and r + (1 - alpha) q.  0, 1e-10 and 1e-8
# took the same counts above, and 1e-6 took 1,104 and 8,562.  Without the
# test the estimate follows rounding: a 2x2 side-2 solve ended at rho 1.38
# where the iterates by definition ended at 1.35e-3, and 1x1 solves at v and
# 3v made 3 and 9 changes of rho.
SPECTRAL_NOISE = 1e-8
# rho stays within RHO_OCTAVES powers of two of rho0.  6, 8, 10, 12 and 16
# and no such range took 1,004, 1,052, 1,104, 1,152, 1,156 and 1,156 and
# 16,778, 9,426, 8,614, 8,874, 8,986 and 9,002 iterations.
RHO_OCTAVES = 10

# Residual balancing, the fallback where the correlation test fails: rho is
# doubled or halved when one residual exceeds BALANCE_RATIO times the other
# at two estimates in a row.  Ratios 1.5, 2, 4 and 10 took 1,076, 1,104,
# 1,152 and 1,188 and 9,054, 8,614, 8,022 and 7,726 iterations in the runs
# above, and 8,023, 7,767, 7,128 and 8,599 on the 16 problems at m/K = 3.
# Taken at every estimate instead, the verdict took 1,048 and 10,062; before
# copy 0 was sampled, it made 19 changes on a 12x13 side-6 solve at lam 0.1
# and reached rho = 1,107, where the computed gap read -4.0e-10 against
# ||v||^2 = 144: the rounding of the dual point grows with rho.  Before the
# spectral rule, Boyd et al.'s n-space dual residual
# rho*s*||zbar_k - zbar_{k-1}|| in place of the stack-space one took 20,224
# iterations in CoLaMP's calls at cs-colamp seed 0, against 17,124.
BALANCE_RATIO = 2.0


@dataclass(frozen=True)
class ProxConfig:
    """Weight and ADMM controls for :func:`prox_block_norm`.

    The ADMM penalty is not a setting: it starts at ``rho0`` of the module
    docstring, from ``lam`` and ``max|v|``, and every ``SPECTRAL_STRIDE``-th
    iteration moves by a power of two to the spectral estimate of the
    penalty's curvature, sampled on consensus copy 0, or, where
    that estimate's correlation test fails, by residual balancing.  Every
    change is at most ``1 + SPECTRAL_SAFEGUARD/k**2`` at iteration ``k`` and
    ``rho`` stays within ``RHO_OCTAVES`` powers of two of ``rho0``, so the
    changes are finitely many and the fixed-penalty convergence theory
    applies after the last.  The final penalty is ``report.extra["rho"]``;
    ``report.extra["rho_spectral"]`` and ``report.extra["rho_fallback"]``
    count the changes each rule made, ``report.extra["rho_changes"]``
    their sum, and ``report.extra["rho_estimates"]`` the estimates taken,
    0 where the solve is screened.  The solve stops at
    the first checked iteration (iteration 1, every ``GAP_STRIDE``-th after
    it and the cap) whose duality gap ``P - D`` of the module docstring is
    at most ``tol_rel*P + tol_abs*||v||^2``: ``P`` is the prox objective
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

    An iteration maps ``r_{j-1}`` to ``q_j = x_j - r_{j-1}`` and then to
    ``r_j = (alpha - 1) g_j q_j``, with ``g_j`` the scale of each tile and 1
    off the tiles, so ``q_j = r_j / ((alpha - 1) g_j)``.  On the whole stack
    :meth:`dual_factors` and :meth:`rescale_factors` turn the scales into
    the factors that take ``r`` to ``U = r + (1 - alpha) q`` and to the
    ``r`` of a new penalty.
    """

    def __init__(self, cliques: CliqueSystem, alpha: float = RELAXATION):
        h, w, side = cliques.shape.height, cliques.shape.width, cliques.side
        n = h * w
        self.side, self.grid, self.alpha = side, (h, w), alpha
        self.buffer = np.zeros(side * side * n + (side - 1) * (w + 1))
        self.r = self.buffer[:side * side * n].reshape(-1, n)
        self.scale = np.empty((side, side, h // side, w // side))
        self._ones = np.ones(side)
        step = self.buffer.itemsize
        self.view = as_strided(self.buffer, shape=(side, side, h // side, side, w // side * side),
                               strides=(step * (side * n + w), step * (n + 1), step * side * w,
                                        step * w, step))
        self.tiles = [tile or (0, 0, 0, 0) for tile in cliques.tiles]

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

    def block(self, vec: np.ndarray, tile: tuple) -> np.ndarray:
        """The grid rows that the tiles of the copy ``tile`` span in the
        n-vector ``vec``: a contiguous ``(nh, side, W)`` view, by tile row,
        row within the tile and column."""
        a, _, th, _ = tile
        return vec.reshape(self.grid)[a:a + th * self.side].reshape(th, self.side, self.grid[1])

    def row_factors(self, tile_factors: np.ndarray, tile: tuple,
                    rows: np.ndarray) -> np.ndarray:
        """The factors of the copy ``tile`` by tile row, written into the
        first ``nh`` rows of the ``(H//side, W)`` array ``rows``: the entry
        of the ``(nh, nw)`` array ``tile_factors`` along each tile's columns
        and 1 beside the tiles.  Returned as ``(nh, 1, W)``, which
        broadcasts over the rows of :meth:`block`."""
        _, b, th, tw = tile
        rows = rows[:th]
        rows[:, :b] = 1.0
        rows[:, b + tw * self.side:] = 1.0
        rows[:, b:b + tw * self.side] = tile_factors.repeat(self.side, axis=-1)
        return rows[:, None, :]

    def scale_tiles(self, factors: Optional[np.ndarray] = None) -> None:
        """Multiply each clique tile of each row of :attr:`r` in place by its
        entry of ``factors`` (default :attr:`scale`); no other entry of the
        buffer changes.  Each copy's :meth:`block` is multiplied by its
        :meth:`row_factors`, 1 beside the tiles, which hold ``n/side``
        entries.  A product over the tiles alone, a strided view broadcast
        over the tile rows, took NumPy ufunc buffers 2.5 to 3 times as large
        (1.4 n at 128x128, sides 4 and 8, and 2.8 n at 32x32, side 2), and
        the call took 1.3 to 1.4 times as long at 128x128."""
        factors = self.scale if factors is None else factors
        rows = np.empty((self.grid[0] // self.side, self.grid[1]))
        for ri, tile in zip(self.r, self.tiles):
            a, b, th, tw = tile
            block = self.block(ri, tile)
            block *= self.row_factors(factors[a, b, :th, :tw], tile, rows)

    def dual_factors(self, g: np.ndarray, f: float) -> np.ndarray:
        """In place, the scales ``g`` become the factors that take each tile
        of ``r`` to ``f*U = f*(r + (1 - alpha) q)``, which is ``f(1 - 1/g) r``;
        off the tiles ``U = 0``."""
        np.divide(-f, g, out=g)
        g += f
        return g

    def rescale_factors(self, g: np.ndarray, f: float) -> np.ndarray:
        """In place, the scales ``g`` become the factors that take each tile
        of ``r`` to the ``r`` of ``(f*U, Z)``, the duals rescaled to a penalty
        ``rho/f``: ``(f*U - (1 - alpha) Z)/alpha`` with ``U`` and ``Z``
        recovered from ``r`` is ``(f + alpha - 1 + (1 - f)/g) r / alpha``.
        Off the tiles ``U = 0`` and ``r`` stays."""
        alpha = self.alpha
        np.divide((1.0 - f) / alpha, g, out=g)
        g += (f + alpha - 1.0) / alpha
        return g

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


def _sampled_products(old: tuple, new: tuple, x: np.ndarray, s: int) -> tuple:
    """``s`` times copy 0's ``(||Z_k - x_k||^2, ||dZ||^2, <dZ, dU>,
    ||dU||^2)``, ``dZ = Z_k - Z_{k-2}`` and ``dU = U_k - U_{k-2}``, from
    ``old = (Z_{k-2}, U_{k-2})`` and ``new = (Z_k, U_k)``, both ``U`` at the
    current penalty: the estimate of their sums over every copy (module
    docstring).  ``old`` and ``Z_k`` are overwritten."""
    (dz, du), (z, u) = old, new
    dz -= z  # -dZ
    du -= u  # -dU
    z -= x
    return s * float(z @ z), s * float(dz @ dz), s * float(dz @ du), s * float(du @ du)


class _PenaltyRule:
    """The penalty's changes at the estimate iterations (module docstring),
    counted by the rule that made them.

    ``rho`` stays ``rho0 * 2**octave`` for an integer ``octave`` with
    ``|octave| <= RHO_OCTAVES``.  Residuals at most ``floor`` are rounding
    error, and steps of ``Z`` or ``U`` at most ``noise`` the rounding noise
    of forming them.
    """

    def __init__(self, floor: float, noise: float):
        self.floor, self.noise = floor, noise
        self.octave = 0
        self.pending = 0  # the fallback's last verdict, in octaves, not yet taken
        self.changes = {"rho_spectral": 0, "rho_fallback": 0}
        self.estimates = 0  # calls of step

    def step(self, k: int, rho: float, primal_res: float, zbar_step: float,
             dz_sq: float, dzu: float, du_sq: float) -> float:
        """``f = rho_old/rho_new`` at estimate iteration ``k``, from the
        primal residual, ``rd/rho`` and the products of
        :func:`_sampled_products`."""
        self.estimates += 1
        if max(primal_res, zbar_step) <= self.floor:  # both are rounding error
            self.pending = 0
            return 1.0
        dz, du = math.sqrt(dz_sq), math.sqrt(du_sq)
        if min(dz, du) > self.noise and -dzu > SPECTRAL_MIN_CORRELATION * dz * du:
            rule, self.pending = "rho_spectral", 0
            steepest = -rho * du_sq / dzu
            least = -rho * dzu / dz_sq
            beta = least if 2.0 * least > steepest else steepest - 0.5 * least
            up = round(math.log2(min(max(beta / rho, 2.0 ** -64), 2.0 ** 64)))
        else:
            # residual balancing, taken where two verdicts in a row agree
            rule, dual_res = "rho_fallback", rho * zbar_step
            verdict = (int(primal_res > BALANCE_RATIO * dual_res)
                       - int(dual_res > BALANCE_RATIO * primal_res))
            up, self.pending = (verdict, 0) if verdict == self.pending else (0, verdict)
        # at most a factor 1 + SPECTRAL_SAFEGUARD/k**2, within the octaves
        steps = int(math.log2(1.0 + SPECTRAL_SAFEGUARD / (k * k)))
        up = max(-steps, min(steps, up))
        up = max(-RHO_OCTAVES, min(RHO_OCTAVES, self.octave + up)) - self.octave
        if not up:
            return 1.0
        self.octave += up
        self.changes[rule] += 1
        return 2.0 ** -up


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
                              extra={"rho": rho, "rho_changes": 0, "rho_spectral": 0,
                                     "rho_fallback": 0, "rho_estimates": 0})
        return ProxResult(np.zeros(shape), report, u=_screened_duals(v, side, rho))

    alpha = RELAXATION
    stack = _TileStack(cliques, alpha)
    r = stack.r
    # the carried dual r = (U - (1 - alpha) Z) / alpha, with U = 0 and Z = v
    # at the start, makes the relaxed z-update point
    # w = alpha*x + (1 - alpha) Z - U = alpha * (x - r)
    np.multiply(vflat, (alpha - 1.0) / alpha, out=r)
    rbar = r[0].copy()  # mean(r)
    # the scratch vector, which holds mean(q) from the end of one iteration
    # to the x-update of the next: zbar = mean(r) + mean(q) is v at the start
    work = vflat / alpha
    scale = stack.scale  # written by every iteration's norms
    x = np.empty(n)
    # copy 0's (Z, U) from two iterations before the next estimate
    kept = None

    objective_trace: list[float] = []
    residual_trace: list[float] = []
    reason = "max-iterations"
    gap_floor = cfg.tol_abs * v_sq
    # per unit of the magnitudes summed, a bound on the computed gap's
    # rounding error, which the support stop adds to the gap
    roundoff = n * np.finfo(float).eps
    # residuals below this, in data units, are rounding error: in converged
    # solves of up to 19x19 they settled at up to 1.5*s*eps*sqrt(s*n)*max|v|
    balance_floor = 1024.0 * s * np.finfo(float).eps * np.sqrt(s * n) * peak
    # steps of Z or U below this are taken for the rounding noise of forming
    # them as r + q and r + (1 - alpha) q
    penalty = _PenaltyRule(balance_floor, SPECTRAL_NOISE * math.sqrt(s * v_sq))
    stride = GAP_STRIDE

    with np.errstate(divide="ignore"):
        for k in range(1, cfg.max_iters + 1):
            tau = cfg.lam / rho
            rs = rho * s
            c = rs / (2.0 + rs)
            cv = 2.0 / (2.0 + rs)
            estimate = k % SPECTRAL_STRIDE == 0
            keep = (k + 2) % SPECTRAL_STRIDE == 0
            checked = (k - 1) % stride == 0 or k == cfg.max_iters
            if estimate:
                zbar_prev = np.add(rbar, work)
            # x = (2v + rs*(zbar + ubar)) / (2 + rs) with
            # zbar + ubar = 2 mean(r) + (2 - alpha) mean(q)
            np.multiply(rbar, 2.0 * c, out=x)
            work *= (2.0 - alpha) * c
            x += work
            x += np.multiply(vflat, cv, out=work)
            if checked:
                # P = ||x - v||^2 + lam * J(x), both through the scratch
                # vector before it holds this iteration's mean(q), so the
                # clique norms add only their window sum's row and column
                # passes and result to the solve's state
                np.subtract(x, vflat, out=work)
                primal = float(work @ work)
                np.multiply(x, x, out=work)
                primal += cfg.lam * float(smoothed_clique_norms(work.reshape(shape), side,
                                                                0.0).sum())

            if keep or estimate:
                q0 = np.subtract(x, r[0])  # copy 0's q
            for ri in r:
                # q = w / alpha, a row at a time: x broadcast over the whole
                # stack would take a ufunc buffer
                np.subtract(x, ri, out=ri)
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
            if not scale.all():
                # g = 0 would lose the q that a rescale and U divide r by
                scale[scale == 0.0] = np.finfo(float).eps
            np.subtract(x, rbar, out=work)  # mean(q), with the previous mean(r)
            r *= alpha - 1.0
            stack.scale_tiles()
            np.add.reduce(r, axis=0, out=rbar)  # r.sum without its Python overhead
            rbar /= s
            if keep or estimate:
                # copy 0's Z = r + q and U = r + (1 - alpha) q, in place of q
                copy0 = np.add(r[0], q0), q0
                q0 *= 1.0 - alpha
                q0 += r[0]
                del q0
            if keep:
                kept, copy0 = copy0, None

            if checked:
                # D = <g, v> - ||g||^2/4 at the feasible dual point
                # g = -rho*s*ubar, ubar = mean(r) + (1 - alpha) mean(q)
                ubar = np.multiply(work, 1.0 - alpha)
                ubar += rbar
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
                    # from xt - x = v + (rs/2)*ubar - x, formed in place of ubar
                    ubar *= 0.5 * rs
                    ubar += vflat
                    ubar -= x
                    radius = _support_radius(
                        float(np.sqrt(ubar @ ubar)),
                        gap + roundoff * (primal + abs(dual_lin) + dual_quad))
                    if radius <= support_tol * max(float(x.max()), -float(x.min())):
                        reason = "support-certified"
                del ubar
            final = reason != "max-iterations" or k == cfg.max_iters

            f = 1.0  # rho_old / rho_new
            if estimate and reason == "max-iterations":
                # rd/rho = sqrt(s) ||zbar_k - zbar_{k-1}||
                zbar_prev -= rbar
                zbar_prev -= work
                zbar_step = math.sqrt(s * float(zbar_prev @ zbar_prev))
                primal_sq, dz_sq, dzu, du_sq = _sampled_products(kept, copy0, x, s)
                f = penalty.step(k, rho, math.sqrt(primal_sq), zbar_step, dz_sq, dzu, du_sq)
            if estimate:
                del zbar_prev
                kept = copy0 = None
            if f != 1.0:
                # U becomes f*U and Z stays, so -rho*U stays put
                rho /= f
            if final:
                stack.scale_tiles(stack.dual_factors(scale, f))  # r becomes U
                stack.clear_off_tiles()
                break
            if f != 1.0:
                # no copy 0 is kept across a change: the next is kept after it
                stack.scale_tiles(stack.rescale_factors(scale, f))
                # zbar stays: mean(q) becomes zbar - the new mean(r)
                work += rbar
                np.add.reduce(r, axis=0, out=rbar)
                rbar /= s
                work -= rbar

    extra = {"rho": rho, "rho_changes": sum(penalty.changes.values()), **penalty.changes,
             "rho_estimates": penalty.estimates}
    if reason == "support-certified":
        extra["support_radius"] = radius
    report = SolverReport(objective_trace, residual_trace, reason, iterations=k,
                          wall_clock=time.perf_counter() - t0, extra=extra)
    return ProxResult(x.reshape(shape), report, u=r)
