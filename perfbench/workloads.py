"""The benchmark's four workloads: inputs, set-up, solves, checks and quality.

Inputs are generated here from the run's seed, not by the package's own
generators, so that a change to ``blocksparse.synthetic`` cannot change what
is measured.  Solver entry points are looked up on their modules at call time
(``pursuit.colamp_solve`` rather than a name bound at import), so that the
traced run can wrap them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from blocksparse import blocktv, fftops, grids, prox, pursuit, rpca

import checks


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def blocky_image(h: int, w: int, k: int, blocks: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` nonzero pixels in ``blocks`` disjoint rectangles, each kept one
    pixel apart, with values of random sign and magnitude in [0.8, 1.2]."""
    img = np.zeros((h, w))
    taken = np.zeros((h, w), dtype=bool)
    for b in range(blocks):
        area = k // blocks + (1 if b < k % blocks else 0)
        bh = max(d for d in range(1, math.isqrt(area) + 1) if area % d == 0)
        bw = area // bh
        for _ in range(10000):
            r = int(rng.integers(0, h - bh + 1))
            c = int(rng.integers(0, w - bw + 1))
            if not taken[max(r - 1, 0):r + bh + 1, max(c - 1, 0):c + bw + 1].any():
                break
        else:
            raise RuntimeError("could not place disjoint blocks")
        img[r:r + bh, c:c + bw] = (rng.choice([-1.0, 1.0], size=(bh, bw))
                                   * rng.uniform(0.8, 1.2, size=(bh, bw)))
        taken[r:r + bh, c:c + bw] = True
    return img


def piecewise_constant(h: int, w: int, rng: np.random.Generator, patches: int = 5) -> np.ndarray:
    """A base level in [0, 0.3] overwritten by random rectangles at levels in [0, 1]."""
    img = np.full((h, w), float(rng.uniform(0.0, 0.3)))
    for _ in range(patches):
        rh = int(rng.integers(h // 4, 3 * h // 4))
        rw = int(rng.integers(w // 4, 3 * w // 4))
        r = int(rng.integers(0, h - rh + 1))
        c = int(rng.integers(0, w - rw + 1))
        img[r:r + rh, c:c + rw] = float(rng.uniform(0.0, 1.0))
    return img


def lowrank_plus_blocks(h: int, w: int, frames: int, rank: int, fg_side: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An exact-rank background and one ``fg_side`` square block of amplitude
    6 * U(0.5, 1.5) and random sign per frame."""
    left = rng.standard_normal((h * w, rank))
    right = rng.standard_normal((rank, frames))
    lowrank = ((left @ right) / math.sqrt(rank)).reshape(h, w, frames)
    sparse = np.zeros((h, w, frames))
    for t in range(frames):
        r = int(rng.integers(0, h - fg_side + 1))
        c = int(rng.integers(0, w - fg_side + 1))
        sign = float(rng.choice([-1.0, 1.0]))
        sparse[r:r + fg_side, c:c + fg_side, t] = (
            sign * 6.0 * rng.uniform(0.5, 1.5, size=(fg_side, fg_side)))
    return lowrank, sparse


def clear_fft_kernel_cache() -> None:
    """Empty fftops' transformed-kernel cache so that set-up pays for it again."""
    cache = getattr(fftops, "_kernel_cache", None)
    if isinstance(cache, dict):
        cache.clear()


def warm_box_filter(batch_shape: tuple, h: int, w: int, side: int) -> None:
    """First calls of both box-filter correlations at the shapes a solve uses."""
    fftops.box_correlate_valid(np.zeros((*batch_shape, h, w)), side)
    fftops.box_correlate_full(np.zeros((*batch_shape, h - side + 1, w - side + 1)), side)


@dataclass
class Problem:
    """One solve's inputs.  ``in_peak_pass`` marks a problem whose arrays are
    among the workload's largest; only those run under tracemalloc, which
    slows the solvers' many small allocations up to fivefold."""

    label: str
    data: dict
    in_peak_pass: bool = False


@dataclass
class Workload:
    name: str
    problems: list = field(default_factory=list)

    def setup(self):
        raise NotImplementedError

    def solve(self, state, p: Problem):
        raise NotImplementedError

    def check(self, p: Problem, out) -> None:
        raise NotImplementedError

    def quality(self, p: Problem, out) -> tuple[float, float]:
        """(support F-measure, PSNR in dB) of one output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CsColamp(Workload):
    """CoLaMP on blocky 32x32 images, K = 40 in two blocks, side 2, with the
    CS sweep's solver settings.  With m = 50 measurements (m/K = 1.25) the
    pursuit fails and runs all 50 outer iterations; with m = 200 (m/K = 5) it
    recovers the image exactly in two or three.

    The failing problem is the same at every seed.  Its work varies by some
    20% from one image to the next (42k to 62k prox iterations over six
    images), which made the round time range from 25 s to 41 s over five
    seeds with two such problems per round.  The four exact-regime problems
    come from the seed.
    """

    H = W = 32
    K = 40
    SIDE = 2
    FAILING_M, EXACT_M = 50, 200
    FAILING_SEED = 0

    def __init__(self, seed: int):
        super().__init__("cs-colamp")
        self._add("fixed image", self.FAILING_SEED, 9, self.FAILING_M)
        for j in range(4):
            self._add(f"image {j}", seed, j, self.EXACT_M)
        self.cfg = pursuit.ColampConfig(
            k=self.K, lam0=0.6, lam_growth=1.02, max_iters=50,
            prox=prox.ProxConfig(lam=0.0, max_iters=1500, tol_abs=1e-11, tol_rel=1e-9))

    def _add(self, name: str, seed: int, key: int, m: int):
        truth = blocky_image(self.H, self.W, self.K, 2, rng_for(seed, 1, 0, key))
        phi = rng_for(seed, 1, 1, key).standard_normal((m, self.H * self.W)) / math.sqrt(m)
        self.problems.append(Problem(
            f"{name} m={m}",
            {"truth": truth, "phi": phi, "y": phi @ truth.ravel(), "exact": m == self.EXACT_M},
            # among the largest measurement matrices, whose support columns
            # CoLaMP copies
            in_peak_pass=name == "image 0"))

    def setup(self):
        cliques = grids.build_clique_system(grids.GridShape(self.H, self.W), self.SIDE)
        return cliques, {p.label: pursuit.MeasurementModel(p.data["phi"]) for p in self.problems}

    def solve(self, state, p):
        cliques, models = state
        x, _ = pursuit.colamp_solve(p.data["y"], models[p.label], cliques, self.cfg)
        return x

    def check(self, p, out):
        checks.check_cs(out, p.data["truth"], self.K, p.data["exact"])

    def quality(self, p, out):
        truth = p.data["truth"]
        return (checks.f_measure(checks.support(out), checks.support(truth)),
                checks.psnr(out, truth, float(np.abs(truth).max())))


class ProxDenoise(Workload):
    """Cold-start prox denoising of 128x128 blocky images (1024 nonzeros in 8
    blocks) under Gaussian noise of sigma 0.2."""

    H = W = 128
    SIGMA = 0.2
    # (side, lam, max_iters): side 4 at lam 0.1 converges, side 4 at lam 0.2
    # stops at the default 1000-iteration cap, side 8 stops at a cap of 200
    CASES = ((4, 0.1, 1000), (4, 0.2, 1000), (8, 0.05, 200))

    def __init__(self, seed: int):
        super().__init__("prox-denoise")
        for i, (side, lam, cap) in enumerate(self.CASES):
            rng = rng_for(seed, 2, i)
            truth = blocky_image(self.H, self.W, 1024, 8, rng)
            v = truth + self.SIGMA * rng.standard_normal(truth.shape)
            self.problems.append(Problem(
                f"side={side} lam={lam} cap={cap}",
                {"truth": truth, "v": v, "side": side,
                 "cfg": prox.ProxConfig(lam=lam, max_iters=cap)},
                in_peak_pass=side == 8))

    def setup(self):
        shape = grids.GridShape(self.H, self.W)
        return {side: grids.build_clique_system(shape, side)
                for side in sorted({p.data["side"] for p in self.problems})}

    def solve(self, state, p):
        return prox.prox_block_norm(p.data["v"], state[p.data["side"]], p.data["cfg"])

    def check(self, p, out):
        p.data["gap"] = checks.check_prox(p.data["v"], out.x, out.u, out.report.extra["rho"],
                                          p.data["cfg"].lam, p.data["side"])

    def quality(self, p, out):
        truth = p.data["truth"]
        return (checks.f_measure(checks.support(out.x), checks.support(truth)),
                checks.psnr(out.x, truth, float(np.abs(truth).max())))


class RpcaFbs(Workload):
    """solve_rpca with the default config on 64x64x10 stacks: a rank-2
    background plus one 6x6 block per frame, at clique sides 2 and 4."""

    H = W = 64
    FRAMES = 10
    RANK = 2
    SIDES = (2, 4)

    def __init__(self, seed: int):
        super().__init__("rpca-fbs")
        for i, side in enumerate(self.SIDES):
            lowrank, sparse = lowrank_plus_blocks(self.H, self.W, self.FRAMES, self.RANK, 6,
                                                  rng_for(seed, 3, i))
            self.problems.append(Problem(
                f"side={side}", {"y": lowrank + sparse, "sparse": sparse, "side": side,
                                 "cfg": rpca.RpcaConfig(clique_side=side)},
                # both sides allocate the same stack-sized buffers
                in_peak_pass=i == 0))

    def setup(self):
        clear_fft_kernel_cache()
        for side in self.SIDES:
            warm_box_filter((self.FRAMES,), self.H, self.W, side)

    def solve(self, state, p):
        return rpca.solve_rpca(p.data["y"], p.data["cfg"])

    def check(self, p, out):
        y, side = p.data["y"], p.data["side"]
        # the documented defaults: lam = 1/(side*sqrt(H*W)), eps = 3e-3*max(1, max|y|)
        lam = 1.0 / (side * math.sqrt(self.H * self.W))
        eps = 3e-3 * max(1.0, float(np.abs(y).max()))
        checks.check_rpca(out.x, out.z, y, out.report.objective_trace, lam, eps,
                          p.data["cfg"].mu, side, self.RANK)

    def quality(self, p, out):
        sparse = p.data["sparse"]
        return (checks.f_measure(checks.support(out.x), checks.support(sparse)),
                checks.psnr(out.x, sparse, float(np.abs(sparse).max())))


class BlocktvDenoise(Workload):
    """denoise_block_tv on piecewise-constant images at 20 dB input PSNR with
    the CLI's 300-iteration cap and tol_obj 1e-9, lam 0.1."""

    LAM = 0.1
    CASES = ((128, 2), (128, 2), (128, 4), (128, 4), (192, 2))

    def __init__(self, seed: int):
        super().__init__("blocktv-denoise")
        sigma = 10.0 ** (-20.0 / 20.0)
        for i, (size, side) in enumerate(self.CASES):
            rng = rng_for(seed, 4, i)
            clean = piecewise_constant(size, size, rng)
            y = clean + sigma * rng.standard_normal(clean.shape)
            self.problems.append(Problem(
                f"image {i} {size}^2 side={side}",
                {"clean": clean, "y": y, "side": side,
                 "cfg": blocktv.BlockTvConfig(lam=self.LAM, clique_side=side,
                                              max_iters=300, tol_obj=1e-9)},
                in_peak_pass=size == max(s for s, _ in self.CASES)))

    def setup(self):
        clear_fft_kernel_cache()
        for p in self.problems:
            h, w = p.data["y"].shape
            warm_box_filter((), h, w, p.data["side"])

    def solve(self, state, p):
        return blocktv.denoise_block_tv(p.data["y"], p.data["cfg"])

    def check(self, p, out):
        x, report = out
        y = p.data["y"]
        # the documented default: eps = 1e-4 * max(1, max |forward difference of y|)
        eps = 1e-4 * max(1.0, max(float(np.abs(d).max()) for d in checks.forward_differences(y)))
        checks.check_blocktv(x, y, p.data["clean"], report.objective_trace, self.LAM, eps,
                             p.data["side"])

    def quality(self, p, out):
        x, _ = out
        clean = p.data["clean"]
        return (checks.f_measure(edge_support(x), edge_support(clean)),
                checks.psnr(x, clean, 1.0))


def edge_support(img: np.ndarray) -> set:
    """Pixels whose forward-difference magnitude exceeds a tenth of the peak."""
    dh, dv = checks.forward_differences(img)
    return checks.support(np.hypot(dh, dv))


WORKLOADS = {
    "cs-colamp": CsColamp,
    "prox-denoise": ProxDenoise,
    "rpca-fbs": RpcaFbs,
    "blocktv-denoise": BlocktvDenoise,
}
