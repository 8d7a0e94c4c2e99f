"""Seeded synthetic problem generators: blocky sparse images,
low-rank-plus-blocksparse stacks and piecewise-constant images, plus
Gaussian measurement matrices and the noise levels for a requested SNR or
PSNR.

Every generator is a pure function of its arguments and the random
generator it is handed: the same seed reproduces identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .common import ConfigError


def gaussian_measurement_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """iid Gaussian matrix with entries scaled by ``1/sqrt(m)``."""
    return rng.standard_normal((m, n)) / math.sqrt(m)


def sigma_for_snr_db(clean: np.ndarray, snr_db: float) -> float:
    """Noise level giving the requested SNR against ``clean``."""
    power = float(np.mean(np.asarray(clean, dtype=float) ** 2))
    return math.sqrt(power) * 10.0 ** (-snr_db / 20.0)


def sigma_for_psnr_db(peak: float, psnr_db: float) -> float:
    """Noise level giving the requested PSNR against a declared peak."""
    return peak * 10.0 ** (-psnr_db / 20.0)


def _block_dims(area: int) -> tuple[int, int]:
    best = 1
    for d in range(1, int(math.isqrt(area)) + 1):
        if area % d == 0:
            best = d
    return best, area // best


def make_blocky_image(height: int, width: int, sparsity: int, blocks: int,
                      rng: np.random.Generator, amplitude: float = 1.0) -> np.ndarray:
    """Image whose support is exactly ``sparsity`` pixels arranged in
    ``blocks`` disjoint dense rectangles (separated by a 1-pixel margin)."""
    areas = [sparsity // blocks] * blocks
    for i in range(sparsity - sum(areas)):
        areas[i] += 1
    img = np.zeros((height, width))
    occupied = np.zeros((height, width), dtype=bool)
    for area in areas:
        bh, bw = _block_dims(area)
        if bh > height or bw > width:
            raise ConfigError(f"block {bh}x{bw} does not fit in {height}x{width}")
        placed = False
        for _ in range(10000):
            r = int(rng.integers(0, height - bh + 1))
            c = int(rng.integers(0, width - bw + 1))
            r0, r1 = max(r - 1, 0), min(r + bh + 1, height)
            c0, c1 = max(c - 1, 0), min(c + bw + 1, width)
            if occupied[r0:r1, c0:c1].any():
                continue
            signs = rng.choice([-1.0, 1.0], size=(bh, bw))
            img[r:r + bh, c:c + bw] = signs * rng.uniform(0.8, 1.2, size=(bh, bw)) * amplitude
            occupied[r:r + bh, c:c + bw] = True
            placed = True
            break
        if not placed:
            raise ConfigError("could not place disjoint blocks; spec too dense")
    return img


def make_lowrank_blocksparse_stack(height: int, width: int, frames: int, rank: int,
                                   rng: np.random.Generator, fg_side: int = 6,
                                   fg_amplitude: float = 6.0, bg_scale: float = 1.0):
    """Planted model: returns ``(lowrank, sparse)`` with an exact-rank
    background and one dense ``fg_side``-square foreground block per frame."""
    n = height * width
    left = rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, frames))
    lowrank = (bg_scale / math.sqrt(rank)) * (left @ right)
    lowrank = lowrank.reshape(height, width, frames)

    sparse = np.zeros((height, width, frames))
    side = min(fg_side, height, width)
    for t in range(frames):
        r = int(rng.integers(0, height - side + 1))
        c = int(rng.integers(0, width - side + 1))
        sign = float(rng.choice([-1.0, 1.0]))
        sparse[r:r + side, c:c + side, t] = (
            sign * rng.uniform(0.5, 1.5, size=(side, side)) * fg_amplitude)
    return lowrank, sparse


def make_piecewise_constant(height: int, width: int, rng: np.random.Generator,
                            patches: int = 5) -> np.ndarray:
    """Piecewise-constant image in [0, 1]: a base level overwritten by random
    axis-aligned rectangles at distinct levels."""
    img = np.full((height, width), float(rng.uniform(0.0, 0.3)))
    for _ in range(patches):
        rh = int(rng.integers(height // 4, max(height // 4 + 1, 3 * height // 4)))
        rw = int(rng.integers(width // 4, max(width // 4 + 1, 3 * width // 4)))
        r = int(rng.integers(0, height - rh + 1))
        c = int(rng.integers(0, width - rw + 1))
        img[r:r + rh, c:c + rw] = float(rng.uniform(0.0, 1.0))
    return img

