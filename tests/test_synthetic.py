import numpy as np
import pytest

from blocksparse import ConfigError
from blocksparse.synthetic import (gaussian_measurement_matrix, make_blocky_image,
                                   make_lowrank_blocksparse_stack, make_piecewise_constant,
                                   sigma_for_psnr_db, sigma_for_snr_db)

import helpers


def test_blocky_support_size_exact():
    rng = np.random.default_rng(0)
    img = make_blocky_image(32, 32, 40, 4, rng)
    assert np.count_nonzero(img) == 40


def test_blocky_blocks_are_contiguous():
    rng = np.random.default_rng(1)
    img = make_blocky_image(32, 32, 40, 4, rng)
    mask = img != 0
    # flood-fill connected components (4-neighborhood)
    seen = np.zeros_like(mask)
    comps = []
    for r, c in zip(*np.nonzero(mask)):
        if seen[r, c]:
            continue
        stack, size = [(r, c)], 0
        seen[r, c] = True
        while stack:
            i, j = stack.pop()
            size += 1
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < 32 and 0 <= nj < 32 and mask[ni, nj] and not seen[ni, nj]:
                    seen[ni, nj] = True
                    stack.append((ni, nj))
        comps.append(size)
    assert len(comps) == 4
    assert sum(comps) == 40


def test_blocky_infeasible_spec():
    with pytest.raises(ConfigError):
        make_blocky_image(4, 4, 40, 4, np.random.default_rng(0))


def test_lowrank_stack_has_exact_rank():
    rng = np.random.default_rng(2)
    lowrank, sparse = make_lowrank_blocksparse_stack(16, 16, 6, 3, rng)
    assert helpers.rank_by_svd(lowrank.reshape(256, 6)) == 3
    assert np.count_nonzero(sparse) > 0
    per_frame = [np.count_nonzero(sparse[:, :, t]) for t in range(6)]
    assert all(n == 36 for n in per_frame)  # one 6x6 block per frame


def test_piecewise_constant_levels():
    rng = np.random.default_rng(3)
    img = make_piecewise_constant(64, 64, rng)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert len(np.unique(img)) <= 6  # base + patches


def test_measurement_matrix_scaling():
    rng = np.random.default_rng(4)
    phi = gaussian_measurement_matrix(200, 500, rng)
    col_norms = np.linalg.norm(phi, axis=0)
    assert abs(float(col_norms.mean()) - 1.0) < 0.05


def test_snr_sigma_roundtrip():
    rng = np.random.default_rng(5)
    clean = rng.standard_normal(2000)
    sigma = sigma_for_snr_db(clean, 10.0)
    measured = []
    for _ in range(100):
        noisy = clean + sigma * rng.standard_normal(clean.shape)
        measured.append(10.0 * np.log10(np.sum(clean ** 2) / np.sum((noisy - clean) ** 2)))
    assert abs(float(np.mean(measured)) - 10.0) < 0.2


def test_psnr_sigma_formula():
    assert sigma_for_psnr_db(1.0, 20.0) == pytest.approx(0.1)
