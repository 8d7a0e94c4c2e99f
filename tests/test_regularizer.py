import math

import numpy as np
import pytest

from blocksparse import ConfigError, GridShape, ShapeError, block_norm, build_clique_system
from blocksparse.fftops import box_correlate_valid
from blocksparse.regularizer import smoothed_clique_norms, smoothed_weight_map

import helpers


def system(h, w, side):
    return build_clique_system(GridShape(h, w), side)


def smoothed_value(x, side, eps):
    """The smoothed penalty as the solvers evaluate it: the sum of the
    evaluator's clique norms."""
    return float(smoothed_clique_norms(x * x, side, eps).sum())


def smoothed_grad(x, side, eps):
    """The smoothed penalty's gradient as the solvers build it: ``x`` times
    the weight map of the clique norms."""
    return x * smoothed_weight_map(smoothed_clique_norms(x * x, side, eps), side)


def test_value_zero_image():
    assert block_norm(np.zeros((4, 4)), system(4, 4, 2)) == 0.0


def test_value_single_clique_345():
    cs = system(2, 2, 2)
    assert block_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), cs) == pytest.approx(5.0)


def test_value_all_ones_3x3():
    # four cliques, each norm sqrt(4) = 2
    assert block_norm(np.ones((3, 3)), system(3, 3, 2)) == pytest.approx(8.0)


def test_value_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for h, w, side in [(5, 5, 2), (6, 4, 3), (7, 7, 1)]:
        cs = system(h, w, side)
        x = rng.standard_normal((h, w))
        expected = helpers.block_norm_by_loop(x, helpers.clique_index_lists(h, w, side))
        assert block_norm(x, cs) == pytest.approx(expected, rel=1e-12)


def test_value_shape_mismatch():
    with pytest.raises(ShapeError):
        block_norm(np.zeros((3, 4)), system(4, 4, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_value_rejects_a_nonfinite_image(bad):
    x = np.ones((8, 8))
    x[3, 4] = bad
    with pytest.raises(ConfigError, match="image must be finite"):
        block_norm(x, system(8, 8, 2))
    with pytest.raises(ConfigError, match="image must be finite"):
        block_norm(np.full((8, 8), bad), system(8, 8, 2))


def test_smoothed_at_zero():
    # 4 cliques on a 3x3 grid at side 2
    assert smoothed_value(np.zeros((3, 3)), 2, 0.1) == pytest.approx(0.4)


def test_smoothed_eps_zero_equals_plain():
    rng = np.random.default_rng(2)
    cs = system(5, 5, 2)
    x = rng.standard_normal((5, 5))
    assert smoothed_value(x, 2, 0.0) == pytest.approx(block_norm(x, cs), abs=1e-12)


def test_smoothed_single_clique_sqrt26():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert smoothed_value(x, 2, 1.0) == pytest.approx(math.sqrt(26.0))


def test_smoothing_bound():
    rng = np.random.default_rng(3)
    for side in (1, 2, 3):
        cs = system(6, 6, side)
        x = rng.standard_normal((6, 6))
        idx = helpers.clique_index_lists(6, 6, side)
        for eps in (0.01, 0.1, 1.0):
            value = smoothed_value(x, side, eps)
            assert value == pytest.approx(helpers.smoothed_value_by_loop(x, idx, eps), rel=1e-12)
            gap = value - block_norm(x, cs)
            assert -1e-12 <= gap <= len(idx) * eps + 1e-12


def test_absolute_homogeneity():
    rng = np.random.default_rng(4)
    cs = system(6, 6, 2)
    x = rng.standard_normal((6, 6))
    for a in (-3.0, -0.5, 0.0, 0.25, 7.0):
        assert block_norm(a * x, cs) == pytest.approx(abs(a) * block_norm(x, cs), abs=1e-12)


def test_convexity_surrogate():
    rng = np.random.default_rng(5)
    cs = system(5, 5, 2)
    for _ in range(50):
        x = rng.standard_normal((5, 5))
        y = rng.standard_normal((5, 5))
        t = rng.uniform()
        lhs = block_norm(t * x + (1 - t) * y, cs)
        rhs = t * block_norm(x, cs) + (1 - t) * block_norm(y, cs)
        assert lhs <= rhs + 1e-10


def test_grad_zero_image():
    idx = helpers.clique_index_lists(4, 4, 2)
    assert np.all(helpers.smoothed_grad_by_loop(np.zeros((4, 4)), idx, 0.1) == 0)
    assert np.allclose(smoothed_grad(np.zeros((4, 4)), 2, 0.1), 0.0)


def test_grad_single_clique_direction():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    for g in (helpers.smoothed_grad_by_loop(x, helpers.clique_index_lists(2, 2, 2), 1e-9),
              smoothed_grad(x, 2, 1e-9)):
        assert g[0, 0] == pytest.approx(0.6, abs=1e-9)
        assert g[0, 1] == pytest.approx(0.8, abs=1e-9)


def test_grad_constant_image_interior():
    side, val, eps = 2, 1.7, 0.05
    g = smoothed_grad(np.full((8, 8), val), side, eps)
    expected = val * side ** 2 / math.sqrt(side ** 2 * val ** 2 + eps ** 2)
    assert g[3, 3] == pytest.approx(expected, rel=1e-12)


def test_grad_matches_loop_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 6))
    expected = helpers.smoothed_grad_by_loop(x, helpers.clique_index_lists(6, 6, 2), 0.1)
    assert np.allclose(smoothed_grad(x, 2, 0.1), expected, rtol=1e-12)


@pytest.mark.parametrize("side", [1, 2, 3, 4, 8])
def test_grad_paths_agree(side):
    rng = np.random.default_rng(7)
    for h, w in [(side, side), (16, 16), (32, 32), (17, 23)]:
        if side > min(h, w):
            continue
        x = rng.standard_normal((h, w))
        g_loop = helpers.smoothed_grad_by_loop(x, helpers.clique_index_lists(h, w, side), 0.05)
        g_sum = smoothed_grad(x, side, 0.05)
        denom = np.linalg.norm(g_loop)
        assert np.linalg.norm(g_sum - g_loop) <= 1e-10 * denom


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 6))
    eps = 0.1
    step = 1e-6 * float(np.max(np.abs(x)))
    fd = helpers.central_difference_gradient(lambda z: smoothed_value(z, 2, eps), x, step)
    for g in (helpers.smoothed_grad_by_loop(x, helpers.clique_index_lists(6, 6, 2), eps),
              smoothed_grad(x, 2, eps)):
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)


def test_stack_helpers_match_framewise():
    # the evaluator pair batched over leading (frame) axes
    rng = np.random.default_rng(9)
    idx = helpers.clique_index_lists(8, 8, 3)
    frames = rng.standard_normal((4, 8, 8))
    eps = 0.07
    norms = smoothed_clique_norms(frames * frames, 3, eps)
    assert norms.shape == (4, 6, 6)
    for t in range(4):
        assert float(norms[t].sum()) == pytest.approx(
            helpers.smoothed_value_by_loop(frames[t], idx, eps), rel=1e-12)
    grad = frames * smoothed_weight_map(norms, 3)
    for t in range(4):
        g = helpers.smoothed_grad_by_loop(frames[t], idx, eps)
        assert np.allclose(grad[t], g, rtol=1e-10, atol=1e-12)


def test_clique_norms_match_loop_oracle():
    rng = np.random.default_rng(10)
    h, w, side, eps = 7, 5, 3, 0.2
    sq = rng.uniform(0.0, 2.0, (h, w))
    norms = smoothed_clique_norms(sq.copy(), side, eps)  # the window sum spends its input
    expected = [[math.sqrt(sq[r:r + side, c:c + side].sum() + eps * eps)
                 for c in range(w - side + 1)] for r in range(h - side + 1)]
    assert np.allclose(norms, expected, rtol=1e-12)


def test_weight_map_sums_reciprocal_norms_over_covering_cliques():
    rng = np.random.default_rng(11)
    h, w, side = 6, 7, 2
    norms = rng.uniform(0.5, 2.0, (h - side + 1, w - side + 1))
    weights = smoothed_weight_map(norms.copy(), side)  # the map spends its norms
    expected = np.zeros((h, w))
    for r in range(norms.shape[0]):
        for c in range(norms.shape[1]):
            expected[r:r + side, c:c + side] += 1.0 / norms[r, c]
    assert np.allclose(weights, expected, rtol=1e-12)



@pytest.mark.parametrize("shape", [(6, 7), (3, 6, 7)])
def test_evaluator_buffers_give_the_allocating_result(shape):
    # each evaluator spends its input: the clique norms their squares, which
    # take the window sums, and the weight map its norms, which become the
    # reciprocals.  The norms come back at the front of scratch
    rng = np.random.default_rng(12)
    sq = rng.uniform(0.0, 2.0, shape)
    side, eps = 2, 0.1
    h, w = shape[-2:]
    norms = smoothed_clique_norms(sq.copy(), side, eps)
    weights = smoothed_weight_map(norms.copy(), side)
    scratch = np.full(sq.size, np.nan)
    spent = sq.copy()
    got = smoothed_clique_norms(spent, side, eps, scratch=scratch)
    assert helpers.at_front_of(got, scratch)
    np.testing.assert_array_equal(got, norms)
    np.testing.assert_array_equal(spent[..., :h - side + 1, :w - side + 1],
                                  box_correlate_valid(sq.copy(), side))
    spent = norms.copy()
    out = np.full(weights.shape, np.nan)
    assert smoothed_weight_map(spent, side, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, weights)
    np.testing.assert_array_equal(spent, 1.0 / norms)
    np.testing.assert_array_equal(smoothed_weight_map(norms.copy(), side, scratch=scratch),
                                  weights)


def test_weight_map_without_scratch_spends_its_norms():
    norms = np.random.default_rng(14).uniform(0.5, 2.0, (3, 5, 6))
    kept = norms.copy()
    want = smoothed_weight_map(norms, 2)
    np.testing.assert_array_equal(norms, 1.0 / kept)
    norms = kept.copy()
    out = np.full(want.shape, np.nan)
    assert smoothed_weight_map(norms, 2, out=out) is out
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(norms, 1.0 / kept)


def test_evaluator_out_may_share_memory_with_its_input():
    # the clique norms come back at the front of scratch, over the row pass
    # they spent.  The weight map may write over the norms it reads, with
    # the spent squares as its row pass, or take the norms' own buffer as
    # its row pass, as block-TV does.  Without scratch the norms are at the
    # front of a new array, and the weight map may still write over norms
    # placed at the front of its output
    rng = np.random.default_rng(13)
    h, w, side, eps = 6, 7, 3, 0.1
    sq = rng.uniform(0.0, 2.0, (h, w))
    want_norms = smoothed_clique_norms(sq.copy(), side, eps)
    want_weights = smoothed_weight_map(want_norms.copy(), side)
    buffer, scratch = sq.copy(), np.empty((h, w))
    norms = smoothed_clique_norms(buffer, side, eps, scratch=scratch)
    assert helpers.at_front_of(norms, scratch)
    np.testing.assert_array_equal(norms, want_norms)
    assert smoothed_weight_map(norms, side, out=scratch, scratch=buffer) is scratch
    np.testing.assert_array_equal(scratch, want_weights)
    buffer, out = sq.copy(), np.empty((h, w))
    norms = smoothed_clique_norms(buffer, side, eps, scratch=scratch)
    assert smoothed_weight_map(norms, side, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, want_weights)
    buffer = sq.copy()
    norms = smoothed_clique_norms(buffer, side, eps)
    np.testing.assert_array_equal(buffer[:h - side + 1, :w - side + 1],
                                  box_correlate_valid(sq.copy(), side))
    assert not np.shares_memory(norms, buffer)
    np.testing.assert_array_equal(norms, want_norms)
    placed = buffer.reshape(-1)[:norms.size].reshape(norms.shape)
    placed[...] = norms
    assert smoothed_weight_map(placed, side, out=buffer) is buffer
    np.testing.assert_array_equal(buffer, want_weights)
