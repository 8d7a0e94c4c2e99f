import tracemalloc

import numpy as np
import pytest

from blocksparse import ConfigError, GridShape, ShapeError, build_clique_system

import helpers


def tile_corners(cs):
    """Per subset, the top-left corners of the cliques its tile enumerates."""
    out = []
    for a, b, nh, nw in cs.tiles:
        out.append([(a + p * cs.side, b + q * cs.side) for p in range(nh) for q in range(nw)])
    return out


def test_grid_shape_basics():
    g = GridShape(3, 5)
    assert g.n == 15


def test_grid_shape_rejects_empty():
    with pytest.raises(ConfigError):
        GridShape(0, 4)


def test_grid_shape_of_rejects_a_vector():
    with pytest.raises(ShapeError, match="2-D"):
        GridShape.of(np.zeros(5))


def test_3x3_l2_counts():
    cs = build_clique_system(GridShape(3, 3), 2)
    assert [len(c) for c in tile_corners(cs)] == [1, 1, 1, 1]


def test_4x4_l2_subset_zero_corners():
    cs = build_clique_system(GridShape(4, 4), 2)
    assert sum(len(c) for c in tile_corners(cs)) == 9
    assert set(tile_corners(cs)[0]) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_clique_larger_than_grid_rejected():
    with pytest.raises(ConfigError):
        build_clique_system(GridShape(2, 2), 3)


def test_clique_side_below_one_rejected():
    with pytest.raises(ConfigError):
        build_clique_system(GridShape(4, 4), 0)


@pytest.mark.parametrize("side", [2.7, float("nan"), True])
def test_non_integer_clique_side_rejected(side):
    with pytest.raises(ConfigError):
        build_clique_system(GridShape(4, 4), side)


@pytest.mark.parametrize("height, width", [(2.5, 3), (3, float("nan"))])
def test_grid_shape_rejects_non_integer(height, width):
    with pytest.raises(ConfigError):
        GridShape(height, width)


def test_numpy_integer_sizes_accepted():
    cs = build_clique_system(GridShape(np.int64(4), np.int32(5)), np.int64(2))
    assert cs.shape.n == 20
    assert type(cs.side) is int and cs.side == 2


def test_2x2_l2_has_empty_subsets():
    cs = build_clique_system(GridShape(2, 2), 2)
    assert cs.n_subsets == 4
    assert cs.tiles[0] == (0, 0, 1, 1)
    assert [i for i, (_, _, nh, nw) in enumerate(cs.tiles) if nh == 0 or nw == 0] == [1, 2, 3]


def test_7x5_l5_has_empty_subsets():
    cs = build_clique_system(GridShape(7, 5), 5)
    assert cs.n_subsets == 25
    empty = [i for i, (_, _, nh, nw) in enumerate(cs.tiles) if nh == 0 or nw == 0]
    assert empty == [i for i in range(25) if i not in (0, 5, 10)]
    assert cs.tiles[5] == (1, 0, 1, 1)


def tile_pixels(cs):
    """Per subset, the linear indices of the pixels its tiles cover, one row
    per clique."""
    width, side = cs.shape.width, cs.side
    offsets = [dr * width + dc for dr in range(side) for dc in range(side)]
    return [np.array([[top * width + left + o for o in offsets] for top, left in subset],
                     dtype=int).reshape(-1, side * side)
            for subset in tile_corners(cs)]


def tile_coverage(cs):
    """Per pixel, the number of tiles over all subsets that cover it."""
    coverage = np.zeros(cs.shape.n, dtype=int)
    for pixels in tile_pixels(cs):
        np.add.at(coverage, pixels.ravel(), 1)
    return coverage


@pytest.mark.parametrize("height,width,side", [
    (3, 3, 1), (3, 3, 2), (5, 4, 2), (8, 8, 3), (6, 8, 3), (8, 6, 1),
] + helpers.GEOMETRIES)
def test_against_brute_force_enumeration(height, width, side):
    cs = build_clique_system(GridShape(height, width), side)
    corners = tile_corners(cs)
    assert len(corners) == cs.n_subsets == side * side
    found = [corner for subset in corners for corner in subset]
    brute = [(top, left) for top, left, _ in helpers.brute_force_cliques(height, width, side)]
    assert sorted(found) == brute  # every clique exactly once
    for i, subset in enumerate(corners):
        for top, left in subset:
            assert (top % side) * side + left % side == i
    assert np.array_equal(tile_coverage(cs),
                          helpers.coverage_by_enumeration(height, width, side))


@pytest.mark.parametrize("height,width,side", [(5, 5, 2), (6, 7, 3), (9, 9, 3)] + [
    g for g in helpers.GEOMETRIES if g != (9, 9, 3)])
def test_partition_and_disjointness(height, width, side):
    cs = build_clique_system(GridShape(height, width), side)
    for pixels in tile_pixels(cs):
        # cliques within a subset share no pixel
        assert len(set(pixels.ravel().tolist())) == pixels.size


def test_interior_pixel_coverage():
    cs = build_clique_system(GridShape(8, 8), 3)
    cov = tile_coverage(cs).reshape(8, 8)
    assert np.all(cov[2:-2, 2:-2] == 9)
    assert cov[0, 0] == 1


def test_clique_system_allocates_no_index_arrays():
    tracemalloc.start()
    try:
        build_clique_system(GridShape(256, 256), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
