import numpy as np
import pytest

from blocksparse import ConfigError, GridShape, ShapeError, build_clique_system

import helpers


def test_grid_shape_basics():
    g = GridShape(3, 5)
    assert g.n == 15
    assert g.index(0, 0) == 0
    assert g.index(1, 0) == 5  # row-major vectorization
    assert g.index(2, 4) == 14


def test_grid_shape_rejects_empty():
    with pytest.raises(ConfigError):
        GridShape(0, 4)


def test_index_bijection():
    g = GridShape(4, 7)
    seen = {g.index(r, c) for r in range(4) for c in range(7)}
    assert seen == set(range(28))


def test_3x3_l2_counts():
    cs = build_clique_system(GridShape(3, 3), 2)
    assert cs.n_cliques == 4
    assert [len(s) for s in cs.subsets] == [1, 1, 1, 1]


def test_4x4_l2_subset_zero_corners():
    cs = build_clique_system(GridShape(4, 4), 2)
    assert cs.n_cliques == 9
    corners = {tuple(cs.corners[i]) for i in cs.subsets[0]}
    assert corners == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_clique_larger_than_grid_rejected():
    with pytest.raises(ConfigError):
        build_clique_system(GridShape(2, 2), 3)


def test_2x2_l2_has_empty_subsets():
    cs = build_clique_system(GridShape(2, 2), 2)
    assert cs.n_cliques == 1
    assert cs.n_subsets == 4
    assert sum(len(s) for s in cs.subsets) == 1


@pytest.mark.parametrize("height,width,side", [
    (3, 3, 1), (3, 3, 2), (5, 4, 2), (8, 8, 3), (6, 8, 3), (8, 6, 1),
])
def test_against_brute_force_enumeration(height, width, side):
    cs = build_clique_system(GridShape(height, width), side)
    brute = helpers.brute_force_cliques(height, width, side)
    assert cs.n_cliques == len(brute)
    for i, (top, left, idx) in enumerate(brute):
        assert tuple(cs.corners[i]) == (top, left)
        assert cs.indices[i].tolist() == idx
    assert np.array_equal(cs.coverage,
                          helpers.coverage_by_enumeration(height, width, side))


@pytest.mark.parametrize("height,width,side", [(5, 5, 2), (6, 7, 3), (9, 9, 3)])
def test_partition_and_disjointness(height, width, side):
    cs = build_clique_system(GridShape(height, width), side)
    # every clique in exactly one subset
    owners = np.zeros(cs.n_cliques, dtype=int)
    for ids in cs.subsets:
        owners[ids] += 1
    assert np.all(owners == 1)
    # cliques within a subset share no pixel
    for ids in cs.subsets:
        flat = cs.indices[ids].ravel()
        assert len(set(flat.tolist())) == flat.size


def test_interior_pixel_coverage():
    cs = build_clique_system(GridShape(8, 8), 3)
    cov = cs.coverage.reshape(8, 8)
    assert np.all(cov[2:-2, 2:-2] == 9)
    assert cov[0, 0] == 1


def test_gather_full_grid_clique():
    cs = build_clique_system(GridShape(2, 2), 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert cs.gather(x, 0).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_gather_bottom_right():
    cs = build_clique_system(GridShape(3, 3), 2)
    x = np.arange(9.0).reshape(3, 3)
    # clique with top-left (1, 1) is the last in row-major corner order
    assert cs.gather(x, 3).tolist() == [4.0, 5.0, 7.0, 8.0]


def test_gather_zero_grid():
    cs = build_clique_system(GridShape(4, 4), 2)
    for c in range(cs.n_cliques):
        assert np.all(cs.gather(np.zeros((4, 4)), c) == 0)


def test_gather_out_of_range():
    cs = build_clique_system(GridShape(3, 3), 2)
    with pytest.raises(IndexError):
        cs.gather(np.zeros((3, 3)), 4)
    with pytest.raises(IndexError):
        cs.gather(np.zeros((3, 3)), -1)


def test_gather_shape_mismatch():
    cs = build_clique_system(GridShape(3, 3), 2)
    with pytest.raises(ShapeError):
        cs.gather(np.zeros((4, 3)), 0)


def test_scatter_zero_is_noop():
    cs = build_clique_system(GridShape(3, 3), 2)
    acc = np.ones((3, 3))
    cs.scatter_add(acc, 0, np.zeros(4))
    assert np.array_equal(acc, np.ones((3, 3)))


def test_scatter_overlap_accumulates():
    cs = build_clique_system(GridShape(3, 3), 2)
    acc = np.zeros((3, 3))
    cs.scatter_add(acc, 0, np.ones(4))  # corner (0, 0)
    cs.scatter_add(acc, 1, np.ones(4))  # corner (0, 1)
    assert acc[0, 1] == 2.0 and acc[1, 1] == 2.0
    assert acc[0, 0] == 1.0 and acc[0, 2] == 1.0


def test_scatter_length_mismatch():
    cs = build_clique_system(GridShape(3, 3), 2)
    with pytest.raises(ShapeError):
        cs.scatter_add(np.zeros((3, 3)), 0, np.ones(3))


def test_gather_scatter_adjoint():
    rng = np.random.default_rng(0)
    cs = build_clique_system(GridShape(4, 4), 2)
    for c in range(cs.n_cliques):
        x = rng.standard_normal((4, 4))
        g = rng.standard_normal(4)
        lhs = float(np.dot(cs.gather(x, c), g))
        basis = cs.scatter_add(np.zeros((4, 4)), c, g)
        rhs = float(np.sum(x * basis))
        assert abs(lhs - rhs) < 1e-12
