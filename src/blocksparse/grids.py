"""Pixel grids and overlapping square cliques, split into disjoint tilings.

Vectorization convention (used by every module): an ``H x W`` grid is
flattened row-major (C order), so pixel ``(r, c)`` has linear index
``r * W + c``.  Images are plain float ndarrays of shape ``(H, W)``;
multi-frame stacks are ``(H, W, L)`` and ``stack.reshape(N, L)`` yields the
matrix whose column ``t`` is frame ``t`` vectorized.

A :class:`CliqueSystem` describes the ``side x side`` cliques of a grid by
tile geometry alone.  Each of its ``side**2`` disjoint subsets tiles one
rectangular region of the grid, so the prox reads the tiles of every subset
through one strided view of its stack of per-subset copies
(:mod:`blocksparse.prox`), and no per-clique index list is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import ConfigError, ShapeError, check_count


@dataclass(frozen=True)
class GridShape:
    """Dimensions of a pixel grid."""

    height: int
    width: int

    def __post_init__(self):
        check_count(self.height, "grid height")
        check_count(self.width, "grid width")

    @property
    def n(self) -> int:
        return self.height * self.width

    @classmethod
    def of(cls, image: np.ndarray) -> "GridShape":
        a = np.asarray(image)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D image, got shape {a.shape}")
        return cls(a.shape[0], a.shape[1])


class CliqueSystem:
    """All fully-contained ``side x side`` patches of a grid, split into
    ``side**2`` disjoint subsets that each tile a region of the grid.

    Subset ``i = a*side + b`` (``0 <= a, b < side``) holds the cliques whose
    top-left corner ``(top, left)`` has ``top % side == a`` and
    ``left % side == b``: the ``nh x nw`` cliques with corners
    ``(a + p*side, b + q*side)``, where ``nh = (H - a)//side`` and
    ``nw = (W - b)//side``.  They tile rows ``[a, a + nh*side)`` and columns
    ``[b, b + nw*side)`` exactly, so cliques within one subset never share a
    pixel, and the subset is that region reshaped to ``(nh, side, nw, side)``.
    The prox builds its strided view of all subsets from this geometry.
    :attr:`tiles` holds ``(a, b, nh, nw)`` per subset; ``nh`` or ``nw`` is 0
    where the subset is empty (possible on small grids).
    Only fully-contained patches count: no wraparound, no zero padding, so
    border pixels simply belong to fewer cliques.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, shape: GridShape, side: int):
        check_count(side, "clique side")
        side = int(side)
        if side > min(shape.height, shape.width):
            raise ConfigError(
                f"clique side {side} exceeds grid {shape.height}x{shape.width}")
        self.shape = shape
        self.side = side
        self.n_subsets = side * side
        tiles = []
        for a in range(side):
            for b in range(side):
                tiles.append((a, b, (shape.height - a) // side, (shape.width - b) // side))
        self.tiles = tuple(tiles)


def build_clique_system(shape: GridShape, side: int) -> CliqueSystem:
    """The tiled subsets of all fully-contained ``side x side`` cliques of ``shape``."""
    return CliqueSystem(shape, side)
