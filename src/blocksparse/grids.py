"""Pixel grids and overlapping square cliques with a disjoint-subset decomposition.

Vectorization convention (used by every module): an ``H x W`` grid is
flattened row-major (C order), so pixel ``(r, c)`` has linear index
``r * W + c``.  Images are plain float ndarrays of shape ``(H, W)``;
multi-frame stacks are ``(H, W, L)`` and ``stack.reshape(N, L)`` yields the
matrix whose column ``t`` is frame ``t`` vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import ConfigError, ShapeError


@dataclass(frozen=True)
class GridShape:
    """Dimensions of a pixel grid."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ConfigError("grid dimensions must be positive")

    @property
    def n(self) -> int:
        return self.height * self.width

    def index(self, row: int, col: int) -> int:
        """Linear index of pixel ``(row, col)`` under row-major vectorization."""
        return row * self.width + col

    @classmethod
    def of(cls, image: np.ndarray) -> "GridShape":
        a = np.asarray(image)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D image, got shape {a.shape}")
        return cls(a.shape[0], a.shape[1])


class CliqueSystem:
    """All fully-contained ``side x side`` patches of a grid, partitioned into
    disjoint subsets.

    Cliques are ordered row-major by top-left corner, and each clique lists
    its ``side**2`` pixel indices row-major within the patch.  Subset
    ``(top % side) * side + (left % side)`` tiles the grid with stride
    ``side``, so cliques within one subset never share a pixel; there are
    exactly ``side**2`` subsets (some may be empty on small grids).  Only
    fully-contained patches count: no wraparound, no zero padding, so border
    pixels simply belong to fewer cliques.

    Tile geometry: subset ``i = a*side + b`` (``0 <= a, b < side``) is the
    ``nh x nw`` grid of cliques with corners ``(a + p*side, b + q*side)``,
    ``nh = (H - a)//side`` and ``nw = (W - b)//side``.  They tile rows
    ``[a, a + nh*side)`` and columns ``[b, b + nw*side)`` exactly, so the
    subset is that region cropped and reshaped to ``(nh, side, nw, side)``;
    it is empty when ``nh`` or ``nw`` is 0.  The prox reads its copies
    through such strided views, not through :attr:`indices`.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, shape: GridShape, side: int):
        side = int(side)
        if side < 1:
            raise ConfigError("clique side must be >= 1")
        if side > min(shape.height, shape.width):
            raise ConfigError(
                f"clique side {side} exceeds grid {shape.height}x{shape.width}")
        self.shape = shape
        self.side = side

        h_tops = shape.height - side + 1
        w_lefts = shape.width - side + 1
        tops, lefts = np.divmod(np.arange(h_tops * w_lefts), w_lefts)
        self.corners = np.column_stack([tops, lefts])

        offsets = (np.arange(side)[:, None] * shape.width + np.arange(side)[None, :]).ravel()
        base = tops * shape.width + lefts
        self.indices = base[:, None] + offsets[None, :]

        self.subset_of = (tops % side) * side + (lefts % side)
        self.n_subsets = side * side
        self.subsets = tuple(np.flatnonzero(self.subset_of == i) for i in range(self.n_subsets))

        coverage = np.zeros(shape.n, dtype=np.int64)
        np.add.at(coverage, self.indices.ravel(), 1)
        self.coverage = coverage

    @property
    def n_cliques(self) -> int:
        return self.indices.shape[0]

    def _check_image(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape.height, self.shape.width):
            raise ShapeError(
                f"image shape {x.shape} does not match grid "
                f"{self.shape.height}x{self.shape.width}")
        return x

    def gather(self, x, c: int) -> np.ndarray:
        """Entries of image ``x`` at clique ``c``, in the clique's fixed order."""
        x = self._check_image(x)
        if not 0 <= c < self.n_cliques:
            raise IndexError(f"clique index {c} out of range [0, {self.n_cliques})")
        return x.ravel()[self.indices[c]]

    def scatter_add(self, acc: np.ndarray, c: int, values) -> np.ndarray:
        """Add ``values`` into ``acc`` at clique ``c``'s pixels, in place.

        Adjoint of :meth:`gather`: ``<gather(x, c), g> == <x, scatter_add(0, c, g)>``.
        Returns ``acc``.
        """
        if not 0 <= c < self.n_cliques:
            raise IndexError(f"clique index {c} out of range [0, {self.n_cliques})")
        if acc.shape != (self.shape.height, self.shape.width):
            raise ShapeError(f"accumulator shape {acc.shape} does not match grid")
        values = np.asarray(values, dtype=float)
        if values.shape != (self.side * self.side,):
            raise ShapeError(
                f"expected {self.side * self.side} values, got shape {values.shape}")
        flat = acc.reshape(-1)
        np.add.at(flat, self.indices[c], values)
        if not np.shares_memory(flat, acc):
            acc[...] = flat.reshape(acc.shape)
        return acc


def build_clique_system(shape: GridShape, side: int) -> CliqueSystem:
    """Enumerate all fully-contained ``side x side`` cliques of ``shape``."""
    return CliqueSystem(shape, side)
