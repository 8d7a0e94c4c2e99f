"""Portable file formats: binary PGM images and a raw float64 matrix container.

PGM (P5) writes 8-bit grayscale previews without external image libraries.
The matrix container stores exact solver state: magic line ``BSMX1``, an
ASCII ``rows cols`` line, then row-major little-endian float64 payload.
"""

from __future__ import annotations

import numpy as np

_MATRIX_MAGIC = b"BSMX1\n"


def quantize(image, lo: float, hi: float) -> np.ndarray:
    """Affinely map ``[lo, hi]`` to ``[0, 255]`` with clipping and rounding."""
    if hi <= lo:
        raise ValueError("need hi > lo to quantize")
    a = np.asarray(image, dtype=float)
    return np.rint(np.clip((a - lo) / (hi - lo), 0.0, 1.0) * 255).astype(np.uint8)


def write_pgm(path, image) -> None:
    """Write a grayscale image as 8-bit binary PGM, its data range mapped to
    ``[0, 255]`` (a constant image is written as zeros)."""
    a = np.asarray(image, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"PGM needs a 2-D image, got shape {a.shape}")
    lo, hi = float(a.min()), float(a.max())
    samples = quantize(a, lo, hi if hi > lo else lo + 1.0)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
        fh.write(samples.tobytes())


def write_matrix(path, a) -> None:
    """Write a 2-D float64 matrix in the exact-state container format."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"container stores 2-D matrices, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(f"{a.shape[0]} {a.shape[1]}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`, bit for bit.

    The experiments save their solvers' exact output in this format (the
    ``.bsm`` files), and this reader is how a user loads it back for
    analysis; the PGM previews are quantized and cannot serve.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MATRIX_MAGIC))
        if magic != _MATRIX_MAGIC:
            raise ValueError(f"bad matrix container magic {magic!r}")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise ValueError("malformed dimension line")
        rows, cols = int(dims[0]), int(dims[1])
        payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise ValueError("truncated matrix payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
