"""Binary PGM previews, the one image format the experiments write.

PGM (P5) writes 8-bit grayscale previews without external image libraries.
The experiments save their solvers' exact state beside these previews as
NumPy ``.npy`` files (``np.save``, read back bit for bit with ``np.load``);
the previews are quantized and cannot serve for analysis.
"""

from __future__ import annotations

import numpy as np


def write_pgm(path, image) -> None:
    """Write a grayscale image as 8-bit binary PGM, its data range mapped to
    ``[0, 255]`` (a constant image is written as zeros).

    Raises ``ValueError`` on an image that is not 2-D, or not finite, or
    whose range ``max - min`` overflows: a NaN or an infinity, in the image
    or in the scaled samples, has no sample value, and casting it to
    ``uint8`` is undefined.  Nothing is written when it raises.
    """
    a = np.asarray(image, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"PGM needs a 2-D image, got shape {a.shape}")
    lo = float(a.min())
    span = float(a.max()) - lo
    if not np.isfinite(span):
        raise ValueError("PGM needs a finite image whose range max - min is finite")
    # a constant image has span 0 and maps to zeros at any magnitude
    samples = np.rint((a - lo) / (span if span > 0 else 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
        fh.write(samples.tobytes())
