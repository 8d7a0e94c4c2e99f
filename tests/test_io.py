import numpy as np
import pytest

from blocksparse.matrixio import write_pgm

import helpers


def test_pgm_8bit_roundtrip(tmp_path):
    # integer levels spanning 0..255 map to themselves over the data range
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7))
    img[0, 0], img[-1, -1] = 0, 255
    path = tmp_path / "a.pgm"
    write_pgm(path, img.astype(float))
    assert np.array_equal(helpers.read_pgm8(path), img)


def test_pgm_float_quantization(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "c.pgm"
    write_pgm(path, img)
    back = helpers.read_pgm8(path)
    assert back[0, 0] == 0 and back[1, 0] == 255
    assert back[0, 1] == 128  # rounds 127.5 to even


def test_pgm_header_bytes(tmp_path):
    # a constant image is written as zeros at any finite magnitude, also where
    # lo + 1.0 == lo (2**53 and beyond)
    path = tmp_path / "d.pgm"
    for value in (0.0, 5.0, 1e16, -1e17, 1e308):
        write_pgm(path, np.full((2, 3), value))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6), value


def test_pgm_rejects_3d():
    with pytest.raises(ValueError):
        write_pgm("/tmp/never.pgm", np.zeros((2, 2, 2)))


@pytest.mark.parametrize("image", [[[0.0, np.nan]], [[0.0, np.inf]], [[-np.inf, 0.0]],
                                   [[-1e308, 1e308]], [[np.inf, np.inf]]],
                         ids=["nan", "inf", "-inf", "range-overflows", "constant-inf"])
def test_pgm_rejects_an_image_without_a_finite_range(tmp_path, image):
    # a non-finite sample, or one scaled by an infinite range, has no 8-bit
    # value; nothing is written
    path = tmp_path / "e.pgm"
    with pytest.raises(ValueError, match="finite"):
        write_pgm(path, image)
    assert not path.exists()
