import numpy as np
import pytest

from blocksparse.matrixio import quantize, read_matrix, write_matrix, write_pgm

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
    path = tmp_path / "d.pgm"
    write_pgm(path, np.zeros((2, 3)))
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6


def test_pgm_rejects_3d():
    with pytest.raises(ValueError):
        write_pgm("/tmp/never.pgm", np.zeros((2, 2, 2)))


def test_quantize_clips():
    out = quantize(np.array([[-1.0, 2.0]]), 0.0, 1.0)
    assert out.tolist() == [[0, 255]]


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    path = tmp_path / "m.bsm"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)  # bit-exact


def test_matrix_header(tmp_path):
    path = tmp_path / "m.bsm"
    write_matrix(path, np.ones((2, 3)))
    data = path.read_bytes()
    assert data.startswith(b"BSMX1\n2 3\n")
    assert len(data) == len(b"BSMX1\n2 3\n") + 2 * 3 * 8


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "junk.bsm"
    path.write_bytes(b"NOTME\n2 2\n" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_matrix(path)


def test_matrix_truncated(tmp_path):
    path = tmp_path / "trunc.bsm"
    write_matrix(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_matrix(path)


def test_matrix_rejects_vector():
    with pytest.raises(ValueError):
        write_matrix("/tmp/never.bsm", np.ones(5))
