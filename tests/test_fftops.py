import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksparse.fftops import box_correlate_full, box_correlate_valid


def valid_by_loop(a, side):
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h - side + 1, w - side + 1))
    for r in range(h - side + 1):
        for c in range(w - side + 1):
            out[..., r, c] = a[..., r:r + side, c:c + side].sum(axis=(-2, -1))
    return out


def full_by_loop(a, side):
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + side - 1, w + side - 1))
    for r in range(h):
        for c in range(w):
            out[..., r:r + side, c:c + side] += a[..., r:r + 1, c:c + 1]
    return out


@pytest.mark.parametrize("shape", [(5, 7), (3, 6, 4), (2, 3, 4, 5)])
def test_window_sums_match_loops(shape):
    a = np.random.default_rng(0).standard_normal(shape)
    for side in range(1, min(shape[-2:]) + 1):
        valid = box_correlate_valid(a, side)
        full = box_correlate_full(a, side)
        np.testing.assert_allclose(valid, valid_by_loop(a, side), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(full, full_by_loop(a, side), rtol=1e-12, atol=1e-12)


def test_valid_rejects_side_beyond_extent():
    with pytest.raises(ValueError):
        box_correlate_valid(np.zeros((2, 4, 3)), 4)


def test_zero_window_beside_large_values_sums_to_zero():
    a = np.zeros((16, 16))
    a[:, :6] = 1e3 * np.random.default_rng(1).random((16, 6))
    for side in (2, 4):
        assert np.all(box_correlate_valid(a, side)[:, 6:] == 0.0)
        assert np.all(box_correlate_full(a, side)[:, 6 + side - 1:] == 0.0)


def test_nonnegative_input_gives_nonnegative_sums():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 24, 24)) ** 2 * 1e3
    a[rng.random(a.shape) < 0.7] = 0.0
    for side in (1, 2, 3, 5):
        assert np.all(box_correlate_valid(a, side) >= 0.0)
        assert np.all(box_correlate_full(a, side) >= 0.0)


def _array(data, shape):
    n = int(np.prod(shape))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return np.array(data.draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.data())
def test_full_is_adjoint_of_valid(height, width, side, data):
    side = min(side, height, width)
    a = _array(data, (height, width))
    b = _array(data, (height - side + 1, width - side + 1))
    lhs = float(np.sum(box_correlate_valid(a, side) * b))
    rhs = float(np.sum(a * box_correlate_full(b, side)))
    scale = float(np.sum(np.abs(a) * box_correlate_full(np.abs(b), side)))
    assert abs(lhs - rhs) <= 1e-12 * scale
