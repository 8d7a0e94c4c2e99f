import functools
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blocksparse import ShapeError
from blocksparse.fftops import box_correlate_full, box_correlate_valid

from helpers import at_front_of


def valid_by_loop(a, side):
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h - side + 1, w - side + 1))
    for r in range(h - side + 1):
        for c in range(w - side + 1):
            out[..., r, c] = a[..., r:r + side, c:c + side].sum(axis=(-2, -1))
    return out


def valid_in_order(a, side):
    """The valid window sums with the adds in the order the sums promise:
    each window's rows ``a[r] + a[r + 1] + ...``, then the row sums'
    columns, both in index order, one Python float add at a time (``sum``
    may compensate, and NumPy's sums are pairwise)."""
    def add(terms):
        return functools.reduce(operator.add, terms)

    h, w = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (h - side + 1, w - side + 1))
    for idx in np.ndindex(a.shape[:-2]):
        img = a[idx].tolist()
        rows = [[add(img[r + i][c] for i in range(side)) for c in range(w)]
                for r in range(h - side + 1)]
        out[idx] = [[add(row[c + j] for j in range(side)) for c in range(w - side + 1)]
                    for row in rows]
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
        valid = box_correlate_valid(a.copy(), side)  # the valid sum spends its input
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
        assert np.all(box_correlate_valid(a.copy(), side)[:, 6:] == 0.0)
        assert np.all(box_correlate_full(a, side)[:, 6 + side - 1:] == 0.0)


def test_nonnegative_input_gives_nonnegative_sums():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 24, 24)) ** 2 * 1e3
    a[rng.random(a.shape) < 0.7] = 0.0
    for side in (1, 2, 3, 5):
        assert np.all(box_correlate_valid(a, side) >= 0.0)
        assert np.all(box_correlate_full(a, side) >= 0.0)


@st.composite
def operands(draw):
    """An image ``a``, a window-sum-shaped ``b`` and the side relating them."""
    height, width, side = (draw(st.integers(1, 9)) for _ in range(3))
    side = min(side, height, width)
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def array(shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)

    return array((height, width)), array((height - side + 1, width - side + 1)), side


@settings(max_examples=60, deadline=None)
@given(operands())
# the window sums are exact here, but the products with a subnormal b lose
# all relative precision: the underflow term of the rounding model covers them
@example((np.array([[0.0, 0.0], [1.0, 1.5]]), np.array([[5e-324]]), 2))
def test_full_is_adjoint_of_valid(ops):
    a, b, side = ops
    lhs = float(np.sum(box_correlate_valid(a.copy(), side) * b))
    rhs = float(np.sum(a * box_correlate_full(b, side)))
    scale = float(np.sum(np.abs(a) * box_correlate_full(np.abs(b), side)))
    tiny = max(a.size, b.size) * np.finfo(float).smallest_subnormal
    assert abs(lhs - rhs) <= 1e-12 * scale + tiny


@pytest.mark.parametrize("shape", [(6, 7), (3, 6, 5), (2, 2, 5, 6)])
def test_full_equals_the_valid_sum_of_the_padded_array(shape):
    # the full sum runs the valid sum's two passes over its input placed
    # below and right of side - 1 zero rows and columns, so it adds each
    # entry's terms in the padded valid sum's order; it skips the padding
    # past its end, whose terms are zeros
    a = np.random.default_rng(3).standard_normal(shape)
    for side in range(1, 6):
        pad = [(0, 0)] * (a.ndim - 2) + [(side - 1, side - 1)] * 2
        np.testing.assert_array_equal(box_correlate_full(a, side),
                                      box_correlate_valid(np.pad(a, pad), side))


@st.composite
def stacks(draw):
    """An array of 0 to 2 batch axes over images of 1 to 10 rows and columns."""
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, (*batch, h, w), elements=values))


@settings(max_examples=60, deadline=None)
@given(stacks())
@example(np.random.default_rng(9).standard_normal((2, 6, 7)))
def test_window_sums_add_in_index_order(a):
    # the solvers' iterates rest on these bits: a kernel that adds the
    # shifts in another order changes them.  The full sum takes any side,
    # and equals the in-order valid sum of the zero-padded array
    h, w = a.shape[-2:]
    for side in range(1, max(h, w) + 2):
        if side <= min(h, w):
            np.testing.assert_array_equal(box_correlate_valid(a.copy(), side),
                                          valid_in_order(a, side))
        pad = [(0, 0)] * (a.ndim - 2) + [(side - 1, side - 1)] * 2
        np.testing.assert_array_equal(box_correlate_full(a, side),
                                      valid_in_order(np.pad(a, pad), side))


@pytest.mark.parametrize("shape", [(6, 7), (3, 6, 5)])
@pytest.mark.parametrize("side", [1, 2, 4])
def test_out_and_scratch_give_the_allocating_result(shape, side):
    a = np.random.default_rng(4).standard_normal(shape)
    h, w = shape[-2:]
    want = box_correlate_valid(a.copy(), side)
    # a larger scratch than needed: only its first entries are used.  The
    # valid sum's column pass overwrites its input, and the sums come back
    # over the spent row pass at the front of scratch
    scratch = np.full(3 * a.size, np.nan)
    spent = a.copy()
    got = box_correlate_valid(spent, side, scratch=scratch)
    assert at_front_of(got, scratch)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(spent[..., :h - side + 1, :w - side + 1], want)
    want = box_correlate_full(a, side)
    out = np.full(want.shape, np.nan)
    scratch = np.full(3 * want.size, np.nan)
    spent = a.copy()
    assert box_correlate_full(spent, side, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(spent, a)
    np.testing.assert_array_equal(box_correlate_full(a.copy(), side, scratch=scratch), want)
    out = np.full(want.shape, np.nan)
    assert box_correlate_full(a, side, out=out) is out
    np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("side", [1, 2, 4])
def test_valid_sum_without_scratch_spends_its_input_and_allocates_one_pass(side):
    # the column pass overwrites the input, and the sums come back at the
    # front of the one array the sum allocates, its row pass
    a = np.random.default_rng(6).standard_normal((4, 64, 64))
    want = valid_by_loop(a, side)
    spent = a.copy()
    tracemalloc.start()
    try:
        got = box_correlate_valid(spent, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes
    assert got.base is not None and at_front_of(got, got.base)
    assert not np.shares_memory(got, spent)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(spent[..., :64 - side + 1, :64 - side + 1], got)


def test_valid_sum_with_out_and_scratch_allocates_nothing_input_sized():
    a = np.random.default_rng(7).standard_normal((4, 64, 64))
    side = 3
    want = box_correlate_valid(a.copy(), side)
    scratch = np.empty_like(a)
    spent = a.copy()
    tracemalloc.start()
    try:
        got = box_correlate_valid(spent, side, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2
    assert at_front_of(got, scratch)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(spent[..., :64 - side + 1, :64 - side + 1], want)


def test_full_sum_with_out_and_scratch_allocates_nothing_output_sized():
    a = np.random.default_rng(8).standard_normal((4, 62, 62))
    side = 3
    want = box_correlate_full(a, side)
    out, scratch = np.empty_like(want), np.empty_like(want)
    kept = a.copy()
    tracemalloc.start()
    try:
        box_correlate_full(a, side, out=out, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < want.nbytes / 2
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(a, kept)


@pytest.mark.parametrize("side", [1, 2, 3])
def test_out_may_share_memory_with_the_input(side):
    # the valid sum's result overwrites the row pass it kept in scratch,
    # which is spent by then; scratch of any shape serves, as a flat buffer
    rng = np.random.default_rng(5)
    h, w = 7, 9
    a = rng.standard_normal((h, w))
    want = box_correlate_valid(a.copy(), side)
    for scratch in (np.empty(h * w), np.empty((w + 1, h))):
        buffer = a.copy()
        got = box_correlate_valid(buffer, side, scratch=scratch)
        assert at_front_of(got, scratch)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(buffer[:h - side + 1, :w - side + 1], want)
    # the full sum's input may not be a view of its output's own storage
    buffer = np.empty((h + side - 1, w + side - 1))
    a = rng.standard_normal((h, w))
    want = box_correlate_full(a, side)
    placed = buffer.reshape(-1)[:h * w].reshape(h, w)
    placed[...] = a
    with pytest.raises(ValueError, match="^out must not share memory with the input$"):
        box_correlate_full(placed, side, out=buffer)
    # but it may be the front of its scratch: it is placed in out before the
    # row pass overwrites scratch
    scratch = np.empty(buffer.size)
    held = scratch[:h * w].reshape(h, w)
    held[...] = a
    out = np.full(want.shape, np.nan)
    assert box_correlate_full(held, side, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, want)


def test_buffers_are_checked():
    a = np.ones((5, 5))
    # each sum keeps one pass in scratch: the valid sum's of the input's
    # shape, the full sum's of the output's
    with pytest.raises(ValueError, match="scratch holds 24 entries; the sum needs 25"):
        box_correlate_valid(a, 2, scratch=np.empty(24))
    with pytest.raises(ValueError, match="scratch holds 35 entries; the sum needs 36"):
        box_correlate_full(a, 2, scratch=np.empty(35))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        box_correlate_valid(a, 2, scratch=np.empty((10, 10)).T)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        box_correlate_full(a, 2, out=np.empty((6, 6)).T)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        box_correlate_full(a, 2, out=np.empty((6, 6), dtype=np.float32))
    with pytest.raises(ShapeError, match=r"expected \(6, 6\)"):
        box_correlate_full(a, 2, out=np.empty((4, 9)))
