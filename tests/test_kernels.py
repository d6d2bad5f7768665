import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls.errors import DimensionError
from kls.kernels import _block_rows, dot, mv_sweep, mv_times_mat_add_mv, mv_trans_mv, norm2
from kls.ledger import MV_DOT, MV_TIMES_MAT_ADD_MV, MV_TRANS_MV, SyncLedger


def test_dot_hand_value():
    assert dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_dot_unit_vector(rng):
    q = rng.standard_normal(50)
    q /= np.linalg.norm(q)
    assert abs(dot(q, q) - 1.0) <= 1e-15


def test_dot_matches_sequential_oracle(rng):
    # oracle: plain sequential accumulation; BLAS uses a fixed tree, so
    # agreement is to rounding, while determinism itself is bitwise
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    acc = 0.0
    for a, b in zip(x, y):
        acc += a * b
    assert dot(x, y) == pytest.approx(acc, rel=1e-15, abs=1e-15)
    assert dot(x, y) == dot(x.copy(), y.copy())  # bitwise deterministic


def test_dot_records_one_reduction():
    led = SyncLedger()
    dot(np.ones(8), np.ones(8), ledger=led)
    assert led.reductions == 1
    assert led.kernel_counts[MV_DOT] == 1
    assert led.flops == 16


def test_dot_length_mismatch():
    with pytest.raises(DimensionError):
        dot(np.ones(3), np.ones(4))


def test_norm2_values():
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert norm2(np.zeros(10)) == 0.0


def test_norm2_matches_dot_oracle(rng):
    x = rng.standard_normal(300)
    led = SyncLedger()
    assert norm2(x, ledger=led) == pytest.approx(np.sqrt(dot(x, x)), rel=1e-15)
    assert led.reductions == 1


def test_mv_trans_mv_identity():
    b = np.eye(3)
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(mv_trans_mv(b, x), x)


def test_mv_trans_mv_orthonormal_block(rng):
    from kls.dense import random_orthogonal

    q = random_orthogonal(40, 6, seed=5)
    assert np.linalg.norm(mv_trans_mv(q, q) - np.eye(6)) <= 1e-14


def test_mv_trans_mv_entrywise_oracle(rng):
    b = rng.standard_normal((50, 5))
    x = rng.standard_normal((50, 2))
    got = mv_trans_mv(b, x)
    for i in range(5):
        for j in range(2):
            assert got[i, j] == pytest.approx(
                float(np.dot(b[:, i], x[:, j])), rel=1e-14, abs=1e-14
            )


def test_mv_trans_mv_single_reduction_regardless_of_width(rng):
    b = rng.standard_normal((30, 4))
    for width in (1, 2, 7):
        led = SyncLedger()
        mv_trans_mv(b, rng.standard_normal((30, width)), ledger=led)
        assert led.reductions == 1
        assert led.kernel_counts[MV_TRANS_MV] == 1


def test_mv_trans_mv_empty_block_still_reduces():
    # static per-iteration call patterns issue the collective even with an
    # empty local block; closed-form totals count it
    led = SyncLedger()
    out = mv_trans_mv(np.zeros((10, 0)), np.ones((10, 1)), ledger=led)
    assert out.shape == (0, 1)
    assert led.reductions == 1
    assert led.flops == 0


@settings(deadline=None, max_examples=40)
@given(
    k=st.integers(min_value=0, max_value=100),
    l=st.integers(min_value=2, max_value=7),
    where=st.sampled_from(["below", "at", "above", "remainder"]),
    b_order=st.sampled_from("FC"),
    x_order=st.sampled_from("FC"),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mv_trans_mv_blocked_matches_product(k, l, where, b_order, x_order, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    r = _block_rows(k, l)
    if where == "remainder":
        m = 2 * r + int(gen.integers(1, r))
    else:
        m = r + {"below": -1, "at": 0, "above": 1}[where]
    b = np.asarray(gen.standard_normal((m, k)), order=b_order)
    x = np.asarray(gen.standard_normal((m, l)), order=x_order)
    led = SyncLedger()
    got = mv_trans_mv(b, x, ledger=led)
    # the rounding of an inner product scales with the sum of |b_i x_i|
    assert np.all(np.abs(got - b.T @ x) <= 1e-13 * (np.abs(b).T @ np.abs(x)))
    assert led.reductions == 1
    assert led.kernel_counts[MV_TRANS_MV] == 1
    assert led.flops == 2 * m * k * l
    if m > r:  # the summation order: row blocks of r, added in turn
        acc = b[:r].T @ x[:r]
        for i in range(r, m, r):
            acc = acc + b[i : i + r].T @ x[i : i + r]
        assert np.array_equal(got, acc)


@pytest.mark.parametrize("k", [0, 1, 2, 40, 101])
@pytest.mark.parametrize("l", [1, 2, 7])
def test_mv_trans_mv_exact_within_one_block(rng, k, l):
    # one block, or one column at any height, stays one BLAS product bit for bit
    r = _block_rows(k, l)
    heights = [1, r // 2, r]
    if l == 1:
        heights += [r + 1, 3 * r + 5]
    for m in heights:
        b = np.asfortranarray(rng.standard_normal((m, k)))
        x = rng.standard_normal((m, l))
        assert np.array_equal(mv_trans_mv(b, x), b.T @ x)


def test_mv_trans_mv_shape_error():
    with pytest.raises(DimensionError):
        mv_trans_mv(np.ones((5, 2)), np.ones((6, 2)))


@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("j", [0, 6])
def test_mv_sweep_matches_formula_and_sums_ahead(rng, j, ahead):
    # a ragged tail of rows past several blocks; d != 1 as for an Arnoldi image
    m = 3 * _block_rows(j + 2, 2) + 5
    v = np.asfortranarray(rng.standard_normal((m, j + 3)))
    k, alpha, d = rng.standard_normal((2, j + 1)), 1.7, 0.6
    want = v.copy(order="F")
    want[:, j + 1] /= d
    want[:, j : j + 2] -= want[:, : j + 1] @ k.T
    want[:, j] /= alpha
    out = mv_sweep(v, j, k, alpha, d, ahead)
    # the update's rounding follows the product's orientation, the sum's not
    assert np.allclose(v, want, rtol=1e-14, atol=1e-14)
    if ahead:
        assert np.array_equal(out, mv_trans_mv(v[:, : j + 2], v[:, j + 1 : j + 3]))
    else:
        assert out is None
    with pytest.raises(DimensionError):
        mv_sweep(v, j, k[:, :j], alpha)


def test_mv_times_mat_add_mv_projection():
    y = np.array([[1.0], [1.0]])
    out = mv_times_mat_add_mv(y, np.eye(2), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.zeros((2, 1)))
    assert out is y  # in-place


def test_mv_times_empty_block_keeps_the_bits_of_y():
    # the first column's update: Y - 0 is Y, signed zeros included
    y = np.array([[-0.0], [0.0], [1.5]])
    bits = y.tobytes()
    led = SyncLedger()
    mv_times_mat_add_mv(y, np.zeros((3, 0)), np.zeros((0, 1)), ledger=led)
    assert y.tobytes() == bits and led.kernel_counts[MV_TIMES_MAT_ADD_MV] == 1


def test_mv_times_zero_coefficients(rng):
    y = rng.standard_normal((7, 1))
    before = y.copy()
    mv_times_mat_add_mv(y, rng.standard_normal((7, 3)), np.zeros((3, 1)))
    assert np.array_equal(y, before)


def test_mv_times_triple_loop_oracle(rng):
    y0 = rng.standard_normal((100, 2))
    b = rng.standard_normal((100, 8))
    s = rng.standard_normal((8, 2))
    expected = y0.copy()
    for i in range(100):
        for j in range(2):
            acc = 0.0
            for k in range(8):
                acc += b[i, k] * s[k, j]
            expected[i, j] -= acc
    got = mv_times_mat_add_mv(y0.copy(), b, s)
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)


def test_mv_times_records_no_reduction(rng):
    led = SyncLedger()
    mv_times_mat_add_mv(
        rng.standard_normal((20, 1)),
        rng.standard_normal((20, 3)),
        rng.standard_normal((3, 1)),
        ledger=led,
    )
    assert led.reductions == 0
    assert led.kernel_counts[MV_TIMES_MAT_ADD_MV] == 1
    assert led.flops == 2 * 20 * 3


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("sign", [-1.0])
def test_mv_times_bitwise_equals_out_of_place_update(rng, sign, order):
    # the in-place subtraction gives the bits of Y + sign * (B @ S), signed
    # zeros included (row 0: -0 and a zero B row)
    y0 = np.array(rng.standard_normal((300, 3)), order=order)
    b = rng.standard_normal((300, 5))
    y0[0], b[0] = -0.0, 0.0
    s = rng.standard_normal((5, 3))
    expected = y0 + sign * (b @ s)
    got = y0.copy(order=order)
    mv_times_mat_add_mv(got, b, s)
    assert got.tobytes() == expected.tobytes()


def test_mv_times_shape_error(rng):
    with pytest.raises(DimensionError):
        mv_times_mat_add_mv(np.ones((5, 1)), np.ones((5, 2)), np.ones((3, 1)))


@settings(deadline=None, max_examples=25)
@given(
    m=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=0, max_value=8),
    l=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kernels_deterministic_and_consistent(m, k, l, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    b = gen.standard_normal((m, k))
    x = gen.standard_normal((m, l))
    g1 = mv_trans_mv(b, x)
    g2 = mv_trans_mv(b.copy(), x.copy())
    assert np.array_equal(g1, g2)
    assert np.allclose(g1, b.T @ x, rtol=1e-13, atol=1e-13)
