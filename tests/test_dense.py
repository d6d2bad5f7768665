import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls.dense import householder_qr, random_orthogonal
from kls.errors import DimensionError


def loo(q):
    return np.linalg.norm(np.eye(q.shape[1]) - q.T @ q)


def test_identity_factorizes_to_identity():
    q, r = householder_qr(np.eye(4))
    assert np.allclose(q, np.eye(4), atol=1e-15)
    assert np.allclose(r, np.eye(4), atol=1e-15)


def test_single_column():
    # x0 = 2 needs no reflector (tau = 0); x0 = -2 is the pure sign flip (tau = 2)
    for x0 in (2.0, -2.0):
        q, r = householder_qr(np.array([[x0], [0.0], [0.0]]))
        assert r[0, 0] == 2.0
        assert np.array_equal(q[:, 0], [np.sign(x0), 0.0, 0.0])


def test_random_200x50_self_check(rng):
    a = rng.standard_normal((200, 50))
    q, r = householder_qr(a)
    assert loo(q) <= 1e-13
    assert np.linalg.norm(a - q @ r) <= 1e-14 * np.sqrt(200 * 50) * np.linalg.norm(a)


def test_r_diagonal_nonnegative(rng):
    a = rng.standard_normal((30, 10))
    _, r = householder_qr(a)
    assert np.all(np.diag(r) >= 0)


def test_rank_deficient_zero_diagonal(rng):
    a = rng.standard_normal((20, 4))
    a[:, 2] = a[:, 0]  # dependent column
    q, r = householder_qr(a)
    assert abs(r[2, 2]) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(a - q @ r) <= 1e-13 * np.linalg.norm(a)


def test_wide_matrix_rejected():
    with pytest.raises(DimensionError):
        householder_qr(np.ones((3, 5)))


def test_no_columns():
    q, r = householder_qr(np.ones((3, 0)))
    assert q.shape == (3, 0) and r.shape == (0, 0)


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=5, max_value=60),
    extra=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_reconstruction_and_orthogonality_property(n, extra, seed):
    m = n + extra
    gen = np.random.Generator(np.random.PCG64(seed))
    a = gen.standard_normal((m, n))
    q, r = householder_qr(a)
    assert loo(q) <= 1e-13 * n
    assert np.linalg.norm(a - q @ r) <= 1e-14 * np.sqrt(m * n) * np.linalg.norm(a)
    assert np.allclose(np.tril(r, -1), 0.0)


def test_random_orthogonal_unit_vector():
    q = random_orthogonal(12, 1, seed=0)
    assert q.shape == (12, 1)
    assert np.linalg.norm(q[:, 0]) == pytest.approx(1.0, rel=1e-14)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(40, 7, seed=123)
    b = random_orthogonal(40, 7, seed=123)
    assert np.array_equal(a, b)
    c = random_orthogonal(40, 7, seed=124)
    assert not np.array_equal(a, c)


def test_random_orthogonal_loo():
    q = random_orthogonal(300, 40, seed=9)
    assert loo(q) <= 1e-13 * 40
