import numpy as np
import pytest

from kls.arnoldi import arnoldi_expand
from kls.dense import householder_qr, random_orthogonal
from kls.errors import DimensionError
from kls.metrics import (
    loss_of_orthogonality,
    representation_error_arnoldi,
    representation_error_qr,
)
from kls.problems import (
    CsrOperator,
    ManteuffelSpec,
    manteuffel_build,
)


def test_loo_identity_zero():
    assert loss_of_orthogonality(np.eye(5)) == 0.0


def test_loo_duplicated_column():
    q = np.zeros((4, 2))
    q[0, 0] = 1.0
    q[0, 1] = 1.0  # duplicated unit column: two off-diagonal ones
    assert loss_of_orthogonality(q) == pytest.approx(np.sqrt(2.0))


def test_loo_householder_factor():
    rng = np.random.Generator(np.random.PCG64(5))
    q, _ = householder_qr(rng.standard_normal((500, 50)))
    assert loss_of_orthogonality(q) <= 1e-13


def test_rre_qr_exact_and_degenerate(rng):
    a = rng.standard_normal((30, 6))
    q, r = householder_qr(a)
    assert representation_error_qr(a, q, r) <= 1e-15
    assert representation_error_qr(a, q, np.zeros_like(r)) == pytest.approx(1.0)


def test_metrics_invariant_under_sign_flips(rng):
    a = rng.standard_normal((40, 8))
    q, r = householder_qr(a)
    signs = np.array([1, -1, 1, -1, -1, 1, 1, -1], dtype=float)
    q2 = q * signs[None, :]
    r2 = r * signs[:, None]
    assert loss_of_orthogonality(q2) == pytest.approx(
        loss_of_orthogonality(q), abs=1e-15
    )
    assert representation_error_qr(a, q2, r2) == pytest.approx(
        representation_error_qr(a, q, r), abs=1e-16
    )


def test_rre_arnoldi_exact_and_perturbed(rng):
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=6)))
    v, h = arnoldi_expand(op, rng.standard_normal(op.n), "cgs2", steps=12)
    assert representation_error_arnoldi(op, v, h) <= 1e-14
    h2 = h.copy()
    h2[0, 0] += 1.0
    dense_fro = np.linalg.norm(op.to_dense())
    expected = 1.0 / dense_fro  # single-entry perturbation of unit size
    assert representation_error_arnoldi(op, v, h2) == pytest.approx(expected, rel=1e-6)


def test_rre_arnoldi_no_incremental_drift(rng):
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=6)))
    v, h = arnoldi_expand(op, rng.standard_normal(op.n), "dcgs2", steps=15)
    a1 = representation_error_arnoldi(op, v, h)
    a2 = representation_error_arnoldi(op, v.copy(), h.copy())
    assert a1 == pytest.approx(a2, abs=1e-15)


def test_rre_arnoldi_without_columns_is_zero():
    # k = 0: one basis column and a 1-by-0 H; the empty residual has norm 0
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=3)))
    q = np.ones((op.n, 1)) / 3.0
    assert representation_error_arnoldi(op, q, np.zeros((1, 0))) == 0.0
    assert op.napply == 0


def test_rre_arnoldi_shape_guard(rng):
    with pytest.raises(DimensionError):
        representation_error_arnoldi(np.eye(4), np.ones((4, 3)), np.ones((3, 3)))
