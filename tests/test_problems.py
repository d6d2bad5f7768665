import glob
import os

import numpy as np
import pytest

from conftest import DATA, data_path, write_mtx
from kls.errors import DimensionError, MatrixMarketError
from kls.problems import (
    CsrMatrix,
    CsrOperator,
    DenseOperator,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    manteuffel_eigenvalues,
    parse_matrix_market,
    synthetic_kappa,
)


# ---------------------------------------------------------------------------
# CSR storage


def test_csr_from_coo_sums_duplicates():
    csr = CsrMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert csr.nnz == 2
    assert csr.to_dense().tolist() == [[0.0, 5.0], [-1.0, 0.0]]


def test_csr_sorted_unique_indices(rng):
    n = 30
    rows = rng.integers(0, n, 200)
    cols = rng.integers(0, n, 200)
    vals = rng.standard_normal(200)
    csr = CsrMatrix.from_coo(n, n, rows, cols, vals)
    for i in range(n):
        seg = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
        assert np.all(np.diff(seg) > 0)
    assert np.all(np.diff(csr.indptr) >= 0)


def test_csr_matvec_matches_dense(rng):
    csr = CsrMatrix.from_coo(
        4, 4, [0, 1, 1, 3], [1, 0, 3, 2], [1.5, -2.0, 0.5, 4.0]
    )
    x = rng.standard_normal(4)
    assert np.allclose(csr.matvec(x), csr.to_dense() @ x, atol=1e-15)


def test_csr_empty_rows_matvec():
    csr = CsrMatrix.from_coo(3, 3, [2], [0], [7.0])
    assert csr.matvec(np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 0.0, 7.0]


# ---------------------------------------------------------------------------
# Manteuffel family


def test_manteuffel_k1_single_point():
    spec = ManteuffelSpec(k=1)
    a = manteuffel_build(spec).to_dense()
    assert a.shape == (1, 1) and a[0, 0] == pytest.approx(4.0)
    table = manteuffel_eigenvalues(spec)
    assert np.allclose(table.values, [4.0])


def test_manteuffel_k2_eigenvalues_match_reference():
    spec = ManteuffelSpec(k=2, beta=0.5)
    a = manteuffel_build(spec).to_dense()
    ev = np.sort(np.linalg.eigvals(a).real)
    expected = [2.063508, 4.0, 4.0, 5.936492]
    assert np.allclose(ev, expected, atol=1e-6)
    table = manteuffel_eigenvalues(spec)
    assert np.max(np.abs(table.values - ev)) <= 1e-9
    assert table.multiplicity[np.argmin(np.abs(table.unique - 4.0))] == 2


def test_manteuffel_parts_symmetry_exact():
    # at beta = 0.5 the symmetric part of A is the five-point Laplacian M,
    # bit for bit and positive definite, and A - A^T is beta N, exactly skew
    spec = ManteuffelSpec(k=6, beta=0.5)
    a = manteuffel_build(spec).to_dense()
    _, mm, nn = _manteuffel_coo(spec)
    sym, skew = (a + a.T) / 2.0, a - a.T
    assert np.array_equal(sym, mm.to_dense())
    assert np.min(np.linalg.eigvalsh(sym)) > 0
    assert np.array_equal(skew, -skew.T)
    assert np.array_equal(skew, spec.beta * nn.to_dense())


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_manteuffel_eigenvalue_formula_vs_assembly(k):
    spec = ManteuffelSpec(k=k, beta=0.5)
    a = manteuffel_build(spec).to_dense()
    dense_ev = np.sort(np.linalg.eigvals(a).real)
    table = manteuffel_eigenvalues(spec)
    assert len(table.values) == k * k
    assert np.max(np.abs(dense_ev - table.values)) <= 1e-8
    assert int(np.sum(table.multiplicity)) == k * k


def test_manteuffel_beta_zero_is_laplacian():
    spec = ManteuffelSpec(k=3, beta=0.0)
    table = manteuffel_eigenvalues(spec)
    theta = np.cos(np.arange(1, 4) * np.pi / 4)
    expected = np.sort((2 * (2 - (theta[:, None] + theta[None, :]))).ravel())
    assert np.allclose(table.values, expected, atol=1e-14)


def _grouped_by_loop(values, scale):
    """The grouping ``manteuffel_eigenvalues`` made before it used numpy:
    a value joins the group whose first value lies within the tolerance."""
    unique, mult = [], []
    for v in values:
        if unique and abs(v - unique[-1]) <= 1e-12 * scale:
            mult[-1] += 1
        else:
            unique.append(v)
            mult.append(1)
    return np.array(unique), np.array(mult, dtype=np.int64)


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_manteuffel_eigenvalue_groups_match_the_loop(beta):
    for k in range(1, 61):
        table = manteuffel_eigenvalues(ManteuffelSpec(k=k, beta=beta))
        scale = max(abs(table.values[0]), abs(table.values[-1]), 1.0)
        unique, mult = _grouped_by_loop(table.values, scale)
        assert table.unique.dtype == unique.dtype and np.array_equal(table.unique, unique)
        assert table.multiplicity.dtype == mult.dtype
        assert np.array_equal(table.multiplicity, mult)


def _manteuffel_coo(spec):
    """Reference assembly: the row-by-row stencil triplets of M and N, each
    summed by ``from_coo``, then the scaled parts summed by ``from_coo``."""
    k = spec.k
    m_rows, m_cols, m_vals = [], [], []
    n_rows, n_cols, n_vals = [], [], []
    for blk in range(k):
        for i in range(k):
            r = blk * k + i
            m_rows.append(r), m_cols.append(r), m_vals.append(4.0)
            for nb, active, sign in ((r - 1, i > 0, -1.0), (r - k, blk > 0, -1.0),
                                     (r + 1, i < k - 1, 1.0), (r + k, blk < k - 1, 1.0)):
                if active:
                    m_rows.append(r), m_cols.append(nb), m_vals.append(-1.0)
                    n_rows.append(r), n_cols.append(nb), n_vals.append(sign)
    mm = CsrMatrix.from_coo(spec.m, spec.m, m_rows, m_cols, m_vals)
    nn = CsrMatrix.from_coo(spec.m, spec.m, n_rows, n_cols, n_vals)
    diff, conv = 1.0, spec.beta / 2.0
    rows = [np.repeat(np.arange(spec.m), np.diff(p.indptr)) for p in (mm, nn)]
    a = CsrMatrix.from_coo(spec.m, spec.m, np.concatenate(rows),
                           np.concatenate([mm.indices, nn.indices]),
                           np.concatenate([diff * mm.data, conv * nn.data]))
    return a, mm, nn


def _bits(csr):
    return (csr.shape, csr.indptr.dtype, csr.indices.dtype, csr.data.dtype,
            csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes())


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
# the ids are the names these cases had when the spec also took a domain
# length ("None": the default, h = 1; "2.0": h = 2/(k+1), now run at h = 1)
@pytest.mark.parametrize("beta", [
    pytest.param(beta, id=name) for beta, name in (
        (0.0, "0.0-None"), (0.5, "0.5-None"), (-1.3, "-1.3-None"), (2.0, "2.0-None"),
        (0.3, "0.3-2.0"))
])
def test_manteuffel_assembly_bitwise_equals_coo_reference(k, beta):
    spec = ManteuffelSpec(k=k, beta=beta)
    got = manteuffel_build(spec)
    assert _bits(got) == _bits(_manteuffel_coo(spec)[0])
    assert (got.indptr.dtype, got.indices.dtype, got.data.dtype) == (
        np.int64, np.int64, np.float64)
    for r in range(spec.m):
        assert np.all(np.diff(got.indices[got.indptr[r]: got.indptr[r + 1]]) > 0)


def test_manteuffel_complex_spectrum_rejected():
    with pytest.raises(ValueError):
        manteuffel_eigenvalues(ManteuffelSpec(k=3, beta=2.5))
    with pytest.raises(ValueError):
        ManteuffelSpec(k=0)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite beta"):
            ManteuffelSpec(k=3, beta=beta)


# ---------------------------------------------------------------------------
# Laplace stencil


def test_laplace_single_node():
    op = laplace3d(1, 1, 1)
    assert op.apply(np.array([1.0]))[0] == pytest.approx(6.0)


def _stencil(x, dims):
    """The 7-point stencil by NumPy slices: 6 x minus each grid neighbour."""
    g = x.reshape(dims)
    y = 6.0 * g
    y[1:, :, :] -= g[:-1, :, :]
    y[:-1, :, :] -= g[1:, :, :]
    y[:, 1:, :] -= g[:, :-1, :]
    y[:, :-1, :] -= g[:, 1:, :]
    y[:, :, 1:] -= g[:, :, :-1]
    y[:, :, :-1] -= g[:, :, 1:]
    return y.reshape(-1)


def test_laplace_matches_assembled(rng):
    # a cube and two grids whose axes all differ in length, so z runs fastest
    for dims in ((4, 4, 4), (3, 1, 5), (2, 6, 4)):
        op = laplace3d(*dims)
        x = np.ones(op.n)
        assert np.allclose(op.apply(x), _stencil(x, dims), atol=1e-14)
        y = rng.standard_normal(op.n)
        assert np.allclose(op.apply(y), _stencil(y, dims), atol=1e-13)


def test_laplace_symmetry(rng):
    op = laplace3d(3, 4, 5)
    for _ in range(3):
        x = rng.standard_normal(op.n)
        y = rng.standard_normal(op.n)
        assert abs(op.apply(x) @ y - x @ op.apply(y)) <= 1e-13 * (
            np.linalg.norm(x) * np.linalg.norm(y)
        )


def test_laplace_frobenius_exact():
    # 6 on the diagonal and -1 twice per grid edge
    nx, ny, nz = 5, 4, 3
    op = laplace3d(nx, ny, nz)
    edges = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
    assert op.frobenius_norm() == np.sqrt(36.0 * op.n + 2.0 * edges)


def test_operator_apply_counts():
    op = laplace3d(2, 2, 2)
    op.apply(np.ones(8))
    op.apply(np.ones(8))
    assert op.napply == 2
    with pytest.raises(DimensionError):
        op.apply(np.ones(9))


# ---------------------------------------------------------------------------
# synthetic condition-number matrices


def test_synthetic_kappa_orthonormal_at_one():
    a = synthetic_kappa(60, 10, 1.0, seed=2)
    s = np.linalg.svd(a, compute_uv=False)
    assert s[0] / s[-1] == pytest.approx(1.0, rel=1e-12)


def test_synthetic_kappa_achieves_ratio():
    a = synthetic_kappa(80, 12, 1e8, seed=3)
    s = np.linalg.svd(a, compute_uv=False)
    assert s[0] / s[-1] == pytest.approx(1e8, rel=0.05)


def test_synthetic_kappa_deterministic():
    assert np.array_equal(
        synthetic_kappa(40, 6, 1e4, seed=7), synthetic_kappa(40, 6, 1e4, seed=7)
    )


def test_synthetic_kappa_rejects_bad():
    for kappa in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            synthetic_kappa(10, 2, kappa, seed=0)


# ---------------------------------------------------------------------------
# Matrix Market


def test_parse_identity():
    csr = parse_matrix_market(data_path("good_identity2.mtx"))
    assert csr.nnz == 2
    assert np.array_equal(csr.to_dense(), np.eye(2))


def test_parse_symmetric_expansion():
    # three stored lower entries (one diagonal) expand to five
    csr = parse_matrix_market(data_path("good_symmetric.mtx"))
    assert csr.nnz == 5
    d = csr.to_dense()
    assert np.array_equal(d, d.T)
    assert d[0, 0] == 4.0 and d[1, 0] == -1.5 and d[0, 1] == -1.5


def test_parse_skew_symmetric():
    csr = parse_matrix_market(data_path("good_skew.mtx"))
    d = csr.to_dense()
    assert np.array_equal(d, -d.T)
    assert d[1, 0] == 1.5 and d[0, 1] == -1.5


def test_parse_all_good_corpus_files():
    for path in sorted(glob.glob(os.path.join(DATA, "good_*.mtx"))):
        csr = parse_matrix_market(path)
        assert csr.nrows > 0 and csr.ncols > 0


def test_reject_all_bad_corpus_files():
    for path in sorted(glob.glob(os.path.join(DATA, "bad_*.mtx"))):
        with pytest.raises(MatrixMarketError):
            parse_matrix_market(path)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixMarketError) as err:
        parse_matrix_market(data_path("bad_oob.mtx"))
    assert err.value.line == 4


@pytest.mark.parametrize("name,line", [
    ("bad_underscore.mtx", 3), ("bad_nan.mtx", 4), ("bad_overflow.mtx", 4),
])
def test_non_matrix_market_number_names_its_line(name, line):
    # int() and float() read digit groups and non-finite values; a Matrix
    # Market number is neither
    with pytest.raises(MatrixMarketError) as err:
        parse_matrix_market(data_path(name))
    assert err.value.line == line


NUMBERS = "%%MatrixMarket matrix coordinate real general\n{} {} 2\n{} 1 1.0\n2 2 {}\n"


@pytest.mark.parametrize("tokens,line", [
    (("2_0", "20", "1", "2.0"), 2),
    (("20", "2_0", "1", "2.0"), 2),
    (("20", "20", "1_0", "2.0"), 3),
    (("20", "20", "1", "2_0.0"), 4),
    (("20", "20", "1", "1e1_0"), 4),
    (("20", "20", "1", "inf"), 4),
    (("20", "20", "1", "-Infinity"), 4),
    (("20", "20", "1", "NaN"), 4),
    (("20", "20", "1", "-1e400"), 4),
])
def test_non_matrix_market_token_names_its_line(tmp_path, tokens, line):
    path = tmp_path / "n.mtx"
    path.write_text(NUMBERS.format(*tokens))
    with pytest.raises(MatrixMarketError) as err:
        parse_matrix_market(str(path))
    assert err.value.line == line


def test_largest_finite_value_passes(tmp_path):
    path = tmp_path / "n.mtx"
    path.write_text(NUMBERS.format("2", "2", "1", "1.7976931348623157e308"))
    assert parse_matrix_market(str(path)).data[-1] == np.finfo(np.float64).max


def test_roundtrip_random_csr(rng, tmp_path):
    n = 12
    rows = rng.integers(0, n, 40)
    cols = rng.integers(0, n, 40)
    vals = rng.standard_normal(40)
    csr = CsrMatrix.from_coo(n, n, rows, cols, vals)
    path = str(tmp_path / "r.mtx")
    write_mtx(path, csr)
    back = parse_matrix_market(path)
    assert np.array_equal(back.indptr, csr.indptr)
    assert np.array_equal(back.indices, csr.indices)
    assert np.array_equal(back.data, csr.data)


def test_parse_from_string(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -3.5\n")
    csr = parse_matrix_market(str(path))
    assert csr.to_dense()[0, 0] == -3.5


NON_ASCII = "%%MatrixMarket matrix coordinate real general\n{}2 2 2\n1 1 1.0\n2 2 {}\n"


@pytest.mark.parametrize("text,line", [
    (NON_ASCII.replace("general", "g\u00e9n\u00e9ral").format("", "2.0"), 1),
    (NON_ASCII.format("", "2.0").replace("2 2 2", "2 2 2\u00e9"), 2),
    (NON_ASCII.format("% caf\u00e9\n", "2.0\u00e9"), 5),
    (NON_ASCII.format("", "\u0662.0"), 4),  # a non-ASCII digit is not a digit here
])
def test_non_ascii_byte_outside_a_comment_names_its_line(tmp_path, text, line):
    path = tmp_path / "u.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MatrixMarketError) as err:
        parse_matrix_market(str(path))
    assert err.value.line == line


def test_non_ascii_comment_passes(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(NON_ASCII.format("% caf\u00e9\n", "2.0"), encoding="utf-8")
    assert np.array_equal(parse_matrix_market(str(path)).to_dense(), np.diag([1.0, 2.0]))


def test_square_operator_guard():
    rect = parse_matrix_market(data_path("good_general_rect.mtx"))
    with pytest.raises(DimensionError):
        CsrOperator(rect)
    dense_rect = DenseOperator
    with pytest.raises(DimensionError):
        dense_rect(np.ones((2, 3)))
