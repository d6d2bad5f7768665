"""Test-problem generators, sparse storage, and Matrix Market ingestion.

The Manteuffel operator is assembled straight into row-sorted CSR, with no
Python loop and no triplet sort, bit for bit as summed triplets would give.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .dense import random_orthogonal
from .errors import DimensionError, MatrixMarketError


#: the largest order ``LinearOperator.to_dense`` assembles
DENSE_MAX_ORDER = 3000


class LinearOperator:
    """Square matrix action y = A x.

    Subclasses implement ``_matvec``, ``_dense`` and ``_frobenius`` (the
    exact Frobenius norm, which ``frobenius_norm`` computes once and
    caches).  ``to_dense`` refuses every order above DENSE_MAX_ORDER.

    ``napply`` counts applications (one per matvec), which the Arnoldi
    instrumentation asserts against.
    """

    def __init__(self, n):
        self.n = n
        self.napply = 0
        self._fro = None

    @property
    def shape(self):
        return (self.n, self.n)

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionError(f"operand of length {self.n} expected, got {x.shape}")
        self.napply += 1
        return self._matvec(x)

    def _matvec(self, x):
        raise NotImplementedError

    def frobenius_norm(self):
        if self._fro is None:
            self._fro = self._frobenius()
        return self._fro

    def _frobenius(self):
        raise NotImplementedError

    def to_dense(self):
        if self.n > DENSE_MAX_ORDER:
            raise MemoryError(f"dense assembly of order {self.n} refused (limit {DENSE_MAX_ORDER})")
        return self._dense()

    def _dense(self):
        raise NotImplementedError


class DenseOperator(LinearOperator):
    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"square matrix expected, got {a.shape}")
        super().__init__(a.shape[0])
        self.a = a

    def _matvec(self, x):
        return self.a @ x

    def _dense(self):
        return self.a.copy()

    def _frobenius(self):
        return float(np.linalg.norm(self.a))


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse rows with sorted, unique column indices per row.

    ``matvec`` applies a scipy ``csr_array`` that shares the three arrays,
    so the fields are frozen to keep it in step with them.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        sparse = scipy.sparse.csr_array(
            (self.data, self.indices, self.indptr), shape=(self.nrows, self.ncols)
        )
        object.__setattr__(self, "_sparse", sparse)

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals):
        """Build from triplets; duplicate entries are summed."""
        coo = scipy.sparse.coo_array(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(nrows, ncols)
        )
        coo.sum_duplicates()
        a = coo.tocsr()
        return cls(nrows, ncols, a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data)

    @property
    def nnz(self):
        return int(self.indices.size)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise DimensionError(f"operand of length {self.ncols} expected")
        return self._sparse @ x

    def to_dense(self):
        return self._sparse.toarray()


class CsrOperator(LinearOperator):
    def __init__(self, csr):
        if csr.nrows != csr.ncols:
            raise DimensionError(f"square matrix expected, got {csr.shape}")
        super().__init__(csr.nrows)
        self.csr = csr

    def _matvec(self, x):
        return self.csr.matvec(x)

    def _dense(self):
        return self.csr.to_dense()

    def _frobenius(self):
        return float(np.linalg.norm(self.csr.data))


def as_operator(a):
    """The LinearOperator of ``a``: an operator as given, and anything else
    as the DenseOperator of an array."""
    if isinstance(a, LinearOperator):
        return a
    return DenseOperator(a)


@dataclass(frozen=True)
class ManteuffelSpec:
    """Central-difference convection-diffusion operator on a k-by-k grid.

    The operator is M + (beta/2) N with M the five-point Laplacian
    (symmetric positive definite) and N the centered first-difference
    coupling (skew-symmetric); m = k^2 unknowns.  The domain is
    [0, k+1] x [0, k+1], so the mesh width is h = 1: the
    spectrum-controlled family used throughout the stability experiments,
    real for |beta| <= 2.
    """

    k: int
    beta: float = 0.5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k >= 1 required")
        if not np.isfinite(self.beta):
            raise ValueError(f"finite beta required, got {self.beta}")

    @property
    def m(self):
        return self.k * self.k


def manteuffel_build(spec):
    """Assemble A = M + (beta/2) N straight into CSR, row-sorted: row
    r = blk*k + i holds r-k, r-1, r, r+1, r+k (distinct and ascending for
    k >= 2) where they lie on the grid.

    Each entry is what ``CsrMatrix.from_coo`` gives when it sums the M
    entry and the N entry, bit for bit.
    """
    k, m, conv = spec.k, spec.m, spec.beta / 2.0
    r = np.arange(m, dtype=np.int64)
    blk, i = np.divmod(r, k)
    on_grid = np.stack((blk > 0, i > 0, np.full(m, True), i < k - 1, blk < k - 1), 1)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(on_grid.sum(axis=1), out=indptr[1:])
    cols = r[:, None] + np.array([-k, -1, 0, 1, k], dtype=np.int64)
    vals = [-1.0 - conv, -1.0 - conv, 4.0, -1.0 + conv, -1.0 + conv]
    return CsrMatrix(m, m, indptr, cols[on_grid], np.broadcast_to(vals, (m, 5))[on_grid])


@dataclass(frozen=True)
class EigenvalueTable:
    """Exact spectrum with multiplicities (values sorted ascending)."""

    values: np.ndarray
    unique: np.ndarray
    multiplicity: np.ndarray


def manteuffel_eigenvalues(spec):
    """Closed-form spectrum of the convection-diffusion operator.

    lambda_(l,j) = 2 [2 - sqrt(1 - (beta/2)^2) (cos(l pi/(k+1)) + cos(j pi/(k+1)))]
    for l, j = 1..k.  A sorted value within 1e-12 * max(|lambda|, 1) of the
    previous one joins its group; ``unique`` holds each group's first value.
    """
    if abs(spec.beta) > 2.0:
        raise ValueError("|beta| <= 2 required for a real spectrum")
    radical = np.sqrt(1.0 - (spec.beta / 2.0) ** 2)
    theta = np.cos(np.arange(1, spec.k + 1) * np.pi / (spec.k + 1))
    lam = 2.0 * (2.0 - radical * (theta[:, None] + theta[None, :]))
    values = np.sort(lam.ravel())
    scale = max(abs(values[0]), abs(values[-1]), 1.0)
    starts = np.flatnonzero(np.r_[True, np.diff(values) > 1e-12 * scale])
    return EigenvalueTable(values, values[starts], np.diff(np.r_[starts, values.size]))


def laplace3d(nx, ny, nz):
    """The 7-point Laplacian on an nx-by-ny-by-nz Dirichlet grid, as the
    CSR Kronecker sum of three 1-D second differences, z fastest."""
    if min(nx, ny, nz) < 1:
        raise ValueError("dimensions >= 1 required")
    a = None
    for n in (nz, ny, nx):
        t = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
        a = t if a is None else scipy.sparse.kronsum(a, t, format="coo")
    return CsrOperator(CsrMatrix.from_coo(*a.shape, *a.coords, a.data))


def synthetic_kappa(m, n, kappa, seed):
    """Dense m-by-n matrix with prescribed 2-norm condition number.

    U diag(sigma) V^T with log-spaced singular values from 1 down to
    1/kappa and deterministic random orthonormal factors.
    """
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"finite kappa >= 1 required, got {kappa}")
    u = random_orthogonal(m, n, seed)
    v = random_orthogonal(n, n, seed + 1)
    sigma = np.logspace(0.0, -np.log10(kappa), n)
    return (u * sigma) @ v.T


# ---------------------------------------------------------------------------
# Matrix Market coordinate format


def parse_matrix_market(path):
    """Parse a real coordinate Matrix Market file into CSR.

    Supports general, symmetric, and skew-symmetric real (or integer)
    matrices; the symmetric half is expanded.  Pattern and complex fields
    are rejected.  Malformed input raises ``MatrixMarketError`` with the
    offending line number; the entries are read in one pass, so a declared
    count is checked against the lines that are there.  A byte outside
    ASCII passes in a comment and makes any other line malformed, as do a
    ``_`` (``1_0``) and a non-finite value (``nan``, ``1e999``).
    """
    with open(path, "r", encoding="ascii", errors="replace") as f:
        parts = f.readline().strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise MatrixMarketError("missing %%MatrixMarket header", line=1)
        _, obj, fmt, field, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(
                f"unsupported object/format {obj!r}/{fmt!r}", line=1
            )
        if field not in ("real", "integer"):
            raise MatrixMarketError(f"non-real field {field!r}", line=1)
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", line=1)

        size, lineno = None, 1
        rows, cols, vals = [], [], []
        for lineno, raw in enumerate(f, start=2):
            toks = raw.split()
            if not toks or toks[0].startswith("%"):
                continue
            if "_" in raw:  # int() and float() read digit groups; Matrix Market has none
                raise MatrixMarketError("'_' in a number", line=lineno)
            if size is None:
                if len(toks) != 3:
                    raise MatrixMarketError("size line needs 'rows cols nnz'", line=lineno)
                try:
                    size = nrows, ncols, nnz = tuple(int(t) for t in toks)
                except ValueError:
                    raise MatrixMarketError("non-integer size entry", line=lineno) from None
                if nrows < 0 or ncols < 0 or nnz < 0:
                    raise MatrixMarketError("negative size entry", line=lineno)
                continue
            if len(vals) >= nnz:
                raise MatrixMarketError("more entries than declared", line=lineno)
            if len(toks) != 3:
                raise MatrixMarketError(
                    "entry line needs 'row col value'", line=lineno
                )
            try:
                i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                raise MatrixMarketError("malformed entry", line=lineno) from None
            if not np.isfinite(v):
                raise MatrixMarketError(f"non-finite value {toks[2]!r}", line=lineno)
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) out of bounds for {nrows}x{ncols}",
                    line=lineno,
                )
            if symmetry == "skew-symmetric" and i == j and v != 0.0:
                raise MatrixMarketError(
                    "nonzero diagonal in skew-symmetric matrix", line=lineno
                )
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
    if size is None:
        raise MatrixMarketError("missing size line", line=lineno)
    if len(vals) != nnz:
        raise MatrixMarketError(
            f"declared {nnz} entries, found {len(vals)}", line=lineno
        )

    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=np.float64)
    if symmetry != "general":
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    return CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
