"""Test-problem generators, sparse storage, and Matrix Market ingestion."""

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .dense import random_orthogonal
from .errors import DimensionError, MatrixMarketError


class LinearOperator:
    """Square matrix action y = A x; subclasses implement ``_matvec``.

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

    def to_dense(self, max_order=4000):
        if self.n > max_order:
            raise MemoryError(
                f"dense assembly of order {self.n} refused (limit {max_order})"
            )
        out = np.empty((self.n, self.n), order="F")
        e = np.zeros(self.n)
        for j in range(self.n):
            e[j] = 1.0
            out[:, j] = self._matvec(e)
            e[j] = 0.0
        return out

    def frobenius_norm(self, samples=64, seed=0):
        """Frobenius norm, estimated once by probing sampled columns."""
        if self._fro is None:
            t = min(samples, self.n)
            rng = np.random.Generator(np.random.PCG64(seed))
            cols = rng.choice(self.n, size=t, replace=False)
            e = np.zeros(self.n)
            acc = 0.0
            for j in cols:
                e[j] = 1.0
                y = self._matvec(e)
                acc += float(y @ y)
                e[j] = 0.0
            self._fro = float(np.sqrt(acc * self.n / t))
        return self._fro


class DenseOperator(LinearOperator):
    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"square matrix expected, got {a.shape}")
        super().__init__(a.shape[0])
        self.a = a

    def _matvec(self, x):
        return self.a @ x

    def to_dense(self, max_order=None):
        return self.a.copy()

    def frobenius_norm(self, samples=None, seed=None):
        if self._fro is None:
            self._fro = float(np.linalg.norm(self.a))
        return self._fro


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
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.concatenate(
                ([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))
            )
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(nrows, ncols, indptr, cols, vals)

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

    def transpose(self):
        rows = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        return CsrMatrix.from_coo(
            self.ncols, self.nrows, self.indices, rows, self.data
        )

    def to_dense(self):
        return self._sparse.toarray()

    def frobenius_norm(self):
        return float(np.linalg.norm(self.data))


class CsrOperator(LinearOperator):
    def __init__(self, csr):
        if csr.nrows != csr.ncols:
            raise DimensionError(f"square matrix expected, got {csr.shape}")
        super().__init__(csr.nrows)
        self.csr = csr

    def _matvec(self, x):
        return self.csr.matvec(x)

    def to_dense(self, max_order=4000):
        if self.n > max_order:
            raise MemoryError(
                f"dense assembly of order {self.n} refused (limit {max_order})"
            )
        return self.csr.to_dense()

    def frobenius_norm(self, samples=None, seed=None):
        if self._fro is None:
            self._fro = self.csr.frobenius_norm()
        return self._fro


@dataclass(frozen=True)
class ManteuffelSpec:
    """Central-difference convection-diffusion operator on a k-by-k grid.

    The operator is (1/h^2) M + (beta/2h) N with M the five-point Laplacian
    (symmetric positive definite) and N the centered first-difference
    coupling (skew-symmetric); m = k^2 unknowns.  The domain is
    [0, L] x [0, L] with mesh width h = L/(k+1); the defaults L = k+1 and
    h = 1 give the spectrum-controlled family used throughout the stability
    experiments, real for beta*h <= 2.
    """

    k: int
    beta: float = 0.5
    length: float = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k >= 1 required")
        if self.length is None:
            object.__setattr__(self, "length", float(self.k + 1))

    @property
    def h(self):
        return self.length / (self.k + 1)

    @property
    def m(self):
        return self.k * self.k


def manteuffel_parts(spec):
    """The diffusion part M (five-point Laplacian, symmetric positive
    definite) and convection part N (centered differences, skew-symmetric),
    both unscaled."""
    k = spec.k
    m_rows, m_cols, m_vals = [], [], []
    n_rows, n_cols, n_vals = [], [], []
    for blk in range(k):
        for i in range(k):
            r = blk * k + i
            m_rows.append(r), m_cols.append(r), m_vals.append(4.0)
            for nb, active in ((r - 1, i > 0), (r - k, blk > 0)):
                if active:
                    m_rows.append(r), m_cols.append(nb), m_vals.append(-1.0)
                    n_rows.append(r), n_cols.append(nb), n_vals.append(-1.0)
            for nb, active in ((r + 1, i < k - 1), (r + k, blk < k - 1)):
                if active:
                    m_rows.append(r), m_cols.append(nb), m_vals.append(-1.0)
                    n_rows.append(r), n_cols.append(nb), n_vals.append(1.0)
    mm = CsrMatrix.from_coo(spec.m, spec.m, m_rows, m_cols, m_vals)
    nn = CsrMatrix.from_coo(spec.m, spec.m, n_rows, n_cols, n_vals)
    return mm, nn


def manteuffel_build(spec):
    """Assemble A = (1/h^2) M + (beta/2h) N as CSR."""
    mm, nn = manteuffel_parts(spec)
    diff = 1.0 / (spec.h * spec.h)
    conv = spec.beta / (2.0 * spec.h)
    rows_m = np.repeat(np.arange(spec.m), np.diff(mm.indptr))
    rows_n = np.repeat(np.arange(spec.m), np.diff(nn.indptr))
    return CsrMatrix.from_coo(
        spec.m,
        spec.m,
        np.concatenate([rows_m, rows_n]),
        np.concatenate([mm.indices, nn.indices]),
        np.concatenate([diff * mm.data, conv * nn.data]),
    )


@dataclass(frozen=True)
class EigenvalueTable:
    """Exact spectrum with multiplicities (values sorted ascending)."""

    values: np.ndarray
    unique: np.ndarray
    multiplicity: np.ndarray


def manteuffel_eigenvalues(spec):
    """Closed-form spectrum of the convection-diffusion operator.

    lambda_(l,j) = (2/h^2) [2 - sqrt(1 - (beta h / 2)^2)
                              (cos(l pi/(k+1)) + cos(j pi/(k+1)))]
    for l, j = 1..k, which at the default h = 1, L = k+1 is the usual
    2 [2 - sqrt(1 - (beta/2)^2) (cos(l pi/L) + cos(j pi/L))].
    """
    bh = spec.beta * spec.h
    if abs(bh) > 2.0:
        raise ValueError("beta*h <= 2 required for a real spectrum")
    radical = np.sqrt(1.0 - (bh / 2.0) ** 2)
    theta = np.cos(np.arange(1, spec.k + 1) * np.pi / (spec.k + 1))
    lam = (2.0 / spec.h**2) * (2.0 - radical * (theta[:, None] + theta[None, :]))
    values = np.sort(lam.ravel())
    scale = max(abs(values[0]), abs(values[-1]), 1.0)
    unique, mult = [], []
    for v in values:
        if unique and abs(v - unique[-1]) <= 1e-12 * scale:
            mult[-1] += 1
        else:
            unique.append(v)
            mult.append(1)
    return EigenvalueTable(
        values=values,
        unique=np.array(unique),
        multiplicity=np.array(mult, dtype=np.int64),
    )


class StencilLaplace3D(LinearOperator):
    """Matrix-free 7-point Laplacian on an nx-by-ny-by-nz Dirichlet grid."""

    def __init__(self, nx, ny, nz):
        if min(nx, ny, nz) < 1:
            raise ValueError("dimensions >= 1 required")
        super().__init__(nx * ny * nz)
        self.dims = (nx, ny, nz)

    def _matvec(self, x):
        g = x.reshape(self.dims)
        y = 6.0 * g
        y[1:, :, :] -= g[:-1, :, :]
        y[:-1, :, :] -= g[1:, :, :]
        y[:, 1:, :] -= g[:, :-1, :]
        y[:, :-1, :] -= g[:, 1:, :]
        y[:, :, 1:] -= g[:, :, :-1]
        y[:, :, :-1] -= g[:, :, 1:]
        return y.reshape(-1)

    def to_csr(self):
        nx, ny, nz = self.dims
        idx = np.arange(self.n).reshape(self.dims)
        rows, cols, vals = [np.arange(self.n)], [np.arange(self.n)], [
            np.full(self.n, 6.0)
        ]

        def couple(a, b):
            rows.append(a.ravel())
            cols.append(b.ravel())
            vals.append(np.full(a.size, -1.0))
            rows.append(b.ravel())
            cols.append(a.ravel())
            vals.append(np.full(a.size, -1.0))

        couple(idx[:-1, :, :], idx[1:, :, :])
        couple(idx[:, :-1, :], idx[:, 1:, :])
        couple(idx[:, :, :-1], idx[:, :, 1:])
        return CsrMatrix.from_coo(
            self.n,
            self.n,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )

    def frobenius_norm(self, samples=None, seed=None):
        if self._fro is None:
            nx, ny, nz = self.dims
            edges = (
                (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
            )
            self._fro = float(np.sqrt(36.0 * self.n + 2.0 * edges))
        return self._fro


def laplace3d(nx, ny, nz):
    return StencilLaplace3D(nx, ny, nz)


def synthetic_kappa(m, n, kappa, seed):
    """Dense m-by-n matrix with prescribed 2-norm condition number.

    U diag(sigma) V^T with log-spaced singular values from 1 down to
    1/kappa and deterministic random orthonormal factors.
    """
    if kappa < 1.0:
        raise ValueError("kappa >= 1 required")
    u = random_orthogonal(m, n, seed)
    v = random_orthogonal(n, n, seed + 1)
    if kappa == 1.0:
        sigma = np.ones(n)
    else:
        sigma = np.logspace(0.0, -np.log10(kappa), n)
    return (u * sigma) @ v.T


# ---------------------------------------------------------------------------
# Matrix Market coordinate format


def _open_lines(source):
    if hasattr(source, "read"):
        return source
    if isinstance(source, str) and source.lstrip().startswith("%%MatrixMarket"):
        return io.StringIO(source)
    return open(source, "r", encoding="ascii")


def parse_matrix_market(source):
    """Parse a real coordinate Matrix Market file into CSR.

    Supports general, symmetric, and skew-symmetric real (or integer)
    matrices; the symmetric half is expanded.  Pattern and complex fields
    are rejected.  Malformed input raises ``MatrixMarketError`` with the
    offending line number.
    """
    f = _open_lines(source)
    close = f is not source and not isinstance(source, io.StringIO)
    try:
        header = f.readline()
        lineno = 1
        parts = header.strip().split()
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

        size = None
        for raw in f:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise MatrixMarketError("size line needs 'rows cols nnz'", line=lineno)
            try:
                size = tuple(int(t) for t in toks)
            except ValueError:
                raise MatrixMarketError("non-integer size entry", line=lineno) from None
            break
        if size is None:
            raise MatrixMarketError("missing size line", line=lineno)
        nrows, ncols, nnz = size
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise MatrixMarketError("negative size entry", line=lineno)

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        seen = 0
        for raw in f:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if seen >= nnz:
                raise MatrixMarketError("more entries than declared", line=lineno)
            toks = line.split()
            if len(toks) != 3:
                raise MatrixMarketError(
                    "entry line needs 'row col value'", line=lineno
                )
            try:
                i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                raise MatrixMarketError("malformed entry", line=lineno) from None
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) out of bounds for {nrows}x{ncols}",
                    line=lineno,
                )
            if symmetry == "skew-symmetric" and i == j and v != 0.0:
                raise MatrixMarketError(
                    "nonzero diagonal in skew-symmetric matrix", line=lineno
                )
            rows[seen], cols[seen], vals[seen] = i - 1, j - 1, v
            seen += 1
        if seen != nnz:
            raise MatrixMarketError(
                f"declared {nnz} entries, found {seen}", line=lineno
            )
    finally:
        if close:
            f.close()

    if symmetry != "general":
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    return CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)


def write_matrix_market(csr, target, symmetry="general", comment=None):
    """Write CSR in coordinate real format (stored entries as-is)."""
    if symmetry != "general":
        raise ValueError("only general output is supported")
    f = target if hasattr(target, "write") else open(target, "w", encoding="ascii")
    close = f is not target
    try:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for ln in comment.splitlines():
                f.write(f"% {ln}\n")
        f.write(f"{csr.nrows} {csr.ncols} {csr.nnz}\n")
        rows = np.repeat(np.arange(csr.nrows), np.diff(csr.indptr))
        for i, j, v in zip(rows, csr.indices, csr.data):
            f.write(f"{i + 1} {j + 1} {float(v)!r}\n")
    finally:
        if close:
            f.close()
