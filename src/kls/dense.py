"""Householder QR (implicit factor) and random test-matrix utilities.

The Householder factorization is the orthogonality reference for every
Gram-Schmidt scheme: its loss of orthogonality is machine-precision level
unconditionally, so scheme outputs are compared against it.
"""

import numpy as np

from .errors import DimensionError
from .kernels import dot, mv_times_mat_add_mv, mv_trans_mv


def _householder_vector(x):
    """Reflector (v, beta) with v[0]=1 mapping x to +||x||_2 e1."""
    x = np.asarray(x, dtype=np.float64)
    sigma = float(np.dot(x[1:], x[1:]))
    v = x.copy()
    v[0] = 1.0
    if sigma == 0.0:
        if x[0] >= 0.0:
            return v, 0.0
        return v, 2.0  # pure sign flip
    mu = np.sqrt(x[0] * x[0] + sigma)
    if x[0] <= 0.0:
        v0 = x[0] - mu
    else:
        v0 = -sigma / (x[0] + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v[1:] = x[1:] / v0
    return v, beta


class HouseholderQR:
    """Implicit QR factor: unit-diagonal reflectors, betas, and R.

    ``A = Q R`` with Q applied through the stored reflectors; the chosen
    reflector signs make diag(R) non-negative.
    """

    def __init__(self, reflectors, betas, r):
        self.reflectors = reflectors
        self.betas = betas
        self.r = r

    @property
    def shape(self):
        return self.reflectors.shape

    def apply_qt(self, x):
        """Return Q^T x (x may be a vector or a matrix of columns)."""
        y = np.array(x, dtype=np.float64)
        vec = y.ndim == 1
        if vec:
            y = y[:, None]
        m, n = self.reflectors.shape
        for j in range(n):
            beta = self.betas[j]
            if beta == 0.0:
                continue
            v = self.reflectors[j:, j]
            w = beta * (v @ y[j:, :])
            y[j:, :] -= np.outer(v, w)
        return y[:, 0] if vec else y

    def apply_q(self, x):
        """Return Q x."""
        y = np.array(x, dtype=np.float64)
        vec = y.ndim == 1
        if vec:
            y = y[:, None]
        m, n = self.reflectors.shape
        for j in range(n - 1, -1, -1):
            beta = self.betas[j]
            if beta == 0.0:
                continue
            v = self.reflectors[j:, j]
            w = beta * (v @ y[j:, :])
            y[j:, :] -= np.outer(v, w)
        return y[:, 0] if vec else y

    def thin_q(self):
        """Explicit m-by-n orthonormal factor."""
        m, n = self.reflectors.shape
        return self.apply_q(np.eye(m, n))


def householder_qr(A, ledger=None):
    """Householder QR of a tall matrix; returns an implicit factor.

    Rank deficiency is permitted: a dependent column simply produces a zero
    diagonal entry in R.
    """
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2:
        raise DimensionError(f"matrix expected, got shape {A.shape}")
    m, n = A.shape
    if m < n:
        raise DimensionError(f"need rows >= cols, got {A.shape}")
    V = np.zeros((m, n))
    betas = np.zeros(n)
    for j in range(n):
        x = A[j:, j]
        if ledger is not None:
            # tail norm of the pivot column is the reducing part
            dot(x[1:], x[1:], ledger=ledger)
        v, beta = _householder_vector(x)
        V[j:, j] = v
        betas[j] = beta
        if beta != 0.0:
            block = A[j:, j:]
            w = mv_trans_mv(block, v[:, None], ledger=ledger)  # (n-j, 1)
            mv_times_mat_add_mv(
                block, v[:, None], (beta * w).T, sign=-1.0, ledger=ledger
            )
            A[j + 1 :, j] = 0.0
    r = np.triu(A[:n, :])
    return HouseholderQR(V, betas, r)


def random_orthogonal(m, n, seed):
    """Deterministic random m-by-n matrix with orthonormal columns."""
    if m < n:
        raise DimensionError(f"need m >= n, got ({m}, {n})")
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.linalg.qr(rng.standard_normal((m, n)))[0]
