"""Householder QR through LAPACK, and random test-matrix utilities.

The right-looking ``householder_qr`` is the tests' orthogonality reference,
not a scheme: its loss of orthogonality is machine-precision level
unconditionally, so scheme outputs are compared against it.  LAPACK does
all of its arithmetic (``dgeqrfp`` reflectors, ``dorgqr`` for Q), and it
charges no ledger; the ``householder`` scheme is ``ortho.HouseholderState``.
"""

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DimensionError


def householder_qr(A):
    """Thin Householder QR of a tall matrix; returns (Q, R), diag(R) >= 0
    (a dependent column gives a zero diagonal entry)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise DimensionError(f"tall matrix expected, got shape {A.shape}")
    m, n = A.shape
    if n == 0:
        return np.zeros((m, 0), order="F"), np.zeros((0, 0))
    a, tau, _ = lapack.dgeqrfp(A)
    return lapack.dorgqr(a, tau)[0], np.triu(a[:n])


def random_orthogonal(m, n, seed):
    """Deterministic random m-by-n matrix with orthonormal columns."""
    if m < n:
        raise DimensionError(f"need m >= n, got ({m}, {n})")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((m, n))
    return scipy.linalg.qr(g, mode="economic", overwrite_a=True, check_finite=False)[0]
