"""Householder QR on LAPACK reflectors, and random test-matrix utilities.

The right-looking ``householder_qr`` is the tests' orthogonality reference,
not a scheme: its loss of orthogonality is machine-precision level
unconditionally, so scheme outputs are compared against it.  LAPACK does
all of the reflector arithmetic and holds the reflectors in its compact
``(a, tau)`` form, which ``ortho.HouseholderState`` adopts a basis into.
"""

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DimensionError
from .ledger import MV_DOT, MV_TIMES_MAT_ADD_MV, MV_TRANS_MV


def reflectors(A, ledger=None):
    """Compact Householder QR ``(a, tau)`` of a tall matrix (``dgeqrfp``).

    diag(R) is non-negative; a dependent column gives a zero diagonal entry.
    The ledger is charged what the right-looking loop costs: per column a
    tail norm and, for a reflector that is not the identity, one fused
    product and one update of the trailing block.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise DimensionError(f"tall matrix expected, got shape {A.shape}")
    m, n = A.shape
    if n == 0:
        return np.zeros((m, 0), order="F"), np.zeros(0)
    a, tau, _ = lapack.dgeqrfp(A)
    if ledger is not None:
        for j in range(n):
            ledger.record(MV_DOT, flops=2 * (m - j - 1))
            if tau[j] != 0.0:
                ledger.record(MV_TRANS_MV, flops=2 * (m - j) * (n - j))
                ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * (m - j) * (n - j))
    return a, tau


def householder_qr(A, ledger=None):
    """Thin Householder QR of a tall matrix; returns (Q, R)."""
    a, tau = reflectors(A, ledger)
    n = a.shape[1]
    return lapack.dorgqr(a, tau)[0], np.triu(a[:n])


def random_orthogonal(m, n, seed):
    """Deterministic random m-by-n matrix with orthonormal columns."""
    if m < n:
        raise DimensionError(f"need m >= n, got ({m}, {n})")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((m, n))
    return scipy.linalg.qr(g, mode="economic", overwrite_a=True, check_finite=False)[0]
