"""Stability metrics evaluated on run artifacts.

All metrics are pure evaluations outside the instrumented kernel path; they
never touch a ledger.
"""

import numpy as np

from .errors import DimensionError
from .problems import as_operator


def loss_of_orthogonality(Q):
    """Frobenius norm of I - Q^T Q."""
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[1]
    return float(np.linalg.norm(np.eye(n) - Q.T @ Q))


def representation_error_qr(A, Q, R):
    """Relative factorization residual ||A - Q R||_F / ||A||_F."""
    A = np.asarray(A, dtype=np.float64)
    denom = np.linalg.norm(A)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(A - Q @ R) / denom)


def representation_error_arnoldi(op, Q, H):
    """Relative expansion residual ||A Q_k - Q_{k+1} H||_F / ||A||_F.

    Q holds k+1 basis columns and H is the (k+1)-by-k extended Hessenberg
    block.  ``op`` is an operator or an array; ||A||_F is its exact
    Frobenius norm.
    """
    Q = np.asarray(Q, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    k = H.shape[1]
    if Q.shape[1] != k + 1 or H.shape[0] != k + 1:
        raise DimensionError(
            f"expected basis k+1 columns and (k+1)-by-k H, got {Q.shape} and {H.shape}"
        )
    op = as_operator(op)
    denom = op.frobenius_norm()
    if denom == 0.0:
        return 0.0
    aq = np.empty_like(Q[:, :k])
    for j in range(k):
        aq[:, j] = op.apply(Q[:, j])
    # out of place: the layout of the difference fixes the norm's summation order
    return float(np.linalg.norm(aq - Q @ H) / denom)
