"""Instrumented dense kernels.

These are the only operations that may synchronize in a distributed run, so
every call reports its class (and a nominal flop count) to the ledger.  The
fused-reduction contract is central: ``mv_trans_mv`` records exactly one
reduction no matter how many columns it reduces, which is what the delayed
schemes exploit.  A call with an empty basis block still records its
reduction: per-iteration call patterns are static, so the closed-form totals
count the degenerate first-column collectives too.

All arithmetic is float64 and deterministic for fixed inputs: the
summation order is fixed by the operand shapes, and results are
reproducible run to run.  ``mv_trans_mv`` with two or more right-hand
columns sums over row blocks once the operands are taller than one block
(``_block_rows``); every other product is one BLAS call.
"""

import numpy as np

from . import ledger as _ledger
from .errors import DimensionError

#: byte budget of one row block of the fused reduction's operands.  On a
#: 2-core Xeon (2 MiB L2 per core, OpenBLAS 0.3.31 on one thread) blocks of
#: 512 KiB to 1 MiB ran a 100000x51 by 100000x2 product in 2.3-2.4 ms,
#: 256 KiB in 2.6 ms, and the unblocked dgemm in 6.7 ms; a dcgs2 QR of a
#: 100000x100 panel took the same time with 512 KiB and 1 MiB blocks.
_BLOCK_BYTES = 1 << 19


def _as_matrix(a, name):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def dot(x, y, ledger=None):
    """Inner product x.y; one global reduction (MvDot)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"dot needs equal-length vectors, got {x.shape} and {y.shape}")
    if ledger is not None:
        ledger.record(_ledger.MV_DOT, flops=2 * x.size)
    return float(np.dot(x, y))


def norm2(x, ledger=None):
    """Euclidean norm via one dot reduction."""
    return float(np.sqrt(dot(x, x, ledger=ledger)))


def _block_rows(k, l):
    """Rows of one block of the fused reduction over m-by-k and m-by-l
    operands: as many as keep the block within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * (k + l)))


def mv_trans_mv(B, X, ledger=None):
    """Fused block of inner products B^T X; exactly one global reduction.

    B is m-by-k, X is m-by-l; the (k, l) result costs a single reduction
    regardless of l (or of k = 0).  With l >= 2 and m above one block
    (``_block_rows``) the product is summed over row blocks, each block the
    local partial sum a distributed rank would add into its one allreduce;
    every other shape is the single product B.T @ X.
    """
    B = _as_matrix(B, "B")
    X = _as_matrix(X, "X")
    if B.shape[0] != X.shape[0]:
        raise DimensionError(
            f"row mismatch: B is {B.shape}, X is {X.shape}"
        )
    if ledger is not None:
        ledger.record(
            _ledger.MV_TRANS_MV, flops=2 * B.shape[0] * B.shape[1] * X.shape[1]
        )
    m, l = X.shape
    r = _block_rows(B.shape[1], l)
    if l < 2 or m <= r:
        return B.T @ X
    # a tall operand makes BLAS run dgemm out of cache; a block of rows fits
    out = B[:r].T @ X[:r]
    part = np.empty_like(out)
    for i in range(r, m, r):
        np.matmul(B[i : i + r].T, X[i : i + r], out=part)
        out += part
    return out


def mv_times_mat_add_mv(Y, B, S, sign=1.0, scale=1.0, ledger=None):
    """Projection-style update Y <- scale*Y + sign*B@S, in place.

    Records zero reductions.  Returns Y for convenience.
    """
    Y = _as_matrix(Y, "Y")
    B = _as_matrix(B, "B")
    S = _as_matrix(S, "S")
    if B.shape[1] != S.shape[0] or B.shape[0] != Y.shape[0] or S.shape[1] != Y.shape[1]:
        raise DimensionError(
            f"nonconformal update: Y {Y.shape}, B {B.shape}, S {S.shape}"
        )
    if ledger is not None:
        ledger.record(
            _ledger.MV_TIMES_MAT_ADD_MV,
            flops=2 * B.shape[0] * B.shape[1] * S.shape[1],
        )
    if scale != 1.0:
        Y *= scale
    if B.shape[1]:
        Y += sign * (B @ S)
    return Y
