"""Instrumented dense kernels.

These are the only operations that may synchronize in a distributed run, so
every call reports its class (and a nominal flop count) to the ledger.  The
fused-reduction contract is central: ``mv_trans_mv`` records exactly one
reduction no matter how many columns it reduces, which is what the delayed
schemes exploit.  A call with an empty basis block still records its
reduction: per-iteration call patterns are static, so the closed-form totals
count the degenerate first-column collectives too.  The update kernel
``mv_times_mat_add_mv`` only subtracts, Y <- Y - B S, the one projection.
``mv_sweep`` is a delayed push's one sweep over the basis: its update as one
product per row block and, optionally, the next push's fused reduction
summed over the same blocks while they are in cache.  It alone records
nothing: its caller, the delayed push, ledgers the projections and the
reduction it stands for.

All arithmetic is float64 and deterministic for fixed inputs: the
summation order is fixed by the operand shapes, for a fixed BLAS thread
count.  ``mv_trans_mv`` with two or more right-hand columns, and
``mv_sweep``, work over row blocks of ``_block_rows`` rows once the
operands are taller than one block; every other product is one BLAS call.
"""

import numpy as np

from . import ledger as _ledger
from .errors import DimensionError

#: byte budget of one row block of the fused reduction's operands, which
#: is also the block of ``mv_sweep``.  On a 2-core Xeon (2 MiB L2 per core,
#: OpenBLAS 0.3.31 on one thread) blocks of 512 KiB to 1 MiB ran a
#: 100000x51 by 100000x2 product in 2.3-2.4 ms, 256 KiB in 2.6 ms, and the
#: unblocked dgemm in 6.7 ms.  ``tools/sweepbench.py`` sets it to 256 KiB to
#: 2 MiB in its own process and times ``mv_sweep`` and ``mv_trans_mv`` at each.
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
    operands: as many as keep the block within ``_BLOCK_BYTES``, rounded
    down to a multiple of 64 rows (at least 64).  Blocks then start on
    multiples of 64 rows, where OpenBLAS 0.3.31's products round each row
    as they do in the whole column (a start off a multiple of 4 rows
    changes the bits)."""
    return max(64, _BLOCK_BYTES // (8 * (k + l)) // 64 * 64)


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


def mv_sweep(V, j, K, alpha, d=1.0, ahead=False):
    """A delayed push's one sweep over the basis storage V, in place.

    With Q = V[:, :j], w = V[:, j] and a = V[:, j+1], each row block of
    ``_block_rows(j + 2, 2)`` rows takes

        a <- a / d,   [w, a] <- [w, a] - ([Q, w] K^T),   w <- w / alpha,

    K being 2-by-(j+1): the update is one product, K [Q, w]^T, that reads
    the block of [Q, w] once.  With ``ahead`` the sweep then adds the
    block's partial sum of V[:, :j+2]^T V[:, j+1:j+3], the fused reduction
    of the next push, while the block is still in cache; it returns that
    (j+2)-by-2 sum, with the bits of ``mv_trans_mv`` on those operands (the
    same blocks, summed in the same order); without it, None.  It records
    nothing: the caller ledgers the update per projection of its scheme,
    and the reduction in the push that consumes it, so that a push that
    raises before reducing records no reduction.
    """
    m = V.shape[0]
    if K.shape != (2, j + 1):
        raise DimensionError(f"sweep coefficients of shape (2, {j + 1}) expected, got {K.shape}")
    out = part = None
    r = _block_rows(j + 2, 2)
    for i in range(0, m, r):
        vt = V[i : i + r].T  # the block's columns, as rows
        if d != 1.0:
            a = vt[j + 1]
            a /= d
        wa = vt[j : j + 2]
        # K [Q, w]^T: the orientation in which OpenBLAS's dgemm runs at the
        # speed of one read of the block (tools/sweepbench.py)
        wa -= K @ vt[: j + 1]
        w = vt[j]
        w /= alpha
        if not ahead:
            continue
        if out is None:
            out = vt[: j + 2] @ vt[j + 1 : j + 3].T
            part = np.empty_like(out)
        else:
            np.matmul(vt[: j + 2], vt[j + 1 : j + 3].T, out=part)
            out += part
    return out


def mv_times_mat_add_mv(Y, B, S, ledger=None):
    """Projection update Y <- Y - B@S, in place.

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
    Y -= B @ S  # the bits of Y + (-(B @ S)), one temporary fewer
    return Y
