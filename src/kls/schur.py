"""Real Schur decomposition of small dense matrices, through LAPACK.

The services Krylov-Schur needs: Hessenberg reduction (``dgehrd``), the
real Schur form of a Hessenberg matrix (``dgees``), stable reordering of
diagonal blocks (``dtrsen``, the Bai-Demmel block swaps) and eigenvectors
from the quasi-triangular factor.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrsen

from .errors import DimensionError, IterationLimitError, NonFiniteError

_EPS = np.finfo(np.float64).eps


class SchurForm:
    """Quasi upper triangular T and orthogonal Z with H = Z T Z^T.

    T has 1x1 and 2x2 diagonal blocks; every nonzero subdiagonal entry
    belongs to a 2x2 block with a complex-conjugate eigenvalue pair.
    """

    def __init__(self, t, z):
        self.t = t
        self.z = z

    @property
    def order(self):
        return self.t.shape[0]

    def blocks(self):
        """List of (start, size) diagonal blocks in diagonal order."""
        return _blocks(self.t)

    def eigenvalues(self):
        """Complex eigenvalues in diagonal-block order."""
        vals = []
        t = self.t
        for start, size in _blocks(t):
            if size == 1:
                vals.append(complex(t[start, start]))
            else:
                vals.extend(_eig_2x2(t[start : start + 2, start : start + 2]))
        return np.array(vals, dtype=complex)


def _blocks(t):
    n = t.shape[0]
    out = []
    i = 0
    while i < n:
        size = 2 if i + 1 < n and t[i + 1, i] != 0.0 else 1
        out.append((i, size))
        i += size
    return out


def _eig_2x2(blk):
    """Eigenvalues of a 2x2 block as a complex pair or two reals."""
    (a, b), (c, d) = blk
    p = 0.5 * (a - d)
    disc = p * p + b * c
    mean = 0.5 * (a + d)
    sq = np.sqrt(complex(disc))
    return [mean + sq, mean - sq]


def _square(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix expected, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix holds NaN or infinity")
    return a


def hessenberg_reduce(A):
    """Orthogonal reduction A = U H U^T with H upper Hessenberg."""
    return scipy.linalg.hessenberg(_square(A), calc_q=True, check_finite=False)


def hessenberg_real_schur(H):
    """Real Schur form of an upper Hessenberg matrix."""
    H = _square(H)
    if np.any(np.tril(H, -2) != 0.0):
        raise DimensionError("input is not upper Hessenberg")
    try:
        t, z = scipy.linalg.schur(H, output="real", check_finite=False)
    except np.linalg.LinAlgError as err:
        raise IterationLimitError(f"Schur iteration did not converge: {err}") from err
    return SchurForm(t, z)


def move_blocks_front(form, selected):
    """Stably move the blocks flagged in ``selected`` to the leading corner.

    ``selected`` is one flag per diagonal block (in diagonal order); the
    selected blocks and the others each keep their relative order.
    Returns the total size of the moved group, or 0 when LAPACK finds two
    blocks too close to swap: T and Z then stay a valid, partially
    reordered Schur decomposition.
    """
    blocks = form.blocks()
    if len(selected) != len(blocks):
        raise DimensionError("one selection flag per diagonal block required")
    if not blocks:
        return 0
    flags = np.repeat(np.asarray(selected, dtype=np.int32), [size for _, size in blocks])
    t, z, _, _, moved, _, _, info = dtrsen(flags, form.t, form.z, job="N")
    form.t, form.z = t, z
    return int(moved) if info == 0 else 0


def schur_eigenvectors(form, indices=None):
    """Eigenvalues and eigenvectors from a real Schur form.

    Returns ``(values, Y)`` where column i of Y is a unit eigenvector of
    Z T Z^T for values[i].  ``indices`` selects diagonal blocks (default
    all); a 2x2 block contributes its eigenvalue with positive imaginary
    part (the conjugate vector is the conjugate eigenvector).

    The vectors come from one back-substitution on the complex triangular
    form; a near-singular pivot T_ii - T_jj (a repeated eigenvalue) is
    raised to eps * max(||T||, |lambda|, 1), the standard safeguard.
    """
    blocks = form.blocks()
    n = form.order
    if indices is None:
        indices = range(len(blocks))
    tc, zc = scipy.linalg.rsf2csf(form.t, form.z)
    lam = np.diag(tc)
    smin = _EPS * np.maximum(max(np.linalg.norm(form.t, ord=np.inf), 1.0), np.abs(lam))
    # x[:, j] solves (T - lam_j I) x = 0 with x_j = 1, rows bottom up
    x = np.eye(n, dtype=complex)
    for i in range(n - 2, -1, -1):
        piv = tc[i, i] - lam[i + 1 :]
        small = np.abs(piv) < smin[i + 1 :]
        piv[small] = smin[i + 1 :][small]
        x[i, i + 1 :] = -(tc[i, i + 1 :] @ x[i + 1 :, i + 1 :]) / piv
    cols = [
        start if size == 1 or lam[start].imag > 0 else start + 1
        for start, size in (blocks[b] for b in indices)
    ]
    y = zc @ x[:, cols]
    return lam[cols], y / np.linalg.norm(y, axis=0)
