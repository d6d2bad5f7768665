"""Real Schur decomposition of small dense matrices, through LAPACK.

The services Krylov-Schur needs: Hessenberg reduction (``dgehrd``), the
real Schur form of a Hessenberg matrix (``dgees``), stable reordering of
diagonal blocks (``dtrsen``, the Bai-Demmel block swaps) and eigenvectors
from the complex triangular form (``zgeev``, whose back-substitution is
``ztrevc``).  Reordering, eigenvalues and eigenvectors all work in
LAPACK's format of one entry per column of T: ``SchurForm.eigenvalues``
returns ``schur_eigenvectors``'s values.  ``pair_tails`` is the one map of
the 1x1 and 2x2 diagonal blocks, and ``SchurForm.blocks`` lists them from it.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrsen

from .errors import DimensionError, IterationLimitError, NonFiniteError


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
        starts = np.flatnonzero(~pair_tails(self.t)).tolist()
        return [(s, e - s) for s, e in zip(starts, starts[1:] + [self.order])]

    def eigenvalues(self):
        """Complex eigenvalues, one per column: ``schur_eigenvectors``'s."""
        return schur_eigenvectors(self.t)[0]


def pair_tails(t):
    """Flag the second column of each 2x2 diagonal block of T."""
    tails = np.zeros(t.shape[0], dtype=bool)
    tails[1:] = np.diag(t, -1) != 0.0
    return tails


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
    """Stably move the flagged columns' diagonal blocks to the leading corner.

    ``selected`` is LAPACK's format, one flag per column of T; a 2x2 block
    moves when either of its columns is flagged (``dtrsen``'s pair rule).
    The moved blocks and the others each keep their relative order.
    Returns the number of columns moved, or 0 when LAPACK finds two blocks
    too close to swap: T and Z then stay a valid, partially reordered Schur
    decomposition.
    """
    if not form.order:
        return 0
    t, z, _, _, moved, _, _, info = dtrsen(selected, form.t, form.z, job="N")
    form.t, form.z = t, z
    return int(moved) if info == 0 else 0


def schur_eigenvectors(t):
    """Eigenvalues and unit eigenvectors of a quasi-triangular T, one per column.

    Returns ``(values, Y)`` with T Y[:, i] = values[i] Y[:, i].  A 2x2
    block's first column holds its eigenvalue with positive imaginary part,
    and its second column the bitwise conjugate of value and vector, so a
    real row b gives |b^T y| equal on both.

    The vectors come from LAPACK (``zgeev``, hence ``ztrevc``) on the
    complex triangular form, which keeps its diagonal order; each is scaled
    so that its own component is 1 before it is mapped back.  A
    near-singular pivot T_ii - T_jj (a repeated eigenvalue) is raised to
    max(eps |lambda_j|, smlnum), LAPACK's safeguard.
    """
    tc, zc = scipy.linalg.rsf2csf(t, np.eye(t.shape[0]), check_finite=False)
    lam, x = scipy.linalg.eig(tc, overwrite_a=True, check_finite=False)
    tails = pair_tails(t)
    cols = np.flatnonzero(~tails)
    cols[lam[cols].imag < 0] += 1
    y = zc @ (x[:, cols] / x[cols, cols])
    block = np.cumsum(~tails) - 1  # each column's block
    values, vecs = lam[cols][block], (y / np.linalg.norm(y, axis=0))[:, block]
    values[tails] = values[tails].conj()
    vecs[:, tails] = vecs[:, tails].conj()
    return values, vecs
