"""Arnoldi expansions A V_k = V_{k+1} Hbar_k over the orthogonalization schemes.

The expansion object grows one basis column per ``step``; ``finalize``
flushes any pending delayed work and returns ``(V, Hbar)``.  On a happy
breakdown (the new direction lies in the current span) the subdiagonal is
reported as zero, the returned Hbar is square, and the expansion stops; a
breakdown is never normalized through.

The Gram-Schmidt schemes run on the QR push states of ``ortho``: the
expansion applies the operator, pushes the image, and reads the Hessenberg
column off the coefficients of the basis column the push emits.  The
delayed schemes emit one column late, so the matrix is applied to the
unnormalized pending vector (its image is computed eagerly at stash time
so the fused reduction consumes both blocks).

The ``householder`` expansion is Walker's Householder Arnoldi on LAPACK
reflectors, in the compact form that ``dense`` uses for QR.
"""

import numpy as np
from scipy.linalg import lapack

from .dense import reflectors
from .errors import BreakdownError, DimensionError
from .ledger import MV_DOT, MV_TIMES_MAT_ADD_MV, SyncLedger
from .ortho import SCHEME_IDS, check_finite, independent, make_state

ARNOLDI_SCHEMES = SCHEME_IDS


class _BaseArnoldi:
    scheme_id = None

    def __init__(self, op, capacity, ledger, v=None):
        if capacity < 2:
            raise DimensionError("capacity of at least 2 basis vectors required")
        self.op = op
        self.capacity = capacity
        self.ledger = ledger if ledger is not None else SyncLedger()
        self.m = op.shape[0]
        self._v = np.zeros((self.m, capacity), order="F") if v is None else v
        self._h = np.zeros((capacity, capacity - 1))
        self.nbasis = 0  # finalized orthonormal basis columns
        self.hcols = 0  # fully assembled Hessenberg columns
        self.happy = False
        self.start_norm = None

    # -- views ------------------------------------------------------------
    @property
    def basis(self):
        """Finalized orthonormal basis columns."""
        return self._v[:, : self.nbasis]

    @property
    def h_extended(self):
        """Completed block with a coupling row (zero after a breakdown)."""
        return self._h[: self.hcols + 1, : self.hcols]

    @property
    def basis_extended(self):
        """hcols+1 basis columns (zero-padded after a breakdown), matching
        ``h_extended`` for mid-run residual evaluation."""
        return self._v[:, : self.hcols + 1]

    @property
    def size(self):
        """Basis columns after finalize (counts the pending column)."""
        return self.nbasis + (1 if self._has_pending() else 0)

    @property
    def order(self):
        """Expansion order after finalize (columns of Hbar)."""
        return self.size if self.happy else self.size - 1

    def _has_pending(self):
        return False

    # -- contract ----------------------------------------------------------
    def step(self):
        """Grow the expansion by one column; False once a happy breakdown hit."""
        if self.happy:
            return False
        if self.size >= self.capacity:
            raise DimensionError("expansion capacity exhausted")
        return self._step()

    def finalize(self):
        """Flush pending work; returns (V, Hbar).

        Both are views of the expansion's storage, not copies: V is
        column-major.  The storage is append-only, so a later ``step``
        leaves the returned V and Hbar unchanged.
        """
        self._flush()
        return self.basis, self._h[: self.nbasis, : self.hcols]

    def _adopt(self, basis, hbar):
        """Continue from k+1 orthonormal columns and a (k+1)-by-k Hbar."""
        k = hbar.shape[1]
        self._h[: k + 1, :k] = hbar
        self.nbasis = k + 1
        self.hcols = k

    def _step(self):
        raise NotImplementedError

    def _flush(self):
        pass

    def _mark_happy(self):
        self.happy = True
        return False


class _GramSchmidtArnoldi(_BaseArnoldi):
    """Expansion over a QR push state, which owns the basis storage.

    Each push emits basis column j together with its coefficients and norm,
    which are column j-1 of Hbar.  The immediate schemes normalize the start
    vector locally during setup, so per-iteration reduction counts start
    with the first projection step.  The delayed schemes push the start
    vector unnormalized, emit it at the first step, and from then on push
    the image of the unnormalized pending vector.  dcgs2 emits that vector
    corrected by Q c, so the image's coefficients take the Hessenberg
    correction K = T - H c / alpha, which completes one step later.
    """

    def __init__(self, op, start, scheme, capacity, ledger=None):
        self.state = make_state(scheme, op.shape[0], capacity, ledger=ledger)
        super().__init__(op, capacity, self.state.ledger, v=self.state._q)
        self.scheme_id = scheme
        self._image = None  # operator image of the pending column
        if start is None:
            return
        if self.state.delayed:
            self.state.push(start)
            self._image = self.op.apply(self._v[:, 0])
        else:
            self.start_norm = float(np.linalg.norm(start))
            self.state.adopt((start / self.start_norm)[:, None])
            self.nbasis = 1

    def _adopt(self, basis, hbar):
        self.state.adopt(basis)
        super()._adopt(basis, hbar)

    def _has_pending(self):
        return self.state.pending is not None

    def _step(self):
        j = self.nbasis
        state = self.state
        try:
            if self._image is None:  # immediate scheme, or priming after a resume
                state.push(self.op.apply(self._v[:, j - 1]))
            else:
                state.push(self._image, pending_image=True)
                self.ledger.add_flops(self.m)  # the image's rescale by alpha
        except BreakdownError as err:
            return self._stop(j, err)
        if state.ncols > j:
            self._record(j)
            c = state.vector_correction
            if c is not None:
                hc = self._h[: j + 1, :j] @ c
                self.ledger.add_flops(2 * (j + 1) * j)
                state.pending = state.pending - hc / state.last_alpha
        if state.pending is not None:
            self._image = self.op.apply(self._v[:, state.ncols])
        return True

    def _flush(self):
        j = self.nbasis
        self._image = None
        try:
            self.state.flush()
        except BreakdownError as err:
            self._stop(j, err)
        if self.state.ncols > j:
            self._record(j)

    def _record(self, j):
        """Basis column j was emitted: its coefficients are Hbar column j-1."""
        self._write_column(j, self.state.last_alpha)
        self.nbasis = j + 1
        if j == 0:
            self.start_norm = self.state.last_alpha

    def _stop(self, j, err):
        """A dependent column j is a happy breakdown: zero subdiagonal."""
        if err.kind != "dependent":
            raise err
        self._write_column(j, 0.0)
        self._image = None
        return self._mark_happy()

    def _write_column(self, j, alpha):
        if j > 0:
            coeffs = self.state.last_coeffs
            self._h[: len(coeffs), j - 1] = coeffs
            self._h[j, j - 1] = alpha
            self.hcols = j


class _HouseholderArnoldi(_BaseArnoldi):
    """Walker's expansion through accumulated Householder reflectors.

    The reflectors are kept in LAPACK's compact form, as ``dense.reflectors``
    returns them: step j makes P_j with ``dgeqrfp`` on the tail of
    P_{j-1} ... P_0 A v_{j-1}, and ``dormqr`` applies the products.  The
    ledger is charged Walker's counts from the formula: one dot and one
    update per applied reflector that is not the identity, and one dot (the
    tail norm) per new reflector.
    """

    scheme_id = "householder"

    def __init__(self, op, start, capacity, ledger=None):
        super().__init__(op, capacity, ledger)
        self._refl = np.zeros((self.m, capacity), order="F")
        self._tau = np.zeros(capacity)
        if start is not None:
            self.start_norm = self._new_reflector(start, 0)
            self._new_column(0)

    def _adopt(self, basis, hbar):
        # re-encode the orthonormal basis as reflectors; R is +I to rounding
        k = hbar.shape[1]
        self._refl[:, : k + 1], self._tau[: k + 1] = reflectors(basis, self.ledger)
        self._v[:, : k + 1] = basis
        super()._adopt(basis, hbar)

    def _apply(self, z, r, trans):
        """P_{r-1} ... P_0 z (trans "T") or P_0 ... P_{r-1} z (trans "N")."""
        tau = self._tau[:r]
        for i in np.flatnonzero(tau):
            self.ledger.record(MV_DOT, flops=2 * (self.m - i))
            self.ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * (self.m - i))
        return lapack.dormqr("L", trans, self._refl[:, :r], tau, z[:, None], lwork=1)[0][:, 0]

    def _new_reflector(self, z, j):
        """Store P_j, which zeroes z below row j and leaves +||z[j:]|| in row
        j; returns that norm."""
        self.ledger.record(MV_DOT, flops=2 * (self.m - j - 1))
        a, tau, _ = lapack.dgeqrfp(z[j:, None])
        self._refl[j:, j] = a[:, 0]
        self._tau[j] = tau[0]
        return float(a[0, 0])

    def _new_column(self, j):
        """Basis column j is P_0 ... P_j e_j."""
        e = np.zeros(self.m)
        e[j] = 1.0
        self._v[:, j] = self._apply(e, j + 1, "N")
        self.nbasis = j + 1

    def _step(self):
        j = self.nbasis
        v = self.op.apply(self._v[:, j - 1])
        check_finite(v, self.scheme_id, j)
        scale = float(np.linalg.norm(v))
        z = self._apply(v, j, "T")
        self._h[:j, j - 1] = z[:j]
        self.hcols = j
        if not independent(float(np.linalg.norm(z[j:])), scale, self.m):
            self._h[j, j - 1] = 0.0
            return self._mark_happy()
        self._h[j, j - 1] = self._new_reflector(z, j)
        self._new_column(j)
        return True


def arnoldi(op, start, scheme, capacity, ledger=None):
    """Construct an expansion for a scheme id from a start vector; a start
    with NaN or infinity raises NonFiniteError at step 0, a zero start
    ValueError."""
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        check_finite(start, scheme, 0)
        if not float(np.linalg.norm(start)) > 0.0:
            raise ValueError("zero start vector")
    if scheme == "householder":
        return _HouseholderArnoldi(op, start, capacity, ledger)
    return _GramSchmidtArnoldi(op, start, scheme, capacity, ledger)


def resume_arnoldi(op, basis, hbar, scheme, capacity, ledger=None):
    """Continue an expansion from an existing decomposition A V_k = V_{k+1} Hbar.

    ``basis`` holds k+1 orthonormal columns and ``hbar`` is (k+1)-by-k; the
    bottom coupling row may be dense (generalized Krylov-Schur form).
    """
    basis = np.asarray(basis, dtype=np.float64)
    hbar = np.asarray(hbar, dtype=np.float64)
    if basis.shape[1] != hbar.shape[0] or hbar.shape[0] != hbar.shape[1] + 1:
        raise DimensionError(
            f"expected (m, k+1) basis with (k+1, k) hbar, got {basis.shape} {hbar.shape}"
        )
    exp = arnoldi(op, None, scheme, capacity, ledger)
    exp._adopt(basis, hbar)
    return exp


def arnoldi_expand(op, start, scheme, steps, ledger=None):
    """Run a fixed-order expansion and return (V, Hbar)."""
    exp = arnoldi(op, start, scheme, capacity=steps + 1, ledger=ledger)
    while exp.order < steps:
        if not exp.step():
            break
    return exp.finalize()
