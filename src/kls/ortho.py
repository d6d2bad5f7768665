"""Left-looking QR orthogonalization schemes behind one push interface.

Each state factorizes one column at a time: ``push`` consumes the next
column, ``finalize`` returns ``(Q, R)``.  The one-reduction schemes
(``icwy-mgs``, ``dcgs2``, ``dcgs2-hrt``) hold one unnormalized pending
column between pushes and emit the previous basis vector instead, which is
what lets them fuse all synchronizing work of a column into a single
reduction.  The pending column lives in the next free column of the basis
storage, so the fused left operand [Q, w] is a view.

These states are the only implementation of each scheme: the Arnoldi
expansion in ``arnoldi`` pushes operator images into them.

Scheme ids: cgs, cgs2, cgs2-lagged, mgs, icwy-mgs, dcgs2, dcgs2-hrt,
householder.
"""

import numpy as np
import scipy.linalg

from .dense import householder_qr
from .errors import BreakdownError, DimensionError, NonFiniteError, UnknownSchemeError
from .kernels import dot, mv_times_mat_add_mv, mv_trans_mv, norm2
from .ledger import SyncLedger

_EPS = np.finfo(np.float64).eps


def independent(alpha, scale, m):
    """True when a projected norm stands above the rounding noise of the
    projection, which reaches sqrt(m)*eps*scale."""
    return alpha > _EPS * np.sqrt(m) * scale


def check_finite(a, scheme, step):
    """Raise NonFiniteError, naming the scheme and step, on NaN or infinity."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(
            f"{scheme}: non-finite column at step {step}", scheme=scheme, step=step
        )


def _left_block(q, j):
    """The fused left operand [Q, w]: the first j+1 basis columns, a view.

    At j = 1 the block is copied to row-major order, the layout numpy
    gives when it concatenates two single columns.  BLAS rounds the product
    differently per layout, and the Krylov-Schur locking counts follow that
    rounding.
    """
    if j == 1:
        return np.ascontiguousarray(q[:, :2])
    return q[:, : j + 1]


class QrState:
    """Shared storage and bookkeeping for the push-based schemes.

    ``ncols`` counts finalized orthonormal columns; the delayed subclasses
    additionally hold one pending column.  Column storage is column-major so
    the left-looking panels are contiguous.
    """

    scheme_id = None
    delayed = False
    #: coefficients c of the correction q = (w - Q c) / alpha that a delayed
    #: scheme applied to the pending vector w it last emitted; None for the
    #: schemes that emit the pending vector as held
    vector_correction = None

    def __init__(self, m, n_cap, ledger=None):
        self.m = m
        self.n_cap = n_cap
        self.ledger = ledger if ledger is not None else SyncLedger()
        self._q = np.zeros((m, n_cap), order="F")
        self._r = np.zeros((n_cap, n_cap))
        self.ncols = 0
        self.npushed = 0
        # most recent column's projection coefficients and norm; on a
        # dependent-column breakdown these hold the attempted coefficients
        self.last_coeffs = None
        self.last_alpha = None
        # projection coefficients of the pending column, None when none is
        # held (always, for the immediate schemes)
        self.pending = None

    @property
    def q(self):
        return self._q[:, : self.ncols]

    @property
    def r(self):
        return self._r[: self.npushed, : self.npushed]

    def _take(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.m,):
            raise DimensionError(f"column of length {self.m} expected, got {a.shape}")
        check_finite(a, self.scheme_id, self.npushed)
        if self.npushed >= self.n_cap:
            raise DimensionError("state capacity exhausted")
        return a

    def _guard(self, coeffs, alpha, scale):
        """Record the column's coefficients and norm; a column that vanished
        to rounding is dropped and reported as dependent."""
        self.last_coeffs, self.last_alpha = coeffs, alpha
        if not independent(alpha, scale, self.m):
            self._q[:, self.ncols] = 0.0
            self.pending = None
            raise BreakdownError(
                f"column {self.ncols} is dependent at working precision "
                f"(norm {alpha:.3e} against scale {scale:.3e})",
                kind="dependent",
                column=self.ncols,
            )

    def _pythagorean_norm(self, beta, c, column):
        """Norm of w - Q c from beta = w.w and c = Q^T w."""
        alpha_sq = beta - float(c @ c)
        self.ledger.add_flops(2 * len(c))
        if not alpha_sq > beta * _EPS * _EPS:
            raise BreakdownError(
                f"cancellation in the lagged norm of column {column}",
                kind="pythagorean",
                column=column,
            )
        return float(np.sqrt(alpha_sq))

    def _emit(self, qcol, coeffs, alpha):
        j = self.ncols
        self._q[:, j] = qcol
        self._r[: len(coeffs), j] = coeffs
        self._r[j, j] = alpha
        self.last_coeffs = np.asarray(coeffs, dtype=np.float64)
        self.last_alpha = alpha
        self.ncols += 1

    def adopt(self, qcol):
        """Append an externally orthonormalized column (no reductions)."""
        if self.npushed != self.ncols:
            raise DimensionError("cannot adopt while a column is pending")
        self._q[:, self.ncols] = qcol
        self._r[self.ncols, self.ncols] = 1.0
        self.ncols += 1
        self.npushed += 1

    def adopt_block(self, V):
        for k in range(V.shape[1]):
            self.adopt(V[:, k])

    def push(self, a):
        raise NotImplementedError

    def flush(self):
        """Emit the pending column, if any."""

    def finalize(self):
        """Flush pending work and return (Q, R)."""
        self.flush()
        return self.q.copy(), self.r.copy()


class CgsState(QrState):
    """Classical Gram-Schmidt, single projection pass: 2 reductions."""

    scheme_id = "cgs"

    def push(self, a):
        a = self._take(a)
        scale = float(np.linalg.norm(a))  # local breakdown guard, not counted
        Q = self.q
        s = mv_trans_mv(Q, a[:, None], ledger=self.ledger)[:, 0]
        u = a.copy()[:, None]
        mv_times_mat_add_mv(u, Q, s[:, None], sign=-1.0, ledger=self.ledger)
        alpha = norm2(u[:, 0], ledger=self.ledger)
        self._guard(s, alpha, scale)
        self.npushed += 1
        self._emit(u[:, 0] / alpha, s, alpha)


class Cgs2State(QrState):
    """CGS with full reorthogonalization: 3 reductions per column."""

    scheme_id = "cgs2"

    def push(self, a):
        a = self._take(a)
        scale = float(np.linalg.norm(a))
        Q = self.q
        s = mv_trans_mv(Q, a[:, None], ledger=self.ledger)[:, 0]
        w = a.copy()[:, None]
        mv_times_mat_add_mv(w, Q, s[:, None], sign=-1.0, ledger=self.ledger)
        c = mv_trans_mv(Q, w, ledger=self.ledger)[:, 0]
        mv_times_mat_add_mv(w, Q, c[:, None], sign=-1.0, ledger=self.ledger)
        alpha = norm2(w[:, 0], ledger=self.ledger)
        self._guard(s + c, alpha, scale)
        self.npushed += 1
        self._emit(w[:, 0] / alpha, s + c, alpha)


class Cgs2LaggedState(QrState):
    """CGS2 with the normalization fused into the second projection.

    The second reduction returns both the correction coefficients and the
    squared norm of the once-projected column, so the final norm comes from
    the Pythagorean identity alpha^2 = beta - c.c instead of a third pass.
    2 reductions per column.
    """

    scheme_id = "cgs2-lagged"

    def push(self, a):
        a = self._take(a)
        scale = float(np.linalg.norm(a))
        j = self.ncols
        Q = self.q
        s = mv_trans_mv(Q, a[:, None], ledger=self.ledger)[:, 0]
        w = self._q[:, j : j + 1]  # [Q, w] is then a view
        w[:, 0] = a
        mv_times_mat_add_mv(w, Q, s[:, None], sign=-1.0, ledger=self.ledger)
        fused = mv_trans_mv(_left_block(self._q, j), w, ledger=self.ledger)[:, 0]
        c, beta = fused[:j], fused[j]
        self._guard(s + c, float(np.sqrt(max(beta, 0.0))), scale)
        alpha = self._pythagorean_norm(beta, c, self.npushed)
        mv_times_mat_add_mv(w, Q, c[:, None], sign=-1.0, ledger=self.ledger)
        self.npushed += 1
        self._emit(w[:, 0] / alpha, s + c, alpha)


class MgsState(QrState):
    """Modified Gram-Schmidt with elementary rank-1 projections.

    Column j costs j reductions: one dot per existing basis vector plus the
    normalization.
    """

    scheme_id = "mgs"

    def push(self, a):
        a = self._take(a)
        scale = float(np.linalg.norm(a))
        j = self.ncols
        u = a.copy()
        s = np.zeros(j)
        for i in range(j):
            qi = self._q[:, i]
            s[i] = dot(qi, u, ledger=self.ledger)
            mv_times_mat_add_mv(
                u[:, None], qi[:, None], [[s[i]]], sign=-1.0, ledger=self.ledger
            )
        alpha = norm2(u, ledger=self.ledger)
        self._guard(s, alpha, scale)
        self.npushed += 1
        self._emit(u / alpha, s, alpha)


class _DelayedState(QrState):
    """The one-reduction pipeline shared by the delayed schemes.

    A push completes the pending column j and projects the incoming column
    in one fused reduction [Q, w]^T [w, a]; each scheme supplies how the
    incoming coefficients follow from the reduction (``_incoming``).  The
    pending column is emitted as held (``_emit_pending``, ``flush``) unless
    the scheme reorthogonalizes it first, as dcgs2 does.  The first push
    into an empty basis only stashes its column; a push into an adopted basis
    with nothing pending primes with one projection.

    With ``pending_image=True`` the incoming column is the image of the
    unnormalized pending column rather than of its normalized form, as in
    an Arnoldi expansion: the push divides it and its coefficients by the
    emitted norm.  A QR push divides by 1.0, which is exact.
    """

    delayed = True

    def __init__(self, m, n_cap, ledger=None):
        super().__init__(m, n_cap, ledger)
        # the fused right operand [w, a]; row-major, because BLAS rounds the
        # product differently per layout (see _left_block)
        self._wa = np.empty((m, 2))

    def _stash(self, col, coeffs, scale, d=1.0):
        """Hold col / d, projected by coeffs, as the pending column."""
        j = self.ncols
        self._q[:, j] = col
        if d != 1.0:
            self._q[:, j] /= d
        if j:
            mv_times_mat_add_mv(
                self._q[:, j : j + 1], self.q, coeffs[:, None], sign=-1.0,
                ledger=self.ledger,
            )
        self.pending = coeffs
        self._pscale = scale  # norm of the pending column's input, breakdown guard
        self.npushed += 1

    def _project(self, s):
        """Projection coefficients from raw inner products against Q."""
        return s

    def push(self, a, pending_image=False):
        a = self._take(a)
        j = self.ncols  # pending column index
        if self.pending is None:
            s = np.zeros(0)
            if j:
                s = self._project(mv_trans_mv(self.q, a[:, None], ledger=self.ledger)[:, 0])
            self._stash(a, s, float(np.linalg.norm(a)))
            return
        wa = self._wa
        wa[:, 0] = self._q[:, j]
        wa[:, 1] = a
        g = mv_trans_mv(_left_block(self._q, j), wa, ledger=self.ledger)
        c, s = g[:j, 0], g[:j, 1]
        alpha = self._emit_pending(c, float(g[j, 0]))
        d = alpha if pending_image else 1.0
        coeffs = self._incoming(c, s, float(g[j, 1]), alpha, d)
        self._stash(a, coeffs, float(np.linalg.norm(a)) / d, d)

    def _emit_held(self, alpha):
        """Emit the pending column as held, divided by its norm alpha."""
        self._guard(self.pending, alpha, self._pscale)
        self._emit(self._q[:, self.ncols] / alpha, self.pending, alpha)
        return alpha

    def _emit_pending(self, c, beta):
        return self._emit_held(float(np.sqrt(max(beta, 0.0))))

    def flush(self):
        """Normalize the pending column as it stands: one reduction."""
        if self.pending is not None:
            self._emit_held(norm2(self._q[:, self.ncols], ledger=self.ledger))
            self.pending = None


class IcwyMgsState(_DelayedState):
    """One-reduction MGS via the inverse compact WY projector.

    The normalization is lagged: a push holds the fully projected column
    unnormalized, and the next push's single fused reduction returns its
    exact squared norm together with the lagged row of the strictly lower
    triangular factor L and the raw projection coefficients of the incoming
    column.  The projection applies (I + L)^-1 through a unit triangular
    solve; with ``symmetric=True`` the two-term correction T = I - L - L^T
    is applied instead (the compact WY variant).  One reduction per column,
    including the finalization norm of the last pending column.
    """

    scheme_id = "icwy-mgs"

    def __init__(self, m, n_cap, ledger=None, symmetric=False):
        super().__init__(m, n_cap, ledger)
        self._l = np.zeros((n_cap, n_cap))
        self.symmetric = symmetric

    def adopt_block(self, V):
        """Adopt orthonormal columns, seeding L with one fused Gram block."""
        start = self.ncols
        super().adopt_block(V)
        if V.shape[1] > 1:
            g = mv_trans_mv(V, V, ledger=self.ledger)
            sl = slice(start, start + V.shape[1])
            self._l[sl, sl] = np.tril(g, -1)

    def _project(self, s):
        """Apply the inverse (or symmetric) compact WY correction to s."""
        k = len(s)
        L = self._l[:k, :k]
        if k == 0:
            return s
        if self.symmetric:
            y = s - L @ s - L.T @ s
            self.ledger.add_flops(4 * k * k)
        else:
            y = scipy.linalg.solve_triangular(
                np.eye(k) + L, s, lower=True, unit_diagonal=True
            )
            self.ledger.add_flops(k * k)
        return y

    def _emit_pending(self, c, beta):
        # the pending column's Gram row against Q becomes the L row
        alpha = super()._emit_pending(c, beta)
        self._l[len(c), : len(c)] = c / alpha
        return alpha

    def _incoming(self, c, s, s_piv, alpha, d):
        return self._project(np.append(s, s_piv / alpha) / d)


class Dcgs2State(_DelayedState):
    """Delayed CGS2: one fused reduction per column.

    The reorthogonalization and normalization of column j-1 are performed
    during the push of column j, fused with its first projection into the
    single reduction [Q, w]^T [w, a].  The norm uses the Pythagorean
    identity on the once-projected pending vector and the lagged projection
    coefficient is corrected through the unnormalized quantities.
    ``finalize`` flushes the last pending column with a plain CGS2 pass
    (two more reductions).
    """

    scheme_id = "dcgs2"

    def _emit_pending(self, c, beta):
        """Reorthogonalize, normalize, and emit the pending column."""
        j = self.ncols
        coeffs = self.pending + c
        self._guard(coeffs, float(np.sqrt(max(beta, 0.0))), self._pscale)
        alpha = self._pythagorean_norm(beta, c, j)
        w = self._q[:, j : j + 1]
        mv_times_mat_add_mv(w, self.q, c[:, None], sign=-1.0, ledger=self.ledger)
        self._emit(w[:, 0] / alpha, coeffs, alpha)
        self.vector_correction = c
        return alpha

    def _incoming(self, c, s, s_piv, alpha, d):
        # lagged coefficient of the new column against the just-emitted q,
        # recovered from the unnormalized pending vector
        s_piv = (s_piv - float(c @ s)) / (alpha * d)
        self.ledger.add_flops(2 * len(c))
        return np.append(s / d, s_piv)

    def flush(self):
        """Emit the pending column with a plain CGS2 pass: reorthogonalize
        it once more, then normalize it."""
        if self.pending is not None:
            Q, w = self.q, self._q[:, self.ncols : self.ncols + 1]
            c = mv_trans_mv(Q, w, ledger=self.ledger)[:, 0]
            mv_times_mat_add_mv(w, Q, c[:, None], sign=-1.0, ledger=self.ledger)
            self.pending = self.pending + c
        super().flush()


class Dcgs2HrtState(_DelayedState):
    """Delayed scheme without the post-normalization corrections.

    Runs the same fused-reduction pipeline as ``dcgs2`` but normalizes the
    pending column by its raw lagged norm sqrt(beta), never applies the
    delayed correction to the vector, and skips the lagged-coefficient
    correction.  The correction coefficients still enter R, so the computed
    basis matches single-pass CGS while the representation drifts; this is
    the behavior the delayed-reorthogonalization variant of Hernandez et al.
    exhibits and is implemented here as its defining assumption.
    """

    scheme_id = "dcgs2-hrt"

    def _emit_pending(self, c, beta):
        self.pending = self.pending + c  # c enters R but not the vector
        return super()._emit_pending(c, beta)

    def _incoming(self, c, s, s_piv, alpha, d):
        return np.append(s / d, s_piv / (alpha * d))


#: the scheme registry: one push state per left-looking scheme id
_STATES = {
    cls.scheme_id: cls
    for cls in (
        CgsState,
        Cgs2State,
        Cgs2LaggedState,
        MgsState,
        IcwyMgsState,
        Dcgs2State,
        Dcgs2HrtState,
    )
}

#: schemes with a push state, each with a cost model in ``ledger``
PUSH_SCHEMES = tuple(_STATES)

SCHEME_IDS = PUSH_SCHEMES + ("householder",)

#: schemes that hold a pending column and need finalize to flush it
DELAYED_SCHEMES = tuple(s for s, cls in _STATES.items() if cls.delayed)


def make_state(scheme, m, n_cap, ledger=None, **options):
    """Construct the push state for a scheme id."""
    try:
        cls = _STATES[scheme]
    except KeyError:
        raise UnknownSchemeError(f"unknown scheme {scheme!r}") from None
    return cls(m, n_cap, ledger=ledger, **options)


def qr_factorize(A, scheme, ledger=None, **options):
    """Factorize a full matrix with the chosen scheme; returns (Q, R).

    ``householder`` is handled directly (it is not left-looking); all other
    ids run the push interface column by column.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise DimensionError(f"tall matrix expected, got {A.shape}")
    if scheme == "householder":
        fac = householder_qr(A, ledger=ledger)
        return fac.thin_q(), fac.r.copy()
    state = make_state(scheme, A.shape[0], A.shape[1], ledger=ledger, **options)
    for j in range(A.shape[1]):
        state.push(A[:, j])
    return state.finalize()
