"""Left-looking QR orthogonalization schemes behind one push interface.

Each state factorizes one column at a time: ``push`` consumes the next
column, ``finalize`` returns ``(Q, R)``.  The one-reduction schemes
(``icwy-mgs``, ``dcgs2``, ``dcgs2-hrt``) hold one unnormalized pending
column between pushes and emit the previous basis vector instead, which is
what lets them fuse all synchronizing work of a column into a single
reduction.  The pending column lives in the next free column of the basis
storage and the incoming column in the one after it, so both fused
operands, [Q, w] and [w, a], are views.

A push copies its column once, into the column's home in the column-major
basis storage, and every scheme builds and divides the basis vector there,
whatever the layout of the pushed column.  ``finalize`` returns views of
that storage, which is append-only until the expansion restarts
(``reset``).

Every projection subtracts, Y <- Y - Q C (``kernels.mv_times_mat_add_mv``,
or a delayed push's one sweep over the basis, ``kernels.mv_sweep``);
the classical pass c = Q^T w, w <- w - Q c is ``cgs_pass`` wherever it runs;
``icwy-mgs`` projects through the one inverse compact WY factor (I + L)^-1.

These states are the only implementation of each scheme: the Arnoldi
expansion in ``arnoldi`` pushes operator images into them, and its Hbar is
a view of the state's R.  A dependent column raises ``BreakdownError`` and
leaves its attempted coefficients in its R column, over a zero diagonal.

Scheme ids: cgs, cgs2, cgs2-lagged, mgs, icwy-mgs, dcgs2, dcgs2-hrt,
householder, each declaring on its class the cost model that
``predicted_counts`` reads through the registry.  ``householder`` is
Walker's Householder orthogonalization (``HouseholderState``), on LAPACK's
reflectors; ``dense.householder_qr`` is the tests' reference, not a scheme.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import BreakdownError, DimensionError, NonFiniteError, UnknownSchemeError
from .kernels import dot, mv_sweep, mv_times_mat_add_mv, mv_trans_mv, norm2
from .ledger import MV_DOT, MV_TIMES_MAT_ADD_MV, MV_TRANS_MV, SyncLedger

_EPS = np.finfo(np.float64).eps

#: byte budget of one row block of ``_load``'s copy, over A and its home.
#: A row-major 100000x100 A took 14 ms to copy in blocks of 512 KiB or
#: 1 MiB and 30 ms in one assignment (2-core Xeon, numpy 2.4 on one thread).
_COPY_BYTES = 1 << 20


def cgs_pass(Q, w, ledger):
    """One classical Gram-Schmidt pass: c = Q^T w (one reduction), then
    w <- w - Q c in place; returns c, 1-D."""
    w = w[:, None]
    c = mv_trans_mv(Q, w, ledger=ledger)[:, 0]
    mv_times_mat_add_mv(w, Q, c[:, None], ledger=ledger)
    return c


def check_finite(a, scheme, step):
    """Raise NonFiniteError, naming the scheme and step, on NaN or infinity."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(
            f"{scheme}: non-finite column at step {step}", scheme=scheme, step=step
        )


class QrState:
    """Shared storage and bookkeeping for the push-based schemes.

    ``ncols`` counts finalized orthonormal columns; the delayed subclasses
    additionally hold one pending column.  Column storage is column-major so
    the left-looking panels are contiguous.  Column ``npushed`` is the home
    of the next pushed column: ``_take`` copies the column there, and the
    basis vector it becomes is built in place.  ``pushes_start`` says that
    an Arnoldi expansion pushes its start vector into the state, where the
    other schemes adopt it normalized.
    """

    scheme_id = None
    pushes_start = False
    column_synchs = None  # j -> the reductions at column j (1-based), steady state
    flop_lead = None  # the coefficient of (m/p) n^2 in the flop total
    flush_synchs = 0  # the reductions a flush adds beyond the per-column rule

    def __init__(self, m, n_cap, ledger=None):
        self.m = m
        self.n_cap = n_cap
        self.ledger = ledger if ledger is not None else SyncLedger()
        self._q = np.zeros((m, n_cap), order="F")
        self._r = np.zeros((n_cap, n_cap))
        self.ncols = 0
        self.npushed = 0
        # projection coefficients of the pending column, None when none is
        # held (always, for the immediate schemes)
        self.pending = None
        self._loaded = 0  # leading columns _load put in their homes
        self._held = None  # the next push's fused reduction, summed ahead

    @property
    def q(self):
        return self._q[:, : self.ncols]

    @property
    def r(self):
        return self._r[: self.npushed, : self.npushed]

    def _take(self, a):
        """Copy a pushed column into its home, column ``npushed``, and
        return the home; NaN or infinity raises NonFiniteError (a local
        scan: the guard's scale needs no norm, see ``_guard``)."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.m,):
            raise DimensionError(f"column of length {self.m} expected, got {a.shape}")
        if self.npushed >= self.n_cap:
            raise DimensionError("state capacity exhausted")
        home = self._q[:, self.npushed]
        home[:] = a
        check_finite(home, self.scheme_id, self.npushed)
        return home

    def _guard(self, coeffs, alpha):
        """A column whose norm alpha is within sqrt(m) eps scale, the
        projection's rounding, is dropped and reported as dependent; its R
        column keeps the attempted coefficients over its zero diagonal.  The
        scale sqrt(coeffs.coeffs + alpha^2) is a local dot, no reduction."""
        scale = float(np.sqrt(float(coeffs @ coeffs) + alpha * alpha))
        if not alpha > _EPS * np.sqrt(self.m) * scale:
            self._q[:, self.ncols] = 0.0
            self._r[: len(coeffs), self.ncols] = coeffs
            self.pending = None
            raise BreakdownError(
                f"column {self.ncols} is dependent at working precision "
                f"(norm {alpha:.3e} against scale {scale:.3e})",
                kind="dependent",
                column=self.ncols,
            )

    def _pythagorean_norm(self, coeffs, beta, c):
        """Norm alpha of w - Q c from beta = w.w and c = Q^T w, guarded: in an
        exhausted Krylov space beta is noise that clears the guard, while
        alpha^2 = beta - c.c is below the subtraction's rounding."""
        alpha_sq = float(beta) - float(c @ c)  # Python floats: inf - inf is nan, unwarned
        self.ledger.add_flops(2 * len(c))
        alpha = float(np.sqrt(max(alpha_sq, 0.0)))
        self._guard(coeffs, alpha)
        if not alpha_sq > beta * _EPS * _EPS:
            raise BreakdownError(
                f"cancellation in the lagged norm of column {self.ncols}",
                kind="pythagorean",
                column=self.ncols,
            )
        return alpha

    def _emit(self, coeffs, alpha):
        """Guard alpha, then normalize basis column ncols, built in place,
        by it and record it: the immediate schemes' push tail."""
        self._guard(coeffs, alpha)
        self.npushed += 1
        self._q[:, self.ncols] /= alpha
        self._record(coeffs, alpha)

    def _record(self, coeffs, alpha):
        """Record the R column and norm of basis column ncols; emit it."""
        j = self.ncols
        self._r[: len(coeffs), j] = coeffs
        self._r[j, j] = alpha
        self.ncols += 1

    def reset(self):
        """Empty the state for a new factorization in the same storage; R
        is zeroed, as ``_record`` leaves the rows below the diagonal be."""
        self._r[:] = 0.0
        self.ncols = self.npushed = self._loaded = 0
        self.pending = self._held = None

    def _load(self, A):
        """Copy the columns of A into their homes, in row blocks that read
        a row-major A in order.  The pushes that follow must push these
        homes in order, until ``reset`` or ``adopt``: a delayed push then
        sums the next push's reduction ahead (``_DelayedState``)."""
        n = A.shape[1]
        rows = max(1, _COPY_BYTES // (16 * max(n, 1)))  # A and its home
        for i in range(0, self.m, rows):
            self._q[i : i + rows, :n] = A[i : i + rows]
        self._loaded = n

    def adopt(self, V):
        """Append the externally orthonormalized columns of the m-by-k
        block V, with a unit R diagonal (no reductions)."""
        if self.npushed != self.ncols:
            raise DimensionError("cannot adopt while a column is pending")
        j, k = self.ncols, V.shape[1]
        self._q[:, j : j + k] = V
        self._r[range(j, j + k), range(j, j + k)] = 1.0
        self.ncols += k
        self.npushed += k
        self._loaded = 0  # V overwrote the homes of loaded columns

    def push(self, a):
        raise NotImplementedError

    def flush(self):
        """Emit the pending column, if any."""

    def finalize(self):
        """Flush pending work and return (Q, R).

        Both are views of the state's storage, not copies: Q is
        column-major (F-contiguous).  The storage is append-only until the
        expansion restarts (``reset``), so a later ``push`` or ``adopt``
        leaves the returned Q and R unchanged.
        """
        self.flush()
        return self.q, self.r


class CgsState(QrState):
    """Classical Gram-Schmidt, single projection pass: 2 reductions."""

    scheme_id = "cgs"
    column_synchs, flop_lead = staticmethod(lambda j: 2), 2.0
    passes = 1  # classical passes before the normalization

    def push(self, a):
        u = self._take(a)
        s = cgs_pass(self.q, u, self.ledger)
        for _ in range(1, self.passes):
            s = s + cgs_pass(self.q, u, self.ledger)
        self._emit(s, norm2(u, ledger=self.ledger))


class Cgs2State(CgsState):
    """CGS with a second, reorthogonalizing pass: 3 reductions per column."""

    scheme_id = "cgs2"
    column_synchs, flop_lead = staticmethod(lambda j: 3), 4.0
    passes = 2


class Cgs2LaggedState(QrState):
    """CGS2 with the normalization fused into the second projection.

    The second reduction returns both the correction coefficients and the
    squared norm of the once-projected column, so the final norm comes from
    the Pythagorean identity alpha^2 = beta - c.c instead of a third pass.
    2 reductions per column.
    """

    scheme_id = "cgs2-lagged"
    column_synchs, flop_lead = staticmethod(lambda j: 2), 4.0

    def push(self, a):
        u = self._take(a)
        j = self.ncols
        Q = self.q
        s = cgs_pass(Q, u, self.ledger)
        w = self._q[:, j : j + 1]  # [Q, w] is then a view
        fused = mv_trans_mv(self._q[:, : j + 1], w, ledger=self.ledger)[:, 0]
        c, beta = fused[:j], fused[j]
        alpha = self._pythagorean_norm(s + c, beta, c)  # guarded, so no _emit
        mv_times_mat_add_mv(w, Q, c[:, None], ledger=self.ledger)
        self.npushed += 1
        w /= alpha
        self._record(s + c, alpha)


class MgsState(QrState):
    """Modified Gram-Schmidt with elementary rank-1 projections.

    Column j costs j reductions: one dot per existing basis vector plus the
    normalization.
    """

    scheme_id = "mgs"
    column_synchs, flop_lead = staticmethod(lambda j: j), 2.0

    def push(self, a):
        u = self._take(a)
        j = self.ncols
        s = np.zeros(j)
        for i in range(j):
            qi = self._q[:, i]
            s[i] = dot(qi, u, ledger=self.ledger)
            mv_times_mat_add_mv(u[:, None], qi[:, None], [[s[i]]], ledger=self.ledger)
        self._emit(s, norm2(u, ledger=self.ledger))


class _DelayedState(QrState):
    """The one-reduction pipeline shared by the delayed schemes.

    A push completes the pending column j and projects the incoming column
    in one fused reduction [Q, w]^T [w, a] of views of the basis storage (a
    row-major copy of [w, a] at j = 0, whose gemv rounds by the layout;
    test_ortho's test_dcgs2_fused_reduction_reads_the_basis_in_place checks
    that the gemm from j = 1 does not).  Each scheme supplies the pending
    column's norm and R column (``_emit_pending``, where a breakdown raises
    before [w, a] is touched) and the incoming coefficients (``_incoming``).
    Then one sweep over the basis (``_pass``, ``kernels.mv_sweep``)
    corrects the pending column by Q c if the scheme reorthogonalizes it
    (``corrects_vector``, dcgs2), divides it by its norm alpha and projects
    the incoming column, all in one product per row block: with t =
    s[j] / alpha, a - [Q, (w - Q c) / alpha] s = a - Q (s[:j] - c t) - w t,
    so the block of [Q, w] is read once, before w is divided.  The first
    push into an empty basis only stashes its column; a push into an
    adopted basis with nothing pending primes with one projection.

    After ``_load`` (``qr_factorize``) the next pushed column already sits
    in its home, so the sweep also sums the next push's fused reduction
    over the same row blocks, while each is in cache, with the bits of
    ``mv_trans_mv``; the next push takes that result (``_held``) instead of
    reducing, and records the reduction it stands for.  An Arnoldi image
    cannot be summed ahead: it is the image of the vector the sweep
    finishes.

    With ``pending_image=True`` the incoming column is the image of the
    unnormalized pending column rather than of its normalized form, as in
    an Arnoldi expansion: the push divides it and its coefficients by the
    emitted norm (a QR push divides by 1.0, which is exact).  It also
    carries dcgs2's Hessenberg correction: after the sweep, which projects
    with them, the coefficients s become s - H c / alpha, H being R without
    its first column.
    """

    pushes_start = True
    column_synchs = staticmethod(lambda j: 1)  # the first push is free, the flush pays one
    corrects_vector = False  # emits the pending column w as (w - Q c) / alpha

    def _stash(self, coeffs):
        """Hold the column at home, projected by coeffs, as pending."""
        self.pending = coeffs
        self.npushed += 1

    def _project(self, s):
        """Projection coefficients from raw inner products against Q."""
        return s

    def push(self, a, pending_image=False):
        a = self._take(a)  # home: column j, or j + 1 behind a pending one
        j = self.ncols  # pending column index
        if self.pending is None:
            s = np.zeros(0)
            if j:
                s = self._project(mv_trans_mv(self.q, a[:, None], ledger=self.ledger)[:, 0])
                mv_times_mat_add_mv(a[:, None], self.q, s[:, None], ledger=self.ledger)
            self._stash(s)
            return
        g, self._held = self._held, None
        if g is None:
            wa = self._q[:, j : j + 2]  # [w, a]: the pending column and a, side by side
            if not j:
                wa = np.ascontiguousarray(wa)
            g = mv_trans_mv(self._q[:, : j + 1], wa, ledger=self.ledger)
        else:  # summed ahead by the last sweep: its reduction is this push's
            self.ledger.record(MV_TRANS_MV, flops=2 * self.m * (j + 1) * 2)
        c, s = g[:j, 0], g[:j, 1]
        alpha = self._emit_pending(c, float(g[j, 0]))
        d = alpha if pending_image else 1.0
        coeffs = self._incoming(c, s, float(g[j, 1]), alpha, d)
        correction = c if self.corrects_vector else None
        self._held = self._pass(j, alpha, d, coeffs, correction)
        if pending_image:
            self.ledger.add_flops(self.m)  # the image's division by alpha
            if correction is not None:  # the Hessenberg correction
                coeffs = coeffs - (self._r[: j + 1, 1 : j + 1] @ correction) / alpha
                self.ledger.add_flops(2 * (j + 1) * j)
        self._stash(coeffs)

    def _pass(self, j, alpha, d, coeffs, c):
        """w <- (w - Q c) / alpha (w <- w / alpha with c None), then
        a <- a / d - [Q, w] coeffs, as one sweep over the basis; ledgered
        per projection.  Returns the next push's fused reduction when the
        next column is loaded (``_load``), else None."""
        t = coeffs[j] / alpha
        k = np.zeros((2, j + 1))
        k[1, :j], k[1, j] = coeffs[:j], t
        if c is not None:
            k[0, :j] = c
            k[1, :j] -= c * t
            self.ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * self.m * j)
        self.ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * self.m * (j + 1))
        ahead = j + 3 <= self._loaded  # column j + 2 is in its home
        return mv_sweep(self._q, j, k, alpha, d, ahead)

    def _emit_held(self, alpha):
        """Record the pending column as held, with norm alpha, undivided."""
        self._guard(self.pending, alpha)
        self._record(self.pending, alpha)
        return alpha

    def _emit_pending(self, c, beta):
        return self._emit_held(float(np.sqrt(max(beta, 0.0))))

    def flush(self):
        """Normalize the pending column as it stands: one reduction."""
        self._held = None
        if self.pending is not None:
            w = self._q[:, self.ncols]
            w /= self._emit_held(norm2(w, ledger=self.ledger))
            self.pending = None


class IcwyMgsState(_DelayedState):
    """One-reduction MGS via the inverse compact WY projector.

    The normalization is lagged: a push holds the fully projected column
    unnormalized, and the next push's single fused reduction returns its
    exact squared norm together with the lagged row of the strictly lower
    triangular factor L and the raw projection coefficients of the incoming
    column.  The projection applies (I + L)^-1 through a unit triangular
    solve.  One reduction per column, including the finalization norm of
    the last pending column.
    """

    scheme_id = "icwy-mgs"
    flop_lead = 3.0

    def __init__(self, m, n_cap, ledger=None):
        super().__init__(m, n_cap, ledger)
        self._l = np.zeros((n_cap, n_cap))

    def adopt(self, V):
        """Adopt orthonormal columns, seeding L with one fused Gram block."""
        start = self.ncols
        super().adopt(V)
        if V.shape[1] > 1:
            g = mv_trans_mv(V, V, ledger=self.ledger)
            sl = slice(start, start + V.shape[1])
            self._l[sl, sl] = np.tril(g, -1)

    def _project(self, s):
        """Apply the inverse compact WY correction (I + L)^-1 to s."""
        k = len(s)
        self.ledger.add_flops(k * k)
        # LAPACK reads no diagonal of a unit triangle: L's zeros stand for I
        return scipy.linalg.solve_triangular(self._l[:k, :k], s, lower=True, unit_diagonal=True)

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
    (two reductions, one more than the per-column rule).
    """

    scheme_id = "dcgs2"
    flop_lead, flush_synchs = 4.0, 1
    corrects_vector = True

    def _emit_pending(self, c, beta):
        """Reorthogonalize, normalize, and emit the pending column."""
        coeffs = self.pending + c
        alpha = self._pythagorean_norm(coeffs, beta, c)
        self._record(coeffs, alpha)
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
            self.pending = self.pending + cgs_pass(self.q, self._q[:, self.ncols], self.ledger)
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
    flop_lead = 3.0  # no delayed vector correction: 3, not dcgs2's 4

    def _emit_pending(self, c, beta):
        self.pending = self.pending + c  # c enters R but not the vector
        return super()._emit_pending(c, beta)

    def _incoming(self, c, s, s_piv, alpha, d):
        return np.append(s / d, s_piv / (alpha * d))


class HouseholderState(QrState):
    """Walker's Householder orthogonalization through accumulated reflectors
    (Walker, SISC 1988).

    The reflectors are kept in LAPACK's compact ``(a, tau)`` form: push j
    applies P_{j-1} ... P_0 to the column, makes P_j with ``dgeqrfp`` on the
    tail, and forms q_j = P_0 ... P_j e_j with ``dormqr``; ``adopt``
    re-encodes a basis with one ``dgeqrfp``.  The ledger is charged static
    formulas, identity reflectors included: one dot and one update per
    applied reflector and one dot (the tail norm) per new one, 2(j + 1)
    reductions at push j; an adopted column costs what it does in the
    right-looking loop, a tail norm, one fused product and one update.  The
    guard reads ``dgeqrfp``'s scaled tail norm, which no underflow zeroes.
    """

    scheme_id = "householder"
    pushes_start = True
    column_synchs, flop_lead = staticmethod(lambda j: 2 * j), 4.0

    def __init__(self, m, n_cap, ledger=None):
        super().__init__(m, n_cap, ledger)
        self._refl = np.zeros((m, n_cap), order="F")
        self._tau = np.zeros(n_cap)

    def adopt(self, V):
        """Adopt orthonormal columns into an empty state, re-encoded as
        reflectors (R is +I to rounding)."""
        if self.ncols:
            raise DimensionError("householder adopts into an empty state only")
        k = V.shape[1]
        self._refl[:, :k], self._tau[:k], _ = lapack.dgeqrfp(V)
        for j in range(k):  # the right-looking loop's tail norm, product and update
            self.ledger.record(MV_DOT, flops=2 * (self.m - j - 1))
            self.ledger.record(MV_TRANS_MV, flops=2 * (self.m - j) * (k - j))
            self.ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * (self.m - j) * (k - j))
        super().adopt(V)

    def _apply(self, z, r, trans):
        """P_{r-1} ... P_0 z (trans "T") or P_0 ... P_{r-1} z (trans "N")."""
        tau = self._tau[:r]
        for i in range(r):
            self.ledger.record(MV_DOT, flops=2 * (self.m - i))
            self.ledger.record(MV_TIMES_MAT_ADD_MV, flops=2 * (self.m - i))
        return lapack.dormqr("L", trans, self._refl[:, :r], tau, z[:, None], lwork=1)[0][:, 0]

    def push(self, a):
        z = self._take(a)
        j = self.ncols
        if j:
            z = self._apply(z, j, "T")
        # P_j zeroes z below row j and leaves +||z[j:]|| in row j, where the
        # guard reads it before any state changes (dgeqrfp writes locals)
        refl, tau, _ = lapack.dgeqrfp(z[j:, None])
        self._guard(z[:j], float(refl[0, 0]))
        self.ledger.record(MV_DOT, flops=2 * (self.m - j - 1))
        self._refl[j:, j] = refl[:, 0]
        self._tau[j] = tau[0]
        e = np.zeros(self.m)
        e[j] = 1.0
        self._q[:, j] = self._apply(e, j + 1, "N")
        self.npushed += 1
        self._record(z[:j], float(refl[0, 0]))


#: the scheme registry: the push states, each with its cost model, by scheme id
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
        HouseholderState,
    )
}

SCHEME_IDS = tuple(_STATES)


def _state_class(scheme):
    if scheme not in _STATES:
        raise UnknownSchemeError(f"unknown scheme {scheme!r}")
    return _STATES[scheme]


def make_state(scheme, m, n_cap, ledger=None):
    """Construct the push state for a scheme id."""
    return _state_class(scheme)(m, n_cap, ledger=ledger)


@dataclass(frozen=True)
class CostPrediction:
    """The exact reductions of an n-column ``qr_factorize``, and the flop lead."""

    scheme: str
    n: int
    total_synchs: int
    flop_lead: float


def per_iteration_synchs(scheme, j):
    """Predicted reductions spent on column j (1-based) in steady state."""
    return _state_class(scheme).column_synchs(j)


def predicted_counts(scheme, n):
    """The per-column rule summed over columns 1..n, plus the flush's extra."""
    cls = _state_class(scheme)
    total = sum(cls.column_synchs(j) for j in range(1, n + 1)) + (cls.flush_synchs if n else 0)
    return CostPrediction(scheme, n, total, cls.flop_lead)


def qr_factorize(A, scheme, ledger=None):
    """Factorize a full matrix with the chosen scheme; returns (Q, R).

    A is copied into the basis storage in row blocks, which read a
    row-major A in order (``_load``), and each column is pushed from its
    home there (``_take``'s copy is then a no-op): every layout of A gives
    the same bits.  With every column in storage before the first push, a
    delayed push's sweep also sums the next push's fused reduction, which
    then needs no second read of the basis; the bits and the ledger are
    those of pushing the columns one by one.  Q and R are the views
    ``QrState.finalize`` returns.  The LAPACK QR ``dense.householder_qr``
    is the tests' reference, not a scheme.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise DimensionError(f"tall matrix expected, got {A.shape}")
    state = make_state(scheme, *A.shape, ledger=ledger)
    state._load(A)
    for j in range(A.shape[1]):
        state.push(state._q[:, j])
    return state.finalize()
