"""Arnoldi expansions A V_k = V_{k+1} Hbar_k over the orthogonalization schemes.

Arnoldi is the left-looking QR of [r0, A v0, A v1, ...]: one expansion
class pushes the operator images into the ``ortho`` push state of its
scheme, ``householder`` included, and Hbar is that QR's R factor without
its first column, a view of the state's R.  The expansion object grows one
basis column per ``step``; ``finalize`` flushes any pending delayed work and
returns ``(V, Hbar)``.  On a happy breakdown (the new direction lies in the
current span) the state leaves the attempted coefficients over a zero
diagonal, so the subdiagonal is reported as zero, the returned Hbar is
square, and the expansion stops; a breakdown is never normalized through.
``restart`` begins the expansion anew in the same storage, from a start
vector (a GMRES cycle) or from A V_k = V_{k+1} Hbar (a Krylov-Schur thick
restart), so one expansion serves a whole solve.

The immediate Gram-Schmidt schemes normalize the start vector by an
``np.linalg.norm`` the ledger leaves out (see ``ledger``), so
per-iteration reduction counts start with the first projection step;
``householder`` pushes it as its first reflector.  The states that push
their start vector say so (``pushes_start``).  The delayed schemes push
the start vector unnormalized, emit it at the first step, and from then on
push the image of the unnormalized pending vector, so the fused reduction
consumes both blocks.  Each step is one operator apply and one push: the
apply takes the column that push needs, the pending vector when the state
holds one, else the last basis vector.  dcgs2 emits the pending vector
corrected by Q c, and its push state gives the image's coefficients the
Hessenberg correction s - H c / alpha (``ortho._DelayedState``).
"""

import numpy as np

from .errors import BreakdownError, DimensionError
from .ortho import check_finite, make_state


class _BaseArnoldi:
    """Expansion over a push state, which owns the basis and Hbar storage."""

    def __init__(self, op, start, scheme, capacity, ledger=None):
        if capacity < 2:
            raise DimensionError("capacity of at least 2 basis vectors required")
        self.state = make_state(scheme, op.shape[0], capacity, ledger=ledger)
        self.op = op
        self.capacity = capacity
        self.ledger = self.state.ledger
        self._v = self.state._q
        self._h = self.state._r[:, 1:]  # Hbar column j-1 is R column j
        self.happy = False
        if start is not None:
            self.restart(start)

    def restart(self, start, hbar=None):
        """Begin the expansion anew in the same storage, from a start
        vector (NaN or infinity raises NonFiniteError at step 0, a zero
        vector ValueError) or, with ``hbar``, from A V_k = V_{k+1} Hbar:
        ``start`` holds the k+1 orthonormal columns, possibly a view of the
        storage's leading ones, and the (k+1)-by-k ``hbar`` may have a dense
        coupling row (generalized Krylov-Schur form).  A start whose rows
        are not the operator's order raises DimensionError."""
        state, start = self.state, np.asarray(start, dtype=np.float64)
        if start.ndim != (1 if hbar is None else 2) or start.shape[0] != state.m:
            raise DimensionError(
                f"{state.scheme_id}: start of {state.m} rows expected, got {start.shape}"
            )
        if hbar is None:
            check_finite(start, state.scheme_id, 0)
            norm = float(np.linalg.norm(start))
            if not norm > 0.0:
                raise ValueError("zero start vector")
        else:
            hbar = np.array(hbar, dtype=np.float64)  # a copy: reset zeroes R
            if start.shape[1] != hbar.shape[0] or hbar.shape[0] != hbar.shape[1] + 1:
                raise DimensionError(
                    f"expected (m, k+1) basis with (k+1, k) hbar, got {start.shape} {hbar.shape}"
                )
        state.reset()
        self.happy = False
        if hbar is not None:
            state.adopt(start)
            self._h[: hbar.shape[0], : hbar.shape[1]] = hbar
        elif state.pushes_start:
            state.push(start)
        else:
            state.adopt((start / norm)[:, None])
            state._r[0, 0] = norm  # R of [start, A v0, ...] opens with it

    # -- views ------------------------------------------------------------
    @property
    def nbasis(self):
        """Number of finalized orthonormal basis columns."""
        return self.state.ncols

    @property
    def hcols(self):
        """Fully assembled Hessenberg columns."""
        return max(self.nbasis - 1 + self.happy, 0)

    @property
    def start_norm(self):
        """Norm of the start vector, R's first entry, once v0 is emitted."""
        return float(self.state._r[0, 0]) if self.nbasis else None

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
        return self.nbasis + (self.state.pending is not None)

    @property
    def order(self):
        """Expansion order after finalize (columns of Hbar)."""
        return self.size if self.happy else self.size - 1

    # -- contract ----------------------------------------------------------
    def step(self):
        """Grow the expansion by one column, with one operator apply and one
        push; False once a happy breakdown hit."""
        if self.happy:
            return False
        if not self.size:
            raise DimensionError("empty expansion: restart it from a start vector")
        if self.size >= self.capacity:
            raise DimensionError("expansion capacity exhausted")
        state = self.state
        # the pending column when the state holds one, else the last basis vector
        image = self.op.apply(self._v[:, self.size - 1])
        try:
            if state.pending is None:
                state.push(image)
            else:
                state.push(image, pending_image=True)
        except BreakdownError as err:
            return self._stop(err)
        return True

    def finalize(self):
        """Flush pending work; returns (V, Hbar).

        Both are views of the push state's storage, not copies: V is
        column-major and Hbar is a block of R.  The storage is append-only
        until the expansion restarts, so a later ``step`` leaves the
        returned V and Hbar unchanged; ``restart`` rewrites them.
        """
        try:
            self.state.flush()
        except BreakdownError as err:
            self._stop(err)
        return self.basis, self._h[: self.nbasis, : self.hcols]

    def _stop(self, err):
        """A dependent column is a happy breakdown: its R column, attempted
        coefficients over a zero diagonal, is Hbar's last."""
        if err.kind != "dependent":
            raise err
        self.happy = True
        return False


def arnoldi(op, start, scheme, capacity, ledger=None):
    """Construct an expansion for a scheme id, begun from ``start`` as
    ``restart`` begins it; with ``start=None`` it is empty until a
    ``restart``."""
    return _BaseArnoldi(op, start, scheme, capacity, ledger)


def arnoldi_expand(op, start, scheme, steps, ledger=None):
    """Run a fixed-order expansion and return (V, Hbar)."""
    exp = arnoldi(op, start, scheme, capacity=steps + 1, ledger=ledger)
    while exp.order < steps and exp.step():
        pass
    return exp.finalize()
