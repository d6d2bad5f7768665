"""Krylov-Schur eigenvalue solver with locking and thick restarts.

The solver expands an Arnoldi decomposition to the basis budget, Schur
decomposes the small matrix, locks Ritz pairs whose Arnoldi residual
passes the tolerance, and thick-restarts with the locked vectors plus the
best remaining Schur vectors, rotated in place in the one expansion's
basis storage.  Converged values are always validated by the residual
|b^T y| of the (possibly generalized) coupling row, so every reported
eigenvalue passed the test at lock time.

Each restart solves for the Ritz pairs once, one per column of the Schur
form: an orthogonal reordering does not change a pair's residual |b^T y|
(the Krylov-Schur invariance, Stewart 2001), so the residuals are carried
through it column by column.
Against an exact spectrum the reported values are matched once, at the end.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .arnoldi import arnoldi
from .errors import IterationLimitError
from .kernels import norm2
from .ledger import SyncLedger
from .ortho import cgs_pass
from .problems import as_operator
from .schur import (
    SchurForm,
    hessenberg_real_schur,
    hessenberg_reduce,
    move_blocks_front,
    schur_eigenvectors,
)


@dataclass(frozen=True)
class KrylovSchurConfig:
    """Restart policy: expand to ``max_basis``, keep max_basis // 2 active
    Schur vectors plus every locked vector."""

    max_basis: int
    tol: float = 1e-7
    max_restarts: int = 100
    scheme: str = "cgs2"

    def __post_init__(self):
        if self.max_basis < 2:
            raise ValueError("max_basis >= 2 required")
        if not self.tol > 0:
            raise ValueError(f"tol > 0 required, got {self.tol}")
        if self.max_restarts < 1:
            raise ValueError("max_restarts >= 1 required")


@dataclass
class EigResult:
    values: np.ndarray  # locked Ritz values (complex, conjugate pairs adjacent)
    vectors: np.ndarray  # corresponding Ritz vectors, one column per value
    residuals: np.ndarray  # Arnoldi residual of each value at lock time
    invariant_dim: int
    restarts: int
    incomplete: bool  # restart budget exhausted before the basis filled
    over_multiplicity: bool  # a value matched an exact eigenvalue already used up
    n_matched: int  # values matched to the exact spectrum; None without one
    lock_history: list = field(default_factory=list)  # invariant dim per restart


@dataclass(frozen=True)
class EigenMatch:
    n_matched: int
    forward_errors: np.ndarray
    assignments: list  # (computed value, matched exact value) pairs
    unmatched: list
    over_multiplicity: bool


def match_eigenvalues(computed, table, tol):
    """Greedy nearest matching against an exact spectrum with multiplicities.

    Each computed value takes the closest exact eigenvalue that still has
    multiplicity budget; a value whose nearest exact eigenvalue lies within
    tol but is already exhausted raises the over-multiplicity flag (the
    solver found the same eigenvalue too many times).
    """
    unique = np.asarray(table.unique, dtype=np.float64)
    budget = np.array(table.multiplicity, dtype=np.int64)
    assignments = []
    errors = []
    unmatched = []
    over = False
    for x in np.atleast_1d(np.asarray(computed)):
        dist = np.abs(unique - x)
        order = np.argsort(dist)
        near = order[dist[order] < tol]
        free = near[budget[near] > 0]
        if len(free):
            budget[free[0]] -= 1
            assignments.append((x, unique[free[0]]))
            errors.append(dist[free[0]])
        else:
            unmatched.append(x)
            over = over or len(near) > 0
    return EigenMatch(
        n_matched=len(assignments),
        forward_errors=np.array(errors),
        assignments=assignments,
        unmatched=unmatched,
        over_multiplicity=over,
    )


def _schur_active(m_block):
    """Real Schur of a dense block via Hessenberg reduction."""
    h, u = hessenberg_reduce(m_block)
    form = hessenberg_real_schur(h)
    return SchurForm(form.t, u @ form.z)


def _fresh_direction(basis, rng, ledger):
    """Random start vector orthogonalized against a locked basis."""
    for _ in range(5):
        v = rng.standard_normal(basis.shape[0])
        for _ in range(2):
            cgs_pass(basis, v, ledger)
        nrm = norm2(v, ledger=ledger)
        if nrm > 1e-8:
            return v / nrm
    raise RuntimeError("could not generate a direction outside the locked space")


def krylov_schur_run(op, cfg, seed, ledger=None, exact=None):
    """Run Krylov-Schur on a square operator.

    Each restart solves for the active block's Ritz pairs once, one per
    column.  The two reorderings that follow are orthogonal, which leaves
    each residual |b^T y| unchanged, and keep the relative order within the
    moved group and within the rest, so the residuals and the locked front
    are carried through them column by column; a block that LAPACK's swaps
    split into two 1x1 blocks keeps its columns' flags.  Two blocks merged
    into a 2x2 block across the converged boundary move together (LAPACK's
    pair rule), one column more than the converged count; that reordering,
    like a Schur iteration or a reordering LAPACK cannot complete, raises
    IterationLimitError, which names the restart.
    ``exact`` is an optional EigenvalueTable: the reported values are
    matched against it once, after the last restart, within ``cfg.tol``;
    the result carries the matched count, and a value whose nearest exact
    eigenvalue is used up sets the over-multiplicity flag.  The locked
    corner is never rewritten, so this match sees what a match at every
    restart would.  The returned invariant dimension counts locked Schur
    vectors and never decreases.
    """
    m = op.shape[0]
    n_max = min(cfg.max_basis, m)
    ledger = ledger if ledger is not None else SyncLedger()
    rng = np.random.Generator(np.random.PCG64(seed))
    exp = arnoldi(op, rng.standard_normal(m), cfg.scheme, n_max + 1, ledger=ledger)
    V = exp._v  # the basis storage: each restart rotates it in place

    nlock = 0
    lock_resid = []
    lock_history = []
    restarts = 0

    while True:
        while exp.order < n_max and exp.step():
            pass
        h_mat = exp.finalize()[1]
        k = h_mat.shape[1]
        happy = exp.happy
        mm = h_mat[:k, :k].copy()
        b_row = np.zeros(k) if happy else h_mat[k, :k].copy()

        # Schur of the active block; locked leading corner stays untouched
        na = k - nlock
        if na > 0:
            try:
                subform = _schur_active(mm[nlock:, nlock:])
            except IterationLimitError as err:
                err.restart = restarts + 1
                raise
            # one Ritz pair per column: a 2x2 block's two columns share
            # their residual, so ``conv`` flags both or neither
            resid = np.abs(b_row[nlock:] @ subform.z @ schur_eigenvectors(subform.t)[1])
            conv = resid < cfg.tol

            # keep every converged column (all, after a happy breakdown) plus
            # the lowest-residual surviving blocks, leaving one column of headroom
            conv_cols = int(conv.sum())
            unconv_budget = max(min(cfg.max_basis // 2, k - 1 - nlock - conv_cols), 0)
            sel = conv.copy()
            kept_unconv = 0
            starts, sizes = np.array(subform.blocks()).T
            for b in np.lexsort((resid[starts], conv[starts])):  # unconverged first
                start, size = starts[b], sizes[b]
                if conv[start]:
                    break
                if kept_unconv + size <= unconv_budget:  # a pair is kept whole
                    sel[start : start + size] = True
                    kept_unconv += size
            p_active = int(sel.sum())

            # reorder: selected to the front, then the converged columns (all
            # selected) to the front of those, in their own order; ``lead``
            # flags the columns in their order after the first move
            lead = np.r_[conv[sel], np.zeros(na - p_active, dtype=bool)]
            if (move_blocks_front(subform, sel) != p_active
                    or move_blocks_front(subform, lead) != conv_cols):
                raise IterationLimitError(
                    f"{cfg.scheme}: Schur reordering failed in restart {restarts + 1}",
                    restart=restarts + 1,
                )

            # lock the converged front and deflate its coupling
            b_act = b_row[nlock:] @ subform.z
            b_act[:conv_cols] = 0.0
            mm[nlock:, nlock:] = subform.t
            mm[:nlock, nlock:] = mm[:nlock, nlock:] @ subform.z
            p = nlock + p_active
            V[:, nlock:p] = (V[:, nlock:k] @ subform.z)[:, :p_active]
            b_keep = np.concatenate([np.zeros(nlock), b_act])[:p]
            lock_resid.extend(resid[conv])
            nlock += conv_cols
        else:
            p = nlock
            happy = True

        done_full = nlock >= min(m, n_max)
        restarts += 1
        lock_history.append(nlock)
        if done_full or restarts >= cfg.max_restarts:
            break

        # the next basis column follows the kept ones; restart from them
        if happy:
            if p >= n_max:
                break
            V[:, p] = _fresh_direction(V[:, :p], rng, ledger)
            b_keep = np.zeros(p)
        else:
            V[:, p] = V[:, k]
        exp.restart(V[:, : p + 1], np.vstack([mm[:p, :p], b_keep]))

    values, vecs = schur_eigenvectors(mm[:nlock, :nlock])
    vectors = V[:, :nlock] @ vecs
    match = None if exact is None else match_eigenvalues(values.real, exact, cfg.tol)

    return EigResult(
        values=values,
        vectors=vectors,
        residuals=np.array(lock_resid),
        invariant_dim=nlock,
        restarts=restarts,
        incomplete=not done_full and restarts >= cfg.max_restarts,
        over_multiplicity=match is not None and match.over_multiplicity,
        n_matched=None if match is None else match.n_matched,
        lock_history=lock_history,
    )


def eig_diagnostics(a, full=True):
    """Dense operator diagnostics: norms, conditioning, nonnormality.

    ``a`` is an operator or an array; its operator's ``to_dense`` refuses
    orders above DENSE_MAX_ORDER.  With ``full`` the eigenvalues,
    the right eigenvector basis's condition number and the largest
    eigenvalue condition number are included (cubic-cost dense eig).
    """
    a = as_operator(a).to_dense()
    sv = np.linalg.svd(a, compute_uv=False)
    fro2 = float(np.sum(sv * sv))
    comm = a.T @ a - a @ a.T
    out = {
        "norm2": float(sv[0]),
        "cond": float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf,
        "nonnormality": float(np.linalg.norm(comm) / fro2),
    }
    if full:
        w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
        out["cond_right"] = float(np.linalg.cond(vr))
        overlap = np.abs(np.sum(vl.conj() * vr, axis=0))
        cond_eigs = 1.0 / np.maximum(overlap, np.finfo(float).tiny)
        out["cond_eig_max"] = float(np.max(cond_eigs))
        out["eigenvalues"] = w
    return out
