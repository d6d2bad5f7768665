"""GMRES on top of the Arnoldi expansions.

The least-squares problem is triangularized incrementally with plane
rotations as Hessenberg columns complete (the delayed schemes deliver each
column one step late, so the residual history trails the basis by one
column until finalize).  Residual monotonicity is inherited from the
nested least-squares optimality.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arnoldi import arnoldi
from .ledger import SyncLedger
from .problems import LinearOperator


@dataclass(frozen=True)
class GmresConfig:
    max_iters: int
    restart: int = 0  # 0 = no restart
    rtol: float = 0.0  # 0 disables the residual stopping test
    scheme: str = "cgs2"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters >= 1 required")
        if self.rtol < 0:
            raise ValueError("rtol >= 0 required")


@dataclass
class GmresResult:
    x: np.ndarray
    residual_history: np.ndarray  # relative residual per completed column
    backward_errors: np.ndarray
    reduction_history: np.ndarray  # cumulative ledger reductions per column
    iterations: int
    converged: bool
    stagnated: bool
    breakdown: bool  # happy breakdown: solution exact in the Krylov space
    ledger: SyncLedger = None


def backward_error(op, x, b):
    """Normwise backward error ||b - A x|| / (||A||_F ||x|| + ||b||)."""
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if isinstance(op, LinearOperator):
        r = b - op.apply(x)
        anorm = op.frobenius_norm()
    else:
        a = np.asarray(op, dtype=np.float64)
        r = b - a @ x
        anorm = float(np.linalg.norm(a))
    denom = anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(r) / denom)


class _GivensLS:
    """Incremental least squares min ||beta e1 - Hbar y|| via plane rotations."""

    def __init__(self, cap, beta):
        self.r = np.zeros((cap, cap))
        self.cs = np.zeros(cap)
        self.sn = np.zeros(cap)
        self.rhs = np.zeros(cap + 1)
        self.rhs[0] = beta
        self.ncols = 0

    def append(self, hcol, subdiag):
        j = self.ncols
        col = np.zeros(j + 2)
        col[: len(hcol)] = hcol
        col[j + 1] = subdiag
        for i in range(j):
            t = self.cs[i] * col[i] + self.sn[i] * col[i + 1]
            col[i + 1] = -self.sn[i] * col[i] + self.cs[i] * col[i + 1]
            col[i] = t
        rad = float(np.hypot(col[j], col[j + 1]))
        if rad == 0.0:
            self.cs[j], self.sn[j] = 1.0, 0.0
        else:
            self.cs[j], self.sn[j] = col[j] / rad, col[j + 1] / rad
        col[j] = rad
        self.r[: j + 1, j] = col[: j + 1]
        t = self.cs[j] * self.rhs[j]
        self.rhs[j + 1] = -self.sn[j] * self.rhs[j]
        self.rhs[j] = t
        self.ncols += 1
        return abs(self.rhs[j + 1])

    def solve(self, ncols=None):
        k = self.ncols if ncols is None else ncols
        if k == 0:
            return np.zeros(0)
        diag = np.diag(self.r[:k, :k])
        if np.any(diag == 0.0):
            # exact breakdown column: solve the nonsingular leading part
            k = int(np.argmax(diag == 0.0))
            if k == 0:
                return np.zeros(self.ncols)
        y = np.zeros(self.ncols)
        y[:k] = scipy.linalg.solve_triangular(self.r[:k, :k], self.rhs[:k])
        return y


def gmres_solve(op, b, cfg, x0=None, ledger=None):
    """Solve A x = b; returns the solution with per-iteration histories.

    Defaults: zero initial guess.  The stagnation flag reports 20
    consecutive completed columns without residual progress; the iteration
    still runs to its configured length (no early abandon), matching the
    fixed-iteration experimental setup.
    """
    ledger = ledger if ledger is not None else SyncLedger()
    b = np.asarray(b, dtype=np.float64)
    m = op.shape[0]
    x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return GmresResult(
            x=np.zeros(m),
            residual_history=np.zeros(0),
            backward_errors=np.zeros(0),
            reduction_history=np.zeros(0, dtype=np.int64),
            iterations=0,
            converged=True,
            stagnated=False,
            breakdown=True,
            ledger=ledger,
        )

    cycle_len = cfg.restart if cfg.restart > 0 else cfg.max_iters
    rel_hist = []
    be_hist = []
    red_hist = []
    iters = 0
    stagnated = False
    breakdown = False
    converged = False

    while iters < cfg.max_iters and not converged and not breakdown:
        r = b - op.apply(x) if (x0 is not None or iters) else b.copy()
        steps_budget = min(cycle_len, cfg.max_iters - iters)
        exp = arnoldi(op, r, cfg.scheme, capacity=steps_budget + 1, ledger=ledger)
        ls = None
        processed = 0
        no_progress = 0
        best = np.inf

        def drain():
            nonlocal processed, no_progress, best, stagnated
            nonlocal ls
            while processed < exp.hcols:
                if ls is None:
                    ls = _GivensLS(steps_budget, exp.start_norm)
                hcol = exp._h[: processed + 1, processed]
                sub = exp._h[processed + 1, processed]
                absres = ls.append(hcol, sub)
                rel = absres / bnorm
                rel_hist.append(rel)
                y = ls.solve()
                xj = x + exp.basis[:, : len(y)] @ y
                be_hist.append(backward_error(op, xj, b))
                red_hist.append(ledger.reductions)
                if rel < best * (1.0 - 1e-12):
                    best = rel
                    no_progress = 0
                else:
                    no_progress += 1
                    if no_progress >= 20:
                        stagnated = True
                processed += 1

        for _ in range(steps_budget):
            alive = exp.step()
            drain()
            if not alive:
                breakdown = True
                break
            if cfg.rtol > 0 and rel_hist and rel_hist[-1] <= cfg.rtol:
                break
        v_mat, h_mat = exp.finalize()
        drain()
        iters += processed
        y = ls.solve() if ls is not None else np.zeros(0)
        x = x + v_mat[:, : len(y)] @ y
        if cfg.rtol > 0 and rel_hist and rel_hist[-1] <= cfg.rtol:
            converged = True
        if cfg.restart == 0:
            break

    return GmresResult(
        x=x,
        residual_history=np.array(rel_hist),
        backward_errors=np.array(be_hist),
        reduction_history=np.array(red_hist, dtype=np.int64),
        iterations=iters,
        converged=converged or breakdown,
        stagnated=stagnated,
        breakdown=breakdown,
        ledger=ledger,
    )
