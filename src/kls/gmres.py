"""GMRES on top of the Arnoldi expansions.

The least-squares problem is triangularized incrementally with plane
rotations as Hessenberg columns complete (the delayed schemes deliver each
column one step late, so the residual history trails the basis by one
column until finalize).  Residual monotonicity is inherited from the
nested least-squares optimality.

The normwise backward error is taken from the restart residual b - A x that
each cycle forms anyway for the next cycle's start vector, so by default it
is recorded once per cycle, at the cycle's last iteration.  A backward error
at any other iteration needs the iterate x + V y (an m-by-j product) and one
more operator apply; ``GmresConfig.be_stride`` opts into it.  Stride values
are evaluated after their cycle, from the cycle's start iterate, the
least-squares solution saved at their iteration and the leading columns
of the basis, which stays append-only until the restart; a stride value
at a cycle's last iteration is the restart residual's.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arnoldi import arnoldi
from .errors import DimensionError
from .ledger import SyncLedger
from .problems import as_operator


@dataclass(frozen=True)
class GmresConfig:
    max_iters: int
    restart: int = 0  # 0 = no restart
    rtol: float = 0.0  # 0 disables the residual stopping test
    scheme: str = "cgs2"
    be_stride: int = 0  # > 0: also a backward error at every be_stride-th iteration

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters >= 1 required")
        if self.restart < 0:
            raise ValueError("restart >= 0 required")
        if not self.rtol >= 0:
            raise ValueError(f"rtol >= 0 required, got {self.rtol}")
        if self.be_stride < 0:
            raise ValueError("be_stride >= 0 required")


@dataclass
class GmresResult:
    x: np.ndarray
    residual_history: np.ndarray  # relative residual per completed column
    backward_errors: np.ndarray  # the recorded values only
    backward_error_iters: np.ndarray  # 1-based iteration of each; last = iterations
    reduction_history: np.ndarray  # cumulative ledger reductions per column
    iterations: int
    converged: bool
    stagnated: bool
    breakdown: bool  # happy breakdown: solution exact in the Krylov space


def backward_error(op, x, b, residual=None):
    """Normwise backward error ||b - A x|| / (||A||_F ||x|| + ||b||).

    ``op`` is an operator or an array.  ``residual``, when
    given, is b - A x already formed; it saves the apply.
    """
    op = as_operator(op)
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    r = b - op.apply(x) if residual is None else residual
    denom = op.frobenius_norm() * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(r) / denom)


class _GivensLS:
    """Incremental least squares min ||beta e1 - Hbar y|| via plane rotations.

    The rotations run on Python floats: the same IEEE operations as on
    numpy scalars, without their per-operation overhead.
    """

    def __init__(self, cap, beta):
        self.r = np.zeros((cap, cap))
        self.cs = []
        self.sn = []
        self.rhs = [float(beta)]
        self.ncols = 0

    def append(self, hcol):
        """Append Hbar column j, its j + 2 leading entries; returns the
        least-squares residual norm."""
        j = self.ncols
        col = hcol.tolist()
        for i, (c, s) in enumerate(zip(self.cs, self.sn)):
            t = c * col[i] + s * col[i + 1]
            col[i + 1] = -s * col[i] + c * col[i + 1]
            col[i] = t
        rad = float(np.hypot(col[j], col[j + 1]))
        if rad == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = col[j] / rad, col[j + 1] / rad
        self.cs.append(c)
        self.sn.append(s)
        col[j] = rad
        self.r[: j + 1, j] = col[: j + 1]
        g = self.rhs[j]
        self.rhs[j] = c * g
        self.rhs.append(-s * g)
        self.ncols += 1
        return abs(self.rhs[j + 1])

    def solve(self):
        k = self.ncols
        diag = np.diag(self.r[:k, :k])
        if np.any(diag == 0.0):
            # exact breakdown column: solve the nonsingular leading part
            k = int(np.argmax(diag == 0.0))
        y = np.zeros(self.ncols)
        y[:k] = scipy.linalg.solve_triangular(self.r[:k, :k], self.rhs[:k])
        return y


def gmres_solve(op, b, cfg, ledger=None):
    """Solve A x = b from the zero initial guess; returns the solution with
    per-iteration histories.

    The stagnation flag reports 20 consecutive completed columns without
    residual progress; the iteration still runs to its configured length
    (no early abandon), matching the fixed-iteration experimental setup.
    The backward error is recorded at the end of every restart cycle and,
    with ``cfg.be_stride`` s > 0, also at every iteration i with
    i % s == 0.  A zero right-hand side is a happy breakdown at x = 0: no
    cycle runs, so nothing is applied or recorded.
    """
    ledger = ledger if ledger is not None else SyncLedger()
    b = np.asarray(b, dtype=np.float64)
    m = op.shape[0]
    if b.shape != (m,):
        raise DimensionError(f"right-hand side of length {m} expected, got {b.shape}")
    x = np.zeros(m)
    bnorm = float(np.linalg.norm(b))
    cycle_len = cfg.restart if cfg.restart > 0 else cfg.max_iters
    rel_hist = []
    be_hist = []
    be_iters = []
    red_hist = []
    iters = 0
    stagnated = False
    breakdown = bnorm == 0.0  # x = 0 is exact: no cycle runs
    converged = False
    r = b.copy()
    exp = arnoldi(op, None, cfg.scheme, capacity=cycle_len + 1, ledger=ledger)

    while iters < cfg.max_iters and not converged and not breakdown:
        steps_budget = min(cycle_len, cfg.max_iters - iters)
        exp.restart(r)
        ls = None
        no_progress = 0
        best = np.inf
        strides = []  # (iteration, y) of each stride value of this cycle

        def drain():
            nonlocal no_progress, best, stagnated
            while ls.ncols < exp.hcols:
                j = ls.ncols
                rel = ls.append(exp._h[: j + 2, j]) / bnorm
                rel_hist.append(rel)
                red_hist.append(ledger.reductions)
                it = iters + ls.ncols
                if cfg.be_stride and it % cfg.be_stride == 0:
                    strides.append((it, ls.solve()))
                if rel < best * (1.0 - 1e-12):
                    best = rel
                    no_progress = 0
                else:
                    no_progress += 1
                    if no_progress >= 20:
                        stagnated = True

        for _ in range(steps_budget):
            alive = exp.step()
            if ls is None:  # v0, whose norm is beta, is out by the first step
                ls = _GivensLS(steps_budget, exp.start_norm)
            drain()
            if not alive:
                breakdown = True
                break
            if cfg.rtol > 0 and rel_hist and rel_hist[-1] <= cfg.rtol:
                break
        v_mat, _ = exp.finalize()
        drain()
        iters += ls.ncols
        # the basis is append-only, so a stride value read from v_mat after
        # the cycle is the one its iteration saw; the last iteration's value
        # is the restart residual's
        for it, y in strides:
            if it < iters:
                be_hist.append(backward_error(op, x + v_mat[:, : len(y)] @ y, b))
                be_iters.append(it)
        y = ls.solve()
        x = x + v_mat[:, : len(y)] @ y
        # the restart residual: the next cycle's start vector, and the
        # backward error of this cycle's last iterate
        r = b - op.apply(x)
        be_hist.append(backward_error(op, x, b, residual=r))
        be_iters.append(iters)
        if not np.any(r) or (cfg.rtol > 0 and rel_hist and rel_hist[-1] <= cfg.rtol):
            converged = True

    return GmresResult(
        x=x,
        residual_history=np.array(rel_hist),
        backward_errors=np.array(be_hist),
        backward_error_iters=np.array(be_iters, dtype=np.int64),
        reduction_history=np.array(red_hist, dtype=np.int64),
        iterations=iters,
        converged=converged or breakdown,
        stagnated=stagnated,
        breakdown=breakdown,
    )
