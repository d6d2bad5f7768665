"""Synchronization ledger: reduction, kernel, and flop accounting.

A "global reduction" is counted at kernel granularity: every invocation of a
reducing kernel class (``MvTransMv``, ``MvDot``) is one synchronization,
regardless of how many values the call reduces.  ``MvTimesMatAddMv`` never
reduces.  One ledger belongs to one run; parallel runs use separate ledgers.
Two ``np.linalg.norm`` calls, each a global reduction in a distributed run,
are left out: the breakdown guard's norm of every pushed column, for every
scheme (``ortho.QrState._take``; it could be fused into the column's first
reduction, [Q, a]^T a), and the immediate Gram-Schmidt schemes' start-vector
norm, once per GMRES cycle or expansion (``arnoldi``'s ``restart``).
"""

from dataclasses import dataclass, field

from .errors import UnknownSchemeError

MV_TRANS_MV = "MvTransMv"
MV_TIMES_MAT_ADD_MV = "MvTimesMatAddMv"
MV_DOT = "MvDot"

KERNEL_CLASSES = (MV_TRANS_MV, MV_TIMES_MAT_ADD_MV, MV_DOT)
REDUCING_CLASSES = frozenset({MV_TRANS_MV, MV_DOT})


@dataclass
class SyncLedger:
    """Per-run counters of reducing kernel calls and nominal flops.

    Counters only grow: a new run takes a new ledger.
    """

    reductions: int = 0
    flops: int = 0
    kernel_counts: dict = field(
        default_factory=lambda: {k: 0 for k in KERNEL_CLASSES}
    )

    def record(self, kernel_class, flops=0):
        if kernel_class not in self.kernel_counts:
            raise ValueError(f"unknown kernel class {kernel_class!r}")
        self.kernel_counts[kernel_class] += 1
        if kernel_class in REDUCING_CLASSES:
            self.reductions += 1
        self.flops += int(flops)

    def add_flops(self, flops):
        """Account local (non-kernel) arithmetic, e.g. triangular solves."""
        self.flops += int(flops)


@dataclass(frozen=True)
class CostPrediction:
    """Closed-form synchronization totals and leading flop coefficient.

    ``total_synchs`` is the steady-state total for an n-column factorization;
    ``slack`` covers the documented finalization overhead of the delayed
    schemes (up to two extra reductions on the last column).
    ``flop_lead`` is the coefficient of (m/p)*n^2 in the total flop count.
    """

    scheme: str
    n: int
    total_synchs: int
    flop_lead: float
    slack: int


# scheme -> (per-iteration synchs at column j, flop lead coefficient,
#            finalization slack)
# dcgs2-hrt drops the delayed vector correction entirely, so its lead
# coefficient is 3 rather than the 4 of the corrected scheme
_COSTS = {
    "cgs": (lambda j: 2, 2.0, 0),
    "cgs2": (lambda j: 3, 4.0, 0),
    "cgs2-lagged": (lambda j: 2, 4.0, 0),
    "mgs": (lambda j: j, 2.0, 0),
    "icwy-mgs": (lambda j: 1, 3.0, 0),
    "dcgs2": (lambda j: 1, 4.0, 2),
    "dcgs2-hrt": (lambda j: 1, 3.0, 2),
    "householder": (lambda j: 2 * j, 4.0, 0),
}


def _cost(scheme):
    try:
        return _COSTS[scheme]
    except KeyError:
        raise UnknownSchemeError(f"no cost model for scheme {scheme!r}") from None


def per_iteration_synchs(scheme, j):
    """Predicted reductions spent on column j (1-based)."""
    return _cost(scheme)[0](j)


def predicted_counts(scheme, n):
    """The per-iteration synchs summed over columns 1..n, with the scheme's
    flop lead and slack."""
    per_iter, lead, slack = _cost(scheme)
    total = sum(per_iter(j) for j in range(1, n + 1))
    return CostPrediction(scheme=scheme, n=n, total_synchs=total, flop_lead=lead, slack=slack)


@dataclass(frozen=True)
class MatchReport:
    scheme: str
    n: int
    passed: bool
    measured: int
    predicted: int
    slack: int
    delta: int
    kernel_counts: dict

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: {self.scheme} n={self.n} measured={self.measured} "
            f"predicted={self.predicted}(+{self.slack}) delta={self.delta} "
            f"[{self.kernel_counts}]"
        )


def assert_matches(ledger, prediction):
    """Compare measured reductions against a prediction.

    Passes when ``predicted <= measured <= predicted + slack``, the slack
    being the prediction's own finalization allowance.
    """
    slack = prediction.slack
    measured = ledger.reductions
    lo, hi = prediction.total_synchs, prediction.total_synchs + slack
    return MatchReport(
        scheme=prediction.scheme,
        n=prediction.n,
        passed=lo <= measured <= hi,
        measured=measured,
        predicted=prediction.total_synchs,
        slack=slack,
        delta=measured - prediction.total_synchs,
        kernel_counts=dict(ledger.kernel_counts),
    )
