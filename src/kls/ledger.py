"""Synchronization ledger: reduction, kernel, and flop accounting.

A "global reduction" is counted at kernel granularity: every invocation of a
reducing kernel class (``MvTransMv``, ``MvDot``) is one synchronization,
regardless of how many values the call reduces.  ``MvTimesMatAddMv`` never
reduces.  One ledger belongs to one run; parallel runs use separate ledgers.
One ``np.linalg.norm``, a global reduction in a distributed run, is left
out: the start vector's, once per GMRES cycle or expansion (``arnoldi``'s
``restart``).  Pushes take none: the guard's scale is the Pythagorean norm
of what a scheme has reduced (``ortho.QrState._guard``).  Nor are GMRES's
diagnostics: ``bnorm`` once, three norms per cycle in ``backward_error``.

The push states declare the cost models that predict these counters
(``ortho.predicted_counts``).
"""

from dataclasses import dataclass, field

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
class MatchReport:
    scheme: str
    n: int
    passed: bool
    measured: int
    predicted: int
    delta: int
    kernel_counts: dict

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: {self.scheme} n={self.n} measured={self.measured} "
                f"predicted={self.predicted} delta={self.delta} [{self.kernel_counts}]")


def assert_matches(ledger, prediction):
    """Compare measured reductions with a prediction; passes on equality."""
    measured = ledger.reductions
    return MatchReport(
        scheme=prediction.scheme,
        n=prediction.n,
        passed=measured == prediction.total_synchs,
        measured=measured,
        predicted=prediction.total_synchs,
        delta=measured - prediction.total_synchs,
        kernel_counts=dict(ledger.kernel_counts),
    )
