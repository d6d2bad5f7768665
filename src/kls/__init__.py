"""Low-synchronization Gram-Schmidt kernels for Krylov solvers.

One-column-at-a-time QR schemes (classical, modified, reorthogonalized,
and one-reduction delayed variants) with exact synchronization accounting,
embedded into Arnoldi expansions, a Krylov-Schur eigensolver, and GMRES.
"""

__version__ = "0.1.0"

from .arnoldi import arnoldi, arnoldi_expand
from .eig import (
    EigResult,
    KrylovSchurConfig,
    eig_diagnostics,
    krylov_schur_run,
    match_eigenvalues,
)
from .errors import (
    BreakdownError,
    DimensionError,
    IterationLimitError,
    MatrixMarketError,
    NonFiniteError,
    UnknownSchemeError,
)
from .gmres import GmresConfig, GmresResult, backward_error, gmres_solve
from .ledger import (
    CostPrediction,
    SyncLedger,
    assert_matches,
    per_iteration_synchs,
    predicted_counts,
)
from .metrics import (
    loss_of_orthogonality,
    representation_error_arnoldi,
    representation_error_qr,
)
from .ortho import SCHEME_IDS, make_state, qr_factorize
from .problems import (
    CsrMatrix,
    CsrOperator,
    DenseOperator,
    EigenvalueTable,
    LinearOperator,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    manteuffel_eigenvalues,
    parse_matrix_market,
    synthetic_kappa,
)
from .schur import SchurForm, hessenberg_real_schur, hessenberg_reduce
