"""Experiment command line: desk-scale stability and cost studies, CSV out.

Every CSV starts with ``#`` comment lines carrying the library version and
the full configuration, so a data file regenerates bit-for-bit from its own
header.  Exit codes: 0 success, 2 configuration error, 3 assertion
failure (sync-count mismatch, over-multiplicity), 4 a numerical failure
halted a run.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .arnoldi import arnoldi
from .eig import KrylovSchurConfig, krylov_schur_run
from .errors import BreakdownError, IterationLimitError, MatrixMarketError, NonFiniteError
from .gmres import GmresConfig, gmres_solve
from .ledger import SyncLedger, assert_matches, predicted_counts
from .metrics import (
    StabilityReport,
    loss_of_orthogonality,
    representation_error_arnoldi,
    representation_error_qr,
)
from .ortho import PUSH_SCHEMES, SCHEME_IDS, qr_factorize
from .problems import (
    CsrOperator,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    manteuffel_eigenvalues,
    parse_matrix_market,
    synthetic_kappa,
)

DEFAULT_SEED = 1729
SEED_ENV = "KLS_DEFAULT_SEED"


def _parse_list(text, cast=float):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(2)


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: bad {SEED_ENV}={env!r}", file=sys.stderr)
            raise SystemExit(2)
    return DEFAULT_SEED


def _emit(args, header_pairs, columns, rows):
    lines = [f"# kls-bench {__version__}", f"# subcommand: {args.command}"]
    for key, val in header_pairs:
        lines.append(f"# {key}: {val}")
    lines.append(columns)
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _run_points(points, worker, jobs):
    """Evaluate sweep points, deterministically ordered regardless of jobs."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, points))
    return [worker(pt) for pt in points]


#: the typed numerical errors a run can end in, each reported as a row status
_RUN_ERRORS = (BreakdownError, NonFiniteError, IterationLimitError)


def _status(err):
    """The row status of a typed numerical error."""
    if isinstance(err, BreakdownError):
        return f"breakdown-{err.kind}"
    return "nonfinite" if isinstance(err, NonFiniteError) else "iteration-limit"


def _exit_code(rows):
    """4 when a numerical failure halted a run, 3 on an over-multiplicity
    row, else 0."""
    if any(row.endswith(("nonfinite", "iteration-limit")) for row in rows):
        return 4
    return 3 if any(row.endswith("over-multiplicity") for row in rows) else 0


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17e}"
    return str(x)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qr_stability(args):
    seed = _resolve_seed(args)
    kappas = _parse_list(args.kappa_list)
    schemes = args.scheme or SCHEME_IDS

    def build(kappa):
        a = synthetic_kappa(args.rows, args.cols, kappa, seed)
        a.flags.writeable = False  # one matrix per kappa, shared by every scheme
        return a

    matrices = dict(zip(kappas, _run_points(kappas, build, args.jobs)))

    def worker(point):
        scheme, kappa = point
        a = matrices[kappa]
        led = SyncLedger()
        try:
            q, r = qr_factorize(a, scheme, ledger=led)
            rep = StabilityReport(
                scheme=scheme,
                step=args.cols,
                loo=loss_of_orthogonality(q),
                rre=representation_error_qr(a, q, r),
            )
            loo, rre, status = rep.loo, rep.rre, "ok"
        except BreakdownError as err:
            loo = rre = float("nan")
            status = _status(err)
        return ",".join(
            [scheme, _fmt(kappa), str(args.rows), str(args.cols), _fmt(loo),
             _fmt(rre), str(led.reductions), status]
        )

    points = [(s, k) for s in schemes for k in kappas]
    rows = _run_points(points, worker, args.jobs)
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("kappas", args.kappa_list),
         ("rows", args.rows), ("cols", args.cols), ("seed", seed)],
        "scheme,kappa,m,n,loo,rre,reductions,status",
        rows,
    )
    return 0


def _make_operator(args, need_square=True):
    if args.mtx:
        csr = parse_matrix_market(args.mtx)
        if need_square and csr.nrows != csr.ncols:
            print("error: matrix must be square", file=sys.stderr)
            raise SystemExit(2)
        return CsrOperator(csr), f"mtx:{args.mtx}"
    spec = ManteuffelSpec(k=args.manteuffel_k, beta=args.beta)
    return CsrOperator(manteuffel_build(spec)), f"manteuffel:k={spec.k},beta={spec.beta}"


def _arnoldi_reports(op, start, scheme, steps, stride):
    """Expand step by step; report (StabilityReport, reductions, status) at
    every stride-th step, the last step and the step an error ends."""
    led = SyncLedger()
    out = []
    exp = arnoldi(op, start, scheme, capacity=steps + 1, ledger=led)
    try:
        for step in range(1, steps + 1):
            alive = exp.step()
            if step % stride == 0 or not alive or step == steps:
                rep = StabilityReport(
                    scheme=scheme,
                    step=step,
                    loo=loss_of_orthogonality(exp.basis),
                    rre=representation_error_arnoldi(op, exp.basis_extended, exp.h_extended),
                )
                out.append((rep, led.reductions, "ok" if alive else "happy-breakdown"))
            if not alive:
                break
    except _RUN_ERRORS as err:
        nan = float("nan")
        rep = StabilityReport(scheme=scheme, step=step, loo=nan, rre=nan)
        out.append((rep, led.reductions, _status(err)))
    return out


def _cmd_arnoldi_stability(args):
    seed = _resolve_seed(args)
    schemes = args.scheme or SCHEME_IDS
    op, problem = _make_operator(args)
    steps = min(args.steps, op.n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    start = rng.standard_normal(op.n)

    def worker(scheme):
        return [
            ",".join([scheme, str(rep.step), _fmt(rep.loo), _fmt(rep.rre),
                      str(reductions), status])
            for rep, reductions, status in _arnoldi_reports(
                op, start, scheme, steps, args.stride
            )
        ]

    chunks = _run_points(schemes, worker, args.jobs)
    rows = [row for chunk in chunks for row in chunk]
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("problem", problem),
         ("steps", steps), ("stride", args.stride), ("seed", seed)],
        "scheme,step,loo,rre,reductions,status",
        rows,
    )
    return _exit_code(rows)


def _cmd_eig(args):
    seed = _resolve_seed(args)
    schemes = args.scheme or ["cgs", "mgs", "cgs2", "dcgs2"]
    restarts = _parse_list(args.restart_list, cast=int)
    spec = ManteuffelSpec(k=args.manteuffel_k, beta=args.beta)
    csr = manteuffel_build(spec)
    table = manteuffel_eigenvalues(spec)

    def worker(point):
        scheme, restart = point
        op = CsrOperator(csr)
        cfg = KrylovSchurConfig(
            max_basis=restart,
            tol=args.tol,
            scheme=scheme,
            max_restarts=args.max_restarts,
        )
        try:
            res = krylov_schur_run(op, cfg, seed=seed, exact=table)
        except _RUN_ERRORS as err:
            return ",".join([scheme, str(restart), "-1", "-1", "0", _status(err)])
        status = "over-multiplicity" if res.over_multiplicity else "ok"
        return ",".join(
            [scheme, str(restart), str(res.n_matched), str(res.invariant_dim),
             str(res.restarts), status]
        )

    points = [(s, r) for s in schemes for r in restarts]
    rows = _run_points(points, worker, args.jobs)
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("manteuffel_k", spec.k),
         ("beta", spec.beta), ("restarts", args.restart_list),
         ("tol", args.tol), ("max_restarts", args.max_restarts), ("seed", seed)],
        "scheme,restart,n_converged_forward_error,invariant_subspace_dim,restarts_used,status",
        rows,
    )
    return _exit_code(rows)


def _cmd_gmres(args):
    seed = _resolve_seed(args)
    schemes = args.scheme or ["cgs2", "dcgs2"]
    if args.mtx:
        op, problem = _make_operator(args)
    else:
        dims = _parse_list(args.laplace_dims, cast=int)
        if len(dims) != 3:
            print("error: --laplace-dims needs nx,ny,nz", file=sys.stderr)
            raise SystemExit(2)
        op, problem = laplace3d(*dims), f"laplace3d:{dims}"
    if args.be_stride < 0:
        print("error: --be-stride must be >= 0", file=sys.stderr)
        raise SystemExit(2)
    ones = np.ones(op.n)
    b = op.apply(ones)
    b = b / np.linalg.norm(b)

    def worker(scheme):
        led = SyncLedger()
        cfg = GmresConfig(max_iters=args.steps, restart=args.restart, scheme=scheme,
                          be_stride=args.be_stride)
        res = gmres_solve(op, b, cfg, ledger=led)
        # rows without a recorded backward error leave its cell empty
        be = dict(zip(res.backward_error_iters.tolist(), res.backward_errors.tolist()))
        out = []
        for i in range(len(res.residual_history)):
            out.append(
                ",".join(
                    [scheme, str(i + 1), _fmt(res.residual_history[i]),
                     _fmt(be[i + 1]) if i + 1 in be else "",
                     str(int(res.reduction_history[i])),
                     "stagnated" if res.stagnated else "ok"]
                )
            )
        return out

    chunks = _run_points(schemes, worker, args.jobs)
    rows = [row for chunk in chunks for row in chunk]
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("problem", problem),
         ("iters", args.steps), ("restart", args.restart),
         ("be_stride", args.be_stride), ("seed", seed)],
        "scheme,iter,relres,backward_error,reductions,status",
        rows,
    )
    return 0


def _cmd_sync_count(args):
    seed = _resolve_seed(args)
    schemes = args.scheme or PUSH_SCHEMES
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((args.rows, args.cols))
    rows = []
    failed = False
    for scheme in schemes:
        led = SyncLedger()
        qr_factorize(a, scheme, ledger=led)
        report = assert_matches(led, predicted_counts(scheme, args.cols))
        failed = failed or not report.passed
        rows.append(
            ",".join(
                [scheme, str(args.cols), str(args.rows), str(report.measured),
                 str(report.predicted), str(report.slack), str(report.delta),
                 "pass" if report.passed else "FAIL"]
            )
        )
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("rows", args.rows),
         ("cols", args.cols), ("seed", seed)],
        "scheme,n,m,measured,predicted,slack,delta,status",
        rows,
    )
    return 3 if failed else 0


def _cmd_mm_run(args):
    seed = _resolve_seed(args)
    schemes = args.scheme or SCHEME_IDS
    op, problem = _make_operator(args)
    steps = min(args.steps, op.n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    start = rng.standard_normal(op.n)

    def worker(scheme):
        # a breakdown row reports nan metrics, which count as above tol
        return [
            ",".join([scheme, str(rep.step), _fmt(rep.loo), _fmt(rep.rre),
                      str(int(not rep.loo <= args.tol)),
                      str(int(not rep.rre <= args.tol)), status])
            for rep, _, status in _arnoldi_reports(op, start, scheme, steps, args.stride)
        ]

    chunks = _run_points(schemes, worker, args.jobs)
    rows = [row for chunk in chunks for row in chunk]
    _emit(
        args,
        [("schemes", "|".join(schemes)), ("problem", problem),
         ("steps", steps), ("stride", args.stride), ("tol", args.tol),
         ("seed", seed)],
        "scheme,step,loo,rre,loo_above_tol,rre_above_tol,status",
        rows,
    )
    return _exit_code(rows)


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--scheme", action="append", choices=SCHEME_IDS,
                   help="orthogonalization scheme (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default ${SEED_ENV} or {DEFAULT_SEED})")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kls-bench",
        description="Desk-scale stability and synchronization-cost experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qr-stability", help="QR loss of orthogonality over a condition-number sweep")
    _add_common(p)
    p.add_argument("--kappa-list", default="1e0,1e2,1e4,1e6,1e8,1e10,1e12")
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--cols", type=int, default=50)
    p.set_defaults(func=_cmd_qr_stability)

    p = sub.add_parser("arnoldi-stability", help="per-step Arnoldi metrics")
    _add_common(p)
    p.add_argument("--manteuffel-k", type=int, default=50)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--mtx", default=None)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--stride", type=int, default=5)
    p.set_defaults(func=_cmd_arnoldi_stability)

    p = sub.add_parser("eig", help="Krylov-Schur restart sweep on the Manteuffel family")
    _add_common(p)
    p.add_argument("--manteuffel-k", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--restart-list", default="25,50,75")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-restarts", type=int, default=40)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("gmres", help="GMRES convergence and reduction counting")
    _add_common(p)
    p.add_argument("--laplace-dims", default="24,24,24")
    p.add_argument("--mtx", default=None)
    p.add_argument("--manteuffel-k", type=int, default=50)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--restart", type=int, default=0)
    p.add_argument("--be-stride", type=int, default=0,
                   help="also record the backward error every N iterations "
                        "(0: only at the end of each restart cycle)")
    p.set_defaults(func=_cmd_gmres)

    p = sub.add_parser("sync-count", help="measured vs predicted reduction totals")
    _add_common(p)
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--cols", type=int, default=50)
    p.set_defaults(func=_cmd_sync_count)

    p = sub.add_parser("mm-run", help="Matrix Market stability methodology")
    _add_common(p)
    p.add_argument("--mtx", required=True)
    p.add_argument("--manteuffel-k", type=int, default=50)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=75)
    p.add_argument("--stride", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_mm_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixMarketError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as err:
        print(f"error: {_status(err)} halted the run: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
