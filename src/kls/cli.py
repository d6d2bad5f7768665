"""Experiment command line: desk-scale stability and cost studies, CSV out.

Every subcommand is a sweep over points (a scheme, or a scheme and a swept
value).  ``main`` resolves the default schemes; the subcommand's worker
turns one point into rows of fields; ``_sweep`` runs the points, on
``--jobs`` threads for any subcommand, writes the CSV and derives the exit
code from the row statuses.  Every CSV starts with ``#`` comment lines
carrying the library version, the BLAS setting and the full configuration,
so a data file regenerates bit-for-bit from its own header.
Exit codes: 0 success, 2 configuration error (a malformed or unreadable
``--mtx`` file included), 3 assertion failure (a sync-count ``FAIL`` or an
``over-multiplicity`` row), 4 a numerical failure halted a run.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import __version__
from .arnoldi import arnoldi
from .eig import KrylovSchurConfig, krylov_schur_run
from .errors import BreakdownError, IterationLimitError, NonFiniteError
from .gmres import GmresConfig, gmres_solve
from .ledger import SyncLedger, assert_matches
from .metrics import loss_of_orthogonality, representation_error_arnoldi, representation_error_qr
from .ortho import SCHEME_IDS, predicted_counts, qr_factorize
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


def _parse_list(text, cast=float):
    return [cast(tok) for tok in text.split(",")]


def _list_of(cast):
    """The argparse type of a comma-separated list of ``cast`` values: it
    rejects a list with a malformed or blank value under its flag's name and
    keeps the text as typed, which the CSV header records."""

    def check(text):
        try:
            _parse_list(text, cast)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, got {text!r}"
            ) from None
        return text

    return check


def _status(err):
    """The row status of a typed numerical error."""
    if isinstance(err, BreakdownError):
        return f"breakdown-{err.kind}"
    return "nonfinite" if isinstance(err, NonFiniteError) else "iteration-limit"


#: the typed numerical errors a run can end in, each reported as a row status
_RUN_ERRORS = (BreakdownError, NonFiniteError, IterationLimitError)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17e}"
    return str(x)


def _blas(module):
    """Name and version of the BLAS numpy or scipy is built on."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _sweep(args, header_pairs, columns, points, worker):
    """Run ``worker`` on every point, write the CSV and return the exit code.

    The points run on a pool of ``--jobs`` threads (one for ``--jobs 1``).
    ``worker`` returns the rows of one point, each a tuple of fields whose
    last is the row status; the rows keep the order of ``points``.  The
    header records the numpy and scipy versions, the BLAS each is built on
    (every LAPACK call runs on scipy's), OPENBLAS_NUM_THREADS
    (``unset`` when it is), ``args.scheme``, ``header_pairs`` and
    ``args.seed``.  The exit code is 4 when a numerical failure halted a
    run, 3 on an over-multiplicity or FAIL row, else 0.
    """
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        chunks = list(pool.map(worker, points))
    rows = [row for chunk in chunks for row in chunk]
    pairs = [("numpy", np.__version__), ("scipy", scipy.__version__),
             ("blas", _blas(np)), ("scipy_blas", _blas(scipy)),
             ("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
             ("schemes", "|".join(args.scheme)), *header_pairs, ("seed", args.seed)]
    lines = [f"# kls-bench {__version__}", f"# subcommand: {args.command}"]
    lines += [f"# {key}: {val}" for key, val in pairs]
    lines.append(columns)
    lines += [",".join(_fmt(field) for field in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    statuses = {row[-1] for row in rows}
    if statuses & {"nonfinite", "iteration-limit"}:
        return 4
    return 3 if statuses & {"over-multiplicity", "FAIL"} else 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qr_stability(args):
    kappas = _parse_list(args.kappa_list)
    matrices = {}
    for kappa in kappas:  # one matrix per kappa, shared by every scheme
        matrices[kappa] = synthetic_kappa(args.rows, args.cols, kappa, args.seed)
        matrices[kappa].flags.writeable = False

    def worker(point):
        scheme, kappa = point
        a = matrices[kappa]
        led = SyncLedger()
        try:
            q, r = qr_factorize(a, scheme, ledger=led)
            loo, rre, status = loss_of_orthogonality(q), representation_error_qr(a, q, r), "ok"
        except BreakdownError as err:
            loo = rre = float("nan")
            status = _status(err)
        return [(scheme, kappa, args.rows, args.cols, loo, rre, led.reductions, status)]

    return _sweep(
        args,
        [("kappas", args.kappa_list), ("rows", args.rows), ("cols", args.cols)],
        "scheme,kappa,m,n,loo,rre,reductions,status",
        [(s, k) for s in args.scheme for k in kappas],
        worker,
    )


def _make_operator(args):
    """The operator of ``--mtx``, else of the subcommand's generator flags
    (``--laplace-dims``, or the Manteuffel family), with its CSV label."""
    if args.mtx:
        return CsrOperator(parse_matrix_market(args.mtx)), f"mtx:{args.mtx}"
    if hasattr(args, "laplace_dims"):
        dims = _parse_list(args.laplace_dims, cast=int)
        if len(dims) != 3:
            raise ValueError("--laplace-dims needs nx,ny,nz")
        return laplace3d(*dims), f"laplace3d:{dims}"
    spec = ManteuffelSpec(k=args.manteuffel_k, beta=args.beta)
    return CsrOperator(manteuffel_build(spec)), f"manteuffel:k={spec.k},beta={spec.beta}"


def _arnoldi_reports(op, start, scheme, steps, stride):
    """Expand step by step; report (step, loo, rre, reductions, status) at
    every stride-th step, the last step and the step an error ends."""
    if stride < 1:
        raise ValueError("--stride must be >= 1")
    if steps < 1:
        raise ValueError("--steps must be >= 1, on an operator of order >= 2")
    led = SyncLedger()
    out = []
    exp = arnoldi(op, start, scheme, capacity=steps + 1, ledger=led)
    try:
        for step in range(1, steps + 1):
            alive = exp.step()
            if step % stride == 0 or not alive or step == steps:
                loo = loss_of_orthogonality(exp.basis)
                rre = representation_error_arnoldi(op, exp.basis_extended, exp.h_extended)
                out.append((step, loo, rre, led.reductions, "ok" if alive else "happy-breakdown"))
            if not alive:
                break
    except _RUN_ERRORS as err:
        nan = float("nan")
        out.append((step, nan, nan, led.reductions, _status(err)))
    return out


def _cmd_arnoldi_stability(args):
    op, problem = _make_operator(args)
    steps = min(args.steps, op.n - 1)
    start = np.random.Generator(np.random.PCG64(args.seed)).standard_normal(op.n)

    def worker(scheme):
        return [(scheme, *rep) for rep in _arnoldi_reports(op, start, scheme, steps, args.stride)]

    return _sweep(
        args,
        [("problem", problem), ("steps", steps), ("stride", args.stride)],
        "scheme,step,loo,rre,reductions,status",
        args.scheme,
        worker,
    )


def _cmd_eig(args):
    restarts = _parse_list(args.restart_list, cast=int)
    spec = ManteuffelSpec(k=args.manteuffel_k, beta=args.beta)
    csr = manteuffel_build(spec)
    table = manteuffel_eigenvalues(spec)

    def worker(point):
        scheme, restart = point
        cfg = KrylovSchurConfig(
            max_basis=restart,
            tol=args.tol,
            scheme=scheme,
            max_restarts=args.max_restarts,
        )
        try:
            res = krylov_schur_run(CsrOperator(csr), cfg, seed=args.seed, exact=table)
        except _RUN_ERRORS as err:
            # restarts_used reports the restart the error ended, when it names one
            return [(scheme, restart, -1, -1, getattr(err, "restart", None) or 0, _status(err))]
        status = "over-multiplicity" if res.over_multiplicity else "ok"
        return [(scheme, restart, res.n_matched, res.invariant_dim, res.restarts, status)]

    return _sweep(
        args,
        [("manteuffel_k", spec.k), ("beta", spec.beta), ("restarts", args.restart_list),
         ("tol", args.tol), ("max_restarts", args.max_restarts)],
        "scheme,restart,n_converged_forward_error,invariant_subspace_dim,restarts_used,status",
        [(s, r) for s in args.scheme for r in restarts],
        worker,
    )


def _cmd_gmres(args):
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    op, problem = _make_operator(args)
    b = op.apply(np.ones(op.n))
    bnorm = np.linalg.norm(b)
    if bnorm in (0.0, np.inf):  # zero row sums or overflow; NaN is a nonfinite image
        raise ValueError(f"right-hand side A*1 / ||A*1|| undefined: ||A*1|| = {bnorm}")
    b = b / bnorm

    def worker(scheme):
        cfg = GmresConfig(max_iters=args.steps, restart=args.restart, scheme=scheme,
                          be_stride=args.be_stride)
        res = gmres_solve(op, b, cfg)
        # rows without a recorded backward error leave its cell empty
        be = dict(zip(res.backward_error_iters.tolist(), res.backward_errors.tolist()))
        status = "stagnated" if res.stagnated else "ok"
        return [
            (scheme, i, relres, be.get(i, ""), int(reductions), status)
            for i, (relres, reductions) in enumerate(
                zip(res.residual_history, res.reduction_history), start=1
            )
        ]

    return _sweep(
        args,
        [("problem", problem), ("iters", args.steps), ("restart", args.restart),
         ("be_stride", args.be_stride)],
        "scheme,iter,relres,backward_error,reductions,status",
        args.scheme,
        worker,
    )


def _cmd_sync_count(args):
    a = np.random.Generator(np.random.PCG64(args.seed)).standard_normal((args.rows, args.cols))

    def worker(scheme):
        led = SyncLedger()
        qr_factorize(a, scheme, ledger=led)
        rep = assert_matches(led, predicted_counts(scheme, args.cols))
        return [(scheme, args.cols, args.rows, rep.measured, rep.predicted, rep.delta,
                 "pass" if rep.passed else "FAIL")]

    return _sweep(
        args,
        [("rows", args.rows), ("cols", args.cols)],
        "scheme,n,m,measured,predicted,delta,status",
        args.scheme,
        worker,
    )


# ---------------------------------------------------------------------------


def _subcommand(sub, name, summary, func, schemes):
    """A subparser with the options every sweep takes; ``schemes`` is the
    default of ``--scheme``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--scheme", action="append", choices=SCHEME_IDS,
                   help="orthogonalization scheme (repeatable)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p.set_defaults(func=func, default_schemes=schemes)
    return p


def _problem(p, *generators):
    """Add ``--mtx`` and the generator flags, each ``(flag, type, default)``,
    that it excludes: the file is the whole problem.  A generator flag
    defaults to None here; ``main`` rejects one given with ``--mtx``, with
    ``p``'s usage, and applies the defaults of the others."""
    flags = ", ".join(flag for flag, _, _ in generators)
    p.add_argument("--mtx", default=None, help=f"Matrix Market file (excludes {flags})")
    dests = {}
    for flag, kind, default in generators:
        action = p.add_argument(flag, type=kind, default=None,
                                help=f"default {default}; not with --mtx")
        dests[flag] = (action.dest, default)
    p.set_defaults(generators=dests, subparser=p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kls-bench",
        description="Desk-scale stability and synchronization-cost experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "qr-stability", "QR loss of orthogonality over a condition-number sweep",
                    _cmd_qr_stability, SCHEME_IDS)
    p.add_argument("--kappa-list", type=_list_of(float),
                   default="1e0,1e2,1e4,1e6,1e8,1e10,1e12")
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--cols", type=int, default=50)

    p = _subcommand(sub, "arnoldi-stability", "per-step Arnoldi metrics",
                    _cmd_arnoldi_stability, SCHEME_IDS)
    _problem(p, ("--manteuffel-k", int, 50), ("--beta", float, 0.5))
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--stride", type=int, default=5)

    p = _subcommand(sub, "eig", "Krylov-Schur restart sweep on the Manteuffel family",
                    _cmd_eig, ("cgs", "mgs", "cgs2", "dcgs2"))
    p.add_argument("--manteuffel-k", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--restart-list", type=_list_of(int), default="25,50,75")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-restarts", type=int, default=40)

    p = _subcommand(sub, "gmres", "GMRES convergence and reduction counting",
                    _cmd_gmres, ("cgs2", "dcgs2"))
    _problem(p, ("--laplace-dims", _list_of(int), "24,24,24"))
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--restart", type=int, default=0)
    p.add_argument("--be-stride", type=int, default=0,
                   help="also record the backward error every N iterations "
                        "(0: only at the end of each restart cycle)")

    p = _subcommand(sub, "sync-count", "measured vs predicted reduction totals",
                    _cmd_sync_count, SCHEME_IDS)
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--cols", type=int, default=50)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, (dest, default) in getattr(args, "generators", {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.mtx:
            args.subparser.error(f"argument {flag}: not allowed with argument --mtx")
    args.scheme = args.scheme or args.default_schemes
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        return args.func(args)
    except _RUN_ERRORS as err:
        print(f"error: {_status(err)} halted the run: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:  # a configuration or input file the library rejects
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
