"""Bit-identity check of two kls checkouts.

    python tools/bitcheck.py dump CHECKOUT OUT.pkl
    python tools/bitcheck.py compare A.pkl B.pkl

``dump`` imports kls from ``CHECKOUT/src`` and pickles the outputs of 223
fixed cases: QR of a 2000x40 panel and a 1000x30 kappa-1e10 matrix, Arnoldi
on Manteuffel k=10 (every step's views) and on a 7x7 identity, Arnoldi
restarted from a Hessenberg and from a dense coupling row, for every scheme
of the checkout's ``kls.SCHEME_IDS``;
GMRES(30) on Manteuffel k=20 and Krylov-Schur on Manteuffel k=10, against
the exact spectrum and against it with every multiplicity cut to 1 (which
raises the over-multiplicity flag), for cgs2, dcgs2, householder and
icwy-mgs; Krylov-Schur on the complex spectrum of Manteuffel k=10 at
beta=4 (basis 30, 40 restarts, seed 3, no exact table), whose locked
values are complex pairs, for cgs2 and dcgs2; cases that span several row
blocks of a delayed push: QR of a 30000x24 panel by icwy-mgs, dcgs2 and
dcgs2-hrt, and dcgs2 GMRES(30) for 60 iterations on Manteuffel k=100;
GMRES(30) on Manteuffel k=20 with a backward error every 10 iterations
(``be_stride``), which places stride values both mid-cycle and at cycle
ends, for cgs2 and dcgs2; full GMRES (``restart=0``, one cycle) on
Manteuffel k=20 for 60 iterations, for cgs2 and dcgs2; the
generators: the CSR arrays of Manteuffel k=10 and k=200, and 2000x50
``synthetic_kappa`` matrices at kappa 1e0, 1e4, 1e8 and 1e12, and the
exact spectrum ``manteuffel_eigenvalues`` (values, unique values and
multiplicities, with their dtypes) for k = 1..40, 100 and 200 at beta 0,
0.5 and 2; the operators: ``to_dense()`` and ``frobenius_norm()`` (twice,
the second from its cache) of a ``DenseOperator``, a ``CsrOperator`` and
``laplace3d(4, 3, 5)``, and ``eig_diagnostics``
on Manteuffel k=6; the CSR arrays ``parse_matrix_market`` reads from each of
the 8 ``tests/data/good_*.mtx`` files next to this script (so that both
checkouts parse the same files); and
one small run of each ``kls-bench`` subcommand, its stdout bytes and exit
code, plus ``gmres`` and ``arnoldi-stability`` on a Matrix Market file and
``qr-stability`` and ``sync-count`` with ``--jobs 2`` (the file runs read
``tests/data/good_square_asym.mtx`` of the checkout).
Each case also records the ledger's reductions, flops and kernel counts.
``compare`` prints ``N cases, D differ: [...]``, then one line per
differing case with the largest absolute difference over its arrays and
numbers and whether its reductions, flops and kernel counts are equal, and
under it one line per differing leaf of the output (the first ``LEAVES``):
its index path, and both values of a scalar or the shapes and largest
difference of an array.  Two outputs are the same only when every array is
equal bit for bit.  Run ``dump`` once per checkout, in its own process.
Dump both checkouts with one script to compare them.
Load only dumps this script wrote: unpickling runs code.
"""

import contextlib
import glob
import io
import os
import pickle
import sys

MTX = "tests/data/good_square_asym.mtx"

#: the Matrix Market corpus whose parses are dumped
CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                       "tests", "data", "good_*.mtx")))

#: small runs of each subcommand, with the working directory at the checkout
CLI_RUNS = (
    ("qr-stability", "--kappa-list", "1e0,1e8", "--rows", "60", "--cols", "8", "--seed", "9"),
    ("arnoldi-stability", "--manteuffel-k", "6", "--steps", "20", "--stride", "5", "--seed", "4"),
    ("eig", "--manteuffel-k", "4", "--restart-list", "8,12", "--max-restarts", "6", "--seed", "1"),
    ("gmres", "--laplace-dims", "6,6,6", "--steps", "12", "--restart", "5", "--seed", "3"),
    ("sync-count", "--rows", "400", "--cols", "16", "--seed", "2"),
)

#: more runs, keyed by subcommand and tag
CLI_VARIANTS = (
    ("mtx", ("gmres", "--mtx", MTX, "--steps", "4")),
    ("mtx", ("arnoldi-stability", "--mtx", MTX, "--steps", "3", "--stride", "1")),
    ("jobs", CLI_RUNS[0] + ("--jobs", "2")),
    ("jobs", CLI_RUNS[4] + ("--jobs", "2")),
)


def dump(checkout, path):
    sys.path.insert(0, f"{checkout}/src")
    import numpy as np
    from kls.cli import main
    from kls import (SCHEME_IDS, CsrOperator, DenseOperator, EigenvalueTable, GmresConfig,
                     KrylovSchurConfig, ManteuffelSpec, SyncLedger, arnoldi, arnoldi_expand,
                     eig_diagnostics, gmres_solve, krylov_schur_run, laplace3d, manteuffel_build,
                     manteuffel_eigenvalues, parse_matrix_market, qr_factorize, synthetic_kappa)
    out = {}

    def run(key, fn):
        led = SyncLedger()
        res = fn(led)
        out[key] = (res, led.reductions, led.flops, dict(led.kernel_counts))

    def arrays(c):  # the CSR arrays and their dtypes
        return c.shape, [(a, a.dtype.str) for a in (c.indptr, c.indices, c.data)]

    for k in (10, 200):
        run(("problems", "manteuffel", k),
            lambda led: arrays(manteuffel_build(ManteuffelSpec(k=k))))
    for mtx in CORPUS:
        run(("problems", "mtx", os.path.basename(mtx)),
            lambda led: arrays(parse_matrix_market(mtx)))
    for kappa in (1e0, 1e4, 1e8, 1e12):
        run(("problems", "kappa", kappa), lambda led: synthetic_kappa(2000, 50, kappa, 13))

    def spectrum(k, beta):  # the exact spectrum's arrays and their dtypes
        t = manteuffel_eigenvalues(ManteuffelSpec(k=k, beta=beta))
        return [(a, a.dtype.str) for a in (t.values, t.unique, t.multiplicity)]

    for beta in (0.0, 0.5, 2.0):
        for k in (*range(1, 41), 100, 200):
            run(("problems", "spectrum", k, beta), lambda led: spectrum(k, beta))
    a30 = np.random.Generator(np.random.PCG64(10)).standard_normal((30, 30))
    operators = (("dense", DenseOperator(a30)), ("stencil", laplace3d(4, 3, 5)),
                 ("csr", CsrOperator(manteuffel_build(ManteuffelSpec(k=6)))))
    for name, op in operators:  # the second norm comes from the cache
        run(("operator", name), lambda led: (op.to_dense(), op.frobenius_norm(),
                                             op.frobenius_norm()))

    def diagnostics(led):
        d = eig_diagnostics(CsrOperator(manteuffel_build(ManteuffelSpec(k=6))))
        return tuple((key, d[key]) for key in sorted(d))
    run(("eig-diagnostics", "m6"), diagnostics)
    panel = np.random.Generator(np.random.PCG64(11)).standard_normal((2000, 40))
    for name, a in (("panel", panel), ("kappa", synthetic_kappa(1000, 30, 1e10, 3))):
        for s in SCHEME_IDS:
            run(("qr", name, s), lambda led: qr_factorize(a, s, ledger=led))
    m10 = CsrOperator(manteuffel_build(ManteuffelSpec(k=10)))
    start = np.random.Generator(np.random.PCG64(77)).standard_normal(m10.n)

    def expand(op, x, s, steps, led):  # every step's views, then finalize
        op.napply, views = 0, []
        exp = arnoldi(op, x, s, capacity=steps + 1, ledger=led)
        while exp.order < steps:
            alive = exp.step()
            views.append((alive, exp.basis.copy(), exp.basis_extended.copy(),
                          exp.h_extended.copy(), exp.hcols, exp.size, exp.order))
            if not alive:
                break
        return exp.finalize(), views, op.napply, exp.happy

    for s in SCHEME_IDS:
        run(("arnoldi", "m10", s), lambda led: expand(m10, start, s, 40, led))
        run(("arnoldi", "eye7", s),
            lambda led: expand(DenseOperator(np.eye(7)), np.ones(7), s, 6, led))
    v0, h0 = arnoldi_expand(m10, start, "cgs2", steps=10)
    dense = h0.copy()
    dense[10, :] = 0.3 * np.arange(1.0, 11.0)
    for row, hb in (("hessenberg", h0), ("dense", dense)):
        for s in SCHEME_IDS:
            def resume(led):
                m10.napply = 0
                exp = arnoldi(m10, None, s, capacity=30, ledger=led)
                exp.restart(v0, hb)
                while exp.order < 25:
                    exp.step()
                return exp.finalize(), m10.napply
            run(("resume", row, s), resume)
    m20 = CsrOperator(manteuffel_build(ManteuffelSpec(k=20)))
    b = np.random.Generator(np.random.PCG64(5)).standard_normal(m20.n)
    spec = ManteuffelSpec(k=10)
    exact = manteuffel_eigenvalues(spec)
    # every multiplicity 1: the over-multiplicity flag is raised
    short = EigenvalueTable(exact.unique, exact.unique, np.ones_like(exact.multiplicity))

    def gmres(s, stride, led, max_iters=100, restart=30):
        m20.napply = 0
        cfg = GmresConfig(max_iters=max_iters, restart=restart, scheme=s, be_stride=stride)
        r = gmres_solve(m20, b, cfg, ledger=led)
        return (r.x, r.residual_history, r.backward_errors, r.backward_error_iters,
                r.reduction_history, m20.napply)

    for s in ("cgs2", "dcgs2", "householder", "icwy-mgs"):
        run(("gmres", s), lambda led: gmres(s, 0, led))

        def ks(table, max_restarts, led):
            op = CsrOperator(manteuffel_build(spec))
            cfg = KrylovSchurConfig(max_basis=50, scheme=s, max_restarts=max_restarts)
            r = krylov_schur_run(op, cfg, seed=7, ledger=led, exact=table)
            return (r.values, r.vectors, r.residuals, r.invariant_dim, r.lock_history,
                    r.over_multiplicity, r.restarts, r.incomplete, op.napply)
        run(("krylov-schur", s), lambda led: ks(exact, 100, led))
        run(("krylov-schur", s, "short"), lambda led: ks(short, 40, led))
    complex_spec = ManteuffelSpec(k=10, beta=4.0)
    for s in ("cgs2", "dcgs2"):  # complex pairs, locked through the 2x2 blocks
        def ks_complex(led):
            op = CsrOperator(manteuffel_build(complex_spec))
            cfg = KrylovSchurConfig(max_basis=30, scheme=s, max_restarts=40)
            r = krylov_schur_run(op, cfg, seed=3, ledger=led)
            return (r.values, r.vectors, r.residuals, r.invariant_dim, r.lock_history,
                    r.restarts, r.incomplete, op.napply)
        run(("krylov-schur", s, "complex"), ks_complex)
    tall = np.random.Generator(np.random.PCG64(12)).standard_normal((30000, 24))
    for s in ("icwy-mgs", "dcgs2", "dcgs2-hrt"):
        run(("qr", "tall", s), lambda led: qr_factorize(tall, s, ledger=led))
    m100 = CsrOperator(manteuffel_build(ManteuffelSpec(k=100)))
    b100 = np.random.Generator(np.random.PCG64(6)).standard_normal(m100.n)

    def gmres100(led):
        r = gmres_solve(m100, b100, GmresConfig(max_iters=60, restart=30, scheme="dcgs2"),
                        ledger=led)
        return r.x, r.residual_history, r.backward_errors, r.reduction_history
    run(("gmres", "dcgs2", "m100"), gmres100)
    for s in ("cgs2", "dcgs2"):  # stride values mid-cycle and at cycle ends
        run(("gmres", s, "stride"), lambda led: gmres(s, 10, led))
        run(("gmres", s, "full"), lambda led: gmres(s, 0, led, max_iters=60, restart=0))

    def cli(argv, led):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(list(argv))
        return text.getvalue().encode(), code

    here = os.getcwd()
    os.chdir(checkout)  # the --mtx path, and so its CSV header, is the same for every checkout
    try:
        for argv in CLI_RUNS:
            run(("cli", argv[0]), lambda led: cli(argv, led))
        for tag, argv in CLI_VARIANTS:
            run(("cli", argv[0], tag), lambda led: cli(argv, led))
    finally:
        os.chdir(here)
    with open(path, "wb") as f:
        pickle.dump(out, f)


def same(a, b):
    import numpy as np
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def max_diff(a, b):
    """Largest absolute difference over the arrays and numbers of two case
    outputs; inf where shapes, structure or NaNs differ."""
    import numpy as np
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        if type(a) is not type(b) or len(a) != len(b):
            return float("inf")
        return max((max_diff(x, y) for x, y in zip(a, b)), default=0.0)
    numeric = (np.ndarray, np.number, int, float, complex)
    if not (isinstance(a, numeric) and isinstance(b, numeric)):
        return 0.0 if a == b else float("inf")
    x, y = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if x.shape != y.shape:
        return float("inf")
    with np.errstate(invalid="ignore"):
        d = np.where(x == y, 0.0, np.abs(x - y))
    return float(np.nan_to_num(d, nan=np.inf).max(initial=0.0))


#: differing leaves listed per case
LEAVES = 8


def leaf_diffs(a, b, path=""):
    """Yield (index path, a, b) for each differing leaf of two case outputs;
    sequences whose type or length differ are leaves themselves."""
    if isinstance(a, (tuple, list)) and type(a) is type(b) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
    elif not same(a, b):
        yield path, a, b


def describe(a, b):
    """Both values of a scalar leaf, or the shapes and largest difference of
    an array leaf."""
    import numpy as np
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return f"arrays {np.shape(a)} and {np.shape(b)}, max |diff| {max_diff(a, b):.3g}"

    def short(x):
        text = repr(x.item() if isinstance(x, np.generic) else x)
        return text if len(text) <= 40 else text[:37] + "..."
    return f"{short(a)} -> {short(b)}"


def load(path):
    with open(path, "rb") as f:
        return pickle.load(f)


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    bad = [k for k in a.keys() | b.keys() if k not in a or k not in b or not same(a[k], b[k])]
    print(f"{len(a)} cases, {len(bad)} differ: {sorted(bad)}")
    for k in sorted(bad):
        if k not in a or k not in b:
            print(f"  {k}: only in {path_a if k in a else path_b}")
            continue
        (res_a, *counts_a), (res_b, *counts_b) = a[k], b[k]
        equal = ", ".join(f"{name} {'equal' if same(x, y) else 'differ'}" for name, x, y in
                          zip(("reductions", "flops", "kernel counts"), counts_a, counts_b))
        print(f"  {k}: max |diff| {max_diff(res_a, res_b):.3g}; {equal}")
        leaves = list(leaf_diffs(res_a, res_b))
        for path, x, y in leaves[:LEAVES]:
            print(f"    {path or '(output)'}: {describe(x, y)}")
        if len(leaves) > LEAVES:
            print(f"    ... {len(leaves) - LEAVES} more leaves differ")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        sys.exit(__doc__)
    try:
        (dump if sys.argv[1] == "dump" else compare)(*sys.argv[2:4])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the output, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
