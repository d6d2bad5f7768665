"""Bit-identity check of two kls checkouts.

    python tools/bitcheck.py dump CHECKOUT OUT.pkl
    python tools/bitcheck.py compare A.pkl B.pkl

``dump`` imports kls from ``CHECKOUT/src`` and pickles the outputs of 58
fixed cases: QR of a 2000x40 panel and a 1000x30 kappa-1e10 matrix, Arnoldi
on Manteuffel k=10 (every step's views) and on a 7x7 identity, Arnoldi
resumed from a Hessenberg and from a dense coupling row, GMRES(30) on
Manteuffel k=20 and Krylov-Schur on Manteuffel k=10, for every scheme.
Each case also records the ledger's reductions, flops and kernel counts.
``compare`` prints ``N cases, D differ: [...]``; two outputs are the same
only when every array is equal bit for bit.  Run ``dump`` once per
checkout, in its own process.  Load only dumps this script wrote: unpickling
runs code.
"""

import pickle
import sys


def dump(checkout, path):
    sys.path.insert(0, f"{checkout}/src")
    import numpy as np
    from kls import (CsrOperator, DenseOperator, GmresConfig, KrylovSchurConfig, ManteuffelSpec,
                     SyncLedger, arnoldi, arnoldi_expand, gmres_solve, krylov_schur_run,
                     manteuffel_build, manteuffel_eigenvalues, qr_factorize, resume_arnoldi,
                     synthetic_kappa)
    out = {}
    variants = [(s, {}) for s in ("cgs", "cgs2", "cgs2-lagged", "mgs", "icwy-mgs", "dcgs2",
                                  "dcgs2-hrt", "householder")] + [("icwy-mgs", {"symmetric": True})]

    def run(key, fn):
        led = SyncLedger()
        res = fn(led)
        out[key] = (res, led.reductions, led.flops, dict(led.kernel_counts))

    panel = np.random.Generator(np.random.PCG64(11)).standard_normal((2000, 40))
    for name, a in (("panel", panel), ("kappa", synthetic_kappa(1000, 30, 1e10, 3))):
        for s, opt in variants:
            run(("qr", name, s, str(opt)), lambda led: qr_factorize(a, s, ledger=led, **opt))
    m10 = CsrOperator(manteuffel_build(ManteuffelSpec(k=10)))
    start = np.random.Generator(np.random.PCG64(77)).standard_normal(m10.n)

    def expand(op, x, s, steps, opt, led):  # every step's views, then finalize
        op.napply, views = 0, []
        exp = arnoldi(op, x, s, capacity=steps + 1, ledger=led, **opt)
        while exp.order < steps:
            alive = exp.step()
            views.append((alive, exp.basis.copy(), exp.basis_extended.copy(),
                          exp.h_extended.copy(), exp.hcols, exp.size, exp.order))
            if not alive:
                break
        return exp.finalize(), views, op.napply, exp.happy

    for s, opt in variants:
        run(("arnoldi", "m10", s, str(opt)), lambda led: expand(m10, start, s, 40, opt, led))
        run(("arnoldi", "eye7", s, str(opt)),
            lambda led: expand(DenseOperator(np.eye(7)), np.ones(7), s, 6, opt, led))
    v0, h0 = arnoldi_expand(m10, start, "cgs2", steps=10)
    dense = h0.copy()
    dense[10, :] = 0.3 * np.arange(1.0, 11.0)
    for row, hb in (("hessenberg", h0), ("dense", dense)):
        for s, opt in variants:
            def resume(led):
                m10.napply = 0
                exp = resume_arnoldi(m10, v0, hb, s, capacity=30, ledger=led, **opt)
                while exp.order < 25:
                    exp.step()
                return exp.finalize(), m10.napply
            run(("resume", row, s, str(opt)), resume)
    m20 = CsrOperator(manteuffel_build(ManteuffelSpec(k=20)))
    b = np.random.Generator(np.random.PCG64(5)).standard_normal(m20.n)
    spec = ManteuffelSpec(k=10)
    for s in ("cgs2", "dcgs2"):
        def gmres(led):
            m20.napply = 0
            r = gmres_solve(m20, b, GmresConfig(max_iters=100, restart=30, scheme=s), ledger=led)
            return r.x, r.residual_history, r.backward_errors, r.reduction_history, m20.napply
        run(("gmres", s), gmres)

        def ks(led):
            op = CsrOperator(manteuffel_build(spec))
            r = krylov_schur_run(op, KrylovSchurConfig(max_basis=50, scheme=s), seed=7,
                                 ledger=led, exact=manteuffel_eigenvalues(spec))
            return r.values, r.vectors, r.residuals, r.invariant_dim, r.lock_history, op.napply
        run(("krylov-schur", s), ks)
    with open(path, "wb") as f:
        pickle.dump(out, f)


def same(a, b):
    import numpy as np
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def load(path):
    with open(path, "rb") as f:
        return pickle.load(f)


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    bad = [k for k in a.keys() | b.keys() if k not in a or k not in b or not same(a[k], b[k])]
    print(f"{len(a)} cases, {len(bad)} differ: {sorted(bad)}")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        sys.exit(__doc__)
    (dump if sys.argv[1] == "dump" else compare)(*sys.argv[2:4])
