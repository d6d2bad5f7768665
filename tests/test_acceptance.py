"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import time

import numpy as np
import pytest

from kls.arnoldi import arnoldi_expand
from kls.eig import (
    KrylovSchurConfig,
    eig_diagnostics,
    krylov_schur_run,
    match_eigenvalues,
)
from kls.gmres import GmresConfig, gmres_solve
from kls.ledger import SyncLedger
from kls.metrics import (
    loss_of_orthogonality,
    representation_error_arnoldi,
    representation_error_qr,
)
from kls.ortho import qr_factorize
from kls.problems import (
    CsrOperator,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    manteuffel_eigenvalues,
    synthetic_kappa,
)

EPS = np.finfo(np.float64).eps
SEED = 7


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_01_sync_count_exactness():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(SEED))
    a = rng.standard_normal((5000, 50))
    expected = {
        "cgs": (100, 100),
        "cgs2": (150, 150),
        "cgs2-lagged": (100, 100),
        "mgs": (1275, 1275),
        "icwy-mgs": (50, 50),
        "dcgs2": (50, 52),
    }
    measured = {}
    for scheme in expected:
        led = SyncLedger()
        qr_factorize(a, scheme, ledger=led)
        measured[scheme] = led.reductions
    elapsed = time.time() - t0
    ok = elapsed < 5.0 and all(
        lo <= measured[s] <= hi for s, (lo, hi) in expected.items()
    )
    verdict(1, ok, f"ledger totals {measured}, elapsed {elapsed:.2f}s (< 5s)")


@pytest.fixture(scope="module")
def kappa_sweep_data():
    m, n = 200, 50
    kappas = np.array([10.0 ** e for e in range(0, 13)])  # 1e0 .. 1e12
    out = {}
    t0 = time.time()
    for scheme in ("cgs", "mgs", "cgs2", "dcgs2", "dcgs2-hrt"):
        loos, rres = [], []
        for kap in kappas:
            a = synthetic_kappa(m, n, kap, seed=SEED)
            q, r = qr_factorize(a, scheme)
            loos.append(loss_of_orthogonality(q))
            rres.append(representation_error_qr(a, q, r))
        out[scheme] = (np.array(loos), np.array(rres))
    return kappas, out, time.time() - t0


def test_criterion_02_loo_ceiling(kappa_sweep_data):
    kappas, data, elapsed = kappa_sweep_data
    bound = 100 * EPS * 50  # tolerance factor 100 over eps*n
    worst = max(np.max(data["cgs2"][0]), np.max(data["dcgs2"][0]))
    ok = worst <= bound and elapsed < 30.0
    verdict(
        2,
        ok,
        f"max LOO(cgs2,dcgs2) over kappa 1e0..1e12 = {worst:.2e} "
        f"<= {bound:.2e}, sweep {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_loo_growth_laws(kappa_sweep_data):
    kappas, data, _ = kappa_sweep_data

    def slope(scheme):
        loos = data[scheme][0]
        mask = (loos >= 1e-13) & (loos <= 1e-2) & (kappas > 1)
        return np.polyfit(np.log10(kappas[mask]), np.log10(loos[mask]), 1)[0]

    s_cgs, s_mgs = slope("cgs"), slope("mgs")
    ok = abs(s_cgs - 2.0) <= 0.5 and abs(s_mgs - 1.0) <= 0.5
    verdict(3, ok, f"log-log slopes: cgs {s_cgs:.2f} (2.0±0.5), mgs {s_mgs:.2f} (1.0±0.5)")


def test_criterion_04_hrt_defect(kappa_sweep_data):
    kappas, data, _ = kappa_sweep_data
    sel = kappas >= 1e9
    hrt_loo, hrt_rre = data["dcgs2-hrt"]
    d_loo, d_rre = data["dcgs2"]
    ok = (
        np.all(hrt_loo[sel] > 1e-7)
        and np.all(hrt_rre[sel] > 1e-7)
        and np.all(d_loo[sel] <= 1e-7)
        and np.all(d_rre[sel] <= 1e-7)
    )
    verdict(
        4,
        ok,
        "for kappa >= 1e9: dcgs2-hrt loo/rre "
        f"min ({hrt_loo[sel].min():.1e}/{hrt_rre[sel].min():.1e}) > 1e-7, "
        f"dcgs2 max ({d_loo[sel].max():.1e}/{d_rre[sel].max():.1e}) <= 1e-7",
    )


def test_criterion_05_manteuffel_operator_specs():
    t0 = time.time()
    spec = ManteuffelSpec(k=50)
    d = eig_diagnostics(manteuffel_build(spec).to_dense(), full=False)
    elapsed = time.time() - t0
    ok = (
        abs(d["norm2"] - 7.99) <= 0.01 * 7.99
        and abs(d["cond"] - 3.32e2) <= 0.02 * 3.32e2
        and abs(d["nonnormality"] - 2.81e-4) <= 0.05 * 2.81e-4
        and elapsed < 60.0
    )
    verdict(
        5,
        ok,
        f"k=50: |A|_2={d['norm2']:.4g} (7.99±1%), cond={d['cond']:.4g} "
        f"(332±2%), nonnormality={d['nonnormality']:.4g} (2.81e-4±5%), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_eigenvalue_oracle_all_k():
    worst = 0.0
    mult_ok = True
    for k in range(1, 13):
        spec = ManteuffelSpec(k=k, beta=0.5)
        table = manteuffel_eigenvalues(spec)
        dense = np.sort(np.linalg.eigvals(manteuffel_build(spec).to_dense()).real)
        worst = max(worst, float(np.max(np.abs(dense - table.values))))
        for u, mult in zip(table.unique, table.multiplicity):
            mult_ok = mult_ok and int(np.sum(np.abs(dense - u) <= 1e-8)) == mult
    ok = worst <= 1e-8 and mult_ok
    verdict(
        6,
        ok,
        f"k=1..12 assembled vs formula: max |diff| = {worst:.2e} <= 1e-8, "
        f"multiplicities exact: {mult_ok}",
    )


def test_criterion_07_krylov_schur_correctness():
    spec = ManteuffelSpec(k=10)
    op = CsrOperator(manteuffel_build(spec))
    table = manteuffel_eigenvalues(spec)
    cfg = KrylovSchurConfig(max_basis=100, tol=1e-7, scheme="cgs2")
    res = krylov_schur_run(op, cfg, seed=SEED, exact=table)
    rep = match_eigenvalues(res.values.real, table, cfg.tol)
    ok = (
        rep.n_matched == len(res.values)
        and not res.over_multiplicity
        and not rep.over_multiplicity
    )
    verdict(
        7,
        ok,
        f"k=10 tol=1e-7: {rep.n_matched}/{len(res.values)} converged Ritz values "
        f"matched, over-multiplicity flag fired: {res.over_multiplicity}",
    )


def test_criterion_08_arnoldi_equivalence():
    spec = ManteuffelSpec(k=20)
    op = CsrOperator(manteuffel_build(spec))
    rng = np.random.Generator(np.random.PCG64(SEED))
    start = rng.standard_normal(op.n)
    v1, h1 = arnoldi_expand(op, start, "cgs2", steps=50)
    v2, h2 = arnoldi_expand(op, start, "dcgs2", steps=50)
    afro = np.linalg.norm(op.to_dense())
    hdiff = float(np.max(np.abs(h1 - h2)))
    rre1 = representation_error_arnoldi(op, v1, h1)
    rre2 = representation_error_arnoldi(op, v2, h2)
    ok = hdiff <= 1e-8 * afro and rre1 <= 1e-12 and rre2 <= 1e-12
    verdict(
        8,
        ok,
        f"k=20, 50 steps: max|H_dcgs2 - H_cgs2| = {hdiff:.2e} <= {1e-8 * afro:.2e}, "
        f"RRE cgs2 {rre1:.1e} / dcgs2 {rre2:.1e} <= 1e-12",
    )


def test_criterion_09_gmres_reduction_proxy():
    op = laplace3d(24, 24, 24)
    ones = np.ones(op.n)
    b = op.apply(ones)
    b /= np.linalg.norm(b)
    led2 = SyncLedger()
    r2 = gmres_solve(op, b, GmresConfig(max_iters=100, scheme="cgs2"), ledger=led2)
    ledd = SyncLedger()
    rd = gmres_solve(op, b, GmresConfig(max_iters=100, scheme="dcgs2"), ledger=ledd)
    n = min(len(r2.residual_history), len(rd.residual_history))
    curve_diff = float(np.max(np.abs(r2.residual_history[:n] - rd.residual_history[:n])))
    ok = (
        n == 100
        and curve_diff <= 1e-8
        and ledd.reductions <= 102
        and led2.reductions == 300
    )
    verdict(
        9,
        ok,
        f"24^3 Laplace, 100 iters: curves agree to {curve_diff:.1e} (<=1e-8), "
        f"reductions dcgs2 {ledd.reductions} (<=102) vs cgs2 {led2.reductions} (=300)",
    )


def test_criterion_10_eigen_count_ordering():
    # One start vector is not enough: at restart 50 the locked count of a
    # single run moves by up to 11 under rounding-level changes, so the
    # ordering is asserted on the median count over five start vectors,
    # and only the robust "every scheme beats cgs" on each run.
    spec = ManteuffelSpec(k=10)
    csr = manteuffel_build(spec)
    table = manteuffel_eigenvalues(spec)
    schemes = ("cgs2", "dcgs2", "mgs", "cgs")
    seeds = (7, 8, 9, 10, 11)
    counts = {}
    for seed in seeds:
        for restart in (25, 50, 75):
            for scheme in schemes:
                cfg = KrylovSchurConfig(
                    max_basis=restart, tol=1e-7, scheme=scheme, max_restarts=250
                )
                res = krylov_schur_run(CsrOperator(csr), cfg, seed=seed, exact=table)
                counts[(scheme, restart, seed)] = res.n_matched
    ok = True
    detail = []
    for r in (25, 50, 75):
        for seed in seeds:
            c2, dc, mg, cg = (counts[(s, r, seed)] for s in schemes)
            ok = ok and min(c2, dc, mg) >= cg
        c2, dc, mg, cg = (
            int(np.median([counts[(s, r, seed)] for seed in seeds])) for s in schemes
        )
        ok = ok and abs(c2 - dc) <= 2 and min(c2, dc) >= mg and mg >= cg
        runs = " ".join(
            "/".join(str(counts[(s, r, seed)]) for s in schemes) for seed in seeds
        )
        detail.append(
            f"r{r} cgs2/dcgs2/mgs/cgs at seeds {seeds}: {runs}, "
            f"median cgs2={c2} dcgs2={dc} mgs={mg} cgs={cg}"
        )
    verdict(10, ok, "; ".join(detail))
