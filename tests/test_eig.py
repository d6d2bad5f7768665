import numpy as np
import pytest

import kls.eig
from kls.arnoldi import arnoldi, arnoldi_expand
from kls.eig import (
    KrylovSchurConfig,
    eig_diagnostics,
    krylov_schur_run,
    match_eigenvalues,
)
from kls.problems import (
    DENSE_MAX_ORDER,
    CsrOperator,
    DenseOperator,
    EigenvalueTable,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    manteuffel_eigenvalues,
)
from kls.errors import IterationLimitError
from kls.schur import SchurForm, hessenberg_real_schur, move_blocks_front, schur_eigenvectors


def table_of(values, mults):
    values = np.asarray(values, dtype=np.float64)
    return EigenvalueTable(
        values=np.repeat(values, mults),
        unique=values,
        multiplicity=np.asarray(mults, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# per-column Ritz residuals


def ritz_residuals(t, b_row):
    """Per-column Arnoldi residuals |b^T y| of a quasi-triangular T, as the
    solver computes them."""
    return np.abs(b_row @ schur_eigenvectors(t)[1])


def test_block_residuals_match_explicit_residual(rng):
    op = DenseOperator(rng.standard_normal((40, 40)))
    v, h = arnoldi_expand(op, rng.standard_normal(40), "cgs2", steps=15)
    k = h.shape[1]
    form = hessenberg_real_schur(np.triu(h[:k, :k], -1))
    vals, vecs = schur_eigenvectors(form.t)
    resid = ritz_residuals(form.t, h[k, :k] @ form.z)
    a = op.to_dense()
    assert len(vals) == k
    for i in range(len(vals)):
        y = form.z @ vecs[:, i]
        z = v[:, :k] @ y
        explicit = np.linalg.norm(a @ z - vals[i] * z)
        assert resid[i] == pytest.approx(explicit, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# match_eigenvalues


def test_match_identical_lists():
    table = table_of([1.0, 2.0, 3.0], [1, 1, 1])
    rep = match_eigenvalues(np.array([1.0, 2.0, 3.0]), table, tol=1e-8)
    assert rep.n_matched == 3
    assert np.all(rep.forward_errors == 0.0)
    assert not rep.over_multiplicity


def test_match_picks_nearer_value():
    table = table_of([1.0, 2.0], [1, 1])
    rep = match_eigenvalues(np.array([1.4]), table, tol=1.0)
    assert rep.assignments == [(1.4, 1.0)]


def test_match_respects_multiplicity_budget():
    table = table_of([4.0, 7.0], [2, 1])
    rep = match_eigenvalues(np.array([4.0, 4.0 + 1e-9, 7.0]), table, tol=1e-7)
    assert rep.n_matched == 3
    assert not rep.over_multiplicity


def test_match_over_multiplicity_flag():
    table = table_of([4.0, 7.0], [2, 1])
    rep = match_eigenvalues(np.array([4.0, 4.0, 4.0]), table, tol=1e-7)
    assert rep.n_matched == 2
    assert rep.over_multiplicity
    assert rep.unmatched == [4.0]


def test_match_out_of_tolerance_not_flagged():
    table = table_of([4.0], [1])
    rep = match_eigenvalues(np.array([5.0]), table, tol=1e-3)
    assert rep.n_matched == 0 and not rep.over_multiplicity


# ---------------------------------------------------------------------------
# krylov_schur_run


def test_diagonal_operator_full_spectrum():
    op = DenseOperator(np.diag(np.arange(1.0, 11.0)))
    cfg = KrylovSchurConfig(max_basis=10, tol=1e-7, scheme="cgs2")
    res = krylov_schur_run(op, cfg, seed=42)
    assert res.invariant_dim == 10
    assert not res.incomplete
    assert res.n_matched is None  # no exact spectrum to match against
    assert np.allclose(np.sort(res.values.real), np.arange(1.0, 11.0), atol=1e-12)


@pytest.mark.parametrize("scheme", ("cgs2", "dcgs2"))
def test_manteuffel_k5_exact_multiplicities(scheme):
    spec = ManteuffelSpec(k=5)
    op = CsrOperator(manteuffel_build(spec))
    table = manteuffel_eigenvalues(spec)
    cfg = KrylovSchurConfig(max_basis=25, tol=1e-7, scheme=scheme)
    res = krylov_schur_run(op, cfg, seed=3, exact=table)
    assert res.invariant_dim == 25
    assert not res.over_multiplicity
    rep = match_eigenvalues(res.values.real, table, 1e-7)
    assert rep.n_matched == 25  # full spectrum with exact multiplicities
    assert res.n_matched == 25


def test_reported_values_pass_residual_recompute():
    spec = ManteuffelSpec(k=8)
    op = CsrOperator(manteuffel_build(spec))
    cfg = KrylovSchurConfig(max_basis=30, tol=1e-7, scheme="dcgs2", max_restarts=8)
    res = krylov_schur_run(op, cfg, seed=11)
    dense = op.to_dense()
    assert len(res.values) == res.invariant_dim
    for i, lam in enumerate(res.values):
        z = res.vectors[:, i]
        assert np.linalg.norm(dense @ z - lam * z) <= 20 * cfg.tol


def test_invariant_dim_monotone_across_restarts():
    spec = ManteuffelSpec(k=7)
    op = CsrOperator(manteuffel_build(spec))
    cfg = KrylovSchurConfig(max_basis=20, tol=1e-7, scheme="cgs2", max_restarts=15)
    res = krylov_schur_run(op, cfg, seed=5)
    assert all(
        b >= a for a, b in zip(res.lock_history, res.lock_history[1:])
    )
    assert res.lock_history[-1] == res.invariant_dim


@pytest.mark.parametrize("scheme", ("cgs2", "dcgs2"))
def test_one_expansion_per_run(scheme, monkeypatch):
    # every thick restart rotates the one expansion's basis in place
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return arnoldi(*args, **kwargs)

    monkeypatch.setattr(kls.eig, "arnoldi", counted)
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=7)))
    cfg = KrylovSchurConfig(max_basis=20, tol=1e-7, scheme=scheme, max_restarts=15)
    res = krylov_schur_run(op, cfg, seed=5)
    assert res.restarts > 1 and len(calls) == 1


def test_restart_budget_flags_incomplete():
    spec = ManteuffelSpec(k=10)
    op = CsrOperator(manteuffel_build(spec))
    cfg = KrylovSchurConfig(max_basis=20, tol=1e-7, scheme="cgs2", max_restarts=2)
    res = krylov_schur_run(op, cfg, seed=5)
    assert res.incomplete
    assert res.invariant_dim < 20
    # a larger budget locks strictly more of the spectrum
    cfg2 = KrylovSchurConfig(max_basis=20, tol=1e-7, scheme="cgs2", max_restarts=30)
    res2 = krylov_schur_run(op, cfg2, seed=5)
    assert res2.invariant_dim > res.invariant_dim


def test_nonsymmetric_complex_pairs(rng):
    # rotation-heavy operator: locked values arrive as conjugate pairs
    blocks = []
    for t in (0.3, 1.1, 2.0):
        c, s = np.cos(t), np.sin(t)
        blocks.append(np.array([[c, -s], [s, c]]) * (1.0 + t))
    a = np.zeros((8, 8))
    for i, blk in enumerate(blocks):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
    a[6, 6], a[7, 7] = 0.5, -0.25
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    op = DenseOperator(q @ a @ q.T)
    cfg = KrylovSchurConfig(max_basis=8, tol=1e-8, scheme="cgs2")
    res = krylov_schur_run(op, cfg, seed=1)
    assert res.invariant_dim == 8
    got = np.sort_complex(res.values)
    want = np.sort_complex(np.linalg.eigvals(a))
    assert np.max(np.abs(got - want)) <= 1e-8


def test_over_multiplicity_flag_with_short_table():
    # k=10 with every multiplicity cut to 1: a scheme that locks a repeated
    # eigenvalue twice within 40 restarts finds more copies than the table has
    spec = ManteuffelSpec(k=10)
    exact = manteuffel_eigenvalues(spec)
    short = table_of(exact.unique, np.ones(len(exact.unique), dtype=np.int64))
    op = CsrOperator(manteuffel_build(spec))
    flags = {}
    for scheme in ("dcgs2", "mgs"):
        cfg = KrylovSchurConfig(max_basis=25, tol=1e-7, scheme=scheme, max_restarts=40)
        res = krylov_schur_run(op, cfg, seed=7, exact=short)
        assert res.over_multiplicity == match_eigenvalues(
            res.values.real, short, 1e-7
        ).over_multiplicity
        flags[scheme] = res.over_multiplicity
    assert flags == {"dcgs2": True, "mgs": False}


def test_one_eigenvector_solve_per_restart_and_one_match(monkeypatch):
    calls = {"schur_eigenvectors": 0, "match_eigenvalues": 0}

    def counted(name):
        original = getattr(kls.eig, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(kls.eig, name, wrapper)

    for name in calls:
        counted(name)
    spec = ManteuffelSpec(k=10)
    cfg = KrylovSchurConfig(max_basis=25, tol=1e-7, scheme="cgs2", max_restarts=20)
    res = krylov_schur_run(
        CsrOperator(manteuffel_build(spec)), cfg, seed=7, exact=manteuffel_eigenvalues(spec)
    )
    assert res.restarts == 20 and res.invariant_dim > 0
    assert calls == {"schur_eigenvectors": res.restarts + 1, "match_eigenvalues": 1}


def test_failed_reorder_raises_with_scheme_and_restart(monkeypatch):
    # LAPACK reports a swap it cannot make by moving nothing; the third
    # restart's first reordering is made to fail that way
    real_move = kls.eig.move_blocks_front
    calls = []

    def failing_move(form, selected):
        calls.append(1)
        moved = real_move(form, selected)
        return 0 if len(calls) == 5 else moved

    monkeypatch.setattr(kls.eig, "move_blocks_front", failing_move)
    spec = ManteuffelSpec(k=10)
    cfg = KrylovSchurConfig(max_basis=25, tol=1e-7, scheme="dcgs2", max_restarts=10)
    with pytest.raises(IterationLimitError, match="dcgs2.*restart 3"):
        krylov_schur_run(CsrOperator(manteuffel_build(spec)), cfg, seed=7)


def test_reorder_survives_lapack_block_changes():
    # LAPACK's swaps split or merge 1x1/2x2 blocks in this run; the column
    # flags keep the selection, and a merge across the converged boundary
    # is an IterationLimitError that names its restart, never a DimensionError
    spec = ManteuffelSpec(k=6)
    cfg = KrylovSchurConfig(max_basis=25, tol=1e-30, scheme="mgs", max_restarts=100)
    try:
        res = krylov_schur_run(CsrOperator(manteuffel_build(spec)), cfg, seed=1)
    except IterationLimitError as err:
        assert err.restart is not None and f"restart {err.restart}" in str(err)
    else:
        assert res.restarts == 100 and len(res.values) == res.invariant_dim


@pytest.mark.parametrize("seed", range(5))
def test_block_residuals_invariant_under_reorder(seed):
    import scipy.linalg

    r = np.random.Generator(np.random.PCG64(seed))
    t, _ = scipy.linalg.schur(r.standard_normal((14, 14)), output="real")
    b = r.standard_normal(14)
    form = SchurForm(t.copy(), np.eye(14))
    sizes = np.array([size for _, size in form.blocks()])
    resid = ritz_residuals(t, b)
    assert np.any(sizes == 2) and sizes.sum() == 14
    block_sel = r.random(len(sizes)) < 0.5
    sel = np.repeat(block_sel, sizes)  # one flag per column
    assert move_blocks_front(form, sel) == sizes[block_sel].sum()
    sizes_after = [size for _, size in form.blocks()]
    assert np.array_equal(sizes_after, np.r_[sizes[block_sel], sizes[~block_sel]])
    want = np.r_[resid[sel], resid[~sel]]
    resid_after = ritz_residuals(form.t, b @ form.z)
    assert np.allclose(resid_after, want, rtol=1e-12, atol=0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="max_basis"):
        KrylovSchurConfig(max_basis=1)
    with pytest.raises(ValueError):
        KrylovSchurConfig(max_basis=5, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        KrylovSchurConfig(max_basis=5, tol=float("nan"))
    with pytest.raises(ValueError, match="max_restarts"):
        KrylovSchurConfig(max_basis=5, max_restarts=0)
    assert KrylovSchurConfig(max_basis=2).max_basis == 2


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_symmetric_operator():
    rng = np.random.Generator(np.random.PCG64(2))
    a = rng.standard_normal((60, 60))
    a = a + a.T
    d = eig_diagnostics(a, full=True)
    assert d["nonnormality"] <= 1e-15
    assert d["cond_right"] == pytest.approx(1.0, rel=1e-8)
    assert d["cond_eig_max"] == pytest.approx(1.0, rel=1e-8)
    assert d["norm2"] == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(a))), rel=1e-12)


def test_diagnostics_manteuffel_small_consistency():
    spec = ManteuffelSpec(k=8)
    op = CsrOperator(manteuffel_build(spec))
    d = eig_diagnostics(op, full=True)
    assert d["cond"] > 1.0
    assert d["nonnormality"] > 0.0
    assert d["cond_right"] > 1.0
    # eigenvalues of the assembled operator are the formula values
    table = manteuffel_eigenvalues(spec)
    assert np.max(np.abs(np.sort(d["eigenvalues"].real) - table.values)) <= 1e-8


def test_diagnostics_memory_guard():
    # above DENSE_MAX_ORDER every operator refuses, a sparse one and a
    # dense one (a zero-stride view, so nothing of order 3001 is allocated)
    op = laplace3d(15, 15, 15)
    assert op.n > DENSE_MAX_ORDER
    with pytest.raises(MemoryError):
        eig_diagnostics(op)
    with pytest.raises(MemoryError):
        eig_diagnostics(np.broadcast_to(0.0, (DENSE_MAX_ORDER + 1,) * 2))


def test_forward_errors_concentrate_on_ill_conditioned():
    # failures at the stated k=50 scale need cond(lambda) ~ 1e8 and a dense
    # Schur beyond desk budget; at k=24 the condition numbers span past 1e4
    # and the same mechanism is asserted pointwise
    import scipy.linalg

    spec = ManteuffelSpec(k=24)
    op = CsrOperator(manteuffel_build(spec))
    table = manteuffel_eigenvalues(spec)
    res = krylov_schur_run(
        op, KrylovSchurConfig(max_basis=op.n, tol=1e-7, scheme="cgs2"), seed=7
    )
    rep = match_eigenvalues(res.values.real, table, 1e-7)

    wv, vl, vr = scipy.linalg.eig(op.to_dense(), left=True, right=True)
    cond_eig = 1.0 / np.abs(np.sum(vl.conj() * vr, axis=0))
    assert np.max(cond_eig) > 1e4  # the sweep reaches the threshold regime

    # (a) literal implication: any unmatched exact value is ill-conditioned
    budget = {float(u): int(mu) for u, mu in zip(table.unique, table.multiplicity)}
    for _, u in rep.assignments:
        budget[float(u)] -= 1
    unmatched = [u for u, c in budget.items() if c > 0]
    for u in unmatched:
        assert cond_eig[np.argmin(np.abs(wv.real - u))] > 1e4
    # (b) at this conditioning level nothing may fail at 1e-7
    assert rep.n_matched == op.n
    # (c) forward errors track the eigenvalue condition numbers pointwise
    norm2 = 8.0
    eps = np.finfo(float).eps
    for (x, u), err in zip(rep.assignments, rep.forward_errors):
        cond = cond_eig[np.argmin(np.abs(wv.real - u))]
        assert err <= 100.0 * eps * cond * norm2
