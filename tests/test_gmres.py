import numpy as np
import pytest

from kls.gmres import GmresConfig, _GivensLS, backward_error, gmres_solve
from kls.ledger import SyncLedger
from kls.problems import (
    CsrOperator,
    DenseOperator,
    laplace3d,
    synthetic_kappa,
)


def test_identity_converges_in_one_iteration():
    op = DenseOperator(np.eye(9))
    b = np.arange(1.0, 10.0)
    res = gmres_solve(op, b, GmresConfig(max_iters=5))
    assert res.iterations == 1
    assert res.breakdown and res.converged
    assert np.allclose(res.x, b, atol=1e-14)


def test_givens_least_squares_matches_lstsq(rng):
    hbar = np.triu(rng.standard_normal((7, 6)), -1)
    ls = _GivensLS(6, 2.0)
    for j in range(6):
        ls.append(hbar[: j + 1, j], hbar[j + 1, j])
    rhs = np.zeros(7)
    rhs[0] = 2.0
    y = np.linalg.lstsq(hbar, rhs, rcond=None)[0]
    assert np.allclose(ls.solve(), y, rtol=1e-12, atol=1e-12)


def test_givens_least_squares_zero_column_solves_leading_part():
    # a zero Hessenberg column gives a zero diagonal: only the leading
    # nonsingular part is solved, and the rest of y is zero
    ls = _GivensLS(3, 2.0)
    ls.append(np.array([3.0]), 4.0)
    ls.append(np.zeros(2), 0.0)
    assert np.allclose(ls.solve(), [2.0 * 3.0 / 25.0, 0.0], rtol=1e-15, atol=0.0)


def test_laplace_slab_matches_direct_solve():
    op = laplace3d(32, 32, 1)  # 32x32 grid slab
    a = op.to_csr().to_dense()
    b = np.ones(op.n)
    x_direct = np.linalg.solve(a, b)
    res = gmres_solve(op, b, GmresConfig(max_iters=100, scheme="cgs2"))
    rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
    assert rel <= 1e-10
    assert np.linalg.norm(res.x - x_direct) <= 1e-8 * np.linalg.norm(x_direct)


def test_paired_residual_curves_cgs2_vs_dcgs2():
    op = laplace3d(32, 32, 1)
    b = np.ones(op.n)
    r1 = gmres_solve(op, b, GmresConfig(max_iters=100, scheme="cgs2"))
    r2 = gmres_solve(op, b, GmresConfig(max_iters=100, scheme="dcgs2"))
    n = min(len(r1.residual_history), len(r2.residual_history))
    assert n == 100
    assert np.max(np.abs(r1.residual_history[:n] - r2.residual_history[:n])) <= 1e-8


@pytest.mark.parametrize("scheme", ("cgs", "cgs2", "mgs", "icwy-mgs", "dcgs2"))
def test_residual_history_monotone(scheme):
    op = laplace3d(8, 8, 8)
    b = op.apply(np.ones(op.n))
    res = gmres_solve(op, b, GmresConfig(max_iters=60, scheme=scheme))
    hist = res.residual_history
    assert np.all(np.diff(hist) <= 1e-14)


def test_reduction_rates_one_vs_three():
    op = laplace3d(10, 10, 10)
    b = op.apply(np.ones(op.n))
    led2 = SyncLedger()
    gmres_solve(op, b, GmresConfig(max_iters=50, scheme="cgs2"), ledger=led2)
    ledd = SyncLedger()
    gmres_solve(op, b, GmresConfig(max_iters=50, scheme="dcgs2"), ledger=ledd)
    assert led2.reductions == 3 * 50
    assert ledd.reductions <= 50 + 2


def test_reduction_history_cumulative():
    op = laplace3d(6, 6, 6)
    b = op.apply(np.ones(op.n))
    led = SyncLedger()
    res = gmres_solve(op, b, GmresConfig(max_iters=20, scheme="dcgs2"), ledger=led)
    assert len(res.reduction_history) == len(res.residual_history)
    assert np.all(np.diff(res.reduction_history) >= 0)
    assert res.reduction_history[-1] <= led.reductions


def test_restarted_gmres_converges():
    op = laplace3d(10, 10, 1)
    b = np.ones(op.n)
    a = op.to_csr().to_dense()
    res = gmres_solve(op, b, GmresConfig(max_iters=200, restart=25, rtol=1e-10))
    assert np.linalg.norm(b - a @ res.x) / np.linalg.norm(b) <= 1e-9
    assert res.converged


def test_rtol_early_stop():
    op = laplace3d(8, 8, 1)
    b = np.ones(op.n)
    res = gmres_solve(op, b, GmresConfig(max_iters=64, rtol=1e-6))
    assert res.converged
    assert res.iterations < 64
    assert res.residual_history[-1] <= 1e-6


def test_stagnation_flag_on_shift_operator():
    # a cyclic shift makes GMRES sit at relres 1 until the very last step
    n = 40
    a = np.zeros((n, n))
    a[0, n - 1] = 1.0
    a[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    op = DenseOperator(a)
    b = np.zeros(n)
    b[0] = 1.0
    res = gmres_solve(op, b, GmresConfig(max_iters=30, scheme="cgs2"))
    assert res.stagnated
    assert res.residual_history[-1] == pytest.approx(1.0, abs=1e-12)


def test_zero_rhs():
    op = laplace3d(3, 3, 3)
    res = gmres_solve(op, np.zeros(op.n), GmresConfig(max_iters=5))
    assert res.converged and np.all(res.x == 0.0)


# ---------------------------------------------------------------------------
# backward error


def test_backward_error_exact_solve():
    op = laplace3d(6, 6, 1)
    x = np.ones(op.n)
    b = op.apply(x)
    assert backward_error(op, x, b) <= 1e-15


def test_backward_error_zero_solution():
    op = laplace3d(4, 4, 1)
    b = np.ones(op.n)
    assert backward_error(op, np.zeros(op.n), b) == pytest.approx(1.0)


def test_backward_error_dense_matrix_argument(rng):
    a = rng.standard_normal((12, 12))
    x = rng.standard_normal(12)
    b = a @ x
    assert backward_error(a, x, b) <= 1e-15


def test_mgs_backward_stable_on_ill_conditioned():
    m = 120
    a = synthetic_kappa(m, m, 1e6, seed=3)
    op = DenseOperator(a)
    b = a @ np.ones(m)
    b /= np.linalg.norm(b)
    res = gmres_solve(op, b, GmresConfig(max_iters=m, scheme="mgs"))
    assert res.backward_errors[-1] <= 1e-12


def test_matrix_free_frobenius_probe_used():
    op = laplace3d(12, 12, 12)
    x = np.ones(op.n)
    b = op.apply(x)
    be = backward_error(op, x + 1e-3, b)
    exact_fro = np.sqrt(36.0 * op.n + 2.0 * (3 * 11 * 12 * 12))
    ref = np.linalg.norm(b - op.apply(x + 1e-3)) / (
        exact_fro * np.linalg.norm(x + 1e-3) + np.linalg.norm(b)
    )
    assert be == pytest.approx(ref, rel=1e-10)
