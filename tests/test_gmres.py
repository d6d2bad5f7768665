import numpy as np
import pytest

import kls.gmres
from kls.arnoldi import arnoldi, arnoldi_expand
from kls.errors import DimensionError
from kls.gmres import GmresConfig, _GivensLS, backward_error, gmres_solve
from kls.ledger import SyncLedger
from kls.ortho import SCHEME_IDS
from kls.problems import (
    CsrOperator,
    DenseOperator,
    ManteuffelSpec,
    laplace3d,
    manteuffel_build,
    synthetic_kappa,
)


def test_identity_converges_in_one_iteration():
    op = DenseOperator(np.eye(9))
    b = np.arange(1.0, 10.0)
    res = gmres_solve(op, b, GmresConfig(max_iters=5))
    assert res.iterations == 1
    assert res.breakdown and res.converged
    assert np.allclose(res.x, b, atol=1e-14)


@pytest.mark.parametrize("field,value", (("max_iters", 0), ("restart", -3), ("rtol", -1.0),
                                         ("be_stride", -1), ("rtol", float("nan"))))
def test_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        GmresConfig(**{"max_iters": 5, field: value})


@pytest.mark.parametrize("scheme", ["cgs2", "dcgs2"])
def test_right_hand_side_of_wrong_length_rejected(scheme):
    op = DenseOperator(np.eye(25))
    with pytest.raises(DimensionError, match="length 25"):
        gmres_solve(op, np.ones(1), GmresConfig(max_iters=5, scheme=scheme))


def test_givens_least_squares_matches_lstsq(rng):
    hbar = np.triu(rng.standard_normal((7, 6)), -1)
    ls = _GivensLS(6, 2.0)
    for j in range(6):
        ls.append(hbar[: j + 2, j])
    rhs = np.zeros(7)
    rhs[0] = 2.0
    y = np.linalg.lstsq(hbar, rhs, rcond=None)[0]
    assert np.allclose(ls.solve(), y, rtol=1e-12, atol=1e-12)


def test_givens_least_squares_zero_column_solves_leading_part():
    # a zero Hessenberg column gives a zero diagonal: only the leading
    # nonsingular part is solved, and the rest of y is zero
    ls = _GivensLS(3, 2.0)
    ls.append(np.array([3.0, 4.0]))
    ls.append(np.zeros(3))
    assert np.allclose(ls.solve(), [2.0 * 3.0 / 25.0, 0.0], rtol=1e-15, atol=0.0)


def test_givens_least_squares_without_columns_is_empty():
    y = _GivensLS(3, 2.0).solve()
    assert y.shape == (0,) and y.dtype == np.float64


def test_givens_least_squares_zero_first_column_solves_nothing():
    # a zero first diagonal leaves no nonsingular leading part: y is zero
    ls = _GivensLS(3, 2.0)
    ls.append(np.zeros(2))
    ls.append(np.array([3.0, 4.0, 0.0]))
    y = ls.solve()
    assert y.tolist() == [0.0, 0.0] and not np.any(np.signbit(y))


def test_laplace_slab_matches_direct_solve():
    op = laplace3d(32, 32, 1)  # 32x32 grid slab
    a = op.to_dense()
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
    a = op.to_dense()
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
    # x = 0 is exact: a happy breakdown before any apply or reduction
    op = laplace3d(3, 3, 3)
    ledger = SyncLedger()
    res = gmres_solve(op, np.zeros(op.n), GmresConfig(max_iters=5), ledger=ledger)
    assert res.converged and np.all(res.x == 0.0)
    assert res.iterations == 0
    histories = (res.residual_history, res.backward_errors, res.backward_error_iters,
                 res.reduction_history)
    assert [h.size for h in histories] == [0, 0, 0, 0]
    assert [h.dtype for h in histories] == [np.float64, np.float64, np.int64, np.int64]
    assert res.breakdown and not res.stagnated
    assert op.napply == 0 and ledger.reductions == 0


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


# ---------------------------------------------------------------------------
# backward-error schedule


@pytest.fixture(scope="module")
def manteuffel20():
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=20)))
    return op, np.random.Generator(np.random.PCG64(3)).standard_normal(op.n)


def test_default_records_one_backward_error_per_cycle(manteuffel20):
    op, b = manteuffel20
    res = gmres_solve(op, b, GmresConfig(max_iters=50, restart=15))
    assert res.backward_error_iters.tolist() == [15, 30, 45, 50]
    assert len(res.backward_errors) == 4
    assert res.backward_errors[-1] == backward_error(op, res.x, b)


@pytest.mark.parametrize("scheme", ("cgs2", "dcgs2"))
def test_one_expansion_per_solve(scheme, manteuffel20, monkeypatch):
    # every cycle restarts the one expansion in its own storage
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return arnoldi(*args, **kwargs)

    monkeypatch.setattr(kls.gmres, "arnoldi", counted)
    op, b = manteuffel20
    res = gmres_solve(op, b, GmresConfig(max_iters=100, restart=30, scheme=scheme))
    assert res.iterations == 100 and len(res.backward_errors) == 4
    assert len(calls) == 1


def test_stride_one_matches_independent_recomputation(manteuffel20):
    # every prefix iterate x0 + V_j y_j of every cycle, rebuilt from a plain
    # expansion and a dense least-squares solve
    op, b = manteuffel20
    iters, restart = 25, 10
    res = gmres_solve(op, b, GmresConfig(max_iters=iters, restart=restart, be_stride=1))
    assert res.backward_error_iters.tolist() == list(range(1, iters + 1))
    x, want = np.zeros(op.n), []
    for done in range(0, iters, restart):
        n = min(restart, iters - done)
        r = b - op.apply(x)
        v, h = arnoldi_expand(op, r, "cgs2", steps=n)
        for j in range(1, n + 1):
            rhs = np.zeros(j + 1)
            rhs[0] = np.linalg.norm(r)
            y = np.linalg.lstsq(h[: j + 1, :j], rhs, rcond=None)[0]
            want.append(backward_error(op, x + v[:, :j] @ y, b))
        x = x + v[:, :n] @ y
    assert np.allclose(res.backward_errors, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scheme", ("cgs2", "dcgs2"))
def test_backward_error_stride_leaves_the_solve_unchanged(scheme, manteuffel20):
    op, b = manteuffel20
    runs = []
    for stride in (0, 1, 7):
        led = SyncLedger()
        cfg = GmresConfig(max_iters=40, restart=15, scheme=scheme, be_stride=stride)
        res = gmres_solve(op, b, cfg, ledger=led)
        runs.append((res.x.tobytes(), res.residual_history.tobytes(),
                     res.reduction_history.tobytes(), led.reductions, led.flops,
                     dict(led.kernel_counts)))
        if stride == 7:
            assert res.backward_error_iters.tolist() == [7, 14, 15, 21, 28, 30, 35, 40]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("be_stride", (0, 3))
@pytest.mark.parametrize("rtol", (0.0, 1e-6))
@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_no_restart_is_one_cycle_of_max_iters(scheme, rtol, be_stride, manteuffel20):
    # restart 0 runs one cycle: it ends at max_iters columns, at a breakdown
    # or at rtol, so it equals a restart length of max_iters bit for bit
    op, b = manteuffel20
    runs = []
    for restart in (0, 60):
        led = SyncLedger()
        cfg = GmresConfig(max_iters=60, restart=restart, rtol=rtol, scheme=scheme,
                          be_stride=be_stride)
        res = gmres_solve(op, b, cfg, ledger=led)
        runs.append((res.x.tobytes(), res.residual_history.tobytes(),
                     res.backward_errors.tobytes(), res.backward_error_iters.tolist(),
                     res.reduction_history.tobytes(), res.iterations, res.converged,
                     res.stagnated, res.breakdown, led.reductions))
    assert runs[0] == runs[1]
    iterations, converged = runs[0][5:7]
    assert converged if rtol else iterations == 60


@pytest.mark.parametrize("scheme,napply", (("cgs2", 310), ("dcgs2", 310)))
def test_default_applies_once_per_iteration_and_cycle(scheme, napply):
    # the benchmark's GMRES(30) part: 300 iterations in 10 cycles, and one
    # restart residual per cycle
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=200)))
    b = op.apply(np.random.Generator(np.random.PCG64(1)).standard_normal(op.n))
    op.napply = 0
    res = gmres_solve(op, b, GmresConfig(max_iters=300, restart=30, scheme=scheme))
    cycles = 10
    assert res.iterations == 300 and len(res.backward_errors) == cycles
    assert op.napply == napply


@pytest.mark.parametrize("scheme,stride,napply", (("cgs2", 1, 600), ("dcgs2", 1, 600),
                                                  ("cgs2", 30, 310), ("dcgs2", 30, 310)))
def test_stride_value_at_cycle_end_costs_no_apply(scheme, stride, napply):
    # the same run with a stride: each stride value costs one apply, except
    # at a cycle's last iteration, where the restart residual gives it
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=200)))
    b = op.apply(np.random.Generator(np.random.PCG64(1)).standard_normal(op.n))
    op.napply = 0
    cfg = GmresConfig(max_iters=300, restart=30, scheme=scheme, be_stride=stride)
    res = gmres_solve(op, b, cfg)
    assert res.backward_error_iters.tolist() == list(range(stride, 301, stride))
    assert op.napply == napply
