import numpy as np
import pytest

from kls.arnoldi import arnoldi_expand
from kls.eig import KrylovSchurConfig, krylov_schur_run
from kls.errors import UnknownSchemeError
from kls.ledger import MV_DOT, MV_TIMES_MAT_ADD_MV, MV_TRANS_MV, SyncLedger, assert_matches
from kls.ortho import SCHEME_IDS, per_iteration_synchs, predicted_counts, qr_factorize
from kls.problems import CsrOperator, ManteuffelSpec, manteuffel_build


def test_record_reductions_by_class():
    led = SyncLedger()
    led.record(MV_DOT, flops=10)
    assert led.reductions == 1
    led.record(MV_TIMES_MAT_ADD_MV, flops=5)
    assert led.reductions == 1  # no reduction for the update kernel
    led.record(MV_TRANS_MV, flops=20)
    assert led.reductions == 2
    assert led.flops == 35
    assert led.kernel_counts == {MV_TRANS_MV: 1, MV_TIMES_MAT_ADD_MV: 1, MV_DOT: 1}


def test_reductions_equal_reducing_kernel_counts():
    led = SyncLedger()
    for _ in range(7):
        led.record(MV_TRANS_MV)
    for _ in range(4):
        led.record(MV_DOT)
    for _ in range(9):
        led.record(MV_TIMES_MAT_ADD_MV)
    assert led.reductions == led.kernel_counts[MV_TRANS_MV] + led.kernel_counts[MV_DOT]


def test_local_flops():
    led = SyncLedger()
    led.record(MV_DOT, flops=4)
    led.add_flops(25)
    assert led.flops == 29
    assert led.reductions == 1


def test_unknown_kernel_class_rejected():
    with pytest.raises(ValueError):
        SyncLedger().record("Gemm")


@pytest.mark.parametrize(
    "scheme,n,total",
    [
        ("cgs2", 50, 150),  # three reductions per column
        ("dcgs2", 50, 51),  # one per column; the first push is free, the flush pays two
        ("cgs", 50, 100),
        ("cgs2-lagged", 50, 100),
        ("icwy-mgs", 50, 50),
        ("mgs", 50, 1275),  # sum over columns of j
        ("mgs", 20, 210),
        ("dcgs2-hrt", 50, 50),
    ],
)
def test_predicted_totals(scheme, n, total):
    pred = predicted_counts(scheme, n)
    assert pred.total_synchs == total


def test_per_iteration_formulas():
    assert per_iteration_synchs("cgs2", 7) == 3
    assert per_iteration_synchs("cgs2-lagged", 7) == 2
    assert per_iteration_synchs("mgs", 7) == 7
    assert per_iteration_synchs("dcgs2", 7) == 1
    assert per_iteration_synchs("icwy-mgs", 7) == 1


def test_unknown_scheme():
    with pytest.raises(UnknownSchemeError):
        predicted_counts("gram", 10)


def _ledger_of(reductions):
    led = SyncLedger()
    for _ in range(reductions):
        led.record(MV_DOT)
    return led


def test_assert_matches_exact():
    # a match is equality: dcgs2 spends exactly n + 1, cgs2 exactly 3n
    for scheme, reductions, delta in (("dcgs2", 51, 0), ("dcgs2", 50, -1), ("dcgs2", 52, 1),
                                      ("cgs2", 150, 0), ("cgs2", 151, 1)):
        rep = assert_matches(_ledger_of(reductions), predicted_counts(scheme, 50))
        assert (rep.passed, rep.delta) == (delta == 0, delta), (scheme, reductions)


def test_assert_matches_below_prediction_fails():
    led = SyncLedger()
    for _ in range(49):
        led.record(MV_DOT)
    assert not assert_matches(led, predicted_counts("dcgs2", 50)).passed


def test_flop_lead_coefficients_at_scale():
    # measured lead coefficients of (m/p) n^2 within 10% at n=100, m=1e5
    import numpy as np

    from kls.ortho import qr_factorize

    m, n = 100_000, 100
    rng = np.random.Generator(np.random.PCG64(8))
    a = rng.standard_normal((m, n))
    for scheme in ("cgs", "cgs2", "cgs2-lagged", "mgs", "icwy-mgs", "dcgs2", "dcgs2-hrt",
                   "householder"):
        led = SyncLedger()
        qr_factorize(a, scheme, ledger=led)
        lead = led.flops / (m * n * n)
        expect = predicted_counts(scheme, n).flop_lead
        assert abs(lead - expect) <= 0.1 * expect, (scheme, lead, expect)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_no_norm_outside_the_ledger_but_the_start(scheme, monkeypatch):
    # a length-m np.linalg.norm is a global reduction the ledger does not
    # see: QR takes none, an expansion one (its start vector's, in
    # ``restart``), and a Krylov-Schur thick restart adopts its start
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=20)))
    m = op.shape[0]
    gen = np.random.Generator(np.random.PCG64(3))
    norm, calls = np.linalg.norm, []

    def spy(x, *args, **kwargs):
        calls.append(np.ndim(x) == 1 and np.shape(x)[0] == m)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    runs = (
        lambda: qr_factorize(gen.standard_normal((m, 20)), scheme),
        lambda: arnoldi_expand(op, gen.standard_normal(m), scheme, 20),
        lambda: krylov_schur_run(op, KrylovSchurConfig(20, max_restarts=3, scheme=scheme), seed=3),
    )
    counts = []
    for run in runs:
        calls.clear()
        run()
        counts.append(sum(calls))
    assert counts == [0, 1, 1]
