import pytest

from kls.errors import UnknownSchemeError
from kls.ledger import (
    MV_DOT,
    MV_TIMES_MAT_ADD_MV,
    MV_TRANS_MV,
    SyncLedger,
    assert_matches,
    per_iteration_synchs,
    predicted_counts,
)


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
        ("dcgs2", 50, 50),  # one reduction per column, steady state
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


def test_assert_matches_exact_and_slack():
    led = SyncLedger()
    for _ in range(150):
        led.record(MV_DOT)
    assert assert_matches(led, predicted_counts("cgs2", 50)).passed

    led = SyncLedger()
    for _ in range(52):  # delayed finalization costs up to two extra
        led.record(MV_DOT)
    rep = assert_matches(led, predicted_counts("dcgs2", 50))
    assert rep.passed and rep.delta == 2

    led = SyncLedger()
    for _ in range(151):  # cgs2 has no slack
        led.record(MV_DOT)
    rep = assert_matches(led, predicted_counts("cgs2", 50))
    assert not rep.passed and rep.delta == 1


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
