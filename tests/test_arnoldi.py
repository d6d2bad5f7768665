import numpy as np
import pytest
import scipy.linalg

from kls.arnoldi import arnoldi, arnoldi_expand
from kls.errors import DimensionError, NonFiniteError
from kls.gmres import GmresConfig, gmres_solve
from kls.ledger import SyncLedger
from kls.metrics import loss_of_orthogonality, representation_error_arnoldi
from kls.ortho import SCHEME_IDS, qr_factorize
from kls.problems import (
    CsrOperator,
    DenseOperator,
    ManteuffelSpec,
    manteuffel_build,
)

STABLE_SET = ("cgs2", "dcgs2", "mgs", "icwy-mgs", "householder")


@pytest.fixture(scope="module")
def manteuffel10():
    return CsrOperator(manteuffel_build(ManteuffelSpec(k=10)))


@pytest.fixture(scope="module")
def start100():
    return np.random.Generator(np.random.PCG64(77)).standard_normal(100)


@pytest.mark.parametrize("scheme", STABLE_SET)
def test_rre_invariant_on_manteuffel(scheme, manteuffel10, start100):
    v, h = arnoldi_expand(manteuffel10, start100, scheme, steps=40)
    assert v.shape == (100, 41) and h.shape == (41, 40)
    assert representation_error_arnoldi(manteuffel10, v, h) <= 1e-12
    assert not np.any(np.tril(h, -2))
    assert np.all(np.diag(h, -1) >= 0)


@pytest.mark.parametrize("scheme", ("cgs2", "dcgs2", "householder"))
def test_loo_machine_level_for_reorthogonalized(scheme, manteuffel10, start100):
    v, _ = arnoldi_expand(manteuffel10, start100, scheme, steps=40)
    assert loss_of_orthogonality(v) <= 1e-13


def test_random_operator_rre(rng):
    op = DenseOperator(rng.standard_normal((50, 50)))
    v, h = arnoldi_expand(op, rng.standard_normal(50), "dcgs2", steps=10)
    assert representation_error_arnoldi(op, v, h) <= 1e-12
    v, h = arnoldi_expand(op, rng.standard_normal(50), "cgs2", steps=5)
    assert representation_error_arnoldi(op, v, h) <= 1e-13
    assert loss_of_orthogonality(v) <= 1e-14


def test_h_agreement_dcgs2_vs_cgs2(start100, manteuffel10):
    v1, h1 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=10)
    v2, h2 = arnoldi_expand(manteuffel10, start100, "dcgs2", steps=10)
    anorm = np.linalg.norm(manteuffel10.to_dense())
    assert np.max(np.abs(h1 - h2)) <= 1e-9 * anorm


def test_reduction_counts_per_step(manteuffel10, start100):
    # per-iteration synchronizations; the start normalization is setup
    per_step = {"cgs": 2, "cgs2": 3, "cgs2-lagged": 2, "mgs": None, "dcgs2": 1}
    for scheme, expect in per_step.items():
        led = SyncLedger()
        exp = arnoldi(manteuffel10, start100, scheme, capacity=12, ledger=led)
        for step in range(1, 9):
            before = led.reductions
            exp.step()
            got = led.reductions - before
            if expect is not None:
                assert got == expect, scheme
            else:  # mgs projects against the full basis incl. the start vector
                assert got == step + 1


def test_delayed_totals_steps_plus_two(manteuffel10, start100):
    for steps in (1, 5, 25):
        led = SyncLedger()
        manteuffel10.napply = 0
        v, h = arnoldi_expand(manteuffel10, start100, "dcgs2", steps=steps, ledger=led)
        assert led.reductions <= steps + 2
        assert v.shape[1] == steps + 1
        # one operator application per step
        assert manteuffel10.napply == steps


def test_icwy_totals_steps_plus_one(manteuffel10, start100):
    led = SyncLedger()
    arnoldi_expand(manteuffel10, start100, "icwy-mgs", steps=20, ledger=led)
    assert led.reductions == 21


def test_householder_totals_walker(manteuffel10, start100):
    # step j applies j reflectors, makes one, and forms its basis column
    # from j + 1; with the start's 2, s steps record (s + 1)(s + 2)
    for steps in (1, 5, 40):
        led = SyncLedger()
        arnoldi_expand(manteuffel10, start100, "householder", steps=steps, ledger=led)
        assert led.reductions == (steps + 1) * (steps + 2)


def test_identity_operator_happy_breakdown():
    op = DenseOperator(np.eye(7))
    for scheme in SCHEME_IDS:
        exp = arnoldi(op, np.ones(7), scheme, capacity=8)
        while exp.step():
            pass
        v, h = exp.finalize()
        assert exp.happy
        assert v.shape == (7, 1) and h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_eigenvector_start_immediate_breakdown():
    op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
    exp = arnoldi(op, np.array([1.0, 0.0, 0.0]), "cgs2", capacity=4)
    assert exp.step() is False
    v, h = exp.finalize()
    assert exp.happy
    assert h.shape == (1, 1) and h[0, 0] == pytest.approx(1.0)
    assert np.allclose(v[:, 0], [1.0, 0.0, 0.0])


def test_exhausted_space_is_a_happy_breakdown_for_dcgs2():
    # in R^2 the third column's lagged beta is noise that clears the guard,
    # while alpha^2 = beta - c.c is below its rounding: the guard on alpha
    # stops the expansion at order 2, as cgs2 stops, instead of emitting a
    # third basis column
    rng = np.random.default_rng(302)
    op, start = DenseOperator(rng.standard_normal((2, 2))), rng.standard_normal(2)
    exp = arnoldi(op, start, "dcgs2", capacity=5)
    while exp.step():
        pass
    v, _ = exp.finalize()
    assert exp.happy and exp.order == 2 and v.shape == (2, 2)
    assert loss_of_orthogonality(v) <= 1e-14
    for scheme in ("cgs2", "dcgs2"):
        res = gmres_solve(op, start, GmresConfig(max_iters=10, scheme=scheme))
        assert (res.iterations, res.breakdown) == (2, True), scheme


@pytest.mark.parametrize("d", (2, 3, 4, 6))
@pytest.mark.parametrize("scheme", ("cgs2", "cgs2-lagged", "dcgs2", "householder"))
def test_invariant_subspace_stops_at_its_dimension(scheme, d):
    # the start lies in the leading d-by-d block, so the Krylov space is
    # invariant at dimension d: a reorthogonalizing scheme stops there with
    # a d-by-d Hbar (the single-pass schemes may miss the step)
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed))
        blocks = rng.standard_normal((d, d)), rng.standard_normal((30 - d, 30 - d))
        a = scipy.linalg.block_diag(*blocks)
        start = np.r_[rng.standard_normal(d), np.zeros(30 - d)]
        exp = arnoldi(DenseOperator(a), start, scheme, capacity=30)
        while exp.order < 29 and exp.step():
            pass
        _, h = exp.finalize()
        assert exp.happy and exp.order == d and h.shape == (d, d), (seed, exp.order)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_hbar_is_a_view_of_the_push_state_r(scheme, manteuffel10, start100):
    exp = arnoldi(manteuffel10, start100, scheme, capacity=12)
    for _ in range(8):
        exp.step()
    _, h = exp.finalize()
    k = h.shape[1]
    assert np.shares_memory(h, exp.state._r)
    assert np.array_equal(h, exp.state.r[: k + 1, 1 : k + 1])


class _NanAt(DenseOperator):
    """Dense operator with one non-finite image entry at one application."""

    def __init__(self, a, at, value=np.nan):
        super().__init__(a)
        self.at = at
        self.value = value

    def _matvec(self, x):
        y = super()._matvec(x)
        if self.napply == self.at:
            y[1] = self.value
        return y


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_non_finite_image_raises_typed_error(scheme, rng):
    # the delayed schemes consume the image of apply 4 at step 4, as the
    # immediate ones do, so every scheme names the same step
    op = _NanAt(rng.standard_normal((30, 30)), at=4)
    with pytest.raises(NonFiniteError) as err:
        arnoldi_expand(op, rng.standard_normal(30), scheme, steps=10)
    assert err.value.scheme == scheme
    assert err.value.step == 4


@pytest.mark.parametrize("scheme", SCHEME_IDS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_image_raises_typed_error(scheme, bad, rng):
    op = _NanAt(rng.standard_normal((30, 30)), at=4, value=bad)
    with pytest.raises(NonFiniteError) as err:
        arnoldi_expand(op, rng.standard_normal(30), scheme, steps=10)
    assert err.value.scheme == scheme
    assert err.value.step == 4


@pytest.mark.parametrize("scheme", SCHEME_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_raises_typed_error(scheme, bad):
    start = np.ones(5)
    start[2] = bad
    with pytest.raises(NonFiniteError) as err:
        arnoldi(DenseOperator(np.eye(5)), start, scheme, capacity=3)
    assert err.value.scheme == scheme
    assert err.value.step == 0


def test_zero_start_rejected():
    with pytest.raises(ValueError):
        arnoldi(DenseOperator(np.eye(3)), np.zeros(3), "cgs2", capacity=3)


@pytest.mark.parametrize("capacity", (-1, 0, 1))
def test_capacity_checked_before_the_storage(capacity, manteuffel10):
    with pytest.raises(DimensionError, match="capacity of at least 2"):
        arnoldi(manteuffel10, None, "dcgs2", capacity=capacity)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_step_before_restart_raises(scheme, manteuffel10):
    # an empty expansion has no column to apply the operator to
    exp = arnoldi(manteuffel10, None, scheme, capacity=5)
    napply = manteuffel10.napply
    with pytest.raises(DimensionError, match="empty expansion"):
        exp.step()
    assert manteuffel10.napply == napply and exp.size == 0


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_one_apply_per_hessenberg_column(scheme, manteuffel10, start100):
    # an n-step expansion makes n applies and finalize none; so does each
    # step after a restart from Hbar; GMRES(30) over 300 iterations adds one
    # restart residual per cycle
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=10)
    exp = arnoldi(manteuffel10, None, scheme, capacity=26)
    for start, hbar in ((start100, None), (v0, h0)):
        exp.restart(start, hbar)
        order = exp.order
        napply = manteuffel10.napply
        while exp.order < 25:
            assert exp.step()
            assert manteuffel10.napply - napply == exp.order - order
        exp.finalize()
        assert manteuffel10.napply - napply == 25 - order
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=200)))
    b = op.apply(np.random.Generator(np.random.PCG64(1)).standard_normal(op.n))
    op.napply = 0
    res = gmres_solve(op, b, GmresConfig(max_iters=300, restart=30, scheme=scheme))
    assert res.iterations == 300 and op.napply == 310


def test_capacity_guard(manteuffel10, start100):
    exp = arnoldi(manteuffel10, start100, "cgs2", capacity=3)
    exp.step()
    exp.step()
    with pytest.raises(DimensionError):
        exp.step()


@pytest.mark.parametrize("scheme", ("cgs2", "mgs", "icwy-mgs", "dcgs2", "householder"))
def test_resume_keeps_expansion_valid(scheme, manteuffel10, start100):
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=10)
    exp = arnoldi(manteuffel10, None, scheme, capacity=30)
    exp.restart(v0, h0)
    while exp.order < 25:
        exp.step()
    v, h = exp.finalize()
    assert v.shape == (100, 26) and h.shape == (26, 25)
    assert representation_error_arnoldi(manteuffel10, v, h) <= 1e-12
    assert np.allclose(h[:11, :10], h0, atol=1e-14)


def test_resume_with_generalized_coupling_row(manteuffel10, start100):
    # dense bottom rows (thick-restart form) must expand just as cleanly
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=8)
    hbar = h0.copy()
    hbar[8, :] = 0.3 * np.arange(1.0, 9.0)  # synthetic coupling row
    dense = manteuffel10.to_dense()
    # build a consistent decomposition: A V8' = V9' Hbar with modified last row
    # is not exact, so instead verify only the newly appended columns satisfy
    # the relation residual restricted to new columns
    for scheme in ("cgs2", "dcgs2"):
        exp = arnoldi(manteuffel10, None, scheme, capacity=20)
        exp.restart(v0, hbar)
        while exp.order < 14:
            exp.step()
        v, h = exp.finalize()
        new = slice(8, 14)
        resid = dense @ v[:, new] - v @ h[:, new]
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(dense)


def test_resume_orthogonality_icwy_gram_seed(manteuffel10, start100):
    led = SyncLedger()
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=10)
    exp = arnoldi(manteuffel10, None, "icwy-mgs", capacity=30, ledger=led)
    exp.restart(v0, h0)
    seeded = led.reductions  # one fused Gram reduction seeds L
    assert seeded == 1
    while exp.order < 20:
        exp.step()
    v, h = exp.finalize()
    assert loss_of_orthogonality(v) <= 1e-11


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_start_of_wrong_length_rejected(manteuffel10, start100, scheme):
    # a short start must not broadcast into the basis, for a vector or a block
    with pytest.raises(DimensionError, match="100 rows"):
        arnoldi(manteuffel10, np.ones(1), scheme, 5)
    exp = arnoldi(manteuffel10, None, scheme, capacity=10)
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=3)
    with pytest.raises(DimensionError, match="100 rows"):
        exp.restart(v0[:50], h0)
    with pytest.raises(DimensionError, match="100 rows"):
        exp.restart(start100[:, None])


def test_restart_rejects_mismatched_hbar(manteuffel10, start100):
    v0, h0 = arnoldi_expand(manteuffel10, start100, "cgs2", steps=6)
    exp = arnoldi(manteuffel10, None, "cgs2", capacity=10)
    with pytest.raises(DimensionError):
        exp.restart(v0, h0[:-1])


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_restart_after_happy_breakdown_matches_fresh_expansion(scheme):
    # a restart must leave nothing of the last cycle: one expansion run to
    # its happy breakdown, restarted from a decomposition with a dense
    # coupling row (R entries below the diagonal), then from a new vector and
    # back to a breakdown, gives in each cycle the bits of a fresh expansion
    # begun the same way, and the cycle's ledger delta is the fresh ledger
    rng = np.random.Generator(np.random.PCG64(3))
    a = scipy.linalg.block_diag(rng.standard_normal((4, 4)), rng.standard_normal((26, 26)))
    op = DenseOperator(a)
    v0, h0 = arnoldi_expand(op, rng.standard_normal(30), "cgs2", steps=2)
    h0[2] = [0.3, 0.6]
    cycles = [(np.r_[rng.standard_normal(4), np.zeros(26)], None), (v0, h0),
              (rng.standard_normal(30), None), (np.r_[rng.standard_normal(4), np.zeros(26)], None)]
    exp = arnoldi(op, None, scheme, capacity=12)
    def totals(led):
        return led.reductions, led.flops, dict(led.kernel_counts)

    for i, (start, hbar) in enumerate(cycles):
        fresh = arnoldi(op, None, scheme, capacity=12)
        runs = []
        for e in (exp, fresh):
            reductions, flops, counts = totals(e.ledger)
            e.restart(start, hbar)
            while e.order < 10 and e.step():
                pass
            v, h = e.finalize()
            runs.append((e.happy, v.shape, h.shape, v.tobytes("F"), h.tobytes("F"),
                         e.ledger.reductions - reductions, e.ledger.flops - flops,
                         {k: n - counts[k] for k, n in e.ledger.kernel_counts.items()}))
        assert runs[0] == runs[1], i
        assert runs[0][0] == (i in (0, 3))


def test_arnoldi_flop_overhead_is_quadratic(manteuffel10, start100):
    # the Hessenberg correction costs an extra Theta(j^2) per delayed step
    n = 40
    led_a = SyncLedger()
    arnoldi_expand(manteuffel10, start100, "dcgs2", steps=n, ledger=led_a)
    led_q = SyncLedger()
    a = np.column_stack([start100] + [
        np.random.Generator(np.random.PCG64(j)).standard_normal(100)
        for j in range(n - 1)
    ])
    qr_factorize(a, "dcgs2", ledger=led_q)
    diff = led_a.flops - led_q.flops
    cubic = sum(2 * (j + 1) * j for j in range(1, n + 1))
    # matvec-free extras: H C correction (quadratic per step) plus the m-flop
    # rescale per step; everything else matches the QR kernel pattern
    assert 0.5 * cubic <= diff <= 2.0 * cubic + 4 * n * 100


def test_hrt_representation_defect_grows(manteuffel10, start100):
    v, h = arnoldi_expand(manteuffel10, start100, "dcgs2-hrt", steps=60)
    v2, h2 = arnoldi_expand(manteuffel10, start100, "dcgs2", steps=60)
    assert representation_error_arnoldi(manteuffel10, v, h) > 10 * representation_error_arnoldi(manteuffel10, v2, h2)


def test_manteuffel50_long_run_curves():
    op = CsrOperator(manteuffel_build(ManteuffelSpec(k=50)))
    start = np.random.Generator(np.random.PCG64(5)).standard_normal(op.n)
    loo = {}
    rre = {}
    for scheme in ("cgs", "mgs", "cgs2", "dcgs2", "dcgs2-hrt"):
        v, h = arnoldi_expand(op, start, scheme, steps=300)
        loo[scheme] = loss_of_orthogonality(v)
        rre[scheme] = representation_error_arnoldi(op, v, h)
    assert loo["cgs2"] <= 1e-12 and loo["dcgs2"] <= 1e-12
    assert rre["cgs2"] <= 1e-13 and rre["dcgs2"] <= 1e-13
    assert loo["dcgs2-hrt"] > 1e-8  # tracks the unstable classical curve
    assert loo["cgs"] > 1e-8
    assert loo["cgs2"] <= loo["mgs"] <= 100 * loo["cgs"]


def test_finalize_without_steps_single_column(manteuffel10, start100):
    for scheme in ("dcgs2", "icwy-mgs", "cgs2"):
        exp = arnoldi(manteuffel10, start100, scheme, capacity=4)
        v, h = exp.finalize()
        assert v.shape == (100, 1) and h.shape == (1, 0)
        assert np.linalg.norm(v[:, 0]) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_finalize_returns_append_only_views(scheme, manteuffel10, start100):
    exp = arnoldi(manteuffel10, start100, scheme, capacity=12)
    for _ in range(5):
        exp.step()
    v, h = exp.finalize()
    assert v.flags.f_contiguous and np.shares_memory(v, exp._v)
    v_bits, h_bits = v.tobytes("F"), h.tobytes("F")
    for _ in range(4):
        exp.step()
    v2, h2 = exp.finalize()
    assert (v.tobytes("F"), h.tobytes("F")) == (v_bits, h_bits)
    assert v2[:, : v.shape[1]].tobytes("F") == v_bits
    assert h2[: h.shape[0], : h.shape[1]].tobytes("F") == h_bits


def test_mid_run_extended_views(manteuffel10, start100):
    exp = arnoldi(manteuffel10, start100, "dcgs2", capacity=10)
    for _ in range(6):
        exp.step()
    q = exp.basis_extended
    h = exp.h_extended
    assert q.shape[1] == h.shape[0] == h.shape[1] + 1
    assert representation_error_arnoldi(manteuffel10, q, h) <= 1e-13
