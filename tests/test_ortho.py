import numpy as np
import pytest

from kls.dense import householder_qr
from kls.errors import BreakdownError, DimensionError, NonFiniteError, UnknownSchemeError
from kls.ledger import SyncLedger, assert_matches
from kls.metrics import loss_of_orthogonality, representation_error_qr
from kls.ortho import (
    _STATES,
    SCHEME_IDS,
    Dcgs2State,
    _DelayedState,
    make_state,
    per_iteration_synchs,
    predicted_counts,
    qr_factorize,
)
from kls.problems import synthetic_kappa

#: the schemes whose push states hold a pending column until finalize
DELAYED_SCHEMES = tuple(s for s in SCHEME_IDS if issubclass(_STATES[s], _DelayedState))


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("scheme", list(SCHEME_IDS))
def test_identity_input_exact(scheme):
    q, r = qr_factorize(np.eye(3), scheme)
    assert np.allclose(q, np.eye(3), atol=1e-15)
    assert np.allclose(r, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("scheme", list(SCHEME_IDS))
def test_against_householder_oracle(scheme, rng):
    a = rng.standard_normal((100, 10))
    q, r = qr_factorize(a, scheme)
    rh = householder_qr(a)[1]
    assert np.max(np.abs(np.abs(r) - np.abs(rh))) <= 1e-10 * np.max(np.abs(rh))
    assert loss_of_orthogonality(q) <= 1e-13
    assert np.all(np.diag(r) >= 0)
    assert np.allclose(np.tril(r, -1), 0.0)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_duplicate_column_breaks_down(scheme, rng):
    # delayed schemes surface the dependence one push later, so the whole
    # remaining factorization sits inside the raises block
    a1 = rng.standard_normal(40)
    state = make_state(scheme, 40, 4)
    state.push(a1)
    with pytest.raises(BreakdownError):
        state.push(a1.copy())
        state.push(rng.standard_normal(40))
        state.finalize()


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_reduction_count_per_column(scheme, rng):
    m, n = 60, 8
    state = make_state(scheme, m, n)
    counts = []
    for j in range(n):
        before = state.ledger.reductions
        state.push(rng.standard_normal(m))
        counts.append(state.ledger.reductions - before)
    if scheme in DELAYED_SCHEMES:
        # first push only stashes; steady-state pushes cost the predicted 1
        assert counts[0] == 0
        assert counts[1:] == [per_iteration_synchs(scheme, j) for j in range(2, n + 1)]
    else:
        assert counts == [per_iteration_synchs(scheme, j) for j in range(1, n + 1)]


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_totals_match_prediction(scheme, rng):
    for n in (5, 17, 50, 100):
        a = rng.standard_normal((120, n))
        led = SyncLedger()
        qr_factorize(a, scheme, ledger=led)
        assert assert_matches(led, predicted_counts(scheme, n)).passed


@pytest.mark.parametrize("scheme", [s for s in SCHEME_IDS if s != "dcgs2-hrt"])
def test_representation_error_machine_level(scheme, rng):
    a = synthetic_kappa(120, 25, 1e8, seed=4)
    q, r = qr_factorize(a, scheme)
    assert representation_error_qr(a, q, r) <= 1e-13


def test_registry_agrees_with_cost_models():
    # every registered state declares its cost model, none the base's None
    for scheme in SCHEME_IDS:
        assert _STATES[scheme].flop_lead and per_iteration_synchs(scheme, 1) >= 1, scheme
    assert DELAYED_SCHEMES == ("icwy-mgs", "dcgs2", "dcgs2-hrt")


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_prediction_is_the_exact_qr_total(scheme, rng):
    # no interval: dcgs2 spends n + 1 (a free first push, a flush of two),
    # icwy-mgs and dcgs2-hrt n, and an empty panel nothing
    for n in (0, 1, 2, 7, 31):
        led = SyncLedger()
        qr_factorize(rng.standard_normal((40, n)), scheme, ledger=led)
        assert led.reductions == predicted_counts(scheme, n).total_synchs, n
    assert predicted_counts(scheme, 0).total_synchs == 0
    if scheme in DELAYED_SCHEMES:
        assert predicted_counts(scheme, 7).total_synchs == (8 if scheme == "dcgs2" else 7)


def test_unknown_scheme_rejected():
    with pytest.raises(UnknownSchemeError):
        make_state("qrx", 10, 2)


def test_householder_push_state_matches_lapack_reference(rng):
    # Walker's push state: the reference's R, LAPACK-level orthogonality,
    # and one dot per applied reflector plus one per tail norm: n(n+1)
    m, n = 300, 20
    a = rng.standard_normal((m, n))
    state = make_state("householder", m, n)
    for j in range(n):
        state.push(a[:, j])
    q, r = state.finalize()
    rh = householder_qr(a)[1]
    assert loss_of_orthogonality(q) <= 1e-14
    assert np.max(np.abs(r - rh)) <= 1e-12 * np.max(np.abs(rh))
    assert state.ledger.reductions == n * (n + 1) == 420
    assert state.ledger.kernel_counts["MvDot"] == 420
    assert state.ledger.kernel_counts["MvTimesMatAddMv"] == 400
    fresh = make_state("householder", m, n + 1)
    fresh.adopt(q)
    assert np.array_equal(fresh.q, q)
    with pytest.raises(DimensionError):  # the reflectors encode a whole basis only
        fresh.adopt(q[:, :1])


def test_householder_adopt_charges_identity_reflectors():
    # adopting re-encodes the basis as reflectors, charged per column a tail
    # norm, a fused product and an update, whether or not the reflector is
    # the identity: I (tau = 0), -I (tau = 2) and a random basis cost alike
    from kls.dense import random_orthogonal

    charges = set()
    for v in (np.eye(50)[:, :5], -np.eye(50)[:, :5], random_orthogonal(50, 5, 1)):
        state = make_state("householder", 50, 6)
        state.adopt(v)
        led = state.ledger
        charges.add((led.reductions, led.flops, tuple(sorted(led.kernel_counts.items()))))
        assert led.reductions == 10
    assert len(charges) == 1


@pytest.mark.parametrize("shape", [(50, 50), (3000, 30)], ids=["square", "tall"])
def test_householder_qr_is_its_push_state(shape, rng):
    # qr_factorize runs Walker's push state, bit for bit, for the n(n+1)
    # reductions of its cost model; a square panel's last reflector acts on
    # one entry and is charged even when it is the identity
    a = rng.standard_normal(shape)
    led = SyncLedger()
    q, r = qr_factorize(a, "householder", ledger=led)
    state = make_state("householder", *shape)
    for j in range(shape[1]):
        state.push(a[:, j])
    qs, rs = state.finalize()
    assert (_bits(q), _bits(r)) == (_bits(qs), _bits(rs))
    assert (led.reductions, led.flops) == (state.ledger.reductions, state.ledger.flops)
    n = shape[1]
    assert led.reductions == predicted_counts("householder", n).total_synchs == n * (n + 1)


def test_householder_dependent_column_keeps_its_coefficients(rng):
    a = rng.standard_normal((50, 2))
    state = make_state("householder", 50, 3)
    for j in range(2):
        state.push(a[:, j])
    coeffs = np.array([0.5, -2.0])
    with pytest.raises(BreakdownError) as info:
        state.push(a @ coeffs)
    assert info.value.kind == "dependent" and info.value.column == 2
    # R's column 2 holds the attempted coefficients R[:2, :2] x over a zero diagonal
    r = state._r
    assert np.allclose(r[:2, 2], r[:2, :2] @ coeffs, rtol=1e-13, atol=0.0)
    assert r[2, 2] == 0.0 and not np.any(state._q[:, 2])


def test_capacity_and_shape_errors(rng):
    state = make_state("cgs", 10, 1)
    state.push(rng.standard_normal(10))
    with pytest.raises(DimensionError):
        state.push(rng.standard_normal(10))
    with pytest.raises(DimensionError):
        make_state("cgs", 10, 2).push(rng.standard_normal(11))
    with pytest.raises(ValueError):
        make_state("cgs", 3, 2).push(np.array([1.0, np.nan, 0.0]))


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize(
    "scheme, shape",
    [pytest.param(s, (400, 40), id=s) for s in SCHEME_IDS]
    + [pytest.param(s, (10001, 40), id=f"{s}-tall") for s in SCHEME_IDS],
)
def test_qr_independent_of_input_layout(scheme, shape, rng):
    # A is copied into the basis before any arithmetic, so the input's
    # strides cannot change the rounding; the tall case spans several row
    # blocks of that copy and of the delayed pushes' sweep
    big = rng.standard_normal(shape)
    strided = big[:, ::2]
    runs = []
    for a in (np.ascontiguousarray(strided), np.asfortranarray(strided), strided):
        led = SyncLedger()
        q, r = qr_factorize(a, scheme, ledger=led)
        runs.append((_bits(q), _bits(r), led.reductions, led.flops, dict(led.kernel_counts)))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


# householder adopts into an empty state only (see
# test_householder_push_state_matches_lapack_reference)
@pytest.mark.parametrize("scheme", [s for s in SCHEME_IDS if s != "householder"])
def test_finalize_returns_append_only_views(scheme, rng):
    a = rng.standard_normal((50, 6))
    q, r = qr_factorize(a, scheme)
    assert q.flags.f_contiguous and not q.flags.owndata
    state = make_state(scheme, 50, 8)
    for j in range(4):
        state.push(a[:, j])
    q, r = state.finalize()
    assert q.flags.f_contiguous
    assert np.shares_memory(q, state._q) and np.shares_memory(r, state._r)
    q_bits, r_bits = _bits(q), _bits(r)
    state.adopt(np.eye(50)[:, :1])
    state.push(a[:, 5])
    q2, r2 = state.finalize()
    assert (_bits(q), _bits(r)) == (q_bits, r_bits)
    assert _bits(q2[:, :4]) == q_bits and _bits(r2[:4, :4]) == r_bits


@pytest.mark.parametrize("scheme", SCHEME_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_single_non_finite_entry_raises(scheme, bad, rng):
    a = rng.standard_normal((40, 5))
    a[17, 3] = bad
    with pytest.raises(NonFiniteError) as err:
        qr_factorize(a, scheme)
    assert err.value.scheme == scheme
    assert err.value.step == 3


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_overflowing_norm_is_a_breakdown(scheme, rng):
    # every entry is finite, so this is no NonFiniteError: the column's norm
    # overflows and the breakdown guard drops it as dependent
    a = rng.standard_normal((40, 5))
    a[:, 2] = 1e200
    with pytest.raises(BreakdownError) as err, np.errstate(over="ignore"):
        qr_factorize(a, scheme)
    assert err.value.kind == "dependent"
    assert err.value.column == 2


# ---------------------------------------------------------------------------
# scheme-specific behavior


def test_cgs2_correction_zero_on_orthogonal_input():
    state = make_state("cgs2", 3, 3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 2.0
        state.push(e)
    q, r = state.finalize()
    assert np.allclose(r, 2.0 * np.eye(3))


def test_cgs2_lagged_agrees_with_cgs2(rng):
    a = synthetic_kappa(90, 12, 1e3, seed=11)
    q1, r1 = qr_factorize(a, "cgs2")
    q2, r2 = qr_factorize(a, "cgs2-lagged")
    assert np.max(np.abs(q1 - q2)) <= 1e-12
    assert np.max(np.abs(r1 - r2)) <= 1e-12 * np.max(np.abs(r1))


def test_mgs_reduction_count_at_column_j(rng):
    state = make_state("mgs", 50, 6)
    for j in range(1, 7):
        before = state.ledger.reductions
        state.push(rng.standard_normal(50))
        assert state.ledger.reductions - before == j


def test_icwy_tracks_mgs_on_kappa_sweep():
    for kappa in (1e2, 1e5, 1e8, 1e11):
        a = synthetic_kappa(150, 30, kappa, seed=2)
        qm, _ = qr_factorize(a, "mgs")
        qi, _ = qr_factorize(a, "icwy-mgs")
        lm = loss_of_orthogonality(qm)
        li = loss_of_orthogonality(qi)
        assert li <= 10.0 * max(lm, 1e-15)


def test_dcgs2_hand_worked_step():
    # one finalized basis vector, pending column [3, 4, 1]
    state = Dcgs2State(3, 3)
    state.adopt(np.array([[0.0], [0.0], [1.0]]))
    w = np.array([3.0, 4.0, 1.0])
    state._q[:, 1] = w  # the column's home: _stash holds it in place
    state._stash(np.array([0.0]), float(np.linalg.norm(w)))
    state.push(np.array([1.0, 0.0, 0.0]))
    # beta = 26, c = 1, alpha = sqrt(25) = 5, q = (w - c*q0)/alpha
    assert state._r[1, 1] == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(state.q[:, 1], [0.6, 0.8, 0.0], atol=1e-15)


def test_dcgs2_orthogonal_input_matches_cgs(rng):
    from kls.dense import random_orthogonal

    a = 3.0 * random_orthogonal(40, 6, seed=3)
    q1, r1 = qr_factorize(a, "dcgs2")
    q2, r2 = qr_factorize(a, "cgs")
    assert np.max(np.abs(q1 - q2)) <= 1e-13
    assert np.max(np.abs(r1 - r2)) <= 1e-13 * np.max(np.abs(r1))


def test_dcgs2_agrees_with_cgs2_moderate_kappa():
    a = synthetic_kappa(100, 10, 1e4, seed=17)
    q1, r1 = qr_factorize(a, "cgs2")
    q2, r2 = qr_factorize(a, "dcgs2")
    assert np.max(np.abs(r1 - r2)) <= 1e-10 * np.max(np.abs(r1))
    assert np.max(np.abs(q1 - q2)) <= 1e-10


def test_dcgs2_single_column():
    state = make_state("dcgs2", 5, 1)
    v = np.arange(1.0, 6.0)
    state.push(v)
    q, r = state.finalize()
    assert np.allclose(q[:, 0], v / np.linalg.norm(v))
    assert r[0, 0] == pytest.approx(np.linalg.norm(v))


def test_dcgs2_total_reductions(rng):
    for n in (1, 2, 10, 30):
        a = rng.standard_normal((60, n))
        led = SyncLedger()
        qr_factorize(a, "dcgs2", ledger=led)
        assert n <= led.reductions <= n + 2


def test_dcgs2_final_qr_matches_householder(rng):
    a = rng.standard_normal((80, 12))
    q, r = qr_factorize(a, "dcgs2")
    rh = householder_qr(a)[1]
    assert np.max(np.abs(np.abs(r) - np.abs(rh))) <= 1e-10 * np.max(np.abs(rh))


def test_dcgs2_pending_invariant(rng):
    state = make_state("dcgs2", 20, 5)
    state.push(rng.standard_normal(20))
    assert state.npushed == 1 and state.ncols == 0 and state.pending is not None
    state.push(rng.standard_normal(20))
    assert state.npushed == 2 and state.ncols == 1 and state.pending is not None


def _dcgs2_fused_reductions(run):
    """Call ``run``, which returns the state it ran, with
    ``ortho.mv_trans_mv`` wrapped.  Returns that state and, per two-column
    (fused) reduction, its pending index j, its right operand, its result
    and the result on a row-major copy of the operand."""
    import kls.ortho

    inner, calls = kls.ortho.mv_trans_mv, []

    def recording(B, X, ledger=None):
        out = inner(B, X, ledger=ledger)
        if X.shape[1] == 2:
            calls.append((B.shape[1] - 1, X, out, inner(B, np.ascontiguousarray(X))))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kls.ortho, "mv_trans_mv", recording)
        state = run()
    return state, calls


@pytest.mark.parametrize("case", ["qr-blocked", "arnoldi-manteuffel"])
def test_dcgs2_fused_reduction_reads_the_basis_in_place(case, rng):
    # from j = 1 the fused right operand [w, a] is a view of the basis
    # storage, and it rounds exactly as a row-major copy of it would
    from kls.arnoldi import arnoldi
    from kls.kernels import _block_rows
    from kls.problems import CsrOperator, ManteuffelSpec, manteuffel_build

    if case == "qr-blocked":
        m, n = 24000, 12
        assert m > _block_rows(n, 2) and m > _block_rows(2, 2)  # row-blocked at every j
        a = rng.standard_normal((m, n))

        def run():
            state = make_state("dcgs2", m, n)
            for j in range(n):
                state.push(a[:, j])
            return state
    else:
        op = CsrOperator(manteuffel_build(ManteuffelSpec(k=10)))
        n = 40

        def run():
            exp = arnoldi(op, rng.standard_normal(op.n), "dcgs2", capacity=n + 1)
            for _ in range(n):
                exp.step()
            return exp.state

    state, calls = _dcgs2_fused_reductions(run)
    later = [call for call in calls if call[0] >= 1]
    assert len(later) >= n - 3
    for j, wa, out, row_major in later:
        assert np.shares_memory(wa, state._q), j
        assert np.array_equal(out, row_major), j


def _whole_column_sweep(V, j, K, alpha, d=1.0, ahead=False):
    """A delayed push's sweep on whole columns: the same one-product update,
    then the next push's fused reduction by ``mv_trans_mv`` itself."""
    from kls.kernels import mv_trans_mv

    if d != 1.0:
        V[:, j + 1] /= d
    V[:, j : j + 2] -= (K @ V[:, : j + 1].T).T
    V[:, j] /= alpha
    if ahead:
        return mv_trans_mv(V[:, : j + 2], V[:, j + 1 : j + 3])
    return None


@pytest.mark.parametrize(
    "case", [f"qr-{s}" for s in DELAYED_SCHEMES] + ["arnoldi-dcgs2", "gmres-dcgs2"]
)
def test_delayed_pass_matches_unblocked_updates(case, rng):
    # the row-blocked sweep of a delayed push gives the bits and the ledger
    # of its update on whole columns and, in QR, of mv_trans_mv for the
    # reduction it sums ahead, with block boundaries inside the columns: a
    # ragged QR panel, and Arnoldi images divided by d != 1
    import kls.ortho
    from kls.arnoldi import arnoldi
    from kls.gmres import GmresConfig, gmres_solve
    from kls.kernels import _block_rows
    from kls.problems import CsrOperator, ManteuffelSpec, manteuffel_build

    kind, scheme = case.split("-", 1)
    if kind == "qr":
        a = rng.standard_normal((30001, 12))
        m, top = a.shape[0], a.shape[1] - 1

        def run(led):
            return qr_factorize(a, scheme, ledger=led)
    else:
        op = CsrOperator(manteuffel_build(ManteuffelSpec(k=100)))
        v = rng.standard_normal(op.n)  # right-hand side, or start vector
        m, top = op.n, 30

        def run(led):
            if kind == "gmres":
                r = gmres_solve(op, v, GmresConfig(max_iters=60, restart=30, scheme=scheme),
                                ledger=led)
                return r.x, r.residual_history, r.backward_errors
            exp = arnoldi(op, v, scheme, capacity=41, ledger=led)
            for _ in range(40):
                exp.step()
            return exp.finalize()

    assert m > 2 * _block_rows(top + 2, 2) and m % 64  # three or more blocks, a ragged tail
    runs = []
    for sweep in (kls.ortho.mv_sweep, _whole_column_sweep):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kls.ortho, "mv_sweep", sweep)
            led = SyncLedger()
            out = run(led)
        runs.append(([_bits(x) for x in out], led.reductions, led.flops, led.kernel_counts))
    assert runs[0] == runs[1]


def _pushed_column_by_column(a, scheme, ledger):
    """The QR of a by pushes of its columns into a fresh state, which copy
    each column in and reduce at every push: no reduction is summed ahead."""
    state = make_state(scheme, *a.shape, ledger=ledger)
    for j in range(a.shape[1]):
        state.push(a[:, j])
    return state.finalize()


@pytest.mark.parametrize("shape", [(30001, 12), (20000, 40), (50, 50)], ids=str)
@pytest.mark.parametrize("scheme", DELAYED_SCHEMES)
def test_qr_factorize_look_ahead_matches_column_pushes(scheme, shape, rng):
    # qr_factorize loads A, so each delayed push's sweep also sums the next
    # push's fused reduction; that gives the bits and ledger of pushing the
    # columns one by one, on panels of several row blocks and on a square one
    from kls.kernels import _block_rows

    a = rng.standard_normal(shape)
    if shape[0] > shape[1]:
        assert shape[0] > 2 * _block_rows(shape[1] + 1, 2)
    led, led_ref = SyncLedger(), SyncLedger()
    q, r = qr_factorize(a, scheme, ledger=led)
    q_ref, r_ref = _pushed_column_by_column(a, scheme, led_ref)
    assert (_bits(q), _bits(r)) == (_bits(q_ref), _bits(r_ref))
    assert (led.reductions, led.flops, led.kernel_counts) == (
        led_ref.reductions, led_ref.flops, led_ref.kernel_counts
    )


@pytest.mark.parametrize("col", [2, 7])
@pytest.mark.parametrize("scheme", DELAYED_SCHEMES)
def test_non_finite_column_summed_ahead_raises_at_its_step(scheme, col, rng):
    # the sweep of push col - 1 sums column col into the held reduction, NaN
    # and all; the push of column col still raises at its own step, with the
    # ledger of a push of the columns one by one: no reduction for it
    a = rng.standard_normal((30001, 10))
    a[-5, col] = np.nan
    raised = []
    for run in (qr_factorize, _pushed_column_by_column):
        led = SyncLedger()
        with pytest.raises(NonFiniteError) as err:
            run(a, scheme, ledger=led)
        raised.append((err.value.scheme, err.value.step, led.reductions, led.flops,
                       led.kernel_counts))
    assert raised[0] == raised[1] and raised[0][:2] == (scheme, col)


@pytest.mark.parametrize("then", ["reset", "reset-adopt", "flush-adopt"])
@pytest.mark.parametrize("scheme", DELAYED_SCHEMES)
def test_reset_and_adopt_drop_the_reduction_summed_ahead(scheme, then, rng):
    # after pushes that sum ahead, reset, adopt and flush leave nothing that
    # changes the bits: what follows matches a state that never summed ahead
    m = 5000
    a, b = rng.standard_normal((m, 8)), rng.standard_normal((m, 4))
    v = np.linalg.qr(rng.standard_normal((m, 2)))[0]
    runs = []
    for load in (True, False):
        state = make_state(scheme, m, 10)  # loaded homes lie past every push
        if load:
            state._load(a)
        for j in range(3):
            state.push(a[:, j])
        assert (state._held is not None) == load  # the fourth push's reduction
        if then.startswith("reset"):
            state.reset()
        else:
            state.flush()
        if then.endswith("adopt"):
            state.adopt(v)
        before = state.ledger.reductions, state.ledger.flops
        for j in range(4):
            state.push(b[:, j])
        q, r = state.finalize()
        after = state.ledger.reductions, state.ledger.flops
        runs.append((_bits(q), _bits(r), after[0] - before[0], after[1] - before[1]))
    assert runs[0] == runs[1]


def test_pythagorean_alpha_matches_direct_norm(rng):
    # in the no-cancellation regime the lagged norm equals the direct norm
    a = synthetic_kappa(100, 20, 1e3, seed=23)
    state = make_state("cgs2-lagged", 100, 20)
    qref, rref = qr_factorize(a, "cgs2")
    for j in range(20):
        state.push(a[:, j])
    q, r = state.finalize()
    for j in range(20):
        u_norm = rref[j, j]
        if u_norm >= 1e-4 * np.linalg.norm(a[:, j]):
            assert r[j, j] == pytest.approx(u_norm, rel=1e-12)


# ---------------------------------------------------------------------------
# stability laws on the condition-number sweep


@pytest.fixture(scope="module")
def kappa_sweep():
    m, n = 200, 50
    kappas = [10.0 ** e for e in range(0, 15)]
    out = {}
    for scheme in ("cgs", "mgs", "cgs2", "dcgs2", "dcgs2-hrt"):
        loos, rres = [], []
        for kap in kappas:
            a = synthetic_kappa(m, n, kap, seed=1234)
            q, r = qr_factorize(a, scheme)
            loos.append(loss_of_orthogonality(q))
            rres.append(representation_error_qr(a, q, r))
        out[scheme] = (np.array(loos), np.array(rres))
    return np.array(kappas), out


def _fit_slope(kappas, loos, lo=1e-13, hi=1e-2):
    mask = (loos >= lo) & (loos <= hi) & (kappas > 1)
    assert mask.sum() >= 3
    return np.polyfit(np.log10(kappas[mask]), np.log10(loos[mask]), 1)[0]


def test_loo_ordering_pointwise(kappa_sweep):
    kappas, data = kappa_sweep
    eps_level = 100 * 50 * np.finfo(float).eps
    for i, kap in enumerate(kappas):
        cgs, mgs = data["cgs"][0][i], data["mgs"][0][i]
        cgs2, dcgs2 = data["cgs2"][0][i], data["dcgs2"][0][i]
        # factor-100 slack on the ordering chain
        assert 100.0 * cgs >= mgs
        assert 100.0 * mgs >= cgs2
        assert cgs2 <= eps_level
        assert dcgs2 <= eps_level


def test_loo_growth_slopes(kappa_sweep):
    kappas, data = kappa_sweep
    assert _fit_slope(kappas, data["cgs"][0]) == pytest.approx(2.0, abs=0.5)
    assert _fit_slope(kappas, data["mgs"][0]) == pytest.approx(1.0, abs=0.5)


def test_hrt_defect_and_dcgs2_health(kappa_sweep):
    kappas, data = kappa_sweep
    sel = (kappas >= 1e9) & (kappas <= 1e12)
    hrt_loo, hrt_rre = data["dcgs2-hrt"]
    assert np.all(hrt_loo[sel] > 1e-7)
    assert np.all(hrt_rre[sel] > 1e-7)
    assert np.all(data["dcgs2"][0][sel] <= 1e-7)
    assert np.all(data["dcgs2"][1][sel] <= 1e-7)


def test_hrt_tracks_cgs_basis():
    # the uncorrected delayed basis is single-pass classical Gram-Schmidt:
    # identical up to rounding at benign conditioning, and its loss of
    # orthogonality follows the CGS curve across the sweep
    a = synthetic_kappa(100, 15, 1e2, seed=31)
    qh, _ = qr_factorize(a, "dcgs2-hrt")
    qc, _ = qr_factorize(a, "cgs")
    assert np.max(np.abs(qh - qc)) <= 1e-12
    for kap in (1e4, 1e6, 1e8, 1e10):
        a = synthetic_kappa(100, 15, kap, seed=31)
        lh = loss_of_orthogonality(qr_factorize(a, "dcgs2-hrt")[0])
        lc = loss_of_orthogonality(qr_factorize(a, "cgs")[0])
        assert lh <= 100.0 * lc and lc <= 100.0 * lh


@pytest.mark.parametrize("scheme", [s for s in SCHEME_IDS if s != "dcgs2-hrt"])
def test_r_matches_oracle_at_kappa_1e6(scheme):
    a = synthetic_kappa(150, 25, 1e6, seed=41)
    _, r = qr_factorize(a, scheme)
    rh = householder_qr(a)[1]
    assert np.max(np.abs(np.abs(r) - np.abs(rh))) <= 1e-8 * np.max(np.abs(rh))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(deadline=None, max_examples=15)
@given(
    n=st.integers(min_value=1, max_value=20),
    extra=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
    scheme=st.sampled_from(SCHEME_IDS),
)
def test_scheme_property_well_conditioned(n, extra, seed, scheme):
    m = n + extra
    gen = np.random.Generator(np.random.PCG64(seed))
    a = gen.standard_normal((m, n))
    led = SyncLedger()
    q, r = qr_factorize(a, scheme, ledger=led)
    assert loss_of_orthogonality(q) <= 1e-12 * max(n, 1)
    assert representation_error_qr(a, q, r) <= 1e-13
    assert np.all(np.diag(r) >= 0)
    assert assert_matches(led, predicted_counts(scheme, n)).passed


@pytest.mark.parametrize("scheme", DELAYED_SCHEMES)
@settings(deadline=None, max_examples=12, derandomize=True)
@given(
    m=st.integers(min_value=5000, max_value=25000),
    n=st.integers(min_value=2, max_value=10),
    bad=st.sampled_from(["zero", "duplicate"]),
    k_raw=st.integers(min_value=0, max_value=9),
    i_raw=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_delayed_property_tall_with_dependent_column(scheme, m, n, bad, k_raw, i_raw, seed):
    # 1-3 row blocks of the delayed pass; column k is zero or a copy of an
    # earlier column i.  Either a breakdown names k and leaves an
    # orthonormal emitted basis, or the well-conditioned bounds hold
    gen = np.random.Generator(np.random.PCG64(seed))
    a = gen.standard_normal((m, n))
    if bad == "zero":
        k = k_raw % n
        a[:, k] = 0.0
    else:
        k = 1 + k_raw % (n - 1)
        a[:, k] = a[:, i_raw % k]
    led = SyncLedger()
    state = make_state(scheme, m, n, ledger=led)
    try:
        for j in range(n):
            state.push(a[:, j])
        q, r = state.finalize()
    except BreakdownError as err:
        assert (err.kind, err.column) == ("dependent", k)
        assert np.all(np.isfinite(state.q))
        assert loss_of_orthogonality(state.q) <= 1e-12
        return
    assert np.all(np.isfinite(q))
    assert loss_of_orthogonality(q) <= 1e-12 * n
    assert representation_error_qr(a, q, r) <= 1e-13
    assert np.all(np.diag(r) >= 0)
    assert assert_matches(led, predicted_counts(scheme, n)).passed
