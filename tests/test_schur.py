import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kls.dense import random_orthogonal
from kls.errors import DimensionError, NonFiniteError
from kls.schur import (
    SchurForm,
    hessenberg_real_schur,
    hessenberg_reduce,
    move_blocks_front,
    schur_eigenvectors,
)

EPS = np.finfo(np.float64).eps


def random_hessenberg(n, gen):
    return np.triu(gen.standard_normal((n, n)), -1)


def check_form(h, form, tol_orth=1e-12, tol_sim=1e-12):
    n = h.shape[0]
    t, z = form.t, form.z
    assert np.linalg.norm(z.T @ z - np.eye(n)) <= tol_orth * max(n, 1)
    assert np.linalg.norm(h - z @ t @ z.T) <= tol_sim * max(np.linalg.norm(h), 1.0)
    assert not np.any(np.tril(t, -2))
    for start, size in form.blocks():
        if size == 2:
            a, b = t[start, start], t[start, start + 1]
            c, d = t[start + 1, start], t[start + 1, start + 1]
            disc = 0.25 * (a - d) ** 2 + b * c
            assert disc < 0.0  # 2x2 blocks hold complex pairs only


def test_diagonal_input_is_fixed_point():
    h = np.diag([3.0, -1.0, 2.0])
    form = hessenberg_real_schur(h)
    assert np.array_equal(form.t, h)
    assert np.array_equal(form.z, np.eye(3))


def test_rotation_block_complex_pair():
    h = np.array([[0.0, 1.0], [-1.0, 0.0]])
    form = hessenberg_real_schur(h)
    assert form.blocks() == [(0, 2)]
    ev = np.sort_complex(form.eigenvalues())
    assert np.allclose(ev, [-1j, 1j])


def charpoly_companion_roots(h, dps=50):
    """High-precision oracle: Faddeev-LeVerrier characteristic polynomial,
    then its roots (companion-matrix polynomial solve) in mpmath."""
    n = h.shape[0]
    with mpmath.workdps(dps):
        a = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in h])
        m = mpmath.eye(n)
        coeffs = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n  # x^n ... x^0
        for k in range(1, n + 1):
            am = a * m
            ck = -mpmath.fsum(am[i, i] for i in range(n)) / k
            coeffs[k] = ck
            m = am + ck * mpmath.eye(n)
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        return np.array([complex(r) for r in roots])


def test_eigenvalues_match_charpoly_oracle(rng):
    h = random_hessenberg(30, rng)
    form = hessenberg_real_schur(h)
    mine = form.eigenvalues()
    oracle = charpoly_companion_roots(h)
    scale = np.max(np.abs(oracle))
    used = np.zeros(len(mine), dtype=bool)
    for root in oracle:
        dist = np.abs(mine - root)
        dist[used] = np.inf
        i = int(np.argmin(dist))
        assert dist[i] <= 1e-10 * scale
        used[i] = True


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40, 100])
def test_random_hessenberg_invariants(n, rng):
    for _ in range(3):
        h = random_hessenberg(n, rng)
        form = hessenberg_real_schur(h)
        check_form(h, form)
        mine = np.sort_complex(form.eigenvalues())
        ref = np.sort_complex(np.linalg.eigvals(h))
        assert np.max(np.abs(mine - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_matches_scipy_schur_eigenvalues(rng):
    h = random_hessenberg(25, rng)
    form = hessenberg_real_schur(h)
    t_ref = scipy.linalg.schur(h, output="real")[0]
    mine = np.sort_complex(form.eigenvalues())
    ref = np.sort_complex(scipy.linalg.eigvals(t_ref))
    assert np.max(np.abs(mine - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_non_hessenberg_rejected(rng):
    with pytest.raises(DimensionError):
        hessenberg_real_schur(rng.standard_normal((5, 5)))


def test_sorted_by_magnitude(rng):
    # selection sort by repeated stable moves: the k largest blocks lead,
    # the k-1 already sorted ones keep their order, the k-th follows them
    h = random_hessenberg(20, rng)
    form = hessenberg_real_schur(h)
    before = form.eigenvalues()
    nblocks = len(form.blocks())
    for k in range(1, nblocks + 1):
        mags = [abs(form.eigenvalues()[start]) for start, _ in form.blocks()]
        top = np.argsort(mags)[::-1][:k]
        want = sum(form.blocks()[b][1] for b in top)
        assert move_blocks_front(form, [b in top for b in range(nblocks)]) == want
    check_form(h, form)
    after = form.eigenvalues()
    assert np.allclose(np.sort_complex(after), np.sort_complex(before), atol=1e-10)
    block_mags = [abs(after[start]) for start, _ in form.blocks()]
    assert all(
        block_mags[i] >= block_mags[i + 1] - 1e-9 for i in range(len(block_mags) - 1)
    )


def test_swap_adjacent_1x1(rng):
    h = random_hessenberg(6, rng)
    form = hessenberg_real_schur(h)
    before = form.eigenvalues()
    blocks = form.blocks()
    b = next(
        i for i in range(len(blocks) - 1) if blocks[i][1] == blocks[i + 1][1] == 1
    )
    start = blocks[b][0]
    sel = [i < b or i == b + 1 for i in range(len(blocks))]
    assert move_blocks_front(form, sel) == start + 1
    check_form(h, form)
    after = form.eigenvalues()
    assert np.allclose(np.sort_complex(after), np.sort_complex(before), atol=1e-10)
    assert np.allclose(after[:start], before[:start], atol=1e-10)
    assert after[start] == pytest.approx(before[start + 1], abs=1e-10)
    assert after[start + 1] == pytest.approx(before[start], abs=1e-10)


def test_move_blocks_front(rng):
    h = random_hessenberg(12, rng)
    form = hessenberg_real_schur(h)
    blocks = form.blocks()
    sel = [i % 2 == 1 for i in range(len(blocks))]
    want = [form.eigenvalues()[blocks[i][0]] for i in range(len(blocks)) if sel[i]]
    moved = move_blocks_front(form, sel)
    check_form(h, form)
    assert moved == sum(blocks[i][1] for i in range(len(blocks)) if sel[i])
    got = [form.eigenvalues()[b[0]] for b in form.blocks()[: sum(sel)]]
    for w, g in zip(sorted(want, key=lambda z: (z.real, z.imag)),
                    sorted(got, key=lambda z: (z.real, z.imag))):
        assert abs(w - g) <= 1e-9 * max(1.0, abs(w))


def test_eigenvectors_residual(rng):
    h = random_hessenberg(35, rng)
    form = hessenberg_real_schur(h)
    vals, vecs = schur_eigenvectors(form)
    for i in range(len(vals)):
        r = np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i])
        assert r <= 1e-10 * max(1.0, abs(vals[i]))
        assert np.linalg.norm(vecs[:, i]) == pytest.approx(1.0, rel=1e-12)


def test_hessenberg_reduce(rng):
    a = rng.standard_normal((30, 30))
    h, u = hessenberg_reduce(a)
    assert np.linalg.norm(u.T @ u - np.eye(30)) <= 1e-13 * 30
    assert np.linalg.norm(a - u @ h @ u.T) <= 1e-13 * np.linalg.norm(a)
    assert not np.any(np.tril(h, -2))


def test_full_pipeline_on_dense(rng):
    a = rng.standard_normal((40, 40))
    h, u = hessenberg_reduce(a)
    form = hessenberg_real_schur(h)
    z = u @ form.z
    assert np.linalg.norm(a - z @ form.t @ z.T) <= 1e-12 * np.linalg.norm(a)
    mine = np.sort_complex(form.eigenvalues())
    ref = np.sort_complex(np.linalg.eigvals(a))
    assert np.max(np.abs(mine - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_clustered_spectrum_converges(rng):
    # repeated eigenvalues with tiny coupling stall a trace/determinant
    # shift formulation; the scaled difference form must converge
    for n in (3, 7, 20):
        d = np.resize(np.repeat(rng.standard_normal(n // 3 + 1), 3), n)
        a = np.diag(d) + 1e-10 * rng.standard_normal((n, n))
        h, u = hessenberg_reduce(a)
        form = hessenberg_real_schur(h)
        check_form(h, form, tol_orth=1e-12, tol_sim=1e-12)
        ev1 = np.sort(form.eigenvalues().real)
        ev2 = np.sort(np.linalg.eigvals(a).real)
        assert np.max(np.abs(ev1 - ev2)) <= 1e-8


def test_failed_swap_leaves_valid_form():
    # equal eigenvalues +-i in two differently shaped blocks with a tiny
    # coupling: LAPACK refuses the swap as inaccurate
    t = np.zeros((4, 4))
    t[:2, :2] = [[0.0, 1e3], [-1e-3, 0.0]]
    t[2:, 2:] = [[0.0, 1.0], [-1.0, 0.0]]
    t[0, 2] = 1e-7
    form = SchurForm(t.copy(), np.eye(4))
    assert move_blocks_front(form, [False, True]) == 0
    check_form(t, form)
    assert np.allclose(form.eigenvalues(), [1j, -1j, 1j, -1j])


def test_non_finite_input_raises():
    h = np.triu(np.ones((5, 5)), -1)
    h[1, 3] = np.nan
    with pytest.raises(NonFiniteError):
        hessenberg_real_schur(h)
    with pytest.raises(NonFiniteError):
        hessenberg_reduce(h)


@st.composite
def hessenberg_cases(draw):
    """Upper Hessenberg matrices of order 0-60: random, clustered or
    repeated eigenvalues, a Jordan block, the zero matrix, and pure
    rotation pairs (the last three hidden by an orthogonal similarity)."""
    n = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["random", "clustered", "jordan", "zero", "rotations"]))
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    if kind == "random":
        return np.triu(gen.standard_normal((n, n)), -1)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "clustered":
        a = np.diag(np.resize(np.repeat(gen.standard_normal(n // 3 + 1), 3), n))
        a += draw(st.sampled_from([0.0, 1e-10])) * gen.standard_normal((n, n))
    elif kind == "jordan":
        a = 2.0 * np.eye(n) + np.eye(n, k=1)
    else:
        a = np.zeros((n, n))
        angles = gen.choice([0.3, 1.0, 2.5], size=n // 2)
        for i, phi in enumerate(angles):
            c, s = np.cos(phi), np.sin(phi)
            a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
        if n % 2:
            a[-1, -1] = 1.0
    q = random_orthogonal(n, n, seed=int(gen.integers(2**31)))
    return hessenberg_reduce(q @ a @ q.T)[0]


@settings(deadline=None, max_examples=60)
@given(h=hessenberg_cases(), data=st.data())
def test_schur_layer_properties(h, data):
    n = h.shape[0]
    hnorm = np.linalg.norm(h)
    form = hessenberg_real_schur(h)
    check_form(h, form)
    spectrum = form.eigenvalues()

    # eigenvectors of every block: backward-stable residuals
    vals, vecs = schur_eigenvectors(form)
    assert len(vals) == len(form.blocks()) and np.all(vals.imag >= 0.0)
    for lam, y in zip(vals, vecs.T):
        assert np.linalg.norm(h @ y - lam * y) <= 10 * max(n, 1) * EPS * hnorm

    # stable reordering: the selected blocks lead in their old order, and
    # pairs stay together
    blocks = form.blocks()
    sel = data.draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    want = [spectrum[start + i] for (start, size), s in zip(blocks, sel) if s for i in range(size)]
    moved = move_blocks_front(form, sel)
    check_form(h, form)
    assert moved in (0, len(want))
    if moved:
        assert moved == n or form.t[moved, moved - 1] == 0.0
        lead = SchurForm(form.t[:moved, :moved], np.eye(moved)).eigenvalues()
        # a swap perturbs each eigenvalue by its condition number times a
        # backward error of order n eps ||H||
        exact, cond = _eigenvalue_conditions(h)
        for w, got in zip(want, lead):
            near = np.argmin(np.abs(exact - w))
            assert abs(got - w) <= 100 * max(n, 1) * EPS * hnorm * cond[near]


def _eigenvalue_conditions(h):
    """Eigenvalues of h and their condition numbers 1/|y^H x|."""
    w, vl, vr = scipy.linalg.eig(h, left=True, right=True)
    overlap = np.abs(np.sum(vl.conj() * vr, axis=0))
    return w, 1.0 / np.maximum(overlap, np.finfo(float).tiny)
