"""Time one delayed push's vector work per column, the old way and the new.

    python3 tools/sweepbench.py

For a push at pending index j in ``COLS`` on a basis of m rows in ``ROWS``
it times, per row-block byte budget in ``KIB``:

- ``read``: one plain read of the j + 1 columns [Q, w] (a gemv Q^T x), the
  floor that any sweep over them pays;
- ``old``: the fused reduction [Q, w]^T [w, a], summed over row blocks,
  then a second pass over row blocks with two gemv updates, w -= Q c and
  a -= [Q, w] s, and the division of w: the two sweeps that
  ``kernels.mv_sweep`` replaced;
- ``sweep``: one sweep over row blocks that updates [w, a] with one
  product, (K [Q, w]^T)^T, divides w and adds the block's partial sum of
  the next push's reduction [Q, w']^T [w', a''], as ``kernels.mv_sweep``
  does with ``ahead``.

Both sides do one reduction's and one update's worth of work per column.
Blocks are the budget's rows over the operand columns, rounded down to a
multiple of 64 (at least 64), the rule of ``kernels._block_rows``.  Each
time is the best of ``REPEATS`` runs, in ms; ``ratio`` is sweep / old.
The numbers rounded by the updates stay finite: alpha = d = 1 and K is
tiny.  Pin the BLAS threads (OPENBLAS_NUM_THREADS=1) to compare with the
benchmark, which runs on one.  Standard library and numpy only; the basis
of the largest case takes m * (max j + 3) * 8 bytes.
"""

import time

import numpy as np

ROWS = (100000, 40000)
COLS = (10, 50, 90)  # pending indices j
KIB = (256, 512, 1024, 2048)  # row-block byte budgets
REPEATS = 7


def block_rows(budget, k, l):
    return max(64, budget // (8 * (k + l)) // 64 * 64)


def reduce_blocks(B, X, r):
    """B^T X summed over row blocks of r rows, as ``kernels.mv_trans_mv``."""
    out = B[:r].T @ X[:r]
    part = np.empty_like(out)
    for i in range(r, B.shape[0], r):
        np.matmul(B[i : i + r].T, X[i : i + r], out=part)
        out += part
    return out


def read(V, j):
    return V[:, : j + 1].T @ np.ones(V.shape[0])


def old(V, j, budget, c, s):
    """The reduction, then the two-gemv pass over its own row blocks."""
    m, r = V.shape[0], block_rows(budget, j + 1, 2)
    reduce_blocks(V[:, : j + 1], V[:, j : j + 2], r)
    w, a = V[:, j : j + 1], V[:, j + 1 : j + 2]
    for i in range(0, m, r):
        b = slice(i, i + r)
        w[b] -= V[b, :j] @ c[:, None]
        w[b] /= 1.0
        a[b] -= V[b, : j + 1] @ s[:, None]


def sweep(V, j, budget, K):
    """One sweep: the one-product update and the next reduction."""
    m = V.shape[0]
    r = block_rows(budget, j + 2, 2)
    out = part = None
    for i in range(0, m, r):
        b = slice(i, i + r)
        V[b, j : j + 2] -= (K @ V[b, : j + 1].T).T
        V[b, j] /= 1.0
        if out is None:
            out = V[b, : j + 2].T @ V[b, j + 1 : j + 3]
            part = np.empty_like(out)
        else:
            np.matmul(V[b, : j + 2].T, V[b, j + 1 : j + 3], out=part)
            out += part
    return out


def best_ms(fn, repeats):
    fn()  # warm the caches and the allocator
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main():
    rng = np.random.default_rng(0)
    print(f"# numpy {np.__version__}; best of {REPEATS}, ms per column")
    print(f"{'m':>7} {'j':>3} {'KiB':>5} {'read':>7} {'old':>7} {'sweep':>7} {'ratio':>6}")
    for m in ROWS:
        V = np.asfortranarray(rng.standard_normal((m, max(COLS) + 3)))
        for j in COLS:
            c = 1e-12 * rng.standard_normal(j)
            s = 1e-12 * rng.standard_normal(j + 1)
            K = 1e-12 * rng.standard_normal((2, j + 1))
            for kib in KIB:
                budget = kib << 10
                t_read = best_ms(lambda: read(V, j), REPEATS)
                t_old = best_ms(lambda: old(V, j, budget, c, s), REPEATS)
                t_new = best_ms(lambda: sweep(V, j, budget, K), REPEATS)
                print(
                    f"{m:>7} {j:>3} {kib:>5} {t_read:>7.3f} {t_old:>7.3f} "
                    f"{t_new:>7.3f} {t_new / t_old:>6.2f}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
