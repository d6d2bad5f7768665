"""Time a delayed push's vector work per column, as ``kernels`` runs it.

    python3 tools/sweepbench.py

For a push at pending index j in ``COLS`` on a basis V of m rows in
``ROWS`` it times, per row-block byte budget in ``KIB`` (set as
``kernels._BLOCK_BYTES`` in this process for the run, then restored):

- ``read``: one plain read of the j + 1 columns [Q, w] (a gemv Q^T x), the
  floor that any sweep over them pays;
- ``qr``: ``kernels.mv_sweep`` with ``ahead``, a QR push's one sweep: the
  update of [w, a], the division of w and the next push's fused reduction;
- ``arnoldi``: ``kernels.mv_trans_mv`` of [Q, w]^T [w, a], then
  ``kernels.mv_sweep`` without ``ahead``: an Arnoldi push, whose next
  column is an image that cannot be summed ahead.

Each time is the best of ``REPEATS`` runs, in ms; ``qr/rd`` and ``arn/rd``
are ratios to ``read``.  The updates stay finite: alpha = d = 1 and the
coefficients are tiny.  Pin the BLAS threads (OPENBLAS_NUM_THREADS=1), as
the benchmark does.  kls is imported from this checkout's ``src``; the
largest basis takes m * (max j + 3) * 8 bytes.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from kls import kernels  # noqa: E402

ROWS = (100000, 40000)
COLS = (10, 50, 90)  # pending indices j
KIB = (256, 512, 1024, 2048)  # row-block byte budgets
REPEATS = 7


def best_ms(fn):
    fn()  # warm the caches and the allocator
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main():
    rng = np.random.default_rng(0)
    print(f"# numpy {np.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}; best of {REPEATS}, ms per column")
    print(f"{'m':>7} {'j':>3} {'KiB':>5} {'read':>7} {'qr':>7} {'arnoldi':>7} "
          f"{'qr/rd':>6} {'arn/rd':>6}")
    saved = kernels._BLOCK_BYTES
    try:
        for m in ROWS:
            V = np.asfortranarray(rng.standard_normal((m, max(COLS) + 3)))
            ones = np.ones(m)
            for j in COLS:
                K = 1e-12 * rng.standard_normal((2, j + 1))

                def arnoldi():
                    kernels.mv_trans_mv(V[:, : j + 1], V[:, j : j + 2])
                    kernels.mv_sweep(V, j, K, 1.0)

                for kib in KIB:
                    kernels._BLOCK_BYTES = kib << 10
                    t_read = best_ms(lambda: V[:, : j + 1].T @ ones)
                    t_qr = best_ms(lambda: kernels.mv_sweep(V, j, K, 1.0, ahead=True))
                    t_arn = best_ms(arnoldi)
                    print(f"{m:>7} {j:>3} {kib:>5} {t_read:>7.3f} {t_qr:>7.3f} {t_arn:>7.3f} "
                          f"{t_qr / t_read:>6.2f} {t_arn / t_read:>6.2f}")
    finally:
        kernels._BLOCK_BYTES = saved
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
