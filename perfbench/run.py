"""Run one kls benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qr --seed 1729 --seconds 55 --trace 0

Run from the root of a source checkout: the benchmark imports ``kls`` from
``src/`` beside it and exits with code 2 when that is missing.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass; the last line of standard
output is the JSON result.  See perfbench/README.md.
"""

import time

# set-up time is measured from here, before numpy and kls are imported
STARTED = time.perf_counter()

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("qr", "krylov")
BLAS_THREADS = 1


def prepare():
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Exits with code 2 when the checkout
    holds no kls sources, so that an installed copy is never measured.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "kls" / "__init__.py").is_file():
        print(f"error: no kls sources at {SRC}; run from a kls checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kls

    if Path(kls.__file__).resolve().parent != SRC / "kls":
        print(f"error: imported kls from {kls.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="build the inputs, print the set-up time and exit",
    )
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    prepare()
    import harness

    return harness.main(args, STARTED)


if __name__ == "__main__":
    sys.exit(main())
