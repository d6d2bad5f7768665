"""The benchmark's traced run patches kls by name: the ``push``/``finalize``
methods of the ``QrState`` classes, ``_BaseArnoldi.step``/``finalize`` and
the Schur entry points of ``eig``.  ``_BaseArnoldi`` is the one Arnoldi
expansion class, and it defines ``step`` and ``finalize`` in its own body
because the tracer looks them up in the class ``__dict__``.  The self-test
fails when one of them moves, so a refactor cannot break the benchmark
silently."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
