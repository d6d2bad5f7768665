"""Smoke test of ``tools/bitcheck.py``: a dump of this checkout compares equal
to itself, so the script still runs against the current API (about 6 s)."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "bitcheck.py")


def _bitcheck(*args):
    proc = subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_bitcheck_dump_matches_itself(tmp_path):
    out = str(tmp_path / "dump.pkl")
    _bitcheck("dump", ROOT, out)
    assert _bitcheck("compare", out, out).startswith("223 cases, 0 differ")


def test_bitcheck_compare_lists_each_difference(tmp_path):
    import pickle

    import numpy as np

    a = {("qr", "x"): ((np.zeros(3), 1), 4, 10, {"dot": 2}),
         ("qr", "y"): ((np.ones(2),), 4, 10, {"dot": 2})}
    b = {("qr", "x"): ((np.array([0.0, 0.5, -2.0]), 3), 4, 12, {"dot": 2}),
         ("qr", "y"): ((np.ones(2),), 4, 10, {"dot": 2})}
    paths = []
    for name, case in (("a.pkl", a), ("b.pkl", b)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "wb") as f:
            pickle.dump(case, f)
    lines = _bitcheck("compare", *paths).splitlines()
    assert lines[0].startswith("2 cases, 1 differ")
    assert lines[1:] == [
        "  ('qr', 'x'): max |diff| 2; reductions equal, flops differ, kernel counts equal",
        "    [0]: arrays (3,) and (3,), max |diff| 2",
        "    [1]: 1 -> 3",
    ]


def test_bitcheck_compare_exits_quietly_on_closed_output(tmp_path):
    import pickle

    path = str(tmp_path / "a.pkl")
    with open(path, "wb") as f:
        pickle.dump({("qr", "x"): ((1.0,), 4, 10, {})}, f)
    proc = subprocess.Popen([sys.executable, SCRIPT, "compare", path, path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # as `| head` does once it has its lines
    err = proc.communicate(timeout=60)[1]
    assert err == b"" and proc.returncode == 1
