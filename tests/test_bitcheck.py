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
    assert _bitcheck("compare", out, out).startswith("58 cases, 0 differ")
