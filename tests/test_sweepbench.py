"""Smoke test of ``tools/sweepbench.py`` on a tiny grid: it still runs
against the current kernels and leaves their block budget as it found it."""

import importlib.util
import os

from kls import kernels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "sweepbench.py")


def test_sweepbench_runs_a_tiny_grid(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("sweepbench", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # 1 KiB blocks are 64 rows, so 1000 rows span several of them
    for name, value in (("ROWS", (1000, 200)), ("COLS", (3,)), ("KIB", (1, 4)), ("REPEATS", 1)):
        monkeypatch.setattr(tool, name, value)
    budget = kernels._BLOCK_BYTES
    assert tool.main() == 0
    assert kernels._BLOCK_BYTES == budget
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# numpy ") and "best of 1, ms per column" in lines[0]
    assert lines[1].split() == ["m", "j", "KiB", "read", "qr", "arnoldi", "qr/rd", "arn/rd"]
    assert [line.split()[:3] for line in lines[2:]] == [
        ["1000", "3", "1"], ["1000", "3", "4"], ["200", "3", "1"], ["200", "3", "4"]
    ]
