import argparse
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import data_path, write_mtx
from kls.cli import build_parser, main
from kls.problems import synthetic_kappa


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def rows_of(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_qr_stability_basic(tmp_path):
    code, text = run_csv(
        tmp_path,
        ["qr-stability", "--kappa-list", "1e0,1e4", "--scheme", "cgs",
         "--scheme", "dcgs2", "--rows", "80", "--cols", "10", "--seed", "5"],
    )
    assert code == 0
    assert text.startswith("# kls-bench")
    rows = rows_of(text)
    assert rows[0] == "scheme,kappa,m,n,loo,rre,reductions,status"
    assert len(rows) == 1 + 4
    assert all(r.endswith("ok") for r in rows[1:])
    # kappa=1 rows sit at machine-level orthogonality for every scheme
    for r in rows[1:]:
        fields = r.split(",")
        if float(fields[1]) == 1.0:
            assert float(fields[4]) < 1e-13


def test_qr_stability_reproducible_bytes(tmp_path):
    args = ["qr-stability", "--kappa-list", "1e0,1e8", "--scheme", "cgs2",
            "--rows", "60", "--cols", "8", "--seed", "9"]
    _, a = run_csv(tmp_path, args, "a.csv")
    _, b = run_csv(tmp_path, args, "b.csv")
    assert a == b


def test_qr_stability_jobs_deterministic(tmp_path):
    args = ["qr-stability", "--kappa-list", "1e0,1e4,1e8", "--rows", "60",
            "--cols", "8", "--seed", "9"]
    _, a = run_csv(tmp_path, args, "a.csv")
    _, b = run_csv(tmp_path, args + ["--jobs", "3"], "b.csv")
    assert a == b


def test_sync_count_pass_and_inject(tmp_path, monkeypatch):
    import dataclasses

    import kls.cli

    args = ["sync-count", "--rows", "400", "--cols", "16", "--seed", "2"]
    code, text = run_csv(tmp_path, args)
    assert code == 0
    assert all(r.endswith("pass") for r in rows_of(text)[1:])

    def off_by_one(scheme, n, predict=kls.cli.predicted_counts):
        p = predict(scheme, n)
        return dataclasses.replace(p, total_synchs=p.total_synchs + 1)

    monkeypatch.setattr(kls.cli, "predicted_counts", off_by_one)
    code, text = run_csv(tmp_path, args)
    assert code == 3  # negative control: a prediction off by one must fail
    assert any(r.endswith("FAIL") for r in rows_of(text)[1:])


def test_arnoldi_stability_smoke(tmp_path):
    code, text = run_csv(
        tmp_path,
        ["arnoldi-stability", "--manteuffel-k", "6", "--steps", "20",
         "--stride", "5", "--scheme", "cgs2", "--scheme", "dcgs2-hrt",
         "--seed", "4"],
    )
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == "scheme,step,loo,rre,reductions,status"
    cgs2_rows = [r for r in rows[1:] if r.startswith("cgs2,")]
    assert [int(r.split(",")[1]) for r in cgs2_rows] == [5, 10, 15, 20]
    assert all(float(r.split(",")[2]) < 1e-12 for r in cgs2_rows)


def test_eig_subcommand(tmp_path):
    code, text = run_csv(
        tmp_path,
        ["eig", "--manteuffel-k", "4", "--restart-list", "8,12",
         "--max-restarts", "6", "--scheme", "cgs2", "--seed", "1"],
    )
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == (
        "scheme,restart,n_converged_forward_error,"
        "invariant_subspace_dim,restarts_used,status"
    )
    assert len(rows) == 3
    for r in rows[1:]:
        f = r.split(",")
        assert int(f[2]) <= int(f[3]) <= 16


def test_gmres_subcommand(tmp_path):
    code, text = run_csv(
        tmp_path,
        ["gmres", "--laplace-dims", "6,6,6", "--steps", "12", "--seed", "3"],
    )
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == "scheme,iter,relres,backward_error,reductions,status"
    dc = [r.split(",") for r in rows[1:] if r.startswith("dcgs2,")]
    cg = [r.split(",") for r in rows[1:] if r.startswith("cgs2,")]
    assert len(dc) == 12 and len(cg) == 12
    # reduction-count proxy: one per iteration versus three
    assert int(dc[-1][4]) <= 12 + 2
    assert int(cg[-1][4]) == 36
    # residual curves agree pointwise
    for a, b in zip(dc, cg):
        assert float(a[2]) == pytest.approx(float(b[2]), abs=1e-8)


def test_gmres_backward_error_stride(tmp_path):
    args = ["gmres", "--laplace-dims", "6,6,6", "--steps", "12", "--seed", "3",
            "--restart", "0", "--scheme", "dcgs2"]
    code, text = run_csv(tmp_path, args + ["--be-stride", "5"], "s5.csv")
    assert code == 0
    assert "# be_stride: 5" in text.splitlines()
    rows = [r.split(",") for r in rows_of(text)[1:]]
    assert [int(r[1]) for r in rows if r[3]] == [5, 10, 12]
    _, full = run_csv(tmp_path, args + ["--be-stride", "1"], "s1.csv")
    full = [r.split(",") for r in rows_of(full)[1:]]
    assert all(r[3] for r in full)
    assert [(r[2], r[4]) for r in rows] == [(r[2], r[4]) for r in full]
    with pytest.raises(SystemExit) as err:
        main(args + ["--be-stride", "-1"])
    assert err.value.code == 2


def test_mm_run_rejects_bad_file(tmp_path):
    # the Matrix Market run (once kls-bench mm-run) is arnoldi-stability --mtx
    with pytest.raises(SystemExit) as err:
        main(["arnoldi-stability", "--mtx", data_path("bad_pattern.mtx"),
              "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


MTX_TEXT = "%%MatrixMarket matrix coordinate real general\n% caf\u00e9\n2 2 2\n1 1 1.0\n2 2 {}\n"


def test_non_ascii_comment_runs(tmp_path):
    mtx = tmp_path / "c.mtx"
    mtx.write_text(MTX_TEXT.format("2.0"), encoding="utf-8")
    code, text = run_csv(tmp_path, ["gmres", "--mtx", str(mtx), "--steps", "2"])
    assert code == 0 and len(rows_of(text)) > 1


def test_non_ascii_entry_exits_2_naming_its_line(tmp_path, capsys):
    mtx = tmp_path / "e.mtx"
    mtx.write_text(MTX_TEXT.format("2.0\u00e9"), encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["gmres", "--mtx", str(mtx), "--steps", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == ["error: line 5: malformed entry"]


def test_out_with_non_ascii_mtx_path_is_the_stdout_bytes(tmp_path, capsysbinary):
    # the header records the --mtx path as typed
    mtx = tmp_path / "caf\u00e9.mtx"
    shutil.copy(data_path("good_square_asym.mtx"), mtx)
    args = ["gmres", "--mtx", str(mtx), "--steps", "2"]
    assert main(args) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout and "caf\u00e9.mtx".encode() in stdout


#: stands for the path of a 3x3 path-graph Laplacian written under tmp_path
LAPLACIAN = "<laplacian.mtx>"


def _write_laplacian(tmp_path):
    path = tmp_path / "laplacian.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
                    "1 1 1.0\n2 1 -1.0\n2 2 2.0\n3 2 -1.0\n3 3 1.0\n")
    return str(path)


def test_laplacian_runs_arnoldi_stability(tmp_path):
    # only gmres's right-hand side needs nonzero row sums
    code, text = run_csv(tmp_path, ["arnoldi-stability", "--mtx", _write_laplacian(tmp_path),
                                    "--steps", "2", "--stride", "1"])
    assert code == 0 and len(rows_of(text)) > 1


@pytest.mark.parametrize("text,norm", [
    (None, "0.0"),  # zero row sums
    ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1e308\n1 2 1e308\n"
     "2 2 1.0\n", "inf"),  # a row sum beyond the float64 range
])
def test_gmres_undefined_right_hand_side_exits_2(capsys, tmp_path, text, norm):
    path = tmp_path / "a.mtx"
    if text is None:
        path = _write_laplacian(tmp_path)
    else:
        path.write_text(text)
    with pytest.raises(SystemExit) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["gmres", "--mtx", str(path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: right-hand side A*1 / ||A*1|| undefined: ||A*1|| = {norm}"]


def test_rectangular_mtx_names_its_shape(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gmres", "--mtx", data_path("good_general_rect.mtx")])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: square matrix expected, got (3, 4)"]


@pytest.mark.parametrize("args", [
    ["arnoldi-stability", "--manteuffel-k", "4", "--stride", "0"],
    ["arnoldi-stability", "--manteuffel-k", "4", "--steps", "0"],
    ["arnoldi-stability", "--manteuffel-k", "0"],
    ["arnoldi-stability", "--mtx", data_path("good_square_asym.mtx"), "--stride", "0"],
    ["gmres", "--laplace-dims", "3,3,3", "--steps", "0"],
    ["gmres", "--laplace-dims", "3,3,3", "--restart", "-3"],
    ["gmres", "--laplace-dims", "3,3"],
    ["gmres", "--mtx", data_path("good_general_rect.mtx")],
    ["qr-stability", "--rows", "10", "--cols", "20"],
    ["sync-count", "--rows", "10", "--cols", "20"],
    ["eig", "--manteuffel-k", "4", "--restart-list", "1"],
    ["eig", "--manteuffel-k", "4", "--tol", "0"],
    ["eig", "--manteuffel-k", "4", "--max-restarts", "0"],
    ["sync-count", "--rows", "10", "--cols", "4", "--jobs", "0"],
    # NaN values, each rejected where it enters
    ["eig", "--manteuffel-k", "4", "--restart-list", "8", "--max-restarts", "3", "--tol", "nan"],
    ["eig", "--manteuffel-k", "4", "--beta", "nan"],
    ["qr-stability", "--rows", "10", "--cols", "2", "--kappa-list", "nan"],
    ["arnoldi-stability", "--manteuffel-k", "4", "--beta", "nan"],
    # an unreadable, malformed or non-square file
    ["arnoldi-stability", "--mtx", data_path("no_such_file.mtx")],
    ["gmres", "--mtx", data_path("no_such_file.mtx")],
    ["gmres", "--mtx", data_path("bad_pattern.mtx")],
    ["arnoldi-stability", "--mtx", data_path("good_general_rect.mtx")],
    # a declared count far beyond the entries present
    ["gmres", "--mtx", data_path("bad_huge_count.mtx")],
    # numbers that Python reads and Matrix Market does not define
    ["gmres", "--mtx", data_path("bad_underscore.mtx")],
    ["gmres", "--mtx", data_path("bad_nan.mtx")],
    ["gmres", "--mtx", data_path("bad_overflow.mtx")],
    # zero row sums: gmres's right-hand side A*1 / ||A*1|| is 0/0
    ["gmres", "--mtx", LAPLACIAN],
])
def test_configuration_error_exits_2(tmp_path, capsys, args):
    # a configuration the library rejects: one error line, no CSV, no warning
    out = tmp_path / "x.csv"
    args = [_write_laplacian(tmp_path) if a == LAPLACIAN else a for a in args]
    with pytest.raises(SystemExit) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        main(args + ["--out", str(out)])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["qr-stability", "--scheme", "nonsense"])
    assert err.value.code == 2


def test_seed_defaults_to_1729(tmp_path):
    args = ["qr-stability", "--kappa-list", "1e0", "--scheme", "cgs", "--rows", "40",
            "--cols", "5"]
    _, a = run_csv(tmp_path, args, "a.csv")
    _, b = run_csv(tmp_path, args + ["--seed", "1729"], "b.csv")
    assert a == b and "# seed: 1729" in a.splitlines()


@pytest.mark.parametrize("args", [
    ["arnoldi-stability", "--manteuffel-k", "4"],
    ["arnoldi-stability", "--mtx", data_path("good_square_asym.mtx")],
    ["gmres", "--laplace-dims", "3,3,3"],
])
def test_steps_below_one_names_the_flag(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args + ["--steps", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error: --steps must be >= 1")


def test_stdout_default(capsys):
    code = main(["sync-count", "--rows", "100", "--cols", "5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scheme,n,m,measured,predicted,delta,status" in out


def test_header_records_the_blas_setting():
    # a CSV regenerates bit for bit under its own header's BLAS setting, and
    # two thread counts give two headers (under 3 s: four small processes)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    args = [sys.executable, "-m", "kls.cli", "qr-stability", "--kappa-list", "1e0,1e8",
            "--rows", "40", "--cols", "6", "--scheme", "dcgs2", "--seed", "3"]

    def run(threads):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        return subprocess.run(args, env=env, capture_output=True, check=True, timeout=60).stdout

    one, two = run("1"), run("2")
    assert run("1") == one and run("2") == two
    headers = [[ln for ln in out.splitlines() if ln.startswith(b"#")] for out in (one, two)]
    assert b"# OPENBLAS_NUM_THREADS: 1" in headers[0] and headers[0] != headers[1]
    assert any(ln.startswith(b"# blas: ") for ln in headers[0])
    assert any(ln.startswith(b"# scipy_blas: ") for ln in headers[0])


def test_gmres_breakdown_exit_code_4(tmp_path, monkeypatch):
    import kls.cli
    from kls.errors import BreakdownError

    def boom(*a, **kw):
        raise BreakdownError("forced", kind="pythagorean")

    monkeypatch.setattr(kls.cli, "gmres_solve", boom)
    code = main(["gmres", "--laplace-dims", "3,3,3", "--steps", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 4


def test_arnoldi_stability_over_square_corpus(tmp_path):
    import glob
    import os

    from conftest import DATA
    from kls.problems import parse_matrix_market

    for path in sorted(glob.glob(os.path.join(DATA, "good_*.mtx"))):
        csr = parse_matrix_market(path)
        if csr.nrows != csr.ncols or csr.nrows < 2:
            continue
        code = main(["arnoldi-stability", "--mtx", path, "--steps", "5", "--stride", "1",
                     "--scheme", "cgs2", "--scheme", "dcgs2", "--seed", "3",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 0
        text = (tmp_path / "m.csv").read_text()
        assert "scheme,step,loo,rre,reductions,status" in text


@pytest.mark.parametrize("command", ["arnoldi-stability"])
def test_breakdown_row_reports_its_step(tmp_path, monkeypatch, command):
    # a breakdown at step 7 with stride 5 is reported at step 7
    import kls.cli
    from kls.errors import BreakdownError
    from kls.problems import ManteuffelSpec, manteuffel_build

    expand = kls.cli.arnoldi

    def breaks_at_step_7(*args, **kwargs):
        exp = expand(*args, **kwargs)
        step, calls = exp.step, []

        def counted_step():
            calls.append(None)
            if len(calls) == 7:
                raise BreakdownError("forced", kind="pythagorean")
            return step()

        exp.step = counted_step
        return exp

    monkeypatch.setattr(kls.cli, "arnoldi", breaks_at_step_7)
    mtx = tmp_path / "m.mtx"
    write_mtx(str(mtx), manteuffel_build(ManteuffelSpec(k=6)))
    code, text = run_csv(
        tmp_path,
        [command, "--mtx", str(mtx), "--steps", "12", "--stride", "5",
         "--scheme", "cgs2", "--seed", "2"],
    )
    assert code == 0
    rows = [r.split(",") for r in rows_of(text)[1:]]
    assert [(r[1], r[-1]) for r in rows] == [("5", "ok"), ("7", "breakdown-pythagorean")]


def _nan_mtx(tmp_path, monkeypatch):
    """A Manteuffel k=3 matrix as a Matrix Market file, which ``kls-bench``
    then reads with one NaN entry (the reader rejects a NaN in the file)."""
    import kls.cli
    from kls.problems import CsrMatrix, ManteuffelSpec, manteuffel_build

    path = tmp_path / "nan.mtx"
    write_mtx(str(path), manteuffel_build(ManteuffelSpec(k=3)))
    parse = kls.cli.parse_matrix_market

    def parse_with_nan(mtx):
        csr = parse(mtx)
        data = csr.data.copy()
        data[4] = np.nan
        return CsrMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, data)

    monkeypatch.setattr(kls.cli, "parse_matrix_market", parse_with_nan)
    return str(path)


@pytest.mark.parametrize("command", ["arnoldi-stability"])
def test_nonfinite_row_reports_its_step_and_exits_4(tmp_path, monkeypatch, command):
    # the first operator image holds the NaN, so every scheme stops at step 1
    schemes = ["cgs2", "dcgs2", "householder"]
    code, text = run_csv(
        tmp_path,
        [command, "--mtx", _nan_mtx(tmp_path, monkeypatch), "--steps", "8", "--stride", "5",
         "--seed", "2"] + [arg for s in schemes for arg in ("--scheme", s)],
    )
    assert code == 4
    rows = [r.split(",") for r in rows_of(text)[1:]]
    assert [(r[0], r[1], r[-1]) for r in rows] == [(s, "1", "nonfinite") for s in schemes]


def test_gmres_nonfinite_start_exits_4(tmp_path, monkeypatch, capsys):
    # b = A 1 holds the NaN, and so does the start vector of the first cycle
    code = main(["gmres", "--mtx", _nan_mtx(tmp_path, monkeypatch), "--steps", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "nonfinite" in capsys.readouterr().err


def test_eig_iteration_limit_row_exits_4(tmp_path, monkeypatch):
    # LAPACK reports a reorder it cannot make by moving nothing
    import kls.eig

    monkeypatch.setattr(kls.eig, "move_blocks_front", lambda form, selected: 0)
    code, text = run_csv(
        tmp_path,
        ["eig", "--manteuffel-k", "4", "--restart-list", "10", "--scheme", "cgs2",
         "--seed", "1"],
    )
    assert code == 4
    assert rows_of(text)[1:] == ["cgs2,10,-1,-1,1,iteration-limit"]


def test_eig_block_change_in_reorder_is_not_a_configuration_error(tmp_path):
    # LAPACK's swaps change the block structure in this run: a result row
    # (exit 0) or an iteration-limit row (exit 4), never exit 2
    code, text = run_csv(
        tmp_path,
        ["eig", "--manteuffel-k", "6", "--restart-list", "25", "--tol", "1e-30",
         "--max-restarts", "100", "--scheme", "mgs", "--seed", "1"],
    )
    assert code in (0, 4)
    rows = rows_of(text)[1:]
    assert len(rows) == 1 and rows[0].startswith("mgs,25,")
    assert rows[0].endswith(",ok" if code == 0 else ",iteration-limit")


def test_qr_stability_builds_each_matrix_once(tmp_path, monkeypatch):
    # every scheme (8) and jobs thread shares the one matrix per kappa (7)
    built = []

    def counting(m, n, kappa, seed):
        built.append(kappa)
        return synthetic_kappa(m, n, kappa, seed)

    monkeypatch.setattr("kls.cli.synthetic_kappa", counting)
    code, text = run_csv(tmp_path, ["qr-stability", "--rows", "60", "--cols", "8",
                                    "--jobs", "2"])
    assert code == 0
    assert len(rows_of(text)) == 1 + 8 * 7
    assert sorted(built) == [1e0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12]


def test_sync_count_takes_householder(tmp_path):
    # Walker's push state pays 2j reductions at column j: n(n+1) in all
    code, text = run_csv(tmp_path, ["sync-count", "--scheme", "householder", "--rows", "40",
                                    "--cols", "6"])
    assert code == 0
    assert rows_of(text)[1:] == ["householder,6,40,42,42,0,pass"]


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _without(args, flags):
    """The flag-value pairs of ``args`` whose flag is not in ``flags``."""
    pairs = zip(args[::2], args[1::2])
    return [tok for pair in pairs if pair[0] not in (flags or ()) for tok in pair]


#: a small run of each subcommand
WALK_RUNS = {
    "qr-stability": ["--kappa-list", "1e0,1e4", "--rows", "30", "--cols", "4"],
    "arnoldi-stability": ["--manteuffel-k", "4", "--steps", "6", "--stride", "3"],
    "eig": ["--manteuffel-k", "4", "--restart-list", "8", "--max-restarts", "3"],
    "gmres": ["--laplace-dims", "3,3,3", "--steps", "4"],
    "sync-count": ["--rows", "30", "--cols", "4"],
}

#: for each option, a value that differs from the one in every run above
OTHER_VALUE = {
    "--scheme": "cgs2", "--seed": "2", "--kappa-list": "1e0,1e6", "--rows": "31",
    "--cols": "5", "--manteuffel-k": "5", "--beta": "0.25",
    "--mtx": data_path("good_symmetric.mtx"), "--steps": "2", "--stride": "2",
    "--restart-list": "10", "--tol": "1e-3", "--max-restarts": "2",
    "--laplace-dims": "3,3,4", "--restart": "2", "--be-stride": "2", "--jobs": "2",
}


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_option_changes_the_csv(tmp_path, command):
    # an option the run ignores leaves the CSV unchanged; --jobs must leave it so
    parser = _subparsers()[command]
    base_args = [command, *WALK_RUNS[command]]
    code, base = run_csv(tmp_path, base_args, "base.csv")
    assert code == 0
    ignored = []
    for action in parser._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if flag in (None, "-h", "--out"):
            continue
        args, ref = base_args, base
        if flag == "--mtx":  # against a base without the generator flags it excludes
            args = [command, *_without(WALK_RUNS[command], parser.get_default("generators"))]
            code, ref = run_csv(tmp_path, args, "mtx-base.csv")
            assert code == 0
        code, text = run_csv(tmp_path, args + [flag, OTHER_VALUE[flag]], "alt.csv")
        assert code == 0, flag
        if (text == ref) != (flag == "--jobs"):
            ignored.append(flag)
    assert ignored == []


@pytest.mark.parametrize("command,flag,value", [
    ("qr-stability", "--kappa-list", "1e0,abc"),
    ("eig", "--restart-list", "8,x"),
    ("gmres", "--laplace-dims", "9,x,9"),
    ("qr-stability", "--kappa-list", ""),
    ("eig", "--restart-list", ","),
    ("eig", "--restart-list", "8,,12"),
    ("qr-stability", "--kappa-list", "1e0,"),
])
def test_malformed_list_names_its_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as err:
        main([command, flag, value])
    assert err.value.code == 2
    assert f"argument {flag}: expected comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("arnoldi-stability", "--manteuffel-k", "7"),
    ("arnoldi-stability", "--beta", "0.1"),
    ("gmres", "--laplace-dims", "9,9,9"),
])
def test_mtx_excludes_generator_flags(capsys, command, flag, value):
    # the file is the whole problem: a generator flag next to it would be ignored
    with pytest.raises(SystemExit) as err:
        main([command, "--mtx", data_path("good_square_asym.mtx"), flag, value])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: kls-bench {command} ")
    assert f"argument {flag}: not allowed with argument --mtx" in stderr


def test_eig_schur_iteration_limit_names_its_restart(tmp_path, monkeypatch):
    import kls.eig
    from kls.errors import IterationLimitError

    def fail(h):
        raise IterationLimitError("Schur iteration did not converge")

    monkeypatch.setattr(kls.eig, "hessenberg_real_schur", fail)
    code, text = run_csv(
        tmp_path,
        ["eig", "--manteuffel-k", "4", "--restart-list", "10", "--scheme", "cgs2",
         "--seed", "1"],
    )
    assert code == 4
    assert rows_of(text)[1:] == ["cgs2,10,-1,-1,1,iteration-limit"]
