"""The fold of ``tools/benchfile.py`` on canned benchmark output, with no
subprocess: each run keeps its ``# env`` record and its last JSON line."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "benchfile.py")


def _tool():
    spec = importlib.util.spec_from_file_location("benchfile", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fold_keeps_the_env_record_and_the_last_json_line():
    env = {"workload": "qr", "trace": 0, "commit": "abc", "blas_threads": 1}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"setup_s": {"value": 0.7, "unit": "s"}}}
    stdout = "\n".join([
        "# env " + json.dumps(env, sort_keys=True),
        "# untraced cgs2: 4 solves, median 0.9000 s, no percentile (fewer than 20 samples)",
        "# fail_rate 0/4",
        "# setup_s = 0.7 s",
        json.dumps(result),
    ]) + "\n"
    assert _tool().fold(stdout) == {"env": env, "result": result}


def test_fold_of_a_failed_run_records_what_is_missing():
    tool = _tool()
    assert tool.fold("") == {"env": None, "result": None}
    assert tool.fold("# env {\"seed\": 1729}\nerror: no kls sources\n") == {
        "env": {"seed": 1729}, "result": None
    }

