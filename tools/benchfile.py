"""Run the benchmark's workloads, traced and untraced, into one BENCH file.

    python3 tools/benchfile.py OUT.json

Reads the command, the workloads and ``run_seconds`` from ``BENCHMARK.json``
and runs each workload with ``--seed 1729``, once with ``--trace 0`` (the
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics),
each in its own process from the root of the checkout that holds this
script.  OUT folds each run's ``# env`` record and last JSON line, next to
its arguments and exit code; nothing is judged pass or fail.  Each of the
four runs takes about ``run_seconds``, plus set-up.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1729

#: what the traced readings measure; a reader of the file needs it
NOTE = (
    "Wall times from different sessions cannot be compared; only runs "
    "alternated within one session can. The commit is the checkout's HEAD "
    "when the runs were made. Until kernels.mv_sweep is wrapped as a kernel "
    "span, the traced qr run's dcgs2 and icwy-mgs kernels.mv_trans_mv.* and "
    "ortho.self_s measure moved work: the delayed update, and the next "
    "push's reduction summed ahead, land in ortho.self_s, and "
    "kernels.mv_trans_mv counts only the reductions not summed ahead."
)


def fold(stdout):
    """The ``# env`` record and the last JSON line of one run's stdout;
    None for what the output lacks."""
    env = result = None
    for line in stdout.splitlines():
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"env": env, "result": result}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/benchfile.py OUT.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    runs = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            args = ["--workload", workload["name"], "--seed", str(SEED),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(bench["command"] + args, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            runs.append({"workload": workload["name"], "trace": trace, "args": args,
                         "returncode": proc.returncode, **fold(proc.stdout)})
    with open(argv[0], "w", encoding="utf-8") as f:
        json.dump({"note": NOTE, "runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
