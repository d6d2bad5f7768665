"""Self-test of the kls benchmark.

    python3 perfbench/selftest.py

1. Every workload runs at reduced size, untraced and traced, passes its
   checks, and reports exactly the metrics BENCHMARK.json names.
2. Deliberately broken results (one extra reduction, one perturbed column
   of Q, a perturbed solution or eigenvalue) are counted as failed solves.

Exits with code 0 when every case behaves, 1 otherwise.
"""

import json
import sys

import run

run.prepare()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1729

#: reduced sizes that keep every workload's code path
SMALL = {
    "qr": {"tall": {"m": 2000, "n": 20}, "kappa": {"m": 1000, "n": 20}},
    "krylov": {"gmres": {"k": 20, "iters": 30, "restart": 10}, "eig": {"max_restarts": 2}},
}


def small(name):
    return workloads.WORKLOADS[name](**SMALL[name])


def failures(samples):
    return [p for group in samples.values() for s in group for p in s.problems]


def check_benchmark_file(report):
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    for key, listed in (
        ("end_to_end", harness.end_to_end_metrics()),
        ("per_layer", harness.per_layer_metrics()),
    ):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        report(f"BENCHMARK.json {key} matches the harness", declared == listed)
    names = [w["name"] for w in spec["workloads"]]
    report("BENCHMARK.json workloads match", names == list(run.WORKLOAD_NAMES))


def check_small_runs(report):
    e2e = [name for name, _, _ in harness.end_to_end_metrics()]
    layer = [name for name, _, _ in harness.per_layer_metrics()]
    for name in run.WORKLOAD_NAMES:
        workload = small(name)
        tracer = spans.Tracer()
        tracer.install(workloads)
        inputs = harness.build_inputs(workload, SEED, tracer)
        tracer.restore()
        untraced, traced = harness.measure(workload, inputs, 0, tracer)
        problems = failures(untraced) + failures(traced)
        report(f"{name}: reduced-size solves pass their checks, traced or not", not problems,
               problems)
        values = harness.end_to_end_values(untraced, [1.0])
        report(f"{name}: every end-to-end metric is positive",
               sorted(values) == sorted(e2e) and all(v > 0 for v in values.values()))
        values = harness.per_layer_values(untraced, traced, tracer.totals())
        coverage = [values[f"{s}.trace.coverage"] for s in workload.schemes]
        report(f"{name}: every per-layer metric is reported",
               sorted(values) == sorted(layer) and all(np.isfinite(list(values.values()))))
        report(f"{name}: traced self times cover the solves", all(c > 0.5 for c in coverage),
               coverage)


def _extra_reduction(out):
    out[0][0].record("MvDot")


def _perturb_q(out):
    out[0][1][1][:, 1] += 1e-6


def _perturb_last_q(out):
    out[-1][1][1][:, 1] += 1e-6


def _perturb_x(out):
    out[0][1].x[0] += 1.0


def _perturb_eigenvalue(out):
    out[1][1].values[0] += 1e-3


BROKEN = (
    ("qr", "one extra reduction", _extra_reduction),
    ("qr", "one perturbed column of Q", _perturb_q),
    ("qr", "one perturbed column of the last Q", _perturb_last_q),
    ("krylov", "one extra reduction", _extra_reduction),
    ("krylov", "a perturbed solution", _perturb_x),
    ("krylov", "a perturbed eigenvalue", _perturb_eigenvalue),
)


def check_broken_results(report):
    for name, what, damage in BROKEN:
        workload = small(name)
        solve = workload.solve

        def broken_solve(scheme, args, solve=solve, damage=damage):
            out = solve(scheme, args)
            damage(out)
            return out

        workload.solve = broken_solve
        samples, _ = harness.measure(workload, workload.setup(SEED), 0)
        flat = [s for group in samples.values() for s in group]
        failed = [s for s in flat if s.problems]
        report(f"{name}: {what} fails {len(failed)}/{len(flat)} solves", len(failed) == len(flat))


def main():
    bad = []

    def report(label, ok, detail=None):
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok or detail is None else f": {detail}"))
        if not ok:
            bad.append(label)

    check_benchmark_file(report)
    check_small_runs(report)
    check_broken_results(report)
    print(f"{len(bad)} failed" if bad else "all self-test cases passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
