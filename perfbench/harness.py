"""Measurement loop, metrics and output of the kls benchmark.

A run is a closed loop in one process: one solve at a time, schemes in
rotating order, until the time budget is spent.  Every solve gets fresh
inputs from ``per_solve`` (a fresh operator for the Krylov workloads) and
fresh ledgers, and its output is checked outside the timed region.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans
import workloads

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 3  # this process plus fresh child processes
RESULTS = HERE / "results"

#: schemes every workload runs; their solve time and reductions are gated
E2E_SCHEMES = ("cgs2", "dcgs2")
#: schemes only the qr workload runs; reported with the per-layer metrics
QR_ONLY_SCHEMES = ("cgs", "icwy-mgs")

Sample = namedtuple("Sample", "index seconds reductions flops counts problems")

_KERNEL_METRICS = (
    ("kernels.mv_trans_mv.s", "s", "lower"),
    ("kernels.mv_trans_mv.calls", "count", "lower"),
    ("kernels.mv_trans_mv.bytes", "B", "lower"),
    ("kernels.mv_trans_mv.flops", "flop", "lower"),
    ("kernels.mv_times_mat_add_mv.s", "s", "lower"),
    ("kernels.mv_times_mat_add_mv.calls", "count", "lower"),
    ("kernels.mv_times_mat_add_mv.bytes", "B", "lower"),
    ("kernels.mv_times_mat_add_mv.flops", "flop", "lower"),
    ("kernels.dot.s", "s", "lower"),
    ("kernels.dot.calls", "count", "lower"),
    ("ortho.self_s", "s", "lower"),
    ("ortho.breakdowns", "count", "lower"),
)
_KRYLOV_METRICS = (
    ("arnoldi.self_s", "s", "lower"),
    ("arnoldi.steps", "count", "lower"),
    ("problems.apply.s", "s", "lower"),
    ("problems.apply.calls", "count", "lower"),
    ("problems.apply.bytes", "B", "lower"),
    ("gmres.self_s", "s", "lower"),
    ("gmres.backward_error.s", "s", "lower"),
    ("gmres.backward_error.calls", "count", "lower"),
    ("gmres.iterations", "count", "lower"),
    ("schur.s", "s", "lower"),
    ("schur.calls", "count", "lower"),
    ("eig.self_s", "s", "lower"),
    ("eig.restarts", "count", "lower"),
    ("eig.locked", "count", "higher"),
)
_RUN_METRICS = (
    ("ledger.flops", "flop", "lower"),
    ("trace.coverage", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def end_to_end_metrics():
    """(name, unit, better) of every end-to-end metric."""
    out = [("setup_s", "s", "lower")]
    for scheme in E2E_SCHEMES:
        out.append((f"{scheme}.solve_s", "s", "lower"))
    for scheme in E2E_SCHEMES:
        out.append((f"{scheme}.reductions", "count", "lower"))
    out.append(("peak_rss_mb", "MB", "lower"))
    return out


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric."""
    out = []
    for scheme in QR_ONLY_SCHEMES:
        out.append((f"{scheme}.solve_s", "s", "lower"))
        out.append((f"{scheme}.reductions", "count", "lower"))
    for scheme in QR_ONLY_SCHEMES + E2E_SCHEMES:
        layers = _KERNEL_METRICS + _RUN_METRICS
        if scheme in E2E_SCHEMES:
            layers = _KERNEL_METRICS + _KRYLOV_METRICS + _RUN_METRICS
        out.extend((f"{scheme}.{name}", unit, better) for name, unit, better in layers)
    out.append(("problems.generate.s", "s", "lower"))
    out.append(("dense.householder_qr.s", "s", "lower"))
    return out


# -- running --------------------------------------------------------------


def build_inputs(workload, seed, tracer=None):
    if tracer is not None:
        tracer.solve = "setup"
    try:
        return workload.setup(seed)
    finally:
        if tracer is not None:
            tracer.solve = None


def child_setup_seconds(name, seed, count):
    """Set-up wall time of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def warm_up(workload, inputs):
    """One untimed, unchecked solve per scheme: the first solve in a
    process pays for first-touch allocations the later ones do not."""
    for scheme in workload.schemes:
        workload.solve(scheme, workload.per_solve(inputs, 0))


def run_solve(workload, scheme, inputs, index, tracer=None):
    """One timed solve and its check; exceptions count as failures."""
    args = workload.per_solve(inputs, index)
    if tracer is not None:
        tracer.solve = f"{scheme}#{index}"
    start = perf_counter()
    try:
        out = workload.solve(scheme, args)
    except Exception as err:  # a failed solve is a result, not a crash
        seconds = perf_counter() - start
        return Sample(index, seconds, 0, 0, {}, [f"{scheme} raised {err!r}"])
    finally:
        if tracer is not None:
            tracer.solve = None
    seconds = perf_counter() - start
    try:
        problems = workload.check(scheme, args, out)
    except Exception as err:
        problems = [f"{scheme} check raised {err!r}"]
    return Sample(
        index,
        seconds,
        sum(ledger.reductions for ledger, _ in out),
        sum(ledger.flops for ledger, _ in out),
        workload.counts(out),
        problems,
    )


def _traced_solve(workload, scheme, inputs, index, tracer):
    tracer.install(workloads)
    try:
        return run_solve(workload, scheme, inputs, index, tracer)
    finally:
        tracer.restore()


def measure(workload, inputs, seconds, tracer=None):
    """Rounds of one solve per scheme for about ``seconds``; at least one
    round runs.  Round i uses input index i.

    With a tracer, every untraced solve is paired with a traced solve of
    the same input, so that both see the same machine state; the pair's
    order alternates between rounds.  Returns the untraced and the traced
    samples per scheme.
    """
    untraced = {scheme: [] for scheme in workload.schemes}
    traced = {scheme: [] for scheme in workload.schemes}
    schemes = list(workload.schemes)
    start = perf_counter()
    index = 0
    while True:
        round_start = perf_counter()
        shift = index % len(schemes)
        for scheme in schemes[shift:] + schemes[:shift]:
            if tracer is not None and index % 2:
                traced[scheme].append(_traced_solve(workload, scheme, inputs, index, tracer))
            untraced[scheme].append(run_solve(workload, scheme, inputs, index))
            if tracer is not None and not index % 2:
                traced[scheme].append(_traced_solve(workload, scheme, inputs, index, tracer))
        index += 1
        now = perf_counter()
        # stop when one more round would end nearer to ``seconds`` overrun
        # than this one ends short of it
        if (now - start) + (now - round_start) / 2 > seconds:
            return untraced, traced


# -- metrics --------------------------------------------------------------


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def timing_summary(values):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None below 20 samples)."""
    n = len(values)
    out = {"median": _median(values), "n": n, "percentile": None}
    if n >= 20:
        pct = 100 * (n - 10) // n
        out["percentile"] = (pct, float(np.percentile(values, pct)))
    return out


def layer_values(totals, counts):
    """Per-layer quantities of one traced solve, keyed as in
    ``per_layer_metrics`` without the scheme prefix."""

    def get(name, field):
        return totals.get(name, (0, 0, 0, 0, 0, 0))[field]

    out = {}
    for kernel in ("mv_trans_mv", "mv_times_mat_add_mv", "dot"):
        name = f"kernels.{kernel}"
        out[f"{name}.s"] = get(name, 0) * 1e-9
        out[f"{name}.calls"] = get(name, 2)
        out[f"{name}.bytes"] = get(name, 3)
        out[f"{name}.flops"] = get(name, 4)
    out["ortho.self_s"] = get("ortho", 0) * 1e-9
    out["ortho.breakdowns"] = get("ortho", 5)
    out["arnoldi.self_s"] = (get("arnoldi", 0) + get("arnoldi.step", 0)) * 1e-9
    out["arnoldi.steps"] = get("arnoldi.step", 2)
    out["problems.apply.s"] = get("problems.apply", 0) * 1e-9
    out["problems.apply.calls"] = get("problems.apply", 2)
    out["problems.apply.bytes"] = get("problems.apply", 3)
    out["gmres.self_s"] = get("gmres", 0) * 1e-9
    out["gmres.backward_error.s"] = get("gmres.backward_error", 0) * 1e-9
    out["gmres.backward_error.calls"] = get("gmres.backward_error", 2)
    out["schur.s"] = get("schur", 0) * 1e-9
    out["schur.calls"] = get("schur", 2)
    out["eig.self_s"] = get("eig", 0) * 1e-9
    out["gmres.iterations"] = counts.get("gmres.iterations", 0)
    out["eig.restarts"] = counts.get("eig.restarts", 0)
    out["eig.locked"] = counts.get("eig.locked", 0)
    out["self_total_s"] = sum(t[0] for t in totals.values()) * 1e-9
    return out


def end_to_end_values(samples, setup_seconds):
    values = {"setup_s": _median(setup_seconds)}
    for scheme in E2E_SCHEMES:
        values[f"{scheme}.solve_s"] = _median([s.seconds for s in samples[scheme]])
    for scheme in E2E_SCHEMES:
        values[f"{scheme}.reductions"] = _median([s.reductions for s in samples[scheme]])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def per_layer_values(untraced, traced, totals):
    """Medians over the traced solves of each scheme; 0 for schemes the
    workload does not run.  Coverage and overhead compare each traced solve
    with the untraced solve of the same input."""
    values = {name: 0.0 for name, _, _ in per_layer_metrics()}
    for scheme in QR_ONLY_SCHEMES:
        if scheme in untraced:
            values[f"{scheme}.solve_s"] = _median([s.seconds for s in untraced[scheme]])
            values[f"{scheme}.reductions"] = _median([s.reductions for s in untraced[scheme]])
    for scheme, samples in traced.items():
        base = {s.index: s.seconds for s in untraced[scheme]}
        per_solve = []
        for s in samples:
            lv = layer_values(totals.get(f"{scheme}#{s.index}", {}), s.counts)
            lv["ledger.flops"] = s.flops
            lv["trace.coverage"] = lv.pop("self_total_s") / base[s.index]
            lv["trace.overhead"] = s.seconds / base[s.index] - 1.0
            per_solve.append(lv)
        for key in per_solve[0]:
            name = f"{scheme}.{key}"
            if name in values:
                values[name] = _median([lv[key] for lv in per_solve])
    setup = totals.get("setup", {})
    values["problems.generate.s"] = setup.get("problems.generate", (0,))[0] * 1e-9
    values["dense.householder_qr.s"] = setup.get("dense.householder_qr", (0, 0))[1] * 1e-9
    return values


# -- environment and output ----------------------------------------------


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _last_level_cache_bytes():
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def environment(workload, inputs, seed, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = _last_level_cache_bytes()
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(HERE.parent),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "largest_operand_mb": workload.largest_operand_bytes(inputs) / 1e6,
        "last_level_cache_mb": llc / 1e6 if llc else None,
        "bytes_note": "kernel and apply bytes are computed from operand shapes, "
        "not measured; operands may be cache resident",
    }


def emit(env, metrics, samples, setup_seconds, extra=None):
    """Print the human-readable lines, write the result file, and print
    the JSON result as the last line."""
    all_samples = [s for per in samples.values() for group in per.values() for s in group]
    failed = [s for s in all_samples if s.problems]
    print("# env " + json.dumps(env, sort_keys=True))
    for label, per in samples.items():
        for scheme, group in per.items():
            summary = timing_summary([s.seconds for s in group])
            pct = summary["percentile"]
            tail = f", p{pct[0]} {pct[1]:.4f} s" if pct else ", no percentile (fewer than 20 samples)"
            print(f"# {label} {scheme}: {summary['n']} solves, median {summary['median']:.4f} s{tail}")
    if setup_seconds:
        print("# setup samples: " + ", ".join(f"{s:.4f}" for s in setup_seconds) + " s")
    print(f"# fail_rate {len(failed)}/{len(all_samples)}")
    for s in failed[:10]:
        print("# FAILED " + "; ".join(s.problems))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    record = {
        "env": env,
        "metrics": metrics,
        "setup_seconds": setup_seconds,
        "samples": {
            label: [s._asdict() for group in per.values() for s in group]
            for label, per in samples.items()
        },
        **(extra or {}),
    }
    path = RESULTS / f"{env['workload']}-trace{env['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": not failed,
        "attempted": len(all_samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(args, started):
    workload = workloads.WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(workloads)
    inputs = build_inputs(workload, args.seed, tracer)
    if tracer is not None:
        tracer.restore()
    setup_seconds = [perf_counter() - started]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds[0]}))
        return 0
    env = environment(workload, inputs, args.seed, args.trace)
    RESULTS.mkdir(exist_ok=True)
    if not args.trace:
        # only the gated schemes are timed here; the others of qr are
        # per-layer metrics and run in the traced run
        workload.schemes = tuple(s for s in workload.schemes if s in E2E_SCHEMES)
        setup_seconds += child_setup_seconds(args.workload, args.seed, SETUP_SAMPLES - 1)
        warm_up(workload, inputs)
        samples, _ = measure(workload, inputs, args.seconds)
        values = end_to_end_values(samples, setup_seconds)
        units = {name: unit for name, unit, _ in end_to_end_metrics()}
        metrics = {name: (values[name], units[name]) for name in units}
        emit(env, metrics, {"untraced": samples}, setup_seconds)
        return 0
    warm_up(workload, inputs)
    untraced, traced = measure(workload, inputs, args.seconds, tracer)
    totals = tracer.totals()
    values = per_layer_values(untraced, traced, totals)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    metrics = {name: (values[name], units[name]) for name in units}
    spans_path = RESULTS / f"{args.workload}-spans.jsonl.gz"
    tracer.write(spans_path)
    emit(env, metrics, {"untraced": untraced, "traced": traced}, [], {"spans": spans_path.name})
    return 0
