"""tailbounds benchmark: closed-loop workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload bound-table --seed 1 --seconds 10 --trace 0

One caller, no think time: the next op starts when the last one returns.
Inputs come from ``--seed``; each op's outputs are checked against values
computed apart from tailbounds, off the clock. ``--seconds`` is the op time a
run measures. The last stdout line is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of one workload. ``--trace 1``
reports the per-layer metrics: it runs every workload for ``seconds/4`` of op
time untraced and ``seconds/4`` traced, in alternating rounds, records spans around the
benchmark's own calls into each module, and times each verification suite
once through ``run_suite``. ``attempted`` and ``failed`` always count the
named workload only.

Full results, the environment, and the traced spans go to ``bench/out/``.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict

from tracing import Tracer, check_op_accounting, median, null_span, percentile, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("bound-table", "confidence", "moment", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
SUITES = ("lemma41", "lemma42", "lemma43", "lemma44", "lemma45", "lemma46", "dominance")
NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}
# Message of DiscreteDist's normalization check: the one fault an op may fail on.
FAULT_TEXT = "probabilities sum to"

# metric, unit, span name, workloads whose spans are pooled; value = median duration per call
SPAN_METRICS = (
    ("distributions.iid_sum_dist_ms", "ms", "distributions.iid_sum_dist", ("confidence", "bound-table")),
    ("distributions.from_dist_ms", "ms", "distributions.from_dist", ("confidence",)),
    ("distributions.poisson_log_survival_us", "us", "distributions.poisson_log_survival", ("bound-table",)),
    ("distributions.convolve_ms", "ms", "distributions.convolve", ("verify", "moment")),
    ("hull.log_concave_hull_ms", "ms", "hull.log_concave_hull", ("confidence",)),
    ("hull.eval_hull_us", "us", "hull.eval_hull", ("bound-table",)),
    ("hull.poisson_hull_log_eval_us", "us", "hull.poisson_hull_log_eval", ("bound-table",)),
    ("hull.random_survival_round_us", "us", "hull.random_survival_round", ("verify",)),
    ("fracmoment.lhs_inf_sweep_ms", "ms", "fracmoment.lhs_inf_sweep", ("moment",)),
    ("fracmoment.lhs_inf_ms", "ms", "fracmoment.lhs_inf", ("moment",)),
    ("fracmoment.rhs_bound_us", "us", "fracmoment.rhs_bound", ("moment",)),
    ("bounds.build_chain_ms", "ms", "bounds.build_chain", ("confidence",)),
    ("bounds.invert_for_confidence_ms", "ms", "bounds.invert_for_confidence", ("confidence",)),
    ("bounds.tail_bound_us", "us", "bounds.tail_bound", ("bound-table",)),
    ("bounds.coarsening_us", "us", "bounds.coarsening", ("bound-table",)),
    ("bounds.hoeffding_us", "us", "bounds.hoeffding", ("bound-table",)),
    ("bounds.mgf_bound_ms", "ms", "bounds.mgf_bound", ("moment",)),
    ("bounds.fractional_moment_bound_ms", "ms", "bounds.fractional_moment_bound", ("moment",)),
    ("verify.convex_domination_check_us", "us", "verify.convex_domination_check", ("verify",)),
    ("verify.schur_check_ms", "ms", "verify.schur_check", ("verify",)),
    ("verify.tree_build_us", "us", "verify.tree_build", ("verify",)),
    ("verify.exact_tail_many_us", "us", "verify.exact_tail_many", ("verify",)),
)
# metric, span name, count key, workload; value = median over ops of the per-op sum
COUNT_METRICS = (
    ("distributions.atoms_built", "distributions.iid_sum_dist", "atoms", "confidence"),
    ("hull.knots_swept", "hull.log_concave_hull", "knots", "confidence"),
)


class PhaseStats:
    """Counts and op latencies of consecutive whole rounds of one workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = 0
        self.op_s = 0.0
        self.latencies = []
        self.errors = []

    @property
    def ok(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        return self.ok / self.op_s


def run_round(wl, inputs, tracer, stats):
    """Run one round's ops back to back; check each output off the clock."""
    span = tracer.span if tracer else null_span
    for inp in inputs:
        stats.attempted += 1
        if tracer:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            with span("op"):
                out = wl.op(inp, span)
        except ValueError as exc:
            stats.op_s += time.perf_counter() - t0
            stats.failed += 1
            if FAULT_TEXT in str(exc):
                stats.faults += 1
            else:
                stats.errors.append(f"{wl.name} {inp!r:.200}: {exc}")
            continue
        except Exception as exc:  # any other failure is a wrong answer, recorded
            stats.op_s += time.perf_counter() - t0
            stats.failed += 1
            stats.errors.append(f"{wl.name} {inp!r:.200}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        stats.op_s += dt
        stats.latencies.append(dt)
        try:
            wl.check(inp, out)
        except AssertionError as exc:
            stats.errors.append(f"{wl.name} check {inp!r:.200}: {exc}")
        if tracer:
            wl.replay(inp, out, span)


def run_phase(wl, rng, first_round, seconds, tracer, min_ok=0):
    """Whole rounds until their op time reaches ``seconds`` and ``min_ok`` ops succeeded.

    Returns the stats and the next round index.
    """
    stats = PhaseStats()
    r = first_round
    while stats.op_s < seconds or stats.ok < min_ok:
        run_round(wl, wl.round(rng, r), tracer, stats)
        r += 1
    return stats, r


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload, seed):
    """Wall time from starting a fresh interpreter to its first timed op, per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, output {line!r})")
        times.append(t1 - t0)
    return times


def environment(root):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "tailbounds", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_rev": git_rev(root),
        "src_sha256": digest.hexdigest(),
    }


def git_rev(root):
    """HEAD commit read from ``root/.git``; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    warm = PhaseStats()
    run_round(wl, wl.round(rng, 0), None, warm)
    # at least 100 ok ops, so that ten lie beyond the p90
    stats, _ = run_phase(wl, rng, 1, args.seconds, None, min_ok=100)
    rss = peak_rss_mb()
    setup = measure_setup(args.workload, args.seed)
    lat_ms = [t * 1e3 for t in stats.latencies]
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "ops_per_s": metric(stats.ops_per_s, "ops/s"),
        "op_p50_ms": metric(median(lat_ms), "ms"),
        "op_p90_ms": metric(percentile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {"ok_ops": stats.ok, "faults": stats.faults, "op_seconds": stats.op_s,
              "setup_samples_s": setup, "errors": warm.errors + stats.errors}
    return stats, metrics, detail


def layer_metrics(tracer, phases, suite_s):
    spans = tracer.spans
    selfs = self_times(spans)
    ops_checked = check_op_accounting(spans, selfs)
    durations = defaultdict(list)
    self_by = defaultdict(list)
    for s, st in zip(spans, selfs):
        durations[(s.workload, s.name)].append(s.end - s.start)
        self_by[(s.workload, s.name)].append(st)
    metrics = {}
    for name, unit, span_name, wls in SPAN_METRICS:
        vals = [v for w in wls for v in durations[(w, span_name)]]
        metrics[name] = metric(median(vals) / NS_PER[unit], unit)
    for name, span_name, key, wl in COUNT_METRICS:
        per_op = defaultdict(int)
        for s in spans:
            if s.workload == wl and s.name == span_name:
                per_op[s.op] += s.counts[key]
        metrics[name] = metric(median(list(per_op.values())), "count/op")
    metrics["distributions.normalization_failures"] = metric(
        sum(p.faults for pair in phases.values() for p in pair), "count/run")
    for name in SUITES:
        metrics[f"suites.{name}_s"] = metric(suite_s[name], "s")
    main_ns, lib_ns = {}, {}
    for s in spans:
        if s.workload == "bound-table" and s.name == "cli.main":
            main_ns[s.op] = s.end - s.start
        elif s.workload == "bound-table" and s.name == "library":
            lib_ns[s.op] = s.end - s.start
    metrics["cli.bound_overhead_ms"] = metric(
        median([main_ns[op] - lib_ns[op] for op in lib_ns]) / 1e6, "ms")
    for w, (plain, traced) in phases.items():
        metrics[f"trace.{w}.overhead_pct"] = metric(
            100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0), "%")

    hulls = [s for s in spans if s.name == "hull.log_concave_hull" and "on_hull" in s.counts]
    summary = {
        "ops_checked": ops_checked,
        "spans": len(spans),
        "binomial_knots_on_hull_share": (
            sum(s.counts["on_hull"] for s in hulls) / sum(s.counts["knots"] for s in hulls)),
        "self_us": {
            f"{w}/{n}": {"calls": len(v), "median_self_us": median(v) / 1e3,
                         "total_self_ms": sum(v) / 1e6}
            for (w, n), v in sorted(self_by.items())
        },
    }
    return metrics, summary


def traced(args):
    import numpy as np
    from tailbounds import run_suite
    from workloads import WORKLOADS

    slice_s = args.seconds / 4.0
    tracer = Tracer()
    phases = {}
    errors = []
    for name, cls in WORKLOADS.items():
        wl = cls()
        rng = np.random.default_rng(args.seed)
        tracer.workload = name
        warm = PhaseStats()
        run_round(wl, wl.round(rng, 0), None, warm)
        # alternate untraced and traced rounds so both see the same machine state
        plain, trace = PhaseStats(), PhaseStats()
        r = 1
        while plain.op_s < slice_s or trace.op_s < slice_s:
            if r % 2:
                run_round(wl, wl.round(rng, r), None, plain)
            else:
                run_round(wl, wl.round(rng, r), tracer, trace)
            r += 1
        phases[name] = (plain, trace)
        errors += warm.errors + plain.errors + trace.errors
    suite_s = {}
    for name in SUITES:
        t0 = time.perf_counter()
        (res,) = run_suite(name, seed=args.seed)
        suite_s[name] = time.perf_counter() - t0
        if not res.ok or res.checks == 0:
            errors.append(f"suite {name}: {len(res.failures)} failures in {res.checks} checks")
    metrics, summary = layer_metrics(tracer, phases, suite_s)
    plain, trace = phases[args.workload]
    stats = PhaseStats()
    stats.attempted = plain.attempted + trace.attempted
    stats.failed = plain.failed + trace.failed
    summary.update(errors=errors, suites_s=suite_s,
                   ops={w: [p.ok, t.ok] for w, (p, t) in phases.items()})
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))
    return stats, metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tailbounds", "__init__.py")):
        print(f"error: no tailbounds sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # numpy and tailbounds load only now, after the thread pools are pinned
    import numpy as np
    from workloads import WORKLOADS

    if args.setup_probe:
        wl = WORKLOADS[args.workload]()
        run_round(wl, wl.round(np.random.default_rng(args.seed), 0), None, PhaseStats())
        print("ready", flush=True)
        return 0

    if args.trace:
        stats, metrics, detail = traced(args)
    else:
        stats, metrics, detail = end_to_end(args)
    correct = not detail["errors"]
    env = environment(root)
    print(json.dumps({"env": env}))
    for err in detail["errors"][:20]:
        print(f"error: {err}", file=sys.stderr)
    result = {"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
              "metrics": metrics}
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, args=vars(args), env=env, detail=detail), fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
