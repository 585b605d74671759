#!/usr/bin/env python3
"""exactdisc benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload min_sweep --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The seed drives the input generator (`gen.py`); the program only
receives the generated JSON documents.  Jobs call `exactdisc.cli.main`
in-process, one after another (`--jobs 1`), and every output is checked
(`check.py`).  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0  end-to-end metrics: setup_s, cases_per_s, job_p50_ms,
           job_p90_ms, peak_rss_mb (lines above the JSON also give
           failed_frac, the job count and provenance).
--trace 1  per-layer metrics from a traced run of a fixed job set
           (`tracing.py`), then an untraced replay of the same jobs that
           must give the same output digests; the time difference is the
           tracing overhead.  Spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PRECISION_ENV = "DISQ_PRECISION_BITS"

DEFAULT_SEED = 2026
#: p90 needs at least ten samples beyond it
MIN_JOBS = 100
#: set-up repetitions; setup_s is their median
SETUP_REPEATS = 5
#: the traced run covers this fixed prefix of the pool, so its counts
#: compare across commits whatever their speed
TRACE_JOBS = 48
#: stop taking new jobs after this long, whatever else, to end within 180 s
HARD_STOP_S = 140.0
#: Seconds one calibration slice takes on the reference machine (x86_64,
#: 2 vCPUs at 2.1 GHz, Python 3.11).  The speed of a shared machine drifts
#: by 10-40% over seconds to minutes, far more than a run's own spread, so
#: a slice is timed after every job and each job's time is scaled by
#: REFERENCE_SLICE_S / (median of the slices around it): the time it would
#: have taken at reference speed.
REFERENCE_SLICE_S = 0.0135
CAL_STEPS = 3000
CAL_TABLE = 50_000
CAL_WINDOW = 20

E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "job_p50_ms": "ms",
             "job_p90_ms": "ms", "peak_rss_mb": "MB"}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import exactdisc.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# running jobs


def run_job(job, polarization=None, on_command=None) -> list:
    """Run a job's commands in-process; returns [(exit code, stdout text)]."""
    from exactdisc import cli

    outputs = []
    for argv, _ in job.commands:
        if on_command is not None:
            on_command()
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse rejects the command line
                code = e.code if isinstance(e.code, int) else 2
        outputs.append((code, out.getvalue()))
    if polarization is not None:
        outputs.append((0, polarization(job)))
    return outputs


def polarization(job) -> str:
    """Exact defects of the rule on random basis combinations f:
    integral of f^2 minus the weighted node sum of f^2, one per line."""
    from exactdisc import discretize, piecewise
    from exactdisc.exactnum import Radical

    with open(job.spec["subspace"]) as fh:
        s = discretize.subspace_from_doc(json.load(fh))
    with open(job.spec["rule"]) as fh:
        rule = discretize.rule_from_doc(json.load(fh))
    lines = []
    for alphas in job.spec["alphas"]:
        f = piecewise.pw_scale_add(alphas[0], s.funcs[0], 0, s.funcs[0])
        for a, g in zip(alphas[1:], s.funcs[1:]):
            f = piecewise.pw_scale_add(1, f, a, g)
        defect = piecewise.pw_integrate(piecewise.pw_mul(f, f))
        for x, w in zip(rule.nodes, rule.weights):
            v = piecewise.pw_eval(f, x)
            defect = defect - w * (v * v)
        lines.append(str(defect))
    return "\n".join(lines) + "\n"


def timed_job(workload, job, reference, on_command=None):
    """(seconds, outputs, units, error) for one job; error is None when the
    outputs check out."""
    import check

    polar = polarization if workload == "audit_radical" else None
    t0 = time.perf_counter()
    try:
        outputs = run_job(job, polar, on_command)
    except Exception:  # a crash fails the job, not the run
        return time.perf_counter() - t0, None, 0, traceback.format_exc()
    dt = time.perf_counter() - t0
    ref = reference[job.index] if reference is not None else None
    try:
        units = check.check_job(workload, job, outputs, ref)
    except check.CheckError as e:
        return dt, outputs, 0, str(e)
    return dt, outputs, units, None


def load_reference(workload: str, seed: int):
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    return doc["digests"] if doc.get("seed") == seed else None


class Calibrator:
    """Times a fixed slice of pure-Python rational arithmetic over a table
    larger than the CPU caches: the kind of work exactdisc spends its time
    on, but none of exactdisc's own code, so a faster program leaves it
    unchanged."""

    def __init__(self):
        self.table = [Fraction(i, 7) for i in range(CAL_TABLE)]

    def slice(self) -> float:
        t0 = time.perf_counter()
        acc = Fraction(0)
        idx = 1
        for i in range(1, CAL_STEPS):
            idx = (idx * 7919 + 13) % CAL_TABLE
            acc += self.table[idx] * Fraction(i % 13, 7)
        return time.perf_counter() - t0


def scaled(times, slices) -> list:
    """times[i] ran between slices[i] and slices[i + 1]; scale it to the
    reference speed by the median of the CAL_WINDOW slices around it, wide
    enough that one slice's own noise hardly shows."""
    half = CAL_WINDOW // 2
    return [
        t * REFERENCE_SLICE_S / statistics.median(slices[max(0, i + 1 - half): i + 1 + half])
        for i, t in enumerate(times)
    ]


def slowness(slices) -> float:
    """How much slower than the reference machine the run went."""
    return statistics.median(slices) / REFERENCE_SLICE_S


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    env = {k: v for k, v in os.environ.items() if k != PRECISION_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, workdir: str, repeats: int, between=None):
    """Generate and write the inputs `repeats` times; returns (jobs, setup
    seconds per repetition: package import + generation + writing).
    `between` is called after each repetition."""
    import gen

    times = []
    jobs = None
    for _ in range(repeats):
        imp = import_seconds()
        t0 = time.perf_counter()
        jobs = gen.make_pool(workload, seed, workdir)
        gen.write_docs(jobs, workdir)
        times.append(imp + time.perf_counter() - t0)
        if between is not None:
            between()
    return jobs, times


def provenance(args, precision_value) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "exactdisc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        PRECISION_ENV: {"environment": precision_value, "used": "unset (default 64)"},
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, workdir):
    import gen

    cal = Calibrator()
    setup_slices = [cal.slice()]
    jobs, setup_times = setup(args.workload, args.seed, workdir, SETUP_REPEATS,
                              lambda: setup_slices.append(cal.slice()))
    reference = load_reference(args.workload, args.seed)
    for job in jobs[-2:]:  # warm lazy caches (the pool outlasts the Gram LRU)
        timed_job(args.workload, job, None)
    latencies, units, failed, errors = [], 0, 0, []
    slices = [cal.slice()]
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        whole = len(latencies) % len(gen.BLOCKS[args.workload]) == 0
        if (now >= args.seconds and len(latencies) >= MIN_JOBS and whole) \
                or now >= HARD_STOP_S:
            break
        job = jobs[len(latencies) % len(jobs)]
        dt, _, u, err = timed_job(args.workload, job, reference)
        latencies.append(dt)
        units += u
        if err is not None:
            failed += 1
            errors.append(f"job {job.index}: {err}")
        slices.append(cal.slice())

    def summary(setup_times, latencies):
        return {
            "setup_s": statistics.median(setup_times),
            "cases_per_s": units / sum(latencies),
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        }

    raw = summary(setup_times, latencies)
    metrics = summary(scaled(setup_times, setup_slices), scaled(latencies, slices))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slow = slowness(slices)
    n = len(latencies)
    notes = [
        f"jobs {n} (p90 has {n - int(0.9 * n)} samples beyond it), failed {failed}, "
        f"failed_frac {failed / n:g}",
        f"reference digests: {'checked' if reference is not None else 'not used for this seed'}",
        f"machine slowness {slow:.4f} (times below are scaled to reference speed); raw: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ] + errors[:5]
    return metrics, {k: E2E_UNITS[k] for k in metrics}, n, failed, notes


def traced(args, workdir):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        jobs, _ = setup(args.workload, args.seed, workdir, 1)
        corpus_build = tracer.total("corpus.build")
        tracer.reset()
        reference = load_reference(args.workload, args.seed)
        n = min(TRACE_JOBS, len(jobs))
        cal = Calibrator()
        traced_runs, traced_slices = [], [cal.slice()]
        start = time.perf_counter()
        for j in range(n):
            if time.perf_counter() - start >= HARD_STOP_S / 2:
                break
            tracer.job = j
            dt, outputs, _, err = timed_job(
                args.workload, jobs[j], reference, on_command=tracer.evals.clear
            )
            traced_runs.append((dt, outputs, err))
            traced_slices.append(cal.slice())
    finally:
        tracer.active = False
        tracer.uninstall()
    import check

    failed, notes, plain_times, plain_slices = 0, [], [], [cal.slice()]
    for j, (dt, outputs, err) in enumerate(traced_runs):
        dt2, outputs2, _, err2 = timed_job(args.workload, jobs[j], reference)
        plain_times.append(dt2)
        plain_slices.append(cal.slice())
        if err is None and outputs is not None and outputs2 is not None \
                and check.digests(outputs) != check.digests(outputs2):
            err = "traced and untraced outputs differ"
        if err is not None or err2 is not None:
            failed += 1
            notes.append(f"job {j}: {err or err2}")
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    spans = tracer.write(span_file)
    slow = slowness(traced_slices)
    overhead = sum(scaled([dt for dt, _, _ in traced_runs], traced_slices)) \
        / sum(scaled(plain_times, plain_slices)) - 1
    metrics, units = layer_metrics(tracer, corpus_build, overhead, spans)
    for name, unit in units.items():
        if unit == "s":
            metrics[name] /= slow
    notes = [f"traced jobs {len(traced_runs)}, failed {failed}; spans in {span_file}",
             f"machine slowness {slow:.4f} (times below are scaled to reference speed)"
             ] + notes[:5]
    return metrics, units, len(traced_runs), failed, notes


def layer_metrics(tr, corpus_build, overhead, n_spans):
    calls = lambda name: tr.total(name, "calls")  # noqa: E731
    secs = lambda name: tr.total(name)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m: dict = {}
    u: dict = {}

    def put(name, value, unit):
        m[name] = value
        u[name] = unit

    for name in ("exactnum.mul", "exactnum.add", "exactnum.sign.shortcut",
                 "exactnum.sign.refined", "exactnum.inverse", "discretize.solve_weights",
                 "discretize.eliminate", "discretize.positive_feasible", "discretize.gram",
                 "discretize.verify_rule", "piecewise.pw_eval", "piecewise.pw_mul",
                 "piecewise.pw_integrate", "piecewise.pw_scale_add"):
        put(f"{name}.calls", calls(name), "count")
    for name in ("exactnum.arith", "exactnum.sign.refined", "exactnum.inverse",
                 "discretize.solve_weights", "discretize.eliminate", "discretize.reduce",
                 "discretize.positive_feasible", "discretize.gram", "discretize.verify_rule",
                 "discretize.bound", "piecewise.pw_eval", "piecewise.pw_mul",
                 "piecewise.pw_integrate", "piecewise.pw_scale_add", "piecewise.support",
                 "cli.load", "cli.serialize"):
        put(f"{name}.s", secs(name), "s")
    for k in ("1", "2", "3", "4", "5plus"):
        put(f"discretize.positive_feasible.nulldim{k}.s",
            secs(f"discretize.positive_feasible.nulldim{k}"), "s")
    put("discretize.decide_min.self.s", tr.total("discretize.decide_min", "self"), "s")
    put("discretize.search_grid.self.s", tr.total("discretize.search_grid", "self"), "s")
    for layer in ("exactnum", "piecewise", "discretize", "cli"):
        put(f"{layer}.self.s", tr.layer_self(layer), "s")
    put("corpus.build.s", corpus_build, "s")
    put("exactnum.mul.rational_frac",
        ratio(calls("exactnum.mul.rational"), calls("exactnum.mul")), "fraction")
    put("discretize.positive_feasible.witness_frac",
        ratio(tr.count["positive_feasible.witness"], calls("discretize.positive_feasible")),
        "fraction")
    put("discretize.feasible_frac",
        ratio(tr.count["solve_weights.feasible"], calls("discretize.solve_weights")),
        "fraction")
    put("piecewise.pw_eval.repeat_frac",
        1 - ratio(tr.count["pw_eval.distinct"], calls("piecewise.pw_eval"))
        if calls("piecewise.pw_eval") else 0.0, "fraction")
    put("trace.overhead_frac", overhead, "fraction")
    put("trace.spans", n_spans, "count")
    return m, u


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exactdisc", "__init__.py")):
        print(f"error: no exactdisc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Radical.sign reads this on every call; pin it to the default
    precision_value = os.environ.pop(PRECISION_ENV, None)
    sys.path[:0] = [SRC, HERE]
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have: {', '.join(gen.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = traced if args.trace else end_to_end
        metrics, units, attempted, failed, notes = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args, precision_value), sort_keys=True))
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
