#!/usr/bin/env python3
"""One-off cross-check of the harness against the hand-timed baselines.

    python3 bench/crosscheck.py

Times three things the ROADMAP timed by hand, each as the library call
the acceptance suite makes and, where the benchmark has one, as the CLI
call the benchmark makes:

1. the seed-2026 `decide_min` sweep of acceptance criterion 8
   (50 `props.random_pwc_subspace` subspaces x 2 modes);
2. the polarization battery on X8 with the nine-node rule, 100 combinations;
3. `gram(X8)` from a cold cache (median of 5).

Prints raw wall seconds and seconds scaled to the reference machine speed
(see run.REFERENCE_SLICE_S).  Needs the repository's tests/ directory.
"""

import json
import os
import random
import shutil
import statistics
import sys
import time

import run


def timed(fn, cal):
    before = cal.slice()
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    return dt, run.scaled([dt], [before, cal.slice(), cal.slice()])[0]


def main() -> int:
    os.environ.pop(run.PRECISION_ENV, None)
    sys.path[:0] = [run.SRC, os.path.join(run.ROOT, "tests")]
    import props
    from exactdisc import build_X8, decide_min, golden_rules, gram, subspace_to_doc
    from exactdisc.discretize import _gram_cached

    rng = random.Random(2026)
    sweep = [props.random_pwc_subspace(rng) for _ in range(50)]
    workdir = os.path.join(run.OUT_DIR, f"crosscheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for i, s in enumerate(sweep):
        paths.append(os.path.join(workdir, f"s{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(subspace_to_doc(s), fh)

    def library_sweep():
        for s in sweep:
            for mode in ("signed", "positive"):
                decide_min(s, mode)

    def cli_sweep():
        job = type("Job", (), {})()
        job.commands = [(["min", p, "--mode", mode, "--jobs", "1", "--format", "json"], 0)
                        for p in paths for mode in ("signed", "positive")]
        run.run_job(job)

    cal = run.Calibrator()
    x8 = build_X8()
    nine = golden_rules()["ex2-nine"][1]

    def cold_gram():
        _gram_cached.cache_clear()
        gram(x8)

    try:
        rows = [
            ("sweep, library decide_min", library_sweep),
            ("sweep, CLI min as the benchmark calls it", cli_sweep),
            ("X8 polarization, 100 combinations", lambda: props.run_polarization(x8, nine, 100, seed=3)),
        ]
        for name, fn in rows:
            raw, scaled = timed(fn, cal)
            print(f"{name}: {raw:.2f} s raw, {scaled:.2f} s at reference speed")
        grams = [timed(cold_gram, cal) for _ in range(5)]
        print(f"gram(X8) cold: {statistics.median(g[0] for g in grams):.4f} s raw, "
              f"{statistics.median(g[1] for g in grams):.4f} s at reference speed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
