#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, by name and unit.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once per workload (untraced), each in its own process,
and exits nonzero if any job failed or any run did not finish.
"""

import argparse
import json
import os
import subprocess
import sys

import run

sys.path.insert(0, run.SRC)
import gen  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    bad = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            bad += 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: {result['attempted']} jobs, "
              f"failed_frac {result['failed'] / result['attempted']:g}")
        for name, m in result["metrics"].items():
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']}")
        bad += not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
