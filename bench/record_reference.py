#!/usr/bin/env python3
"""Record reference output digests for the default seed.

    python3 bench/record_reference.py [workload ...]

Runs every job of each workload's default-seed pool once, untraced, checks
it, and writes [exit code, sha256] per output to bench/reference/.  Run it
only on a commit whose outputs are known good: later runs with the default
seed fail any job whose outputs differ from these bytes.
"""

import json
import os
import shutil
import sys

import run


def main(argv) -> int:
    os.environ.pop(run.PRECISION_ENV, None)
    sys.path[:0] = [run.SRC, run.HERE]
    import check
    import gen

    for workload in argv or gen.WORKLOADS:
        workdir = os.path.join(run.OUT_DIR, f"reference-{workload}-{os.getpid()}")
        try:
            jobs, _ = run.setup(workload, run.DEFAULT_SEED, workdir, 1)
            digests = []
            for job in jobs:
                _, outputs, _, err = run.timed_job(workload, job, None)
                if err is not None:
                    print(f"{workload} job {job.index}: {err}", file=sys.stderr)
                    return 1
                digests.append(check.digests(outputs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(run.HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"seed": run.DEFAULT_SEED, "digests": digests}, fh, indent=0)
            fh.write("\n")
        print(f"wrote {path} ({len(digests)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
