"""Rebuild every headline artifact into an output directory via the CLI.

Writes the bundled subspaces and rules, verifies each rule (writing the
report on the exact eleven-node ex2 rule), certifies minimal node counts
for the pair subspace, runs the midpoint grid search, computes the
hierarchy lower bounds, and reduces the measure rule.
"""

import argparse
import json
import sys
from pathlib import Path

from exactdisc import cli
from exactdisc.corpus import build_X2, golden_rules
from exactdisc.discretize import measure_rule, rule_to_doc


def run(argv):
    print("$ exactdisc " + " ".join(argv))
    code = cli.main(argv)
    print()
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="out", help="where artifacts land")
    args = ap.parse_args()
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name in ("ex1", "ex2"):
        failures += run(["corpus", name, "--output", str(out)]) != 0

    for key, (sid, _) in sorted(golden_rules().items()):
        argv = ["verify", str(out / f"{sid}.subspace.json"), str(out / f"{key}.rule.json")]
        if key == "ex2-eleven":  # the exact rule behind m_min(ex2) <= 11: keep its report
            argv += ["--format", "json", "--output", str(out / f"{key}-verify.json")]
        code = run(argv)
        # the nine-node rule is expected to fail on (h0, h1); everything else passes
        expected = 1 if key == "ex2-nine" else 0
        failures += code != expected

    for mode in ("signed", "positive"):
        failures += run([
            "min", str(out / "ex1.subspace.json"), "--mode", mode,
            "--format", "json", "--output", str(out / f"ex1-min-{mode}.json"),
        ]) != 0

    failures += run([
        "grid", str(out / "ex1.subspace.json"),
        "--candidates=-1/2,1/8,3/8,5/8,7/8", "-m", "3", "--mode", "positive",
        "--format", "json", "--output", str(out / "ex1-grid-positive.json"),
    ]) != 0

    failures += run([
        "bound", str(out / "ex2.subspace.json"), "--witness", "h0",
        "--targets", "h4,h5,h6,h7", "--refine", "h0,h1",
        "--format", "json", "--output", str(out / "ex2-bound.json"),
    ]) != 0

    five = out / "ex1-measure.rule.json"
    five.write_text(json.dumps(rule_to_doc(measure_rule(build_X2())), indent=2) + "\n",
                    encoding="utf-8")
    failures += run([
        "reduce", str(out / "ex1.subspace.json"), str(five), "--mode", "positive",
        "--format", "json", "--output", str(out / "ex1-reduced.json"),
    ]) != 0

    print(f"artifacts in {out}/; {failures} unexpected exit codes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
