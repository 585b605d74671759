"""Command-line front end: corpus dump, verification, search, certificates.

Exit codes: 0 success (verify: rule passes), 1 verification failure,
2 unusable input (unknown names, malformed files or numbers such as a zero
denominator, nodes outside the domain, values the exact arithmetic cannot
represent or certify, an --output path that cannot be written),
3 violated operation precondition (non-piecewise-constant input to `min`,
overlapping supports for `bound`, non-verifying input rule for `reduce`).

All JSON output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .exactnum import ExactNumError, Radical, float_str
from .piecewise import DomainError, UnsupportedProduct
from .discretize import (
    ImprovedBound,
    Infeasible,
    PreconditionError,
    Rule,
    caratheodory_reduce,
    decide_min,
    forced_region_contradiction,
    gram,
    gram_to_doc,
    index_pairs,
    lower_bound_to_doc,
    min_certificate_to_doc,
    reduce_result_to_doc,
    rule_from_doc,
    rule_to_doc,
    search_grid,
    subspace_from_doc,
    subspace_to_doc,
    support_lower_bound,
    verify_report_to_doc,
    verify_rule,
)
from . import corpus as corpus_mod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    """Unusable command input (exit code 2)."""


@contextmanager
def _writing(path: str):
    """Report an OSError raised while writing ``path`` as unusable input."""
    try:
        yield
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def _emit(doc: dict, args, human_lines) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    out = getattr(args, "output", None)
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e


def _load_doc(path: str, from_doc, what: str):
    try:
        return from_doc(_load_json(path))
    except InputError:
        raise
    except (KeyError, ValueError, TypeError, ZeroDivisionError, ExactNumError) as e:
        raise InputError(f"bad {what} file {path}: {e}") from e


def _load_subspace(path: str):
    return _load_doc(path, subspace_from_doc, "subspace")


def _load_rule(path: str) -> Rule:
    return _load_doc(path, rule_from_doc, "rule")


def _list_tokens(text: str, what: str) -> list[str]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise InputError(f"empty {what} list")
    return tokens


def _parse_fraction_list(text: str, what: str):
    out = []
    for tok in _list_tokens(text, what):
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad {what} entry {tok!r}: {e}") from e
    return out


def _name_indices(s, text: str, what: str):
    out = []
    for tok in _list_tokens(text, what):
        try:
            out.append(s.index_of(tok))
        except KeyError as e:
            raise InputError(f"bad {what}: {e.args[0]}") from e
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_corpus(args) -> int:
    name = args.name
    try:
        s = corpus_mod.build_subspace(name)
    except KeyError as e:
        raise InputError(e.args[0]) from e
    outdir = args.output or "."
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)
    written = []

    def write(filename: str, doc: dict):
        path = os.path.join(outdir, filename)
        with _writing(path), open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)

    write(f"{name}.subspace.json", subspace_to_doc(s))
    for rule_name, (sid, rule) in sorted(corpus_mod.golden_rules().items()):
        if sid == name:
            write(f"{rule_name}.rule.json", rule_to_doc(rule))
    if args.format == "json":
        sys.stdout.write(json.dumps({"written": written}, indent=2, sort_keys=True) + "\n")
    else:
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    s = _load_subspace(args.subspace)
    rule = _load_rule(args.rule)
    report = verify_rule(s, rule)
    doc = verify_report_to_doc(s, rule, report)
    lines = [f"rule: {len(rule)} nodes on [{s.domain[0]}, {s.domain[1]}]"]
    for entry in doc["pairs"]:
        i, sx = entry["pair"]
        r = entry["residual"]
        mark = "ok" if r["exact"] == "0" else "FAIL"
        lines.append(f"  ({i}, {sx}): residual {r['exact']} ({r['float']}) [{mark}]")
    lines.append("PASS" if report.passed else
                 "FAIL: " + ", ".join(f"({a}, {b})" for a, b in doc["failing"]))
    _emit(doc, args, lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_gram(args) -> int:
    s = _load_subspace(args.subspace)
    doc = gram_to_doc(s)
    g, rank = gram(s)
    lines = [f"gram matrix ({s.dimension} x {s.dimension}), rank {rank}"]
    for name, row in zip(s.names, g):
        lines.append(f"  {name}: [" + ", ".join(str(v) for v in row) + "]")
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_min(args) -> int:
    s = _load_subspace(args.subspace)
    cert = decide_min(s, mode=args.mode)
    doc = min_certificate_to_doc(s, cert)
    lines = [
        f"minimal node count ({cert.mode} weights): {cert.m_min}",
        "witness: " + _rule_line(cert.witness),
    ]
    for lvl in cert.exhaustion:
        reasons: dict[str, int] = {}
        for c in lvl.cases:
            reasons[c.reason] = reasons.get(c.reason, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(reasons.items()))
        lines.append(f"  size {lvl.m}: {lvl.count} cases infeasible ({summary})")
    lines.append("fallback: " + _rule_line(cert.fallback))
    if cert.flags:
        lines.append("flags: " + ", ".join(cert.flags))
    _emit(doc, args, lines)
    return EXIT_OK


def _rule_line(rule: Rule) -> str:
    return "; ".join(f"{x} -> {w}" for x, w in zip(rule.nodes, rule.weights))


def cmd_grid(args) -> int:
    s = _load_subspace(args.subspace)
    cand = _parse_fraction_list(args.candidates, "candidate")
    pairs = None
    if args.skip_pair:
        skip = set()
        for pair_txt in args.skip_pair:
            idx = _name_indices(s, pair_txt, "skip pair")
            if len(idx) != 2:
                raise InputError(f"bad --skip-pair {pair_txt!r}: expected NAME,NAME")
            i, j = idx
            skip.add((min(i, j), max(i, j)))
        pairs = [p for p in index_pairs(s.dimension) if p not in skip]
    try:
        rules = search_grid(
            s,
            cand,
            args.m,
            mode=args.mode,
            max_subsets=args.max_subsets,
            pairs=pairs,
        )
    except ValueError as e:
        raise InputError(str(e)) from e
    doc = {
        "kind": "grid",
        "mode": args.mode,
        "m": args.m,
        "candidates": [str(x) for x in cand],
        "count": len(rules),
        "rules": [rule_to_doc(r) for r in rules],
    }
    if pairs is not None:
        doc["pairs"] = [[s.names[i], s.names[j]] for i, j in pairs]
    lines = [f"feasible rules found: {len(rules)}"]
    lines += ["  " + _rule_line(r) for r in rules]
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    s = _load_subspace(args.subspace)
    rule = _load_rule(args.rule)
    res = caratheodory_reduce(s, rule, mode=args.mode)
    doc = reduce_result_to_doc(rule, res)
    lines = [
        f"reduced {len(rule)} nodes -> {len(res.rule)} nodes in {len(res.steps)} steps",
        "output: " + _rule_line(res.rule),
    ]
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_bound(args) -> int:
    s = _load_subspace(args.subspace)
    witness = _name_indices(s, args.witness, "witness")
    if len(witness) != 1:
        raise InputError(f"bad --witness {args.witness!r}: expected one NAME")
    targets = _name_indices(s, args.targets, "target")
    refine = None
    if args.refine:
        refine = _name_indices(s, args.refine, "refine pair")
        if len(refine) != 2:
            raise InputError(f"bad --refine {args.refine!r}: expected NAME,NAME")
    cert = support_lower_bound(s, witness[0], targets)
    refined = forced_region_contradiction(s, cert, *refine) if refine else None
    doc = lower_bound_to_doc(s, cert, refined)
    lines = [f"lower bound: {doc['bound']} nodes"]
    for c in cert.clauses:
        name = s.names[c.target]
        lines.append(
            f"  {name}: needs {c.count} "
            f"(norm^2 = {c.norm_sq}, <witness, {name}> = {c.inner}, "
            f"witness nonvanishing: {c.nonvanishing})"
        )
    if isinstance(refined, ImprovedBound):
        s1, s2 = refined.sums
        lines.append(
            f"refined to {refined.bound}: forced weight sums {s1} vs {s2} differ"
        )
    elif refined is not None:
        lines.append(f"refinement not applicable: {refined.reason}")
    _emit(doc, args, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exactdisc",
        description="exact discretization rules on piecewise subspaces",
        epilog="exit codes: 0 ok / 1 verification failed / 2 bad input / "
        "3 precondition violated",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--output", help="write the report to this file")

    def mode(p):
        p.add_argument("--mode", choices=("signed", "positive"), default="signed")

    p = sub.add_parser("corpus", help="write a bundled subspace and its known rules")
    p.add_argument("name", help="ex1 or ex2")
    p.add_argument("--output", help="target directory (default: .)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify", help="check a rule against a subspace exactly")
    p.add_argument("subspace")
    p.add_argument("rule")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gram", help="print the exact Gram matrix and its rank")
    p.add_argument("subspace")
    common(p)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("min", help="minimal node count for piecewise-constant bases")
    p.add_argument("subspace")
    mode(p)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    common(p)
    p.set_defaults(fn=cmd_min)

    p = sub.add_parser("grid", help="enumerate candidate node subsets for rules")
    p.add_argument("subspace")
    p.add_argument("--candidates", required=True, help="comma-separated rationals")
    p.add_argument("-m", type=int, required=True, help="subset size")
    mode(p)
    p.add_argument("--max-subsets", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument(
        "--skip-pair",
        action="append",
        default=[],
        metavar="NAME,NAME",
        help="drop this basis pair's condition (repeatable)",
    )
    common(p)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("reduce", help="shrink a verifying rule along null combinations")
    p.add_argument("subspace")
    p.add_argument("rule")
    mode(p)
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("bound", help="structural lower bound from disjoint supports")
    p.add_argument("subspace")
    p.add_argument("--witness", required=True, help="basis function name")
    p.add_argument("--targets", required=True, help="comma-separated basis names")
    p.add_argument("--refine", help="NAME,NAME pair for the forced-sum refinement")
    common(p)
    p.set_defaults(fn=cmd_bound)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "max_subsets", None) is not None and args.max_subsets < 1:
        print("error: --max-subsets must be positive", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except (InputError, UnsupportedProduct, ExactNumError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
