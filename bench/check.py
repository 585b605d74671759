"""Output checks for benchmark jobs.

A job's outputs are the exit code and stdout text of each command, plus,
for `audit_radical`, the polarization defects the job computed.  A job
passes when every exit code is the expected one and every document is
right by the generator's own facts (`Job.spec`):

* `min_sweep` / `grid_positive`: every witness, grid rule, fallback and
  reduced rule is re-verified here in exact a + b*sqrt(d) arithmetic from
  the generated region table, independently of the program; positive
  modes need positive weights; exhaustion logs have the documented layout.
* `audit_radical`: the Gram matrix, the verify outcome and residuals, the
  lower bound and the polarization defects are all known exactly from the
  hierarchy's construction.

When reference digests are given (the default seed), the sha256 of every
output must also match the one recorded from the parent program.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb

from gen import GRID_CANDIDATES, GRID_MAX_SUBSETS, H01


class CheckError(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise CheckError(what)


def digests(outputs) -> list:
    """[exit code, sha256 of the text] per output, as stored in references."""
    return [[code, hashlib.sha256(text.encode()).hexdigest()] for code, text in outputs]


def check_job(workload: str, job, outputs, reference=None) -> int:
    """Raise CheckError unless the outputs are right; return the job's units
    of logical work (counted from the outputs)."""
    _expect(len(outputs) >= len(job.commands), "missing command outputs")
    for (argv, want), (code, _) in zip(job.commands, outputs):
        _expect(code == want, f"{argv[0]}: exit code {code}, expected {want}")
    if reference is not None:
        _expect(digests(outputs) == reference, "output digest differs from the reference")
    checker = {"min_sweep": _check_min, "grid_positive": _check_grid,
               "audit_radical": _check_audit}[workload]
    try:
        return checker(job, outputs)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckError(f"malformed output: {e!r}") from e


# ---------------------------------------------------------------------------
# piecewise-constant oracle over Q(sqrt(d))


class _Q:
    """a + b*sqrt(d) for one squarefree d per job (b == 0 when d == 1)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    @classmethod
    def parse(cls, text: str, d: int) -> "_Q":
        terms = parse_radical(text)
        _expect(set(terms) <= {1, d}, f"value {text!r} outside Q(sqrt({d}))")
        return cls(terms.get(1, 0), terms.get(d, 0) if d > 1 else 0, d)

    def __add__(self, o):
        return _Q(self.a + o.a, self.b + o.b, self.d)

    def __mul__(self, o):
        if not isinstance(o, _Q):
            return _Q(self.a * o, self.b * o, self.d)
        return _Q(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    def __eq__(self, o):
        return (self.a, self.b) == (o.a, o.b)

    def sign(self) -> int:
        sa, sb = [(x > 0) - (x < 0) for x in (self.a, self.b)]
        if sa * sb >= 0:
            return sa or sb
        return sa if self.a * self.a > self.b * self.b * self.d else sb


def _value(regions, x: Fraction):
    for lo, hi, v in regions:
        if lo <= x < hi:
            return v
    _expect(x == regions[-1][1], f"node {x} outside the domain")
    return regions[-1][2]


def _rule_exact(regions, dim, d, nodes, weights) -> bool:
    vals = [[_Q(a, b, d) for a, b in _value(regions, x)] for x in nodes]
    cells = [(hi - lo, [_Q(a, b, d) for a, b in v]) for lo, hi, v in regions]
    zero = _Q(0, 0, d)
    for i in range(dim):
        for s in range(i, dim):
            gram = zero
            for length, v in cells:
                gram = gram + v[i] * v[s] * length
            total = zero
            for w, v in zip(weights, vals):
                total = total + w * v[i] * v[s]
            if total != gram:
                return False
    return True


def _rule(doc, spec, positive, what):
    regions, dim, d = spec["regions"], spec["dim"], spec["d"]
    nodes = [Fraction(x) for x in doc["nodes"]]
    weights = [_Q.parse(w, d) for w in doc["weights"]]
    _expect(len(nodes) == len(weights) == len(set(nodes)) > 0, f"{what}: bad node list")
    _expect(_rule_exact(regions, dim, d, nodes, weights), f"{what}: rule is not exact")
    if positive:
        _expect(all(w.sign() > 0 for w in weights), f"{what}: weight not positive")
    return nodes, weights


def _check_min(job, outputs) -> int:
    regions, dim = job.spec["regions"], job.spec["dim"]
    pairs = dim * (dim + 1) // 2
    n_vectors = len({v for _, _, v in regions})
    units = 0
    m_min = {}
    for mode, (_, text) in zip(("signed", "positive"), outputs):
        doc = json.loads(text)
        _expect(doc["kind"] == "min" and doc["mode"] == mode, "wrong min document")
        m = doc["m_min"]
        _expect(1 <= m <= min(pairs, n_vectors), f"m_min {m} out of range")
        nodes, _ = _rule(doc["witness"], job.spec, mode == "positive", "witness")
        _expect(len(nodes) == m, "witness size differs from m_min")
        _rule(doc["fallback_witness"], job.spec, True, "fallback")
        levels = doc["exhaustion"]
        _expect([lvl["m"] for lvl in levels] == list(range(1, m)), "exhaustion levels")
        reasons = {"rank-deficient", "inconsistent"}
        if mode == "positive":
            reasons.add("positivity-infeasible")
        for lvl in levels:
            _expect(lvl["count"] == len(lvl["cases"]) ==
                    comb(len(doc["vector_groups"]) + lvl["m"] - 1, lvl["m"]),
                    "exhaustion case count")
            for case in lvl["cases"]:
                _expect(len(case["groups"]) == lvl["m"] and case["reason"] in reasons,
                        "exhaustion case")
        units += sum(lvl["count"] for lvl in levels) + 1
        m_min[mode] = m
    _expect(m_min["signed"] <= m_min["positive"], "signed minimum above positive")
    doc = json.loads(outputs[2][1])
    _expect(doc["kind"] == "reduce" and doc["mode"] == "positive", "wrong reduce document")
    measure = job.spec["measure"]
    _expect(doc["input_rule"]["nodes"] == [str(x) for x in measure.nodes], "reduce input")
    nodes, _ = _rule(doc["output_rule"], job.spec, True, "reduced rule")
    _expect(doc["output_size"] == len(nodes) <= pairs, "reduced rule too large")
    return units


def _check_grid(job, outputs) -> int:
    units = 0
    for m, cands, (_, text) in zip(job.spec["ms"], job.spec["candidates"], outputs):
        doc = json.loads(text)
        _expect(doc["kind"] == "grid" and doc["mode"] == "positive" and doc["m"] == m,
                "wrong grid document")
        _expect(doc["candidates"] == [str(x) for x in cands], "candidate list")
        _expect(doc["count"] == len(doc["rules"]), "rule count")
        for rule in doc["rules"]:
            nodes, _ = _rule(rule, job.spec, True, "grid rule")
            _expect(len(nodes) == m and set(nodes) <= set(cands), "grid rule nodes")
        units += min(comb(len(GRID_CANDIDATES), m), GRID_MAX_SUBSETS)
    return units


# ---------------------------------------------------------------------------
# ex2-shaped hierarchies

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")


def parse_radical(text: str) -> dict:
    """'a/b + c*sqrt(d) - ...' as {radicand: coefficient}, zero terms dropped."""
    out: dict = {}
    compact = text.replace(" ", "")
    if compact == "0":
        return out
    for tok in re.findall(r"[+-]?[^+-]+", compact):
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        m = _TERM.match(body)
        d, c = (int(m.group(2)), Fraction(m.group(1) or 1)) if m else (1, Fraction(body))
        out[d] = out.get(d, 0) + sign * c
    return {d: c for d, c in out.items() if c}


def _scaled(r: dict, k: Fraction) -> dict:
    return {d: c * k for d, c in r.items() if c * k}


_NORMS = [Fraction(1), Fraction(3, 4)] + [Fraction(1, 2)] * 2 + [Fraction(1, 4)] * 4
_NAMES = [f"h{i}" for i in range(8)]


def _check_audit(job, outputs) -> int:
    gram_doc, verify_doc, bound_doc = (json.loads(text) for _, text in outputs[:3])
    _expect(gram_doc["kind"] == "gram" and gram_doc["names"] == _NAMES, "gram document")
    _expect(gram_doc["rank"] == 8 and len(gram_doc["matrix"]) == 8, "gram rank or size")
    for i, row in enumerate(gram_doc["matrix"]):
        _expect(len(row) == 8, "gram row size")
        for j, entry in enumerate(row):
            want = {1: _NORMS[i]} if i == j else H01 if {i, j} == {0, 1} else {}
            _expect(parse_radical(entry["exact"]) == want, f"gram entry ({i}, {j})")

    passing = job.spec["passing"]
    _expect(verify_doc["kind"] == "verify" and verify_doc["pass"] is passing, "verify verdict")
    _expect(verify_doc["failing"] == ([] if passing else [["h0", "h1"]]), "failing pairs")
    _expect(len(verify_doc["pairs"]) == 36, "verify pair count")
    for entry in verify_doc["pairs"]:
        want = {} if passing or entry["pair"] != ["h0", "h1"] else _scaled(H01, -1)
        _expect(parse_radical(entry["residual"]["exact"]) == want, "verify residual")

    _expect(bound_doc["kind"] == "lowerbound" and bound_doc["bound"] == 9, "lower bound")
    _expect([c["count"] for c in bound_doc["clauses"]] == [2] * 4, "bound clauses")
    ref = bound_doc["refinement"]
    _expect(ref["applicable"] and [v["exact"] for v in ref["forced_weight_sums"]]
            == ["1", "3/4"], "bound refinement")

    # defect(alpha) = -sum_(i<=s) (1 or 2) a_i a_s residual(i, s), and only
    # (h0, h1) can have a residual: -<h0, h1> when the rule fails
    defects = outputs[3][1].splitlines()
    alphas = job.spec["alphas"]
    _expect(len(defects) == len(alphas), "polarization defect count")
    for a, text in zip(alphas, defects):
        want = {} if passing else _scaled(H01, 2 * a[0] * a[1])
        _expect(parse_radical(text) == want, "polarization defect")
    return 36 + 36 + len(alphas)
