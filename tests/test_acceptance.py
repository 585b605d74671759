"""Acceptance gate: one test per headline capability, each printing a
CRITERION line and holding a runtime budget.  Run with -s to see the lines.

The budgets are generous on purpose — they catch algorithmic regressions
(accidental exponential blowup), not machine noise.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp

import oracles
import props
from exactdisc.corpus import GSpec, build_g, build_X2, build_X8, golden_rules
from exactdisc.discretize import (
    NoPositive,
    caratheodory_reduce,
    decide_min,
    forced_region_contradiction,
    gram,
    index_pairs,
    measure_rule,
    min_certificate_to_doc,
    positive_feasible,
    solve_weights,
    subspace_to_doc,
    support_lower_bound,
    verify_rule,
    verify_report_to_doc,
)
from exactdisc.exactnum import Radical
from exactdisc.piecewise import pw_integrate, pw_mul

X2 = build_X2()
X8 = build_X8()
GOLDEN = golden_rules()
NEG_RULE = GOLDEN["ex1-negative"][1]
POS_RULE = GOLDEN["ex1-positive"][1]
NINE_RULE = GOLDEN["ex2-nine"][1]


@contextmanager
def criterion(k, label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {k}: FAIL — {label}")
        raise
    dt = time.perf_counter() - t0
    print(f"CRITERION {k}: PASS — {label} ({dt:.2f}s)")
    assert dt < budget, f"criterion {k} took {dt:.2f}s, budget {budget}s"


def test_criterion_1_pair_subspace_pipeline():
    with criterion(1, "pair-subspace Gram, golden-rule verification, negative weight", 1.0):
        g, rank = gram(X2)
        assert rank == 2
        assert g[0][0] == Radical(1)
        assert g[0][1] == g[1][0] == Radical(0)
        assert g[1][1] == Radical(Fraction(15, 2))
        report = verify_rule(X2, NEG_RULE)
        assert report.passed
        assert all(r == Radical(0) for r in report.residuals)
        lam1 = Radical(NEG_RULE.weights[0])
        assert lam1.sign() < 0 and lam1 == Radical(Fraction(-3, 2))


def test_criterion_2_minimality_certificates():
    with criterion(2, "node-minimality 3/3 with oracle-rechecked exhaustion", 1.0):
        g, _ = gram(X2)
        rhs = [g[i][s].as_fraction() for i, s in index_pairs(X2.dimension)]
        for mode in ("signed", "positive"):
            cert = decide_min(X2, mode)
            assert cert.m_min == 3
            assert [(lvl.m, lvl.count) for lvl in cert.exhaustion] == [(1, 5), (2, 15)]
            for lvl in cert.exhaustion:
                assert len(lvl.cases) == lvl.count
                for case in lvl.cases:
                    values = [cert.groups[gi].values for gi in case.subset]
                    cols = [
                        [(v[i] * v[s]).as_fraction() for i, s in index_pairs(X2.dimension)]
                        for v in values
                    ]
                    assert oracles.check_case_reason(cols, rhs, case.reason), case


def test_criterion_3_three_node_weights_cannot_be_positive():
    with criterion(3, "unique signed weights at (-1/2, 1/8, 3/8), no positive ones", 1.0):
        nodes = (Fraction(-1, 2), Fraction(1, 8), Fraction(3, 8))
        sol = solve_weights(X2, nodes)
        assert sol.unique
        assert sol.particular == (
            Radical(Fraction(-3, 2)),
            Radical(Fraction(1, 2)),
            Radical(Fraction(1, 2)),
        )
        assert isinstance(positive_feasible(sol), NoPositive)


def test_criterion_4_hierarchy_inner_products():
    with criterion(4, "exact hierarchy norms; (h0, h1) settled against quadrature", 5.0):
        g01 = build_g(GSpec(Fraction(0), Fraction(1)))
        assert pw_integrate(pw_mul(g01, g01)) == Radical(Fraction(2, 3))
        g, _ = gram(X8)
        assert g[0][0] == Radical(1)
        assert g[1][1] == Radical(Fraction(3, 4))
        assert g[2][2] == Radical(Fraction(1, 2))
        assert g[4][4] == Radical(Fraction(1, 4))
        for i, s in index_pairs(X8.dimension):
            if i != s and (i, s) != (0, 1):
                assert g[i][s] == Radical(0), (i, s)
        # the lone nonzero cross entry: exact value vs 60-digit quadrature
        assert g[0][1] == Radical(Fraction(-43, 240)) + Radical.single(6, Fraction(3, 40))
        fn_docs = subspace_to_doc(X8)["functions"]
        quad = oracles.quad_product(fn_docs[0], fn_docs[1])
        exact = oracles.radical_to_mpf(g[0][1].terms)
        assert abs(quad - exact) < mp.mpf("1e-40")
        assert g[0][1] != Radical(0)


def test_criterion_5_nine_node_rule_audit():
    with criterion(5, "nine-node rule: diagonals exact, only (h0, h1) off", 5.0):
        g, _ = gram(X8)
        report = verify_rule(X8, NINE_RULE)
        assert not report.passed
        for i in range(X8.dimension):
            assert report.residual(i, i) == Radical(0)
        assert report.failing == ((0, 1),)
        # the rule's node sum for that pair is 0, so the residual is -<h0, h1>
        assert report.residual(0, 1) == -g[0][1]
        doc = verify_report_to_doc(X8, NINE_RULE, report)
        assert doc["pass"] is False
        assert doc["failing"] == [["h0", "h1"]]
        off = [e for e in doc["pairs"] if e["pair"] == ["h0", "h1"]]
        assert off[0]["residual"]["exact"] != "0"


def test_criterion_6_lower_bounds():
    with criterion(6, "support bound 8 improved to 9 by weight-sum clash", 2.0):
        base = support_lower_bound(X8, 0, (4, 5, 6, 7))
        assert base.bound == 8
        assert all(c.count == 2 for c in base.clauses)
        imp = forced_region_contradiction(X8, base, 0, 1)
        assert imp.bound == 9
        assert imp.sums == (Radical(1), Radical(Fraction(3, 4)))


def test_criterion_7_support_reduction():
    with criterion(7, "5-node measure rule reduced to a positive rule on <= 3 nodes", 1.0):
        start = measure_rule(X2)
        assert len(start.nodes) == 5
        assert verify_rule(X2, start).passed
        red = caratheodory_reduce(X2, start, mode="positive")
        assert len(red.rule.nodes) <= 3
        assert all(Radical(w).sign() > 0 for w in red.rule.weights)
        assert verify_rule(X2, red.rule).passed


def test_criterion_8_property_batteries():
    with criterion(8, "field laws, polarization, oracle sweep, determinism", 45.0):
        assert props.run_field_laws(200) == 200
        assert props.run_polarization(X2, NEG_RULE, 100, seed=1) == 0
        assert props.run_polarization(X2, POS_RULE, 100, seed=2) == 0
        # the nine-node rule must trip the identity on generic combinations
        assert props.run_polarization(X8, NINE_RULE, 100, seed=3) > 0

        rng = random.Random(2026)
        for _ in range(50):
            s = props.random_pwc_subspace(rng)
            doc = subspace_to_doc(s)
            for mode in ("signed", "positive"):
                assert decide_min(s, mode).m_min == oracles.brute_min(doc, mode)

        for mode in ("signed", "positive"):
            outs = [
                json.dumps(
                    min_certificate_to_doc(X2, decide_min(X2, mode)),
                    sort_keys=True,
                )
                for _ in range(3)
            ]
            assert outs[0] == outs[1] == outs[2]
