"""Checks the worked subspaces: pointwise values against independent
closed-form references, exact norms and cross products, the level
structure, and the shipped rules."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from exactdisc.corpus import (
    Example1Params,
    GSpec,
    H_LEVELS,
    build_f1,
    build_f2,
    build_g,
    build_gap,
    build_h,
    build_subspace,
    build_X2,
    build_X8,
    golden_rules,
)
from exactdisc.discretize import decide_min, search_grid, verify_rule
from exactdisc.exactnum import Radical, rad_sqrt
from exactdisc.piecewise import (
    constant_value_on,
    pw_eval,
    pw_integrate,
    pw_mul,
    pw_support,
    supports_disjoint,
)

P0 = Example1Params()

H_TABLE = {
    2: (GSpec(Fraction(1, 8), Fraction(1, 4)), GSpec(Fraction(1, 4), Fraction(3, 8)), 5),
    3: (GSpec(Fraction(5, 8), Fraction(3, 4)), GSpec(Fraction(3, 4), Fraction(7, 8)), 5),
    4: (GSpec(Fraction(9, 64), Fraction(5, 32)), GSpec(Fraction(5, 32), Fraction(11, 64)), 23),
    5: (GSpec(Fraction(13, 64), Fraction(7, 32)), GSpec(Fraction(7, 32), Fraction(15, 64)), 23),
    6: (GSpec(Fraction(41, 64), Fraction(21, 32)), GSpec(Fraction(21, 32), Fraction(43, 64)), 23),
    7: (GSpec(Fraction(45, 64), Fraction(23, 32)), GSpec(Fraction(23, 32), Fraction(47, 64)), 23),
}


# ---------------------------------------------------------------------------
# independent reference evaluators (plain conditionals, no piece machinery)


def ref_f1(x):
    return Radical(1 if x >= 0 else 0)


def ref_f2(x, p):
    if x < 0:
        v = p.a
    elif x < Fraction(1, 4):
        v = p.A
    elif x < Fraction(1, 2):
        v = -p.A
    elif x < Fraction(3, 4):
        v = p.B
    else:
        v = -p.B
    return Radical(v)


def ref_g(x, spec):
    """Trapezoid wave in normalized coordinates t = (x - a)/l, t in [0, 8]."""
    t = (Fraction(x) - spec.a) / spec.l
    if t < 0 or t > 8:
        return Fraction(0)
    if t < 1:
        return t
    if t < 3:
        return Fraction(1)
    if t < 5:
        return 4 - t
    if t < 7:
        return Fraction(-1)
    return t - 8


def ref_h(i, x):
    x = Fraction(x)
    if i == 0:
        if x < 0:
            return Radical(0)
        if x < Fraction(1, 16):
            return rad_sqrt(24 * x)
        if x < Fraction(1, 8):
            return rad_sqrt(-8 * x + 2)
        return Radical(1)
    if i == 1:
        if x < 0:
            return Radical(-x / 2)
        return Radical(ref_g(x, GSpec(Fraction(0), Fraction(1))))
    s1, s2, d = H_TABLE[i]
    return Radical(ref_g(x, s1)) + Radical.single(d, 1) * Radical(ref_g(x, s2))


def probe_points(f):
    pts = [f.domain_hi]
    for p in f.pieces:
        w = p.hi - p.lo
        pts += [p.lo, p.lo + w / 3, p.lo + w / 2]
    return pts


def test_f_values_match_reference():
    f1, f2 = build_f1(), build_f2(P0)
    for x in probe_points(f1):
        assert pw_eval(f1, x) == ref_f1(x)
    for x in probe_points(f2):
        assert pw_eval(f2, x) == ref_f2(x, P0)
    big = Example1Params(Fraction(1, 2), 5, Fraction(7, 3))
    fbig = build_f2(big)
    for x in probe_points(fbig):
        assert pw_eval(fbig, x) == ref_f2(x, big)


def test_g_values_match_reference():
    for spec in (GSpec(Fraction(0), Fraction(1)), GSpec(Fraction(-1, 2), Fraction(1, 2)), GSpec(Fraction(9, 64), Fraction(5, 32))):
        g = build_g(spec)
        for x in probe_points(g):
            assert pw_eval(g, x) == Radical(ref_g(x, spec))


def test_h_values_match_reference():
    for i in range(8):
        h = build_h(i)
        for x in probe_points(h):
            assert pw_eval(h, x) == ref_h(i, x), (i, x)


def test_h_plateau_signs():
    # the eight nine-node plateau points, against hand values
    h4 = build_h(4)
    assert pw_eval(h4, Fraction(37, 256)) == Radical(1)
    assert pw_eval(h4, Fraction(39, 256)) == Radical(-1)
    h5 = build_h(5)
    assert pw_eval(h5, Fraction(53, 256)) == Radical(1)
    assert pw_eval(h5, Fraction(55, 256)) == Radical(-1)
    h7 = build_h(7)
    assert pw_eval(h7, Fraction(181, 256)) == Radical(1)
    assert pw_eval(h7, Fraction(183, 256)) == Radical(-1)


# ---------------------------------------------------------------------------
# exact integrals


def test_wave_norms():
    g01 = build_g(GSpec(Fraction(0), Fraction(1)))
    assert pw_integrate(g01) == Radical(0)
    assert pw_integrate(pw_mul(g01, g01)) == Radical(Fraction(2, 3))
    small = build_g(GSpec(Fraction(1, 8), Fraction(1, 4)))
    assert pw_integrate(small) == Radical(0)
    assert pw_integrate(pw_mul(small, small)) == Radical(Fraction(1, 12))


def test_pair_gram_entries():
    f1, f2 = build_f1(), build_f2(P0)
    assert pw_integrate(pw_mul(f1, f1)) == Radical(1)
    assert pw_integrate(pw_mul(f1, f2)) == Radical(0)
    assert pw_integrate(pw_mul(f2, f2)) == Radical(Fraction(15, 2))


def test_hierarchy_gram_entries():
    hs = [build_h(i) for i in range(8)]
    diag = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 2)] + [Fraction(1, 4)] * 4
    for i, h in enumerate(hs):
        assert pw_integrate(pw_mul(h, h)) == Radical(diag[i])
    cross = Radical(Fraction(-43, 240)) + Radical.single(6, Fraction(3, 40))
    for i in range(8):
        for s in range(i + 1, 8):
            got = pw_integrate(pw_mul(hs[i], hs[s]))
            if (i, s) == (0, 1):
                assert got == cross  # the one nonzero off-diagonal entry
            else:
                assert got == Radical(0), (i, s)


# ---------------------------------------------------------------------------
# level structure


def test_same_level_supports_disjoint():
    for level in H_LEVELS:
        hs = [build_h(i) for i in level]
        for a in range(len(level)):
            for b in range(a + 1, len(level)):
                assert supports_disjoint(hs[a], hs[b]), (level[a], level[b])


def test_lower_levels_constant_on_higher_supports():
    hs = {i: build_h(i) for i in range(8)}
    hulls = {i: pw_support(hs[i])[0] for i in range(8)}
    for li, low_level in enumerate(H_LEVELS):
        for high_level in H_LEVELS[li + 1 :]:
            for i in low_level:
                for j in high_level:
                    if (i, j) == (0, 1):
                        continue  # genuinely non-constant, asserted below
                    lo, hi = hulls[j]
                    assert constant_value_on(hs[i], lo, hi) is not None, (i, j)
    # the exclusion is real: h0 still bends on the carrier of h1
    lo, hi = hulls[1]
    assert constant_value_on(hs[0], lo, hi) is None


def test_plateau_values_under_h4_to_h7():
    hs = {i: build_h(i) for i in range(8)}
    hulls = {i: pw_support(hs[i])[0] for i in range(4, 8)}
    expect = {
        # (which lower h, hull of which higher h): constant value
        (1, 4): Radical(1), (1, 5): Radical(1), (1, 6): Radical(-1), (1, 7): Radical(-1),
        (2, 4): Radical(1), (2, 5): Radical(-1), (2, 6): Radical(0), (2, 7): Radical(0),
        (3, 4): Radical(0), (3, 5): Radical(0), (3, 6): Radical(1), (3, 7): Radical(-1),
    }
    for (i, j), val in expect.items():
        lo, hi = hulls[j]
        assert constant_value_on(hs[i], lo, hi) == val, (i, j)


# ---------------------------------------------------------------------------
# parameters and subspace builders


def test_params_validation():
    with pytest.raises(ValueError, match="a > 0"):
        Example1Params(0, 3, 2)
    with pytest.raises(ValueError, match="A > B > 0"):
        Example1Params(1, 2, 3)
    with pytest.raises(ValueError, match="unchecked=True"):
        Example1Params(1, Fraction(3, 2), 1)
    p = Example1Params(1, Fraction(3, 2), 1, unchecked=True)
    assert not p.separation_holds
    assert Example1Params(2, 4, Fraction(5, 2)).separation_holds  # 16 > 8 + 25/4


def test_separation_inequality_does_not_split_signed_and_positive_minimum():
    # the census behind the Example1Params docstring: over (a, A, B) in
    # {1/2, 1, 3/2, 2, 5/2, 3, 4}^3 with A > B, `min` finds the signed and the
    # positive minimum equal, whether A^2 > 2 a^2 + B^2 holds or not
    heights = [Fraction(k, 2) for k in (1, 2, 3, 4, 5, 6, 8)]
    census = Counter()
    for a, A, B in itertools.product(heights, repeat=3):
        if A > B:
            p = Example1Params(a, A, B, unchecked=True)
            s = build_X2(p)
            mins = (decide_min(s).m_min, decide_min(s, "positive").m_min)
            census[p.separation_holds, mins] += 1
    assert census == {(True, (3, 3)): 59, (False, (3, 3)): 86, (False, (2, 2)): 2}


def test_gspec_validation():
    with pytest.raises(ValueError):
        GSpec(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        GSpec(Fraction(-2), Fraction(0))
    assert GSpec(Fraction(0), Fraction(1)).l == Fraction(1, 8)


def test_builder_errors():
    with pytest.raises(ValueError, match="no function h8"):
        build_h(8)
    with pytest.raises(KeyError, match=r"unknown subspace 'nope' \(have: ex1, ex2, gap\)"):
        build_subspace("nope")


def test_subspace_shapes():
    x2 = build_subspace("ex1")
    assert x2.names == ("f1", "f2") and x2.dimension == 2
    assert x2.domain == (Fraction(-1), Fraction(1))
    x8 = build_subspace("ex2")
    assert x8.names == tuple(f"h{i}" for i in range(8))
    assert x8.dimension == 8
    assert build_X8().names == x8.names
    gap = build_subspace("gap")
    assert gap.names == ("f1", "f2", "f3") and gap.dimension == 3
    assert gap.domain == (Fraction(-1), Fraction(1)) and gap == build_gap()
    assert len({p.lo for f in gap.funcs for p in f.pieces}) == 7  # seven regions


# ---------------------------------------------------------------------------
# shipped rules


def test_golden_pair_rules_verify():
    rules = golden_rules()
    x2 = build_X2()
    for key in ("ex1-negative", "ex1-positive"):
        sid, rule = rules[key]
        assert sid == "ex1"
        assert verify_rule(x2, rule).passed, key
    neg = rules["ex1-negative"][1]
    assert min(w.as_fraction() for w in neg.weights) == Fraction(-3, 2)
    pos = rules["ex1-positive"][1]
    assert all(w.as_fraction() > 0 for w in pos.weights)


def test_golden_pair_rules_at_other_parameters():
    p = Example1Params(1, 4, 2)  # 16 > 2 + 4
    rules = golden_rules(p)
    x2 = build_X2(p)
    neg = rules["ex1-negative"][1]
    assert verify_rule(x2, neg).passed
    assert neg.weights[0].as_fraction() == Fraction(-5)  # (2 - 16 + 4)/2
    pos = rules["ex1-positive"][1]
    assert verify_rule(x2, pos).passed
    assert pos.weights[0].as_fraction() == Fraction(7)


def test_nine_node_rule_fails_only_on_the_mixed_pair():
    sid, rule = golden_rules()["ex2-nine"]
    assert sid == "ex2"
    assert rule.nodes[0] == Fraction(-1, 2)
    assert [n * 256 for n in rule.nodes[1:]] == [37, 39, 53, 55, 165, 167, 181, 183]
    report = verify_rule(build_X8(), rule)
    assert not report.passed
    assert report.failing == ((0, 1),)
    # residual is exactly the negated cross entry of h0 and h1
    assert report.residual(0, 1) == Radical(Fraction(43, 240)) + Radical.single(
        6, Fraction(-3, 40)
    )


def test_eleven_node_rule_is_exact_and_the_only_one_on_its_nodes():
    sid, rule = golden_rules()["ex2-eleven"]
    nine = golden_rules()["ex2-nine"][1]
    assert sid == "ex2"
    assert rule.nodes == nine.nodes + (Fraction(1, 25), Fraction(79, 800))
    assert rule.weights[1:9] == nine.weights[1:]
    assert [str(w) for w in rule.weights[:1] + rule.weights[9:]] == [
        "-4787/1650 - 1187/2475*sqrt(6)",
        "498575/2851392 - 326425/4277088*sqrt(6)",
        "-45325/326722 + 29675/490083*sqrt(6)",
    ]
    assert [w.sign() for w in rule.weights[:1] + rule.weights[9:]] == [-1, -1, 1]
    x8 = build_X8()
    report = verify_rule(x8, rule)
    assert report.passed and report.failing == ()
    # so 9 <= m_min(ex2) <= 11; on these candidates the signed search finds
    # exactly this rule and the positive one none
    assert search_grid(x8, list(rule.nodes), 11) == [rule]
    assert search_grid(x8, list(rule.nodes), 11, mode="positive") == []
