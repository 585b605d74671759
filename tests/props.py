"""Shared randomized-property drivers, used by topic tests (small counts)
and by the acceptance gate (full counts)."""

import random
from fractions import Fraction

from exactdisc import (
    Piece,
    PiecewiseFn,
    Radical,
    Rule,
    Subspace,
    gram,
    index_pairs,
    pw_eval,
    pw_integrate,
    pw_mul,
    pw_scale_add,
    verify_rule,
)
from oracles import FracRadical

RADICANDS = (1, 2, 3, 5, 6, 7, 10, 23)


def random_fraction(rng, max_num=9, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_radical(rng, max_terms=3):
    ds = rng.sample(RADICANDS, rng.randint(0, max_terms))
    r = Radical(0)
    for d in ds:
        c = random_fraction(rng)
        if c:
            r = r + Radical.single(d, c)
    return r


def run_field_laws(n, seed=0):
    """n rounds of ring/field identities on random radicals, and their sum,
    difference, product and sign against the Fraction reference; returns
    count."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n):
        x = random_radical(rng)
        y = random_radical(rng)
        z = random_radical(rng)
        rx, ry = FracRadical(x.terms), FracRadical(y.terms)
        assert (x + y).terms == (rx + ry).terms and (x - y).terms == (rx - ry).terms
        assert (x * y).terms == (rx * ry).terms and x.sign() == rx.sign()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + Radical(0) == x and x * Radical(1) == x
        assert x - x == Radical(0)
        if y:
            assert y * y.inverse() == Radical(1)
            assert (x / y) * y == x
        # sign trichotomy against order
        s = x.sign()
        assert (s > 0) == (x > Radical(0))
        assert (s < 0) == (x < Radical(0))
        assert (s == 0) == (x == Radical(0))
        checked += 1
    return checked


def combine(s: Subspace, alphas):
    """sum_i alphas[i] * basis[i] as a PiecewiseFn."""
    acc = pw_scale_add(alphas[0], s.funcs[0], 0, s.funcs[0])
    for a, f in zip(alphas[1:], s.funcs[1:]):
        acc = pw_scale_add(1, acc, a, f)
    return acc


def polarization_defect(s: Subspace, rule: Rule, alphas) -> Radical:
    """integral of f^2 minus the rule's weighted node sum, f = sum a_i f_i."""
    f = combine(s, alphas)
    lhs = pw_integrate(pw_mul(f, f))
    rhs = Radical(0)
    for x, w in zip(rule.nodes, rule.weights):
        v = pw_eval(f, x)
        rhs = rhs + w * (v * v)
    return lhs - rhs


def run_polarization(s: Subspace, rule: Rule, n, seed=0):
    """Exact polarization identity on n random coefficient vectors.

    For every alpha: defect(alpha) = -(sum over pairs (i,s) of
    (1 if i == s else 2) * a_i * a_s * residual(i,s)), since the defect
    subtracts the node sum while residuals subtract the Gram entry.  In
    particular the rule verifies iff the defect vanishes for generic alpha.
    """
    rng = random.Random(seed)
    report = verify_rule(s, rule)
    res = dict(zip(report.pairs, report.residuals))
    mismatches = 0
    for _ in range(n):
        alphas = [random_fraction(rng) for _ in s.names]
        defect = polarization_defect(s, rule, alphas)
        expected = Radical(0)
        for i, sx in index_pairs(s.dimension):
            c = 1 if i == sx else 2
            expected = expected - Radical(c * alphas[i] * alphas[sx]) * res[(i, sx)]
        assert defect == expected
        if defect:
            mismatches += 1
    if report.passed:
        assert mismatches == 0
    return mismatches


def random_pwc_subspace(rng, max_dim=3, max_regions=6) -> Subspace:
    """Random piecewise-constant subspace on [-1, 1] with small rationals."""
    pool = sorted(
        {Fraction(k, 8) for k in range(-7, 8)} - {Fraction(-1), Fraction(1)}
    )
    n_edges = rng.randint(1, max_regions - 1)
    inner = sorted(rng.sample(pool, n_edges))
    edges = [Fraction(-1)] + inner + [Fraction(1)]
    dim = rng.randint(1, max_dim)
    funcs = []
    for _ in range(dim):
        pieces = [
            Piece.from_poly(lo, hi, [random_fraction(rng, max_num=3, max_den=2)])
            for lo, hi in zip(edges, edges[1:])
        ]
        funcs.append(PiecewiseFn(pieces))
    return Subspace(tuple(f"f{i + 1}" for i in range(dim)), tuple(funcs))
