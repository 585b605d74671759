"""Exercises exact piecewise arithmetic: evaluation, products, integrals,
support reasoning, and the JSON round-trip."""

import hashlib
import json
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

import oracles
import props
from exactdisc.corpus import (
    Example1Params,
    GSpec,
    build_f1,
    build_f2,
    build_g,
    build_h,
    build_X8,
    golden_rules,
)
from exactdisc.discretize import (
    _gram_cached,
    gram,
    gram_to_doc,
    subspace_from_doc,
    subspace_to_doc,
)
from exactdisc.exactnum import ExactNumError, Radical, rad_sqrt
from exactdisc.piecewise import (
    DomainError,
    Piece,
    PiecewiseFn,
    Poly,
    UnsupportedProduct,
    _expr_mul,
    _expr_scale,
    _norm_expr,
    breakpoint_limits,
    constant_fn,
    constant_value_on,
    fn_from_doc,
    fn_to_doc,
    nonvanishing_on,
    piece_from_doc,
    piece_to_doc,
    pw_eval,
    pw_integrate,
    pw_mul,
    pw_scale_add,
    pw_support,
    real_root_count,
    supports_disjoint,
)

N_TRIALS = 100

# random pieces draw their sqrt lines from one slope family per trial so
# that products stay representable; each family is nonnegative on [0, 1]
SLOPE_FAMILIES = ((1, 0), (-1, 1), (1, 1))
CONST_RADICANDS = (2, 3, 5)
EDGE_POOL = tuple(Fraction(k, 8) for k in range(1, 8))


def random_poly_coeffs(rng, max_deg=2, span=4):
    deg = rng.randrange(max_deg + 1)
    return [
        Fraction(rng.randrange(-span, span + 1), rng.choice((1, 2, 4)))
        for _ in range(deg + 1)
    ]


def random_fn(rng, family):
    """Piecewise poly + q(x)*sqrt(line) samples on [0, 1], exact coeffs."""
    edges = sorted({Fraction(0), Fraction(1), *rng.sample(EDGE_POOL, rng.randrange(4))})
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        raw = []
        if rng.random() < 0.6:
            a, b = family
            if rng.random() < 0.3:
                a, b = 0, rng.choice(CONST_RADICANDS)
            k = rng.choice((1, 2, 3, 4))
            raw.append(
                (Fraction(k * a), Fraction(k * b), Poly(random_poly_coeffs(rng, 1)))
            )
        pieces.append(Piece(lo, hi, *_norm_expr(Poly(random_poly_coeffs(rng)), raw)))
    return PiecewiseFn(pieces)


def sample_points(f, g):
    xs = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


# ---------------------------------------------------------------------------
# polynomials


def test_poly_basics():
    p = Poly((Fraction(1), Fraction(-2), Fraction(1)))  # (x - 1)^2
    assert p.degree == 2
    assert p(Fraction(3)) == Fraction(4)
    assert p.integrate(Fraction(0), Fraction(1)) == Fraction(1, 3)
    assert p.derivative() == Poly((Fraction(-2), Fraction(2)))
    # p(1 + 2t) = 4 t^2
    assert p.compose_affine(Fraction(1), Fraction(2)) == Poly((0, 0, Fraction(4)))
    quo, rem = divmod(p, Poly((Fraction(-1), Fraction(1))))
    assert quo == Poly((Fraction(-1), Fraction(1))) and rem.is_zero
    assert Poly((1, 0, 0)) == Poly((1,))  # trailing zeros stripped
    assert Poly().is_zero and Poly().degree == -1


# naive list-of-Fraction references for the Poly kernel


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return _trim(quo), _trim(rem[: len(b) - 1])


def _ref_compose(a, c0, c1):
    acc = []
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, [c0, c1]), [c])
    return acc


def _random_coeff_list(rng):
    """Coefficients with zero runs, trailing zeros, and the constants 0 and 1."""
    shape = rng.randrange(6)
    if shape == 0:
        return []
    if shape == 1:
        return [rng.choice((0, 1, -1))]
    cs = [
        Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) if rng.random() < 0.7 else 0
        for _ in range(rng.randrange(1, 6))
    ]
    return cs + [0] * rng.randrange(3)


def _is_canonical_poly(p):
    return all(type(c) is Fraction for c in p.coeffs) and (not p.coeffs or p.coeffs[-1] != 0)


def test_poly_kernel_matches_list_reference():
    rng = random.Random(41)
    for _ in range(400):
        a, b = Poly(_random_coeff_list(rng)), Poly(_random_coeff_list(rng))
        if rng.random() < 0.2 and b.coeffs:
            # equal leading terms: the difference must be re-trimmed
            a = Poly([x + 1 for x in b.coeffs[:-1]] + [b.coeffs[-1]])
        ca, cb = list(a.coeffs), list(b.coeffs)
        c = rng.choice((0, 1, -1, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))))
        c0, c1 = (Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(2))
        results = {
            "add": (a + b, _ref_add(ca, cb)),
            "sub": (a - b, _ref_add(ca, [-x for x in cb])),
            "mul": (a * b, _ref_mul(ca, cb)),
            "scalar": (a * c, _ref_mul(ca, [Fraction(c)])),
            "rscalar": (c * a, _ref_mul(ca, [Fraction(c)])),
            "compose": (a.compose_affine(c0, c1), _ref_compose(ca, c0, c1)),
            "derivative": (a.derivative(), _trim(i * x for i, x in enumerate(ca) if i)),
        }
        if cb:
            quo, rem = divmod(a, b)
            ref_quo, ref_rem = _ref_divmod(ca, cb)
            results["quo"] = (quo, ref_quo)
            results["rem"] = (rem, ref_rem)
        for op, (got, want) in results.items():
            assert list(got.coeffs) == want, (op, ca, cb)
            assert _is_canonical_poly(got), (op, got)
            assert got == Poly(want)


def test_poly_identity_shortcuts():
    p = Poly((Fraction(1, 2), 0, Fraction(-3)))
    zero = Poly()
    assert p * 1 is p and p * Fraction(1) is p
    assert (p * 0).is_zero and (p * zero).is_zero and (zero * p).is_zero
    assert p + zero is p and zero + p is p
    assert (p * Poly((1,))) == p
    # the public constructor still coerces its input
    assert all(type(c) is Fraction for c in Poly((1, 2, 0)).coeffs)


def test_real_root_count_matches_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(5)
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    checked = 0
    for _ in range(60):
        coeffs = [Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(2, 6))]
        p = Poly(coeffs)
        if p.degree < 1:
            continue
        lo, hi = sorted(rng.sample(grid, 2))
        expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))
        roots = set(sympy.real_roots(sympy.Poly(expr, x)))
        expected = sum(1 for r in roots if sympy.Rational(lo) <= r <= sympy.Rational(hi))
        assert real_root_count(p, lo, hi) == expected
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# piece / function construction


def test_piece_validation():
    with pytest.raises(ValueError, match="empty or degenerate"):
        Piece.from_poly(Fraction(1, 2), Fraction(1, 2), [1])
    with pytest.raises(ValueError, match="empty or degenerate"):
        Piece.from_poly(Fraction(3, 4), Fraction(1, 4), [1])
    # -8x + 2 goes negative before x = 1
    with pytest.raises(ValueError, match="negative on piece"):
        Piece.from_poly_sqrt(0, 1, [1], -8, 2)
    # ... but a radicand that only touches zero at an endpoint is fine
    Piece.from_poly_sqrt(0, Fraction(1, 4), [1], -8, 2)
    with pytest.raises(ExactNumError):
        Piece.from_poly_sqrt(0, 1, [1], 0, -2)


def test_fn_contiguity_and_merging():
    a = Piece.from_poly(0, Fraction(1, 2), [3])
    b = Piece.from_poly(Fraction(1, 2), 1, [3])
    gap = Piece.from_poly(Fraction(3, 4), 1, [3])
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseFn([a, gap])
    with pytest.raises(ValueError):
        PiecewiseFn([])
    f = PiecewiseFn([a, b])
    assert len(f.pieces) == 1  # identical neighbours merge
    assert f == constant_fn(0, 1, 3)
    assert hash(f) == hash(constant_fn(0, 1, 3))


def test_half_open_ownership():
    f = PiecewiseFn(
        [Piece.from_poly(0, Fraction(1, 2), [1]), Piece.from_poly(Fraction(1, 2), 1, [2])]
    )
    assert pw_eval(f, 0) == Radical(1)
    assert pw_eval(f, Fraction(1, 2)) == Radical(2)  # right piece owns the seam
    assert pw_eval(f, 1) == Radical(2)  # last piece owns the right endpoint
    with pytest.raises(DomainError):
        pw_eval(f, Fraction(-1, 10))
    with pytest.raises(DomainError):
        pw_eval(f, Fraction(11, 10))


def test_mismatched_domains_rejected():
    with pytest.raises(DomainError, match="domains differ"):
        pw_mul(constant_fn(0, 1, 1), constant_fn(0, 2, 1))


# ---------------------------------------------------------------------------
# pointwise semantics of the exact operations


def test_mul_and_scale_add_match_pointwise_semantics():
    rng = random.Random(7)
    scalars = (
        Fraction(2),
        Fraction(-1, 3),
        Radical.single(2, Fraction(1, 2)),
        Radical(0),
        Radical(Fraction(5, 4)) + Radical.single(3, Fraction(-1, 6)),
    )
    for trial in range(N_TRIALS):
        family = SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)]
        f = random_fn(rng, family)
        g = random_fn(rng, family)
        c1, c2 = rng.choice(scalars), rng.choice(scalars)
        prod = pw_mul(f, g)
        comb = pw_scale_add(c1, f, c2, g)
        for x in sample_points(f, g):
            fv, gv = pw_eval(f, x), pw_eval(g, x)
            assert pw_eval(prod, x) == fv * gv
            assert pw_eval(comb, x) == Radical(c1) * fv + Radical(c2) * gv


def test_integrate_is_linear():
    rng = random.Random(11)
    for trial in range(40):
        family = SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)]
        f = random_fn(rng, family)
        g = random_fn(rng, family)
        c1 = Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))
        c2 = Radical.single(rng.choice(CONST_RADICANDS), Fraction(rng.randrange(-2, 3)))
        combined = pw_integrate(pw_scale_add(c1, f, c2, g))
        assert combined == Radical(c1) * pw_integrate(f) + c2 * pw_integrate(g)


def test_products_of_proportional_sqrt_lines_collapse():
    root_x = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 1, 0)])
    root_2x = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 2, 0)])
    prod = pw_mul(root_x, root_2x)  # sqrt(x) * sqrt(2x) = x*sqrt(2)
    (p,) = prod.pieces
    assert p.poly.is_zero
    assert p.terms == (((0, 2), Poly((0, 1))),)
    assert pw_eval(prod, Fraction(1, 4)) == Radical.single(2, Fraction(1, 4))

    square = pw_mul(root_x, root_x)  # sqrt(x)^2 = x, purely rational
    (q,) = square.pieces
    assert q.terms == () and q.poly == Poly((0, 1))

    root_2 = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 0, 2)])
    root_3 = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 0, 3)])
    assert pw_eval(pw_mul(root_2, root_3), Fraction(1, 3)) == rad_sqrt(6)


def test_products_of_unrelated_sqrt_lines_are_rejected():
    root_x = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 1, 0)])
    root_x1 = PiecewiseFn([Piece.from_poly_sqrt(0, 1, [1], 1, 1)])
    with pytest.raises(UnsupportedProduct) as exc:
        pw_mul(root_x, root_x1)
    assert str(exc.value) == "cannot multiply sqrt(1*x+0) by sqrt(1*x+1)"


def _sqrt_expr(poly, *terms):
    """(Poly(poly), canonical terms) from ((a, b), q-coefficients) pairs."""
    return Poly(poly), tuple((line, Poly(q)) for line, q in terms)


ROOT_X = _sqrt_expr((), ((1, 0), (1,)))
MIXED = _sqrt_expr((1, 2), ((1, 0), (0, 1)))  # 1 + 2x + x*sqrt(x)

# (left, right, exact canonical product); a Radical right side is a scalar
SQRT_PRODUCT_TABLE = {
    "x": (ROOT_X, ROOT_X, _sqrt_expr((0, 1))),
    "2x*6x": (_sqrt_expr((), ((2, 0), (1,))), _sqrt_expr((), ((6, 0), (1,))),
              _sqrt_expr((), ((0, 3), (0, 2)))),
    "6*10": (_sqrt_expr((), ((0, 6), (1,))), _sqrt_expr((), ((0, 10), (1,))),
             _sqrt_expr((), ((0, 15), (2,)))),
    "2*2": (_sqrt_expr((), ((0, 2), (3,))), _sqrt_expr((), ((0, 2), (1,))),
            _sqrt_expr((6,))),
    "3*(2x+1)": (_sqrt_expr((), ((0, 3), (1,))), _sqrt_expr((), ((2, 1), (1,))),
                 _sqrt_expr((), ((6, 3), (1,)))),
    "(2-2x)*(3-3x)": (_sqrt_expr((), ((-2, 2), (1,))), _sqrt_expr((), ((-3, 3), (1,))),
                      _sqrt_expr((), ((0, 6), (1, -1)))),
    "2*3x": (_sqrt_expr((1, 1), ((3, 0), (2,))), Radical.single(2, Fraction(1)),
             _sqrt_expr((), ((0, 2), (1, 1)), ((6, 0), (2,)))),
    "(1+2-3)*mixed": (MIXED, Radical.parse("1 + sqrt(2) - sqrt(3)"),
                      _sqrt_expr((1, 2), ((0, 2), (1, 2)), ((0, 3), (-1, -2)),
                                 ((1, 0), (0, 1)), ((2, 0), (0, 1)), ((3, 0), (0, -1)))),
}


@pytest.mark.parametrize("case", sorted(SQRT_PRODUCT_TABLE))
def test_sqrt_product_table(case):
    left, right, want = SQRT_PRODUCT_TABLE[case]
    if isinstance(right, Radical):
        assert _expr_scale(left, right) == want
        # the same scalar as a constant expression goes through _expr_mul
        right = (Poly([c for d, c in right.terms if d == 1]),
                 tuple(((0, d), Poly([c])) for d, c in right.terms if d != 1))
    assert _expr_mul(left, right) == want
    assert _expr_mul(right, left) == want


def test_squared_norms_are_nonnegative():
    p = Example1Params()
    fns = [build_f1(), build_f2(p), build_g(GSpec(Fraction(-1, 2), Fraction(1, 2)))]
    fns += [build_h(i) for i in range(8)]
    for f in fns:
        assert pw_integrate(pw_mul(f, f)).sign() == 1
    rng = random.Random(3)
    for trial in range(20):
        f = random_fn(rng, SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)])
        assert pw_integrate(pw_mul(f, f)).sign() >= 0


def test_integrals_match_high_precision_quadrature():
    """Exact integrals of products agree with 60-digit numeric quadrature."""
    p = Example1Params()
    pairs = [
        (build_f2(p), build_f2(p)),
        (build_h(0), build_h(0)),
        (build_h(0), build_h(1)),
        (build_h(2), build_h(2)),
    ]
    for a, b in pairs:
        exact = pw_integrate(pw_mul(a, b))
        da, db = fn_to_doc("a", a), fn_to_doc("b", b)
        numeric = oracles.quad_product(da, db)
        assert abs(numeric - oracles.radical_to_mpf(exact.terms)) < mp.mpf("1e-40")


# ---------------------------------------------------------------------------
# support reasoning


def test_support_of_trapezoid_bump():
    g01 = build_g(GSpec(Fraction(0), Fraction(1)))
    s = pw_support(g01)
    assert s.exact
    assert s.hull() == ((Fraction(0), Fraction(1)),)
    (iv,) = s.intervals
    assert not iv.lo_in and not iv.hi_in  # vanishes at both carrier ends
    assert s.isolated_zeros == (Fraction(1, 2),)  # the down-ramp crossing


def test_support_of_sqrt_ramp():
    s = pw_support(build_h(0))
    assert s.exact
    (iv,) = s.intervals
    assert (iv.lo, iv.hi, iv.lo_in, iv.hi_in) == (Fraction(0), Fraction(1), False, True)
    assert s.isolated_zeros == ()


def test_supports_disjoint():
    sups = {i: pw_support(build_h(i)) for i in range(8)}
    for i, j in [(2, 3), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]:
        assert supports_disjoint(sups[i], sups[j])
    assert not supports_disjoint(sups[1], sups[2])  # nested carriers overlap
    assert not supports_disjoint(sups[0], sups[0])

    # hulls touching at one point stay provably disjoint under half-open
    # ownership: [0,1]-indicator vs a left indicator ending at 0
    left = PiecewiseFn([Piece.from_poly(-1, 0, [1]), Piece.from_poly(0, 1, [0])])
    assert supports_disjoint(pw_support(build_f1()), pw_support(left))
    assert not supports_disjoint(pw_support(build_f1()), pw_support(build_f2(Example1Params())))


def test_nonvanishing_on():
    h0 = build_h(0)
    assert nonvanishing_on(h0, Fraction(9, 64), Fraction(11, 64))
    assert nonvanishing_on(h0, Fraction(1, 32), 1)
    assert not nonvanishing_on(h0, 0, Fraction(1, 8))  # h0(0) = 0
    assert not nonvanishing_on(h0, -1, -Fraction(1, 2))  # identically zero there
    with pytest.raises(DomainError):
        nonvanishing_on(h0, -2, 0)


def test_constant_value_on():
    h0 = build_h(0)
    assert constant_value_on(h0, Fraction(1, 8), 1) == Radical(1)
    assert constant_value_on(h0, Fraction(1, 16), Fraction(1, 8)) is None  # sqrt arc
    # single point falls back to plain evaluation
    assert constant_value_on(h0, Fraction(1, 16), Fraction(1, 16)) == Radical.single(
        6, Fraction(1, 2)
    )
    f2 = build_f2(Example1Params())
    assert constant_value_on(f2, 0, Fraction(1, 4)) is None  # seam value -A spoils it
    assert constant_value_on(f2, 0, Fraction(15, 64)) == Radical(3)
    assert constant_value_on(f2, Fraction(-3, 4), Fraction(-1, 4)) == Radical(1)


def test_breakpoint_limits_flag_jumps():
    rows = breakpoint_limits(build_h(0))
    assert [(x, ok) for x, _, _, ok in rows] == [
        (Fraction(0), True),
        (Fraction(1, 16), True),
        (Fraction(1, 8), True),
    ]
    # the two sqrt arcs really meet at sqrt(6)/2
    x, left, right, ok = rows[1]
    assert left == right == Radical.single(6, Fraction(1, 2))

    f2 = build_f2(Example1Params())
    jumps = [(x, lv, rv) for x, lv, rv, ok in breakpoint_limits(f2) if not ok]
    assert (Fraction(1, 4), Radical(3), Radical(-3)) in jumps


def _canonical_terms(terms):
    return _norm_expr(Poly(), [(Fraction(a), Fraction(b), q) for (a, b), q in terms])[1]


def _random_exprs(rng):
    """Canonical expressions: random pieces, hierarchy pieces and products."""
    exprs = []
    for trial in range(30):
        family = SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)]
        f, g = random_fn(rng, family), random_fn(rng, family)
        exprs += [p.expr for p in f.pieces]
        exprs += [p.expr for p in pw_mul(f, g).pieces]
    for i, j in ((0, 0), (0, 1), (2, 5), (5, 1)):
        exprs += [p.expr for p in build_h(i).pieces]
        exprs += [p.expr for p in pw_mul(build_h(i), build_h(j)).pieces]
    return exprs


def test_pieces_keep_canonical_sorted_terms():
    # the invariant the rational scaling path relies on
    for _, terms in _random_exprs(random.Random(43)):
        assert terms == _canonical_terms(terms)
        assert all(not q.is_zero for _, q in terms)


def test_rational_scaling_matches_the_canonicalizing_path():
    rng = random.Random(47)
    for e in _random_exprs(rng):
        poly, terms = e
        for c in (0, 1, -1, Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))):
            want = _norm_expr(
                poly * c, [(Fraction(a), Fraction(b), q * c) for (a, b), q in terms]
            )
            got = _expr_scale(e, Radical(c))
            assert got == want
            assert type(got[1]) is tuple and _is_canonical_poly(got[0])
            if c == 1:
                assert got is e
        # a sqrt(d) scalar still goes through the canonicalizing path
        got = _expr_scale(e, Radical.single(rng.choice(CONST_RADICANDS), Fraction(1, 3)))
        assert got[1] == _canonical_terms(got[1])


def test_equal_functions_hash_equal_and_hit_the_gram_cache():
    f = build_h(2)
    halves = []
    for piece in f.pieces:
        mid = (piece.lo + piece.hi) / 2
        halves += [piece.restricted(piece.lo, mid), piece.restricted(mid, piece.hi)]
    rebuilt = [
        fn_from_doc(json.loads(json.dumps(fn_to_doc("h2", f))))[1],
        pw_scale_add(2, f, -1, f),
        pw_scale_add(1, f, 0, build_h(3)),
        PiecewiseFn(halves),  # equal neighbours merge back
    ]
    for g in rebuilt:
        assert g == f and g is not f
        assert hash(g) == hash(f) == hash(f.pieces)
        assert hash(g) == hash(g)  # the cached value is stable
    built = build_X8()
    loaded = subspace_from_doc(json.loads(json.dumps(subspace_to_doc(built))))
    assert loaded == built and all(a is not b for a, b in zip(loaded.funcs, built.funcs))
    _gram_cached.cache_clear()
    first = gram(built)
    hits = _gram_cached.cache_info().hits
    assert gram(loaded) is first
    assert _gram_cached.cache_info().hits == hits + 1


#: sha256 digests recorded before the kernel's shortcuts were added
GRAM_EX2_SHA256 = "fcc2c1d69a7e70dc61fbf6575c09ee15b03deeab87f1a42384b58f16c043ccce"
POLARIZATION_EX2_SHA256 = "6ac58977ef9bf61ca33fa24d5181483f39e6b7eac12b8734abd86c90c3e04ea0"


def test_gram_and_polarization_bytes_are_pinned():
    x8 = build_X8()
    _gram_cached.cache_clear()  # recompute every product and integral
    doc = json.dumps(gram_to_doc(x8), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == GRAM_EX2_SHA256
    # props.run_polarization's rational combinations, then radical ones
    # that take the sqrt(d) scaling path
    rule = golden_rules()["ex2-nine"][1]
    rng = random.Random(0)
    defects = []
    for draw in [props.random_fraction] * 5 + [props.random_radical] * 3:
        alphas = [draw(rng) for _ in x8.names]
        defects.append(str(props.polarization_defect(x8, rule, alphas)))
    digest = hashlib.sha256("\n".join(defects).encode()).hexdigest()
    assert digest == POLARIZATION_EX2_SHA256


# ---------------------------------------------------------------------------
# serialization


def test_sqrt_piece_doc_shape():
    h0 = build_h(0)
    doc = piece_to_doc(h0.pieces[1])
    # sqrt(24 x) is stored in canonical form 2*sqrt(6 x)
    assert doc == {"lo": "0", "hi": "1/16", "poly": ["2"], "sqrt": {"alpha": "6", "beta": "0"}}


def test_doc_round_trips():
    p = Example1Params()
    fns = [build_f1(), build_f2(p), build_h(0), build_h(1), build_h(4)]
    # force a mixed poly + sqrt piece through the "sqrt_terms" branch
    fns.append(pw_scale_add(Radical(1), build_f1(), Radical.single(5, Fraction(1)), build_h(2)))
    rng = random.Random(13)
    fns += [random_fn(rng, SLOPE_FAMILIES[k % 3]) for k in range(12)]
    for k, f in enumerate(fns):
        for piece in f.pieces:
            assert piece_from_doc(piece_to_doc(piece)) == piece
        name, back = fn_from_doc(fn_to_doc(f"fn{k}", f))
        assert name == f"fn{k}" and back == f
        # stable bytes: rebuilding the doc gives identical JSON
        once = json.dumps(fn_to_doc("f", f), sort_keys=True)
        again = json.dumps(fn_to_doc("f", f), sort_keys=True)
        assert once == again


def test_malformed_docs_rejected():
    with pytest.raises(KeyError):
        piece_from_doc({"lo": "0", "poly": ["1"]})
    with pytest.raises(ValueError):
        piece_from_doc({"lo": "0", "hi": "0", "poly": ["1"]})
    with pytest.raises(ValueError, match="rational string"):
        piece_from_doc({"lo": 0.5, "hi": "1", "poly": ["1"]})
    with pytest.raises(ValueError, match="contiguous"):
        fn_from_doc(
            {
                "name": "bad",
                "pieces": [
                    {"lo": "0", "hi": "1/2", "poly": ["1"]},
                    {"lo": "3/4", "hi": "1", "poly": ["1"]},
                ],
            }
        )
