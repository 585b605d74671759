"""Exercises exact piecewise arithmetic: evaluation, products, integrals,
support reasoning, and the JSON round-trip."""

import hashlib
import json
import math
import random
from dataclasses import FrozenInstanceError
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
    _affine_nums,
    _expr_mul,
    _expr_scale,
    _norm_expr,
    _poly_zeros_in,
    breakpoint_limits,
    constant_fn,
    constant_value_on,
    fn_from_doc,
    fn_to_doc,
    nonvanishing_on,
    piece_from_doc,
    piece_to_doc,
    pw_eval,
    pw_inner,
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
    assert _composed(p, Fraction(1), Fraction(2)) == Poly((0, 0, Fraction(4)))
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


def _composed(p, c0, c1):
    """p(c0 + c1*t) through `_affine_nums`, the int kernel of the sqrt
    integrals, over gamma = c0.den * c1.den raised to p's degree."""
    c0, c1 = Fraction(c0), Fraction(c1)
    gamma = c0.denominator * c1.denominator
    nums = _affine_nums(p.nums, c0.numerator * c1.denominator, c1.numerator * c0.denominator, gamma)
    return Poly._of(nums, p.den * gamma ** max(0, len(p.nums) - 1))


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


def _ref_integrate(a, lo, hi):
    return sum((c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(a)),
               Fraction(0))


def _big_coeff_list(rng):
    """Coefficients with large, mostly coprime denominators, zeros included."""
    return [
        Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))
        if rng.random() < 0.8 else 0
        for _ in range(rng.randrange(1, 6))
    ]


def _random_end(rng):
    """A negative, zero or positive end: an int or a denominator up to 10^6."""
    return Fraction(rng.randrange(-7, 8), rng.choice((1, 1, 3, rng.randrange(1, 10**6))))


def _is_canonical_poly(p):
    """Int numerators over one positive denominator, in lowest terms and
    without a trailing zero; the coefficients read back as Fractions."""
    nums, den = p.nums, p.den
    return (
        type(nums) is tuple and all(type(n) is int for n in nums)
        and type(den) is int and den > 0 and math.gcd(den, *nums) == 1
        and (not nums or nums[-1] != 0)
        and all(type(c) is Fraction for c in p.coeffs)
    )


def test_poly_kernel_matches_list_reference():
    rng = random.Random(41)
    for _ in range(400):
        draw = _big_coeff_list if rng.random() < 0.3 else _random_coeff_list
        a, b = Poly(draw(rng)), Poly(draw(rng))
        if rng.random() < 0.2 and b.coeffs:
            # equal leading terms: the difference must be re-trimmed
            a = Poly([x + 1 for x in b.coeffs[:-1]] + [b.coeffs[-1]])
        ca, cb = list(a.coeffs), list(b.coeffs)
        lo, hi = _random_end(rng), _random_end(rng)
        got = a.integrate(lo, hi)
        assert type(got) is Fraction and got == _ref_integrate(ca, lo, hi), (ca, lo, hi)
        c = rng.choice((0, 1, -1, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                        Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))))
        c0, c1 = (Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(2))
        x = _random_end(rng)
        got = a(x)
        assert type(got) is Fraction and got == _ref_poly_at(ca, x), (ca, x)
        results = {
            "add": (a + b, _ref_add(ca, cb)),
            "sub": (a - b, _ref_add(ca, [-x for x in cb])),
            "mul": (a * b, _ref_mul(ca, cb)),
            "scalar": (a * c, _ref_mul(ca, [Fraction(c)])),
            "rscalar": (c * a, _ref_mul(ca, [Fraction(c)])),
            "int-scalar": (a * int(c), _ref_mul(ca, [Fraction(int(c))])),
            "poly-scalar": (a * Poly((c,)), _ref_mul(ca, [Fraction(c)])),
            "rpoly-scalar": (Poly((c,)) * a, _ref_mul(ca, [Fraction(c)])),
            "compose": (_composed(a, c0, c1), _ref_compose(ca, c0, c1)),
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


def _doc_text(c, rng):
    """c as a document number, sometimes unreduced, signed zero or a JSON int."""
    c = Fraction(c)
    k = rng.choice((1, 1, 2, 6))
    if c.denominator == 1 and rng.random() < 0.3:
        return int(c)
    if not c and rng.random() < 0.5:
        return "-0"
    return f"{c.numerator * k}/{c.denominator * k}" if k > 1 else str(c)


def test_int_poly_canonical_form_on_every_route():
    rng = random.Random(97)
    for _ in range(300):
        draw = _big_coeff_list if rng.random() < 0.3 else _random_coeff_list
        ca, cb = draw(rng), draw(rng)
        a, b = Poly(ca), Poly(cb)
        c = rng.choice((0, 1, -1, 2, Fraction(rng.randrange(-7, 8), rng.randrange(1, 9))))
        c0, c1 = (Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(2))
        piece = piece_from_doc({"lo": "0", "hi": "1", "poly": [_doc_text(x, rng) for x in ca] or ["0"]})
        sqrt_terms = piece_from_doc({
            "lo": "0", "hi": "1", "poly": ["0"],
            "sqrt_terms": [{"coeff": [_doc_text(x, rng) for x in ca] or ["0"],
                            "alpha": "1", "beta": "0"}],
        })
        routes = {
            "init": (a, _trim(Fraction(x) for x in ca)),
            "loader": (piece.poly, _trim(Fraction(x) for x in ca)),
            "add": (a + b, _ref_add(list(a.coeffs), list(b.coeffs))),
            "sub": (a - b, _ref_add(list(a.coeffs), [-x for x in b.coeffs])),
            "neg": (-a, [-x for x in a.coeffs]),
            "mul": (a * b, _ref_mul(list(a.coeffs), list(b.coeffs))),
            "scalar": (a * c, _ref_mul(list(a.coeffs), [Fraction(c)])),
            "compose": (_composed(a, c0, c1), _ref_compose(list(a.coeffs), c0, c1)),
            "derivative": (a.derivative(), _trim(i * x for i, x in enumerate(a.coeffs) if i)),
        }
        if sqrt_terms.terms:
            routes["loader-sqrt"] = (sqrt_terms.terms[0][1], _trim(Fraction(x) for x in ca))
        if not b.is_zero:
            quo, rem = divmod(a, b)
            ref_quo, ref_rem = _ref_divmod(list(a.coeffs), list(b.coeffs))
            routes["quo"], routes["rem"] = (quo, ref_quo), (rem, ref_rem)
        for route, (got, want) in routes.items():
            assert _is_canonical_poly(got), (route, got.nums, got.den)
            assert list(got.coeffs) == want, (route, ca, cb)
        # one polynomial reached by several routes is one value
        same = [
            a, piece.poly, Poly(a.coeffs), Poly(list(a.coeffs) + [0, 0]), (a + b) - b,
            a * 1, a * Poly((1,)), (a * 6) * Fraction(1, 6), _composed(a, 0, 1),
            -(-a), divmod(a, Poly((1,)))[0], divmod(a * Poly((0, 1)), Poly((0, 1)))[0],
        ]
        for p in same:
            assert p == a and hash(p) == hash(a) and (p.nums, p.den) == (a.nums, a.den), (ca, p)
    assert (Poly().nums, Poly().den) == ((), 1)
    p = Poly((Fraction(2, 4), Fraction(-6, 8), 0))
    assert (p.nums, p.den) == ((2, -3), 4)


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


@pytest.mark.parametrize("lo, hi", [
    (Fraction(-3, 4), Fraction(-3, 4)),
    (Fraction(2, 6), Fraction(1, 3)),  # equal values, distinct objects
    (Fraction(-1, 3), Fraction(-1, 2)),
    (2, 1),
    (-1, Fraction(-7, 5)),
])
def test_empty_or_reversed_pieces_are_refused(lo, hi):
    with pytest.raises(ValueError) as exc:
        Piece(lo, hi)
    assert str(exc.value) == f"empty or degenerate piece [{Fraction(lo)}, {Fraction(hi)})"


EPS = Fraction(1, 10**12)


@pytest.mark.parametrize("line, lo, hi, ok", [
    # 2x + 1 >= 0 on [-1/2, oo) and -2x + 1 >= 0 on (-oo, 1/2]
    ((2, 1), Fraction(-1, 2), Fraction(3, 7), True),  # zero at lo
    ((-2, 1), Fraction(-5, 3), Fraction(1, 2), True),  # zero at hi
    ((-6, 3), Fraction(-2, 3), Fraction(1, 2), True),
    ((2, 1), Fraction(-1, 2) - EPS, Fraction(3, 7), False),  # negative at lo
    ((2, 1), Fraction(-7, 3), Fraction(-3, 5), False),  # at both ends
    ((-2, 1), Fraction(-5, 3), Fraction(1, 2) + EPS, False),  # negative at hi
    ((-2, 1), Fraction(3, 5), Fraction(7, 3), False),  # at both ends
    ((3, 5), -2, -1, False),
    ((-3, -5), Fraction(-11, 4), -2, True),
])
def test_radicand_signs_at_the_piece_ends(line, lo, hi, ok):
    terms = ((line, Poly((1,))),)
    if ok:
        assert Piece(lo, hi, Poly(), terms).terms == terms
        return
    with pytest.raises(ValueError) as exc:
        Piece(lo, hi, Poly(), terms)
    a, b = line
    assert str(exc.value) == f"radicand {a}*x+{b} negative on piece [{Fraction(lo)}, {Fraction(hi)})"


def test_fn_contiguity_and_merging():
    a = Piece.from_poly(0, Fraction(1, 2), [3])
    b = Piece.from_poly(Fraction(1, 2), 1, [3])
    gap = Piece.from_poly(Fraction(3, 4), 1, [3])
    overlap = Piece.from_poly(Fraction(1, 3), 1, [3])
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseFn([a, gap])
    with pytest.raises(ValueError) as exc:
        PiecewiseFn([a, overlap])
    assert str(exc.value) == "pieces not contiguous: [0,1/2) then [1/3,1)"
    with pytest.raises(ValueError):
        PiecewiseFn([])
    assert a.hi is not b.lo  # equal seams need not be one object
    f = PiecewiseFn([a, b])
    assert len(f.pieces) == 1  # identical neighbours merge
    assert f == constant_fn(0, 1, 3)
    assert hash(f) == hash(constant_fn(0, 1, 3))
    # equal expressions held in distinct objects merge too
    def sqrt_piece(lo, hi):
        return Piece(lo, hi, Poly((1, Fraction(-2, 3))), (((0, 5), Poly((Fraction(3, 2),))),
                                                          ((1, 2), Poly((0, 1)))))
    left, right = sqrt_piece(0, Fraction(1, 2)), sqrt_piece(Fraction(2, 4), 1)
    assert left.poly is not right.poly and left.terms is not right.terms
    assert PiecewiseFn([left, right]).pieces == (sqrt_piece(0, 1),)
    other = Piece(Fraction(1, 2), 1, left.poly, (((0, 5), Poly((Fraction(3, 2),))),))
    assert len(PiecewiseFn([left, other]).pieces) == 2


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


# the per-piece integral summed as Radicals, and the evaluation through
# rad_sqrt on every line, with the list reference for the polynomials


def _ref_poly_at(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_expr_integrate(e, lo, hi):
    poly, terms = e
    total = Radical(_ref_integrate(poly.coeffs, lo, hi))
    for (a, b), q in terms:
        if a == 0:
            total = total + Radical.single(b, _ref_integrate(q.coeffs, lo, hi))
            continue
        r = _ref_compose(q.coeffs, Fraction(-b, a), Fraction(1, a))
        u0, u1 = Fraction(a) * lo + b, Fraction(a) * hi + b
        s0, s1 = rad_sqrt(u0), rad_sqrt(u1)
        acc = Radical(0)
        for k, c in enumerate(r):
            if not c:
                continue
            term = s1 * Radical(u1**(k + 1)) - s0 * Radical(u0**(k + 1))
            acc = acc + term * Radical(c / (Fraction(k) + Fraction(3, 2)))
        total = total + acc * Radical(Fraction(1, a))
    return total


def _ref_pw_integrate(f):
    total = Radical(0)
    for p in f.pieces:
        total = total + _ref_expr_integrate(p.expr, p.lo, p.hi)
    return total


def _ref_pw_eval(f, x):
    poly, terms = f.piece_at(x).expr
    val = Radical(_ref_poly_at(poly.coeffs, x))
    for (a, b), q in terms:
        val = val + Radical(_ref_poly_at(q.coeffs, x)) * rad_sqrt(Fraction(a) * x + b)
    return val


def _integrands(rng):
    """Seeded functions on [0, 1] with their squares, by turns with rational
    pieces, (0, d) lines, lines with a != 0 and both lines; some pieces are
    identically zero, and so are the first function and its square."""
    fns = [constant_fn(0, 1), pw_mul(constant_fn(0, 1), constant_fn(0, 1)),
           constant_fn(0, 1, Fraction(-5, 7))]
    for trial in range(60):
        edges = sorted({Fraction(0), Fraction(1), *rng.sample(EDGE_POOL, rng.randrange(4))})
        kind = trial % 4
        pieces = []
        for lo, hi in zip(edges, edges[1:]):
            raw = []
            if kind == 1 or (kind == 3 and rng.random() < 0.5):
                k = rng.choice((1, 4, 9, 2, 12))  # square factors move into q
                raw.append((Fraction(0), Fraction(k * rng.choice(CONST_RADICANDS)),
                            Poly(random_poly_coeffs(rng, 2))))
            if kind == 2 or (kind == 3 and rng.random() < 0.5):
                a, b = SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)]
                k = rng.choice((1, 2, 3))
                raw.append((Fraction(k * a), Fraction(k * b), Poly(random_poly_coeffs(rng, 2))))
            poly = Poly(random_poly_coeffs(rng)) if kind != 1 or rng.random() < 0.3 else Poly()
            if rng.random() < 0.15:
                poly, raw = Poly(), []  # an identically zero piece
            pieces.append(Piece(lo, hi, *_norm_expr(poly, raw)))
        f = PiecewiseFn(pieces)
        fns += [f, pw_mul(f, f)]
    return fns


def _is_canonical_radical(v):
    ds = [d for d, _ in v.terms]
    return (
        ds == sorted(set(ds))
        and all(type(c) is Fraction and c for _, c in v.terms)
        and all(d == 1 or max(sympy.factorint(d).values()) == 1 for d in ds)
    )


def test_pw_integrate_matches_per_piece_reference():
    for f in _integrands(random.Random(53)):
        got = pw_integrate(f)
        assert got == _ref_pw_integrate(f), f
        assert _is_canonical_radical(got), got
        for p in f.pieces:
            for x in (p.lo, (p.lo + p.hi) / 2, p.hi):
                if not any(a == 0 for (a, _), _ in f.piece_at(x).terms):
                    continue
                got = pw_eval(f, x)
                assert got == _ref_pw_eval(f, x) and _is_canonical_radical(got), (f, x)


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


def _outcome(compute):
    """The value compute() returns, or the type and message it raises."""
    try:
        return compute()
    except (UnsupportedProduct, DomainError) as e:
        return type(e), str(e)


def _inner_operands(rng):
    """Functions on [-1, 1]: the hierarchy (lines with a != 0 in h0, (0, d)
    lines in h2..h7), combinations of it whose cells mix a polynomial with
    several lines, the props generator's piecewise-constant functions and a
    zero function; and on [0, 1] random functions of three slope families,
    whose products over different families are refused, and zero."""
    hs = [build_h(i) for i in range(8)]
    c = Radical(1) + Radical.single(5, Fraction(2))
    mixed = [pw_scale_add(Fraction(1, 3), hs[0], c, hs[i]) for i in (1, 2, 5)]
    assert any(len(p.terms) > 1 and not p.poly.is_zero for f in mixed for p in f.pieces)
    pwc = [f for _ in range(3) for f in props.random_pwc_subspace(rng).funcs]
    unit = [random_fn(rng, SLOPE_FAMILIES[k % len(SLOPE_FAMILIES)]) for k in range(9)]
    return hs + mixed + pwc + [constant_fn(-1, 1)] + unit + [constant_fn(0, 1)]


def test_pw_inner_matches_the_product_integral():
    fns = _inner_operands(random.Random(61))
    seen = {"value": 0, UnsupportedProduct: 0, DomainError: 0}
    for f in fns:
        for g in fns:
            want = _outcome(lambda: pw_integrate(pw_mul(f, g)))
            got = _outcome(lambda: pw_inner(f, g))
            assert got == want, (f, g)
            if isinstance(got, Radical):
                assert _is_canonical_radical(got), got
                seen["value"] += 1
            else:
                seen[got[0]] += 1
    assert seen["value"] > 300 and seen[UnsupportedProduct] > 5 and seen[DomainError] > 300


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
        assert _expr_scale(right)(left) == want
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
    # the bump's zero at the down-ramp crossing 1/2 stays inside the hull
    assert pw_support(build_g(GSpec(Fraction(0), Fraction(1)))) == ((Fraction(0), Fraction(1)),)


def test_support_of_sqrt_ramp():
    assert pw_support(build_h(0)) == ((Fraction(0), Fraction(1)),)


def test_supports_disjoint():
    hs = {i: build_h(i) for i in range(8)}
    for i, j in [(2, 3), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]:
        assert supports_disjoint(hs[i], hs[j])
    assert not supports_disjoint(hs[1], hs[2])  # nested carriers overlap
    assert not supports_disjoint(hs[0], hs[0])

    # hulls touching at one point stay provably disjoint under half-open
    # ownership: [0,1]-indicator vs a left indicator ending at 0
    left = PiecewiseFn([Piece.from_poly(-1, 0, [1]), Piece.from_poly(0, 1, [0])])
    assert supports_disjoint(build_f1(), left)
    assert not supports_disjoint(build_f1(), build_f2(Example1Params()))


def test_supports_disjoint_needs_one_domain():
    with pytest.raises(DomainError, match="domains differ"):
        supports_disjoint(constant_fn(0, 1, 1), constant_fn(0, 2, 0))


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
    # a constant coefficient of sqrt(x + 1) is not a constant piece
    assert Piece.from_poly_sqrt(0, 1, [2], 1, 1).value_if_constant() is None
    assert Piece.from_poly_sqrt(0, 1, [2], 0, 3).value_if_constant() == Radical.single(3, 2)


# The support queries as they were before each was cut down to what decides
# its answer: pw_support also located isolated zeros and endpoint flags,
# supports_disjoint compared flagged intervals, nonvanishing_on evaluated
# seam zeros and constant_value_on evaluated every breakpoint.


def _ref_expr_zeros(e, lo, hi):
    poly, terms = e
    if poly.is_zero and not terms:
        return "all"
    if not terms:
        zs = _poly_zeros_in(poly, lo, hi)
        return None if zs is None else sorted(set(zs))
    if poly.is_zero and len(terms) == 1:
        (a, b), q = terms[0]
        zs = _poly_zeros_in(q, lo, hi)
        if zs is None:
            return None
        zs = set(zs)
        if a != 0:
            r = Fraction(-b, a)
            if lo <= r <= hi:
                zs.add(r)
        return sorted(zs)
    return None


def _ref_pw_support(f):
    """(intervals as (lo, hi, lo_in, hi_in), isolated zeros, exact)."""
    exact = True
    candidates = []
    run = None
    runs = []
    for p in f.pieces:
        if p.poly.is_zero and not p.terms:
            if run is not None:
                runs.append(tuple(run))
                run = None
            continue
        zs = _ref_expr_zeros(p.expr, p.lo, p.hi)
        if zs is None:
            exact = False
            zs = []
        if run is None:
            run = [p.lo, p.hi]
        else:
            run[1] = p.hi
        candidates.extend(zs)
    if run is not None:
        runs.append(tuple(run))
    intervals = []
    for lo, hi in runs:
        lo_in = bool(pw_eval(f, lo))
        hi_in = bool(pw_eval(f, hi)) if hi == f.domain_hi else False
        intervals.append((lo, hi, lo_in, hi_in))
    inner = tuple(
        sorted(
            z
            for z in set(candidates)
            if any(lo < z < hi for lo, hi, _, _ in intervals) and not pw_eval(f, z)
        )
    )
    return tuple(intervals), inner, exact


def _ref_point_in(iv, x):
    lo, hi, lo_in, hi_in = iv
    if x == lo:
        return lo_in
    if x == hi:
        return hi_in
    return lo < x < hi


def _ref_supports_disjoint(sa, sb):
    for ia in sa[0]:
        for ib in sb[0]:
            lo = max(ia[0], ib[0])
            hi = min(ia[1], ib[1])
            if lo > hi:
                continue
            if lo < hi:
                return False
            if _ref_point_in(ia, lo) and _ref_point_in(ib, lo):
                return False
    return True


def _ref_nonvanishing_on(f, lo, hi):
    for p in f.pieces:
        olo, ohi = max(lo, p.lo), min(hi, p.hi)
        if olo > ohi:
            continue
        if olo == ohi:
            if not pw_eval(f, olo):
                return False
            continue
        zs = _ref_expr_zeros(p.expr, olo, ohi)
        if zs == "all" or zs is None:
            return False
        for z in zs:
            if z < p.hi or p.hi == f.domain_hi:
                return False
            if not pw_eval(f, z):
                return False
    return True


def _ref_constant_value_on(f, lo, hi):
    value = None
    for p in f.pieces:
        olo, ohi = max(lo, p.lo), min(hi, p.hi)
        if olo >= ohi:
            continue
        v = p.value_if_constant()
        if v is None:
            return None
        if value is None:
            value = v
        elif value != v:
            return None
    if value is None:
        return pw_eval(f, lo)
    for x in set([lo, hi] + [p.lo for p in f.pieces if lo <= p.lo <= hi]):
        if pw_eval(f, x) != value:
            return None
    return value


CONSTANT_EXPRS = tuple(
    _sqrt_expr(poly, *terms)
    for poly, terms in (((1,), ()), ((-1,), ()), ((2,), ()), ((), (((0, 2), (1,)),)))
)


def _cell_expr(rng, family, lo, hi):
    """A nonzero expression for the cell [lo, hi): a random_fn piece or a
    constant, sometimes times (x - lo) or (x - hi) so that it vanishes at a
    seam or at the domain's right end."""
    if rng.random() < 0.4:
        e = rng.choice(CONSTANT_EXPRS)
    else:
        e = random_fn(rng, family).piece_at((lo + hi) / 2).expr
    if rng.random() < 0.4:
        e = _expr_mul(e, (Poly((-rng.choice((lo, hi)), 1)), ()))
    return e


def _fn_pair_with_zero_runs(rng, family):
    """Two functions on [0, 1] over common cells, each cell nonzero in f
    only, g only, both or neither; without "both" the supports are disjoint
    and runs of f and g touch wherever their cells meet."""
    edges = sorted({Fraction(0), Fraction(1), *rng.sample(EDGE_POOL, rng.randrange(2, 6))})
    states = ("f", "g", "none") if rng.random() < 0.5 else ("f", "g", "both", "none")
    pieces = {"f": [], "g": []}
    for lo, hi in zip(edges, edges[1:]):
        state = rng.choice(states)
        for name, out in pieces.items():
            e = _cell_expr(rng, family, lo, hi) if state in (name, "both") else (Poly(), ())
            out.append(Piece(lo, hi, *e))
    return PiecewiseFn(pieces["f"]), PiecewiseFn(pieces["g"])


def test_support_queries_match_the_references():
    rng = random.Random(53)
    points = [Fraction(k, 16) for k in range(17)]
    seen = {"disjoint": 0, "touching": 0, "nonvanishing": 0, "constant": 0}
    for trial in range(60):
        f, g = _fn_pair_with_zero_runs(rng, SLOPE_FAMILIES[trial % len(SLOPE_FAMILIES)])
        ref = {fn: _ref_pw_support(fn) for fn in (f, g)}
        for fn in (f, g):
            assert pw_support(fn) == tuple((lo, hi) for lo, hi, _, _ in ref[fn][0])
        for a, b in ((f, g), (g, f), (f, f)):
            got = supports_disjoint(a, b)
            assert got == _ref_supports_disjoint(ref[a], ref[b]), (a.pieces, b.pieces)
        if supports_disjoint(f, g):
            seen["disjoint"] += 1
            ends = {x for run in pw_support(f) for x in run}
            seen["touching"] += any(x in ends for run in pw_support(g) for x in run)
        intervals = [(x, x) for x in points] + [(x, Fraction(1)) for x in points]
        intervals += [tuple(sorted(rng.sample(points, 2))) for _ in range(20)]
        for fn in (f, g):
            for lo, hi in intervals:
                nonvan = nonvanishing_on(fn, lo, hi)
                assert nonvan == _ref_nonvanishing_on(fn, lo, hi), (fn.pieces, lo, hi)
                const = constant_value_on(fn, lo, hi)
                assert const == _ref_constant_value_on(fn, lo, hi), (fn.pieces, lo, hi)
                seen["nonvanishing"] += nonvan and lo < hi
                seen["constant"] += const is not None and lo < hi
    assert all(n >= 10 for n in seen.values()), seen


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
            got = _expr_scale(Radical(c))(e)
            assert got == want
            assert type(got[1]) is tuple and _is_canonical_poly(got[0])
            if c == 1:
                assert got is e
        # a sqrt(d) scalar still goes through the canonicalizing path
        got = _expr_scale(Radical.single(rng.choice(CONST_RADICANDS), Fraction(1, 3)))(e)
        assert got[1] == _canonical_terms(got[1])


def test_equal_functions_hash_equal_and_hit_the_gram_cache():
    f = build_h(2)
    halves = []
    for piece in f.pieces:
        mid = (piece.lo + piece.hi) / 2
        halves += [Piece(piece.lo, mid, *piece.expr), Piece(mid, piece.hi, *piece.expr)]
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
    # the pieces and polynomials under those functions are values too
    for a, b in zip(f.pieces, rebuilt[0].pieces):
        assert a == b and hash(a) == hash(b) and a is not b
        assert a.poly == b.poly and hash(a.poly) == hash(b.poly)
    piece = f.pieces[7]  # sqrt(5) on a constant line
    ((_, q),) = piece.terms
    assert piece != Piece(piece.lo, piece.hi, piece.poly, (((0, 7), q),))
    assert q != Poly(q.coeffs[:-1] + (q.coeffs[-1] + 1,))
    assert q != q.coeffs and Poly((1, 2)) != (Fraction(1), Fraction(2))
    for value, name in ((q, "nums"), (piece, "lo"), (f, "pieces")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    built = build_X8()
    loaded = subspace_from_doc(json.loads(json.dumps(subspace_to_doc(built))))
    assert loaded == built and all(a is not b for a, b in zip(loaded.funcs, built.funcs))
    _gram_cached.cache_clear()
    first = gram(built)
    hits = _gram_cached.cache_info().hits
    assert gram(loaded) is first
    assert _gram_cached.cache_info().hits == hits + 1


def test_value_types_refuse_every_assignment_and_deletion():
    # fields, names that are no field, and properties: each is refused with
    # the dataclass error, never a TypeError from a misdirected super()
    f = build_h(2)
    piece = f.pieces[7]
    hash(f)  # the cached hash is written past the refusal
    cases = (
        (Poly((1, 2)), ("nums", "den", "coeffs", "foo")),
        (piece, ("lo", "terms", "expr", "foo")),
        (f, ("pieces", "_hash", "domain", "foo")),
    )
    for value, names in cases:
        for name in names:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 1)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert f == build_h(2) and hash(f) == hash(f.pieces) and not hasattr(f, "foo")


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
