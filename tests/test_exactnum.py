import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdisc.exactnum import (
    DEFAULT_FACTOR_BOUND,
    ExactNumError,
    Radical,
    _QSqrt,
    _field_for,
    _split_square,
    float_str,
    rad_sqrt,
)

from oracles import radical_to_mpf
import props
from props import RADICANDS, random_radical

fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def radicals_st(max_terms=3):
    return st.lists(
        st.tuples(st.sampled_from(RADICANDS), fractions_st),
        max_size=max_terms,
    ).map(
        lambda terms: sum(
            (Radical.single(d, c) for d, c in terms), Radical(0)
        )
    )


# --- construction and normalization ---------------------------------------


def test_rational_embedding():
    assert Radical(3).as_fraction() == 3
    assert Radical(Fraction(-7, 3)).as_fraction() == Fraction(-7, 3)
    assert Radical(0).is_zero
    assert not Radical(0)
    assert Radical(2).is_rational
    with pytest.raises(TypeError):
        Radical(1.5)


def test_perfect_squares_collapse():
    assert rad_sqrt(4) == Radical(2)
    assert rad_sqrt(Fraction(9, 4)) == Radical(Fraction(3, 2))
    assert rad_sqrt(0) == Radical(0)
    # sqrt(8) = 2*sqrt(2)
    assert rad_sqrt(8) == Radical.single(2, 2)
    # sqrt(1/2) = (1/2) sqrt(2)
    assert rad_sqrt(Fraction(1, 2)) == Radical.single(2, Fraction(1, 2))


def test_split_square_small_values():
    assert _split_square(1) == (1, 1)
    assert _split_square(24) == (2, 6)
    assert _split_square(49) == (7, 1)
    assert _split_square(2 * 3 * 5 * 7) == (1, 210)
    with pytest.raises(ExactNumError):
        _split_square(0)
    with pytest.raises(ExactNumError):
        _split_square(-4)


def test_split_square_large_prime_cofactor():
    p = 1000003  # prime beyond the trial-division range
    assert _split_square(p) == (1, p)
    assert _split_square(4 * p) == (2, p)
    assert _split_square(p * p) == (p, 1)


def test_split_square_gives_up_beyond_certification_range():
    # a cube-range composite with no small factors and no prime/square
    # certificate cannot be proven squarefree
    n = 1000003 * 1000033 * 1000037
    assert n > DEFAULT_FACTOR_BOUND**3
    with pytest.raises(ExactNumError):
        rad_sqrt(n)


def test_sqrt_of_negative_rejected():
    with pytest.raises(ExactNumError):
        rad_sqrt(-2)
    with pytest.raises(ExactNumError):
        Radical.single(-3, 1)


def test_squares_of_roots_roundtrip_seeded():
    rng = random.Random(42)
    for _ in range(200):
        q = Fraction(rng.randint(0, 400), rng.randint(1, 60))
        r = rad_sqrt(q)
        assert r * r == Radical(q)
        assert r.sign() >= 0


# --- ring and field structure ----------------------------------------------


@settings(max_examples=120, deadline=None)
@given(radicals_st(), radicals_st(), radicals_st())
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Radical(0)
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(radicals_st(max_terms=2))
def test_multiplicative_inverse(x):
    if x:
        assert x * x.inverse() == Radical(1)
        assert x.inverse().inverse() == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Radical(1) / Radical(0)
    with pytest.raises(ZeroDivisionError):
        Radical(0).inverse()


def test_mixed_radicand_products():
    r2, r3, r6 = rad_sqrt(2), rad_sqrt(3), rad_sqrt(6)
    assert r2 * r3 == r6
    assert r6 * r2 == Radical(2) * r3
    assert r6 * r6 == Radical(6)
    x = Radical(1) + r2
    y = Radical(1) - r2
    assert x * y == Radical(-1)
    assert x.inverse() == y * Radical(-1)


def test_scalar_coercion_and_pow():
    x = rad_sqrt(5)
    assert 1 + x == Radical(1) + x
    assert 2 * x == x + x
    assert 1 - x == -(x - 1)
    assert 6 / (1 + x) == Radical(6) * (1 + x).inverse()
    assert x**0 == Radical(1)
    assert x**3 == Radical(5) * x
    assert (1 + x) ** 2 == Radical(6) + 2 * x
    assert x ** (-2) == Radical(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        Radical(0) ** (-1)


# --- sign oracle -------------------------------------------------------------


def test_sign_matches_high_precision_numerics():
    rng = random.Random(20240817)
    for _ in range(200):
        x = random_radical(rng)
        got = x.sign()
        ref = radical_to_mpf(x.terms, dps=50)
        if got == 0:
            assert x.is_zero
        else:
            assert mp.sign(ref) == got


def test_sign_on_tight_cancellations():
    # 70/99 * sqrt(2) - 1 is about -5.1e-5
    x = Radical.single(2, Fraction(70, 99)) - 1
    assert x.sign() == -1
    # 99/70 * sqrt(2) - 2 is about +1.0e-4
    y = Radical.single(2, Fraction(99, 70)) - 2
    assert y.sign() == 1
    # exact zero from a product: (sqrt(6)-sqrt(2)*sqrt(3)) is identically 0
    z = rad_sqrt(6) - rad_sqrt(2) * rad_sqrt(3)
    assert z.sign() == 0


#: radicand sets of 2 to 5 generators; the composite radicands make
#: ``_split`` shrink its first choice of q to a proper gcd
BEYOND_LADDER_RADICANDS = (
    (2, 3),
    (2, 3, 6),
    (6, 10, 15),
    (2, 5, 7, 10),
    (2, 3, 5, 30),
    (6, 10, 15, 7, 21),
    (2, 3, 5, 7, 11),
    (30, 6, 10, 15, 7, 11, 77),
)


def sqrt_sum_minus_approximations(rng, rads):
    """S - floor(S) and S - ceil(S) at 10^-170 for S = sum c_i*sqrt(d_i):
    both lie within 10^-170 of zero, past the 512-bit interval round."""
    s = sum((Radical.single(d, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                        rng.randint(1, 4))) for d in rads), Radical(0))
    scale = 10**170
    with mp.workdps(300):
        scaled = radical_to_mpf(s.terms, dps=300) * scale
        lo, hi = int(mp.floor(scaled)), int(mp.ceil(scaled))
    return [s - Fraction(lo, scale), s - Fraction(hi, scale)]


def pell_units():
    """(sqrt(2)-1)^a * (2-sqrt(3))^b and their exact reciprocals: positive
    values of 10^-80 to 10^-86 with coefficients of 10^80 to 10^85."""
    u, v = rad_sqrt(2) - 1, 2 - rad_sqrt(3)
    for a, b in ((210, 0), (0, 140), (120, 70), (60, 110)):
        yield u**a * v**b, (rad_sqrt(2) + 1) ** a * (2 + rad_sqrt(3)) ** b


def test_split_isolates_one_generator():
    rng = random.Random(5)
    for rads in BEYOND_LADDER_RADICANDS:
        for _ in range(5):
            x = sum((Radical.single(d, props.random_fraction(rng) or 1) for d in rads),
                    Radical(props.random_fraction(rng)))
            q, a, b = x._split()
            assert q > 1 and _split_square(q) == (1, q)
            assert all(math.gcd(d, q) == 1 for d, _ in a.terms + b.terms if d != 1)
            assert b and a + b * rad_sqrt(q) == x
    # 6 shrinks to gcd(6, 10) = 2, which stays coprime to 15
    q, a, b = Radical.parse("sqrt(6) + sqrt(10) + sqrt(15)")._split()
    assert (q, a, b) == (2, rad_sqrt(15), rad_sqrt(3) + rad_sqrt(5))


def test_sign_and_inverse_beyond_the_interval_ladder():
    rng = random.Random(2026)
    values = [(x, None) for rads in BEYOND_LADDER_RADICANDS
              for x in sqrt_sum_minus_approximations(rng, rads)]
    values += list(pell_units())
    for x, reciprocal in values:
        lo, hi = x._enclosure(512)
        assert lo <= 0 <= hi  # the exact steps decide
        expected = int(mp.sign(radical_to_mpf(x.terms, dps=300)))
        assert expected != 0
        assert x.sign() == expected
        assert (-x).sign() == -expected
        inv = x.inverse()
        assert x * inv == Radical(1)
        if reciprocal is not None:
            assert inv == reciprocal


def test_comparisons_and_abs():
    a, b = rad_sqrt(2), rad_sqrt(3)
    assert a < b < 2
    assert b > a > 1
    assert a <= a and a >= a
    assert abs(Radical(1) - b) == b - 1
    assert max(a, b) == b
    assert sorted([b, Radical(0), a]) == [Radical(0), a, b]


def test_float_rendering():
    assert float(rad_sqrt(2)) == pytest.approx(math.sqrt(2), abs=1e-15)
    # 17 significant digits of the nearest double (round-trip exact)
    assert float_str(Radical(Fraction(1, 3))) == "0.33333333333333331"
    assert float_str(rad_sqrt(2)) == "1.4142135623730951"
    assert float_str(Radical(0)) == "0"
    assert float_str(Fraction(-3, 2)) == "-1.5"


# --- canonical strings -------------------------------------------------------


def test_str_forms():
    assert str(Radical(0)) == "0"
    assert str(Radical(Fraction(-3, 2))) == "-3/2"
    assert str(Radical.single(6, Fraction(1, 2))) == "1/2*sqrt(6)"
    assert str(rad_sqrt(2) - 1) == "-1 + sqrt(2)"
    x = Radical(Fraction(43, 240)) - Radical.single(6, Fraction(3, 40))
    assert str(x) == "43/240 - 3/40*sqrt(6)"


def test_parse_specific_literals():
    assert Radical.parse("0") == Radical(0)
    assert Radical.parse("-3/2") == Radical(Fraction(-3, 2))
    assert Radical.parse("1/2*sqrt(6)") == Radical.single(6, Fraction(1, 2))
    assert Radical.parse(" 43/240 - 3/40*sqrt(6) ") == Radical(
        Fraction(43, 240)
    ) - Radical.single(6, Fraction(3, 40))
    # non-squarefree radicands are normalized on entry
    assert Radical.parse("sqrt(8)") == Radical.single(2, 2)
    assert Radical.parse("sqrt(4)") == Radical(2)
    for bad in ("", "sqrt()", "1 +", "sqrt(-2)", "two"):
        with pytest.raises(ExactNumError):
            Radical.parse(bad)


@settings(max_examples=150, deadline=None)
@given(radicals_st())
def test_parse_str_roundtrip(x):
    assert Radical.parse(str(x)) == x


def test_hash_consistency():
    a = rad_sqrt(2) + rad_sqrt(8)  # = 3 sqrt(2)
    b = Radical.single(2, 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# --- the Q(sqrt(d)) working value ----------------------------------------------

# a + b*sqrt(d) with a^2 - d*b^2 = 1/den(a)^2: the two squares agree to
# within one part in up to 4*10^8, so a and b*sqrt(d) nearly cancel
PELL_NEAR_MISSES = (
    (Fraction(99), Fraction(-70), 2),
    (Fraction(19601), Fraction(-13860), 2),
    (Fraction(1351, 780), Fraction(-1), 3),
    (Fraction(-485), Fraction(198), 6),
    (Fraction(8), Fraction(-3), 7),
)


def quad_values(rng, d, n):
    """Zero, the near misses in Q(sqrt(d)) with both signs, and n random
    values with zero, pure-rational and pure-sqrt parts mixed in."""
    out = [_QSqrt(Fraction(0), Fraction(0), d)]
    for a, b, dd in PELL_NEAR_MISSES:
        if dd == d:
            out += [_QSqrt(a, b, d), _QSqrt(-a, -b, d), _QSqrt(a, -b, d)]
    for _ in range(n):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if rng.random() < 0.8 else Fraction(0)
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if rng.random() < 0.8 else Fraction(0)
        out.append(_QSqrt(a, b, d))
    return out


def test_qsqrt_arithmetic_and_sign_match_radical():
    rng = random.Random(17)
    for d in (2, 3, 5, 6, 7):
        values = quad_values(rng, d, 25)
        for x in values:
            rx = x.radical()
            assert rx == Radical(x.a) + Radical(x.b) * rad_sqrt(d)
            back = _QSqrt.of(rx, d)
            assert (back.a, back.b, back.d) == (x.a, x.b, d)
            assert x.sign() == rx.sign()
            assert bool(x) == bool(rx)
            assert (-x).radical() == -rx
            if x:
                assert x.inverse().radical() == rx.inverse()
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            for y in values:
                ry = y.radical()
                assert (x + y).radical() == rx + ry
                assert (x - y).radical() == rx - ry
                assert (x * y).radical() == rx * ry
                assert (x - y).sign() == (rx - ry).sign()
                if y:
                    assert (x / y).radical() == rx / ry


def test_qsqrt_sign_of_pell_near_misses():
    for a, b, d in PELL_NEAR_MISSES:
        x = _QSqrt(a, b, d)
        dominant = a if a * a > d * b * b else b
        expected = 1 if dominant > 0 else -1
        assert x.sign() == expected == x.radical().sign()
        assert (-x).sign() == -expected
        # the norm a^2 - d*b^2 is +-1 times the square of a's denominator
        assert abs((x * _QSqrt(a, -b, d)).a) == Fraction(1, a.denominator**2)


def test_field_for_picks_the_representation():
    r2, r3 = rad_sqrt(2), rad_sqrt(3)
    lift, sign, lower = _field_for([Radical(Fraction(1, 2)), 3, Fraction(-2)])
    assert type(lift(Radical(Fraction(1, 2)))) is Fraction
    assert lower(lift(Fraction(-2))) == Radical(-2) and sign(lift(-2)) == -1
    lift, sign, lower = _field_for([Radical(1), r3, Radical(2) - r3 * Radical(5)])
    x = lift(Radical(2) - r3)
    assert type(x) is _QSqrt and (x.a, x.b, x.d) == (2, -1, 3)
    assert lower(x) == Radical(2) - r3 and sign(x) == 1
    assert type(lift(7)) is _QSqrt and lower(lift(7)) == Radical(7)
    lift, sign, lower = _field_for([r2, r3, Radical(1)])
    assert lift(r2 + r3) == r2 + r3 and type(lift(1)) is Radical
    assert sign(r2 - r3) == -1 and lower(r2) == r2
