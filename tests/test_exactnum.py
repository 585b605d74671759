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
    _split_square,
    float_str,
    rad_sqrt,
)

from oracles import radical_to_mpf
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


def test_sign_env_override():
    # the sign is exact whatever the starting precision
    x = Radical.single(2, Fraction(70, 99)) - 1
    assert x.sign(start_bits=8) == -1
    assert x.sign(start_bits=512) == -1


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
