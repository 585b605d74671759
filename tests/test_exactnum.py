import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdisc.exactnum import (
    DEFAULT_FACTOR_BOUND,
    ExactNumError,
    Radical,
    _coprime_base,
    _rows_for,
    _split_square,
    float_str,
    rad_sqrt,
)

from exactdisc import Piece, PiecewiseFn, Subspace, pw_inner, pw_integrate, solve_weights
from exactdisc import piecewise
from exactdisc.piecewise import _parse_frac
from oracles import FracRadical, radical_to_mpf
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


def test_split_square_certifies_base2_pseudoprimes():
    # psi_12, the least strong pseudoprime to the bases 2..37, is
    # 399165290221 * 798330580441: squarefree and a base-2 pseudoprime
    psi12 = 318665857834031151167461
    assert _split_square(psi12) == (1, psi12)
    assert _split_square(9 * psi12) == (3, psi12)
    # a base-2 (not base-3) pseudoprime, and the largest prime below the
    # proved range (6.7e15)**2
    for n in (1000000009 * 6000000049, 44889999999999999999999999999881):
        assert _split_square(n) == (1, n)


def _split_square_by_odd_numbers(n):
    """Reference: _split_square with trial division by every odd number up
    to DEFAULT_FACTOR_BOUND, as it was before it divided by primes only."""
    s = d = 1
    m = n
    p = 2
    while p <= DEFAULT_FACTOR_BOUND and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p = 3 if p == 2 else p + 2
    if m == 1 or p * p > m:
        return s, d * m
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    if m <= DEFAULT_FACTOR_BOUND**3:
        return s, d * m
    if m < 67 * 10**14 * 67 * 10**14 and pow(2, m - 1, m) == 1:
        return s, d * m
    return "refused"


def test_split_square_matches_the_odd_number_loop():
    psi12 = 318665857834031151167461
    edge = [
        999983**2 * 7,
        1000003**2 * 5,  # a prime square just past the trial bound
        999983 * 1000003,
        1093**2 * 1000000000039,
        3511**2 * 1000000000039,
        1093**2 * 3511 * 1000003 * 1000033 * 1000037,
        psi12, 9 * psi12, 1000000009 * 6000000049, 44889999999999999999999999999881,
        999983, 1000001, 1000003, 1000001**2, 997 * 1009, 1009**2 * 2,
    ]
    rng = random.Random(2024)
    # the reference divides a cofactor past 10**12 by 500,000 odd numbers
    seeded = [rng.randrange(1, 10**k) for k in (2, 4, 6, 9) for _ in range(50)]
    seeded += [rng.randrange(1, 10**k) for k in (12, 15) for _ in range(3)]
    seeded += [rng.randrange(1, 10**6) ** 2 * rng.randrange(1, 10**6) for _ in range(6)]
    for n in edge + seeded:
        try:
            got = _split_square(n)
        except ExactNumError:
            got = "refused"
        assert got == _split_square_by_odd_numbers(n), n


def test_split_square_gives_up_beyond_certification_range():
    # a composite above the bound cubed with no small factor that fails the
    # base-2 Fermat test is neither prime nor proven free of square factors
    n = 1000003 * 1000033 * 1000037
    assert n > DEFAULT_FACTOR_BOUND**3
    with pytest.raises(ExactNumError):
        rad_sqrt(n)
    # the refusal says why: a failed base-2 test proves the cofactor
    # composite, while past the proved range it may well be prime
    for n, why in [
        (
            1000003**2 * 1000000000039,
            "fails the base-2 Fermat test, so it is composite and may hide a square",
        ),
        (
            44890000000000000000000000000163,
            "is beyond the proved range of the base-2 test and may well be prime",
        ),
    ]:
        with pytest.raises(ExactNumError) as exc:
            _split_square(n)
        msg = str(exc.value)
        assert msg.startswith(f"cannot certify a squarefree radicand for {n}: ")
        assert msg.endswith(why)


def test_single_normalizes_square_factors():
    assert Radical.single(4, 1) == Radical(2) and str(Radical.single(4, 1)) == "2"
    assert Radical.single(8, 1) * Radical.single(2, 1) == Radical(4)
    assert Radical.single(12, Fraction(1, 2)) == rad_sqrt(3) == Radical.single(3, 1)
    assert Radical.single(18, -1).terms == ((2, Fraction(-3)),)
    with pytest.raises(ExactNumError):
        Radical.single(0, 1)


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
    rx, ry = FracRadical(x.terms), FracRadical(y.terms)
    assert (x * y).terms == (rx * ry).terms and (x - y).terms == (rx - ry).terms
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
    # beyond the double range the advisory float rounds to an infinity
    big = Fraction(10**400)
    assert float_str(big) == "inf" and float_str(-big) == "-inf"
    assert float_str(Radical(big) - rad_sqrt(2)) == "inf"
    assert float_str(Radical.single(3, -big) + 1) == "-inf"


# --- canonical strings -------------------------------------------------------


def test_str_forms():
    assert str(Radical(0)) == "0"
    assert str(Radical(Fraction(-3, 2))) == "-3/2"
    assert str(Radical.single(6, Fraction(1, 2))) == "1/2*sqrt(6)"
    assert str(rad_sqrt(2) - 1) == "-1 + sqrt(2)"
    x = Radical(Fraction(43, 240)) - Radical.single(6, Fraction(3, 40))
    assert str(x) == "43/240 - 3/40*sqrt(6)"
    # a computed value can outgrow the digits Python converts to text
    limit = sys.get_int_max_str_digits()
    for big in (Radical(Fraction(1, 3**(3 * limit))), Radical.single(2, 7**(2 * limit))):
        with pytest.raises(ExactNumError, match=f"more than {limit} digits cannot be printed"):
            str(big)


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
    for bad in ("", "sqrt()", "1 +", "sqrt(-2)", "two", "sqrt(٣)", "sqrt(1_0)",
                "1/0*sqrt(2)", "sqrt(" + "9" * 5000 + ")"):
        with pytest.raises(ExactNumError):
            Radical.parse(bad)
    # a refused term is quoted up to its first 40 characters
    with pytest.raises(ExactNumError, match=r"^cannot parse Radical term '\+1/0\*sqrt\(2\)': Fraction\(1, 0\)$"):
        Radical.parse("1 + 1/0*sqrt(2)")
    with pytest.raises(ExactNumError, match=r"^cannot parse Radical term 'sqrt\(9{35}': Exceeds the limit"):
        Radical.parse("sqrt(" + "9" * 5000 + ")")


#: Fraction accepts some (" 3 ", "+3", "1_000", the Arabic-Indic "٣") and
#: refuses others ("²", "3/ 4", "1/-2"); _parse_frac, the reader of document
#: and command-line rationals, must agree on each, except that it refuses
#: every non-ASCII character and underscore, which the program never writes:
#: REFUSED.
REFUSED = {"1_000", "٣", "1/٣", "²"}
PARSE_TABLE = [
    "3", "-7", "3/16", "007/010", "-0", "0/5", "1/0", "-0/0", "+3", " 3 ", "3/ 4",
    "1_000", "٣", "1/٣", "²", "--3", "-", "1/-2", "", "/", "3/", "3/4/5", "0.5",
    "0x10", "1e3", "1.5e-2",
]


@pytest.mark.parametrize("text", PARSE_TABLE)
def test_parse_rational_agrees_with_fraction(text):
    def outcome(parse):
        try:
            q = parse(text)
        except (ValueError, ZeroDivisionError) as e:
            return type(e), str(e)
        assert type(q) is Fraction
        return q

    if text in REFUSED:
        with pytest.raises(ValueError, match="^invalid literal for a rational number"):
            _parse_frac(text)
        with pytest.raises(ExactNumError):
            Radical.parse(f"{text}*sqrt(2)")
    else:
        assert outcome(_parse_frac) == outcome(Fraction)


def test_parse_rational_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text in ("9" * limit, "-" + "9" * limit, "1/" + "9" * limit):
        assert _parse_frac(text) == Fraction(text)
    for text in ("9" * (limit + 1), "1/" + "9" * (limit + 1), "-" + "9" * (limit + 1)):
        with pytest.raises(ValueError) as refused:
            _parse_frac(text)
        with pytest.raises(ValueError) as direct:
            Fraction(text)
        assert str(refused.value) == str(direct.value)
        assert str(refused.value).startswith(f"Exceeds the limit ({limit} digits)")
    # written with an exponent, the value is refused once formed
    assert _parse_frac(f"1e{limit - 1}") == 10 ** (limit - 1)
    for text in (f"1e{limit}", f"1e-{limit}"):
        with pytest.raises(ValueError, match=f"^number with more than {limit} digits$"):
            _parse_frac(text)
    with pytest.raises(ValueError, match=f"^exponent beyond {2 * limit} in a number$"):
        _parse_frac(f"0e{2 * limit + 1}")


def test_parse_rational_repeats_read_the_same():
    # the reader keeps the Fraction of each short string it has read
    def outcome(text):
        try:
            return _parse_frac(text)
        except (ValueError, ZeroDivisionError) as e:
            return type(e), str(e)

    piecewise._kept_frac.cache_clear()
    first = [outcome(text) for text in PARSE_TABLE]
    assert [outcome(text) for text in PARSE_TABLE] == first
    assert _parse_frac("3/16") is _parse_frac("3/16")


def test_parse_rational_refuses_booleans_after_integers():
    assert (_parse_frac(1), _parse_frac(0), _parse_frac("1"), _parse_frac("0")) == (1, 0, 1, 0)
    for b in (True, False):
        with pytest.raises(ValueError, match=f"^expected a rational string, got {b}$"):
            _parse_frac(b)


def test_parse_rational_repeat_obeys_a_lowered_digit_limit():
    # accepted under the default limit, refused on a repeat read under 640
    # digits, both as digits and through an exponent
    limit = sys.get_int_max_str_digits()
    long_digits, big_exponent = "7" * 700, "1e2000"
    assert _parse_frac(long_digits) == int(long_digits)
    assert _parse_frac(big_exponent) == 10**2000
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(ValueError, match=r"^Exceeds the limit \(640 digits\)"):
            _parse_frac(long_digits)
        with pytest.raises(ValueError, match="^exponent beyond 1280 in a number$"):
            _parse_frac(big_exponent)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=150, deadline=None)
@given(radicals_st())
def test_parse_str_roundtrip(x):
    assert Radical.parse(str(x)) == x


def test_hash_consistency():
    a = rad_sqrt(2) + rad_sqrt(8)  # = 3 sqrt(2)
    b = Radical.single(2, 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# --- int numerators over one denominator, against the Fraction reference ----


def assert_canonical(x):
    """Sorted squarefree radicands, nonzero int numerators and an int
    denominator > 0 with no factor common to all of them."""
    rads, nums = [d for d, _ in x._terms], [c for _, c in x._terms]
    assert type(x._den) is int and x._den > 0
    assert all(type(c) is int and c for c in nums)
    assert math.gcd(x._den, *nums) == 1
    assert rads == sorted(set(rads)) and all(_split_square(d) == (1, d) for d in rads)
    assert type(x._terms) is tuple and all(type(t) is tuple for t in x._terms)


def reference_values(rng):
    """Zero, ints, rationals, one to four radicands, 10**40-sized
    numerators, sums that cancel to zero or to a rational, and values
    beyond the double range."""
    big = 10**40
    out = [Radical(0), Radical(7), Radical(-3), Radical(Fraction(-5, 12)),
           Radical(Fraction(big + 1, 3)), Radical(Fraction(-3, big + 7))]
    for k in (1, 1, 2, 2, 3, 4, 4):
        ds = rng.sample((2, 3, 5, 6, 7, 10, 15, 21), k)
        terms = [Radical.single(d, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)))
                 for d in ds]
        out.append(sum(terms, Radical(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))))
    x, y = out[-1], out[-3]
    out += [Radical.single(6, Fraction(big + 3, 7)) - Fraction(big, 9) + Radical.single(2, Fraction(1, big))]
    out += [(x + Fraction(2, 3)) - x, (x + y) - y - x]  # cancel to 2/3 and to 0
    out += [Radical(Fraction(10**400, 3)), Radical.single(3, -(10**400)) + 1]
    return out


def assert_matches_reference(got, ref):
    assert_canonical(got)
    assert got.terms == ref.terms
    assert str(got) == str(ref) and float_str(got) == ref.float_str()
    assert got.sign() == ref.sign() and bool(got) == bool(ref.terms)
    try:
        want = ref.to_float()
    except OverflowError:
        with pytest.raises(OverflowError):
            got.to_float()
    else:
        assert got.to_float() == want


def test_arithmetic_matches_fraction_reference():
    values = reference_values(random.Random(2025))
    refs = [FracRadical(x.terms) for x in values]
    assert refs[-4].terms == ((1, Fraction(2, 3)),) and not refs[-3].terms
    scalars = [0, 5, -2, Fraction(-7, 3), Fraction(10**40 + 1, 6)]
    for x, rx in zip(values, refs):
        assert_matches_reference(x, rx)
        assert_matches_reference(-x, -rx)
        assert_matches_reference(x**2, rx**2)
        assert_matches_reference(x**3, rx**3)
        if x:
            assert_matches_reference(x.inverse(), rx.inverse())
            assert_matches_reference(x ** -2, rx ** -2)
        for q in scalars:
            assert_matches_reference(x + q, rx + q)
            assert_matches_reference(q - x, q - rx)
            assert_matches_reference(q * x, rx * q)
            assert (x == q) == (rx == q)
            if q:
                assert_matches_reference(x / q, rx / q)
            if x:
                assert_matches_reference(q / x, q / rx)
        for y, ry in zip(values, refs):
            assert (x == y) == (rx == ry)
            assert_matches_reference(x + y, rx + ry)
            assert_matches_reference(x - y, rx - ry)
            assert_matches_reference(x * y, rx * ry)
            if y:
                assert_matches_reference(x / y, rx / ry)


def canonical_routes():
    """Radicals built by every constructor, conversion and operation."""
    values = reference_values(random.Random(7))
    out = [Radical(3), Radical(Fraction(-6, 4)), Radical(True), Radical(Radical(5)),
           Radical.single(12, Fraction(5, 6)), Radical.single(8, Fraction(1, 4)), Radical.single(1, 0),
           rad_sqrt(Fraction(8, 18)), rad_sqrt(Fraction(50, 3)), rad_sqrt(0), rad_sqrt(10**40 * 6)]
    out += [Radical.parse(str(x)) for x in values]
    out += [Radical.parse("sqrt(12) - 2*sqrt(3) + 0*sqrt(5)"), Radical.parse("6/4 + 2/4*sqrt(8)")]
    # _Rows.ratio, also over a negative lead, and through solve_weights
    rows = _rows_for([Radical(Fraction(1, 2))])
    ratios = [rows.ratio([1, 6, -4, 0], 1, 2), rows.ratio([1, 6, -4, 0], 3, 2)]
    assert ratios == [Radical(Fraction(-3, 2)), Radical(0)]
    out += ratios
    f = PiecewiseFn([Piece.from_poly(0, 1, [1])])
    g = PiecewiseFn([Piece.from_poly_sqrt(0, Fraction(1, 3), [1], 0, 2),
                     Piece.from_poly_sqrt(Fraction(1, 3), 1, [Fraction(1, 2)], 0, 12)])
    sol = solve_weights(Subspace(("f", "g"), (f, g)), [Fraction(1, 6), Fraction(2, 3)])
    out += list(sol.particular) + [v for vec in sol.null_basis for v in vec]
    h = PiecewiseFn([Piece.from_poly_sqrt(Fraction(1, 2), 2, [1, 2], 1, 0)])
    k = PiecewiseFn([Piece.from_poly_sqrt(Fraction(1, 2), 2, [Fraction(1, 3)], 0, 6)])
    out += [pw_integrate(f), pw_integrate(g), pw_integrate(h), pw_inner(h, k), pw_inner(g, g)]
    out += [x * y - y * x for x in values[:8] for y in values[:8]]
    out += [a + b for a in values for b in values] + [a * b for a in values for b in values]
    return out


def test_every_route_gives_the_canonical_form_and_equal_values_hash_alike():
    routes = canonical_routes()
    for x in routes:
        assert_canonical(x)
        twin = Radical.parse(str(x))  # equal, built another way
        assert x == twin and hash(x) == hash(twin)
        if x.is_rational:
            q = x.as_fraction()
            assert x == q and hash(x) == hash(q)
    # the same value by different routes is one dict key
    assert len({Radical.single(8, 1), 2 * rad_sqrt(2), Radical.parse("sqrt(8)")}) == 1
    for q in (0, 1, -7, 10**40, Fraction(1, 2), Fraction(-22, 7), Fraction(10**40, 3)):
        assert Radical(q) == q and hash(Radical(q)) == hash(q)
    assert {Fraction(1, 2): "half"}[Radical(Fraction(1, 2))] == "half"
    assert {Radical(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"
    assert rad_sqrt(Fraction(1, 2)) != Fraction(1, 2) and Radical(Fraction(1, 2)) != 0.5


# --- rows and their entries over a multiquadratic field -----------------------


def test_coprime_base():
    assert _coprime_base({6, 10}) == (2, 3, 5)
    assert _coprime_base({2, 3, 6}) == (2, 3)
    assert _coprime_base({15, 21, 35}) == (3, 5, 7)
    assert _coprime_base(set()) == ()
    assert _coprime_base({7}) == (7,)


def test_rows_lift_combine_and_pivot():
    r2, r3 = rad_sqrt(2), rad_sqrt(3)
    rows = _rows_for([Radical(Fraction(1, 2)), 3, Fraction(-2)])
    x = rows.scaled([Fraction(-2)])
    assert x == ([-2], 1) and rows.entry(x[0], 0) == Radical(-2) and rows.sign(x[0], 0) == -1
    # one int row: scaled by the lcm of the denominators, content divided out
    row = rows.lift([Radical(Fraction(1, 2)), 3, Fraction(-2), Radical(0)])
    assert row == [1, 6, -4, 0] and all(type(v) is int for v in row)
    assert [rows.sign(row, i) for i in range(4)] == [1, 1, -1, 0]
    assert rows.combine([2, 4, 6], [3, 1, 1], 0) == [0, 5, 8]  # (3*row - 2*prow) / 2
    assert rows.ratio(row, 2, 1) == Radical(Fraction(-2, 3))
    rows = _rows_for([Radical(1), r3, Radical(2) - r3 * Radical(5)])
    x = rows.scaled([Radical(2) - r3])
    assert x == ([2, -1], 1) and rows.entry(x[0], 0) == Radical(2) - r3 and rows.sign(x[0], 0) == 1
    assert rows.entry(rows.scaled([7])[0], 0) == Radical(7)
    # A + B*sqrt(3) rows: the A column, then the B column
    row = rows.lift([Radical(2) - r3, Radical(Fraction(1, 3)), r3 * Radical(Fraction(-1, 2))])
    assert row == [12, 2, 0, -6, 0, -3]
    assert [rows.sign(row, i) for i in range(3)] == [1, 1, -1]
    pivot = rows.pivot(row, 0)  # times 2 + sqrt(3): a rational lead
    assert pivot[3] == 0
    assert rows.ratio(pivot, 2, 0) == r3 * Radical(Fraction(-1, 2)) / (Radical(2) - r3)
    # radicands 6, 10 and 30 share factors: blocks over the base (2, 3, 5)
    a = [Radical(1) + rad_sqrt(6), rad_sqrt(10) - Radical(Fraction(1, 2)), Radical(3), rad_sqrt(15)]
    b = [rad_sqrt(30) - r2, Radical(2) * rad_sqrt(6), Radical(0), Radical(-1) + rad_sqrt(5)]
    rows = _rows_for(a + b)
    assert rows.rad == [1, 2, 3, 6, 5, 10, 15, 30]
    assert [rows.sign(rows.lift(a), i) for i in range(4)] == [1, 1, 1, 1]
    pivot = rows.pivot(rows.lift(a), 0)  # times the conjugates of 1 + sqrt(6)
    assert [pivot[4 * s] for s in range(1, 8)] == [0] * 7
    assert [rows.ratio(pivot, i, 0) for i in range(4)] == [v / a[0] for v in a]
    # a combination clears its column and is a positive multiple of the values'
    cleared = [a[0] * v - b[0] * u for u, v in zip(a, b)]
    assert rows.combine(rows.lift(b), rows.lift(a), 0) == rows.lift(cleared)
    assert not rows.nonzero(rows.lift(cleared), 0) and rows.nonzero(rows.lift(cleared), 1)


@pytest.mark.parametrize("ds", [(), (5,), (2, 3), (6, 10, 7)], ids=str)
def test_rows_products_scaled_append_and_held_roots(ds):
    rng = random.Random(f"products:{ds}")
    values = field_values(rng, ds, 3)
    values = values[:1] + values[-3:]  # zero, then three random values
    rows = _rows_for(values)
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    # a positive int multiple with no common factor, formed on ints
    row, s = rows.products(values, pairs)
    assert s > 0 and math.gcd(s, *row) == 1
    assert [rows.entry(row, p) for p in range(len(pairs))] == [
        Radical(s) * values[i] * values[j] for i, j in pairs
    ]
    row, s = rows.scaled(values)
    assert s > 0 and math.gcd(s, *row) == 1
    assert [rows.entry(row, i) for i in range(4)] == [Radical(s) * v for v in values]
    wide = rows.append(row, [s, 0])
    assert [rows.entry(wide, i) for i in range(6)] == [Radical(s) * v for v in values] + [
        Radical(s), Radical(0)
    ]
    assert rows.lead(wide, 6) == 1 and rows.lead(wide, 1) is None
    # a pivot row's held sqrt(g_S) multiples give the same combination
    prow = rows.pivot(wide, 1)
    other = rows.lift(field_values(rng, ds, 6)[-6:])
    assert rows.nonzero(other, 1)
    assert rows.combine(other, prow, 1, rows.roots(prow)) == rows.combine(other, prow, 1)


# a + b*sqrt(d) with a^2 - d*b^2 = 1/den(a)^2: the two squares agree to
# within one part in up to 4*10^8, so a and b*sqrt(d) nearly cancel
PELL_NEAR_MISSES = (
    (Fraction(99), Fraction(-70), 2),
    (Fraction(19601), Fraction(-13860), 2),
    (Fraction(1351, 780), Fraction(-1), 3),
    (Fraction(-485), Fraction(198), 6),
    (Fraction(8), Fraction(-3), 7),
)


def test_rows_sign_of_pell_near_misses():
    for a, b, d in PELL_NEAR_MISSES:
        x, conj = Radical(a) + Radical.single(d, b), Radical(a) - Radical.single(d, b)
        dominant = a if a * a > d * b * b else b
        expected = 1 if dominant > 0 else -1
        rows = _rows_for([x])
        row = rows.lift([x, -x, conj])
        assert [rows.sign(row, i) for i in range(3)] == [expected, -expected, 1 if a > 0 else -1]
        assert rows.sign(rows.lift([x, -x]), 0) == expected == x.sign()
        assert rows.sign(rows.lift([x, -x]), 1) == -expected
        # the norm a^2 - d*b^2 is +-1 times the square of a's denominator
        row, s = rows.products([x, conj], [(0, 1)])
        norm = rows.entry(row, 0) / s
        assert abs(norm.as_fraction()) == Fraction(1, a.denominator**2)


def field_values(rng, ds, n):
    """Zero, the near misses in Q(sqrt(d)) with both signs, and n random
    values over the products of the square roots of ds."""
    roots = [Radical(1)]
    for d in ds:
        roots += [r * rad_sqrt(d) for r in roots]
    out = [Radical(0)]
    for a, b, d in PELL_NEAR_MISSES:
        if (d,) == ds:
            x = Radical(a) + Radical.single(d, b)
            out += [x, -x, Radical(a) - Radical.single(d, b)]
    for _ in range(n):
        terms = [Radical(Fraction(rng.randint(-40, 40), rng.randint(1, 12))) * r for r in roots]
        out.append(sum((t for t in terms if rng.random() < 0.7), Radical(0)))
    return out


#: radicand sets and the size k of their coprime base
FIELD_BASES = {(): 0, (2,): 1, (3,): 1, (6,): 1, (7,): 1, (2, 3): 2, (6, 10): 3, (2, 5, 7): 3}


@pytest.mark.parametrize("ds", sorted(FIELD_BASES), ids=lambda ds: "-".join(map(str, ds)) or "Q")
def test_working_value_arithmetic_and_sign_match_radical(ds):
    # entries, signs and pivot ratios of the rows against Radical; the
    # ratios run through _cofactor and _mul over up to three generators
    values = field_values(random.Random(17), ds, 16)
    rows = _rows_for([rad_sqrt(d) for d in ds])
    assert rows.k == FIELD_BASES[ds]
    for x in values:
        row, s = rows.scaled([x])
        assert rows.entry(row, 0) == Radical(s) * x and rows.sign(row, 0) == x.sign()
        assert rows.nonzero(row, 0) == bool(x)
        for y in values:
            assert rows.sign(rows.lift([x - y]), 0) == (x - y).sign()
            row, s = rows.products([x, y], [(0, 1)])
            assert rows.entry(row, 0) == Radical(s) * x * y
            if y:
                assert rows.ratio(rows.pivot(rows.lift([y, x]), 0), 1, 0) == x / y
