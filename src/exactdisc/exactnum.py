"""Exact scalar arithmetic: rationals and sums of square roots.

Values of the form ``c_1 + c_2*sqrt(d_2) + ...`` with rational ``c_i`` and
squarefree positive integer radicands ``d_i`` form a field that is closed
under the four arithmetic operations and has a unique normal form: the
square roots of distinct squarefree integers are linearly independent over
the rationals, so two values are equal iff their coefficient maps are
equal.  Equality is therefore decidable by inspection.  The sign of a
nonzero value comes from a 64-bit rational interval enclosure and, when it
straddles zero, from exact quadratic steps: writing the value as
``A + B*sqrt(q)`` with sqrt(q) independent of ``A`` and ``B`` reduces it
to signs in a field with one generator fewer.

Rationals are plain :class:`fractions.Fraction`;
:class:`Radical` carries the sqrt combinations, as int numerators over one
common denominator, so its arithmetic runs on ints.  Exact linear algebra runs
on fraction-free rows of one kind, :class:`_Rows`, over the field of its
inputs (``_rows_for``): the radicands are split into a coprime base
g_1, ..., g_k, and a row holds the integer coefficients of the 2^k square
roots of products of the g_i -- a list of ints when every input is
rational.  A row is scaled by the lcm of its denominators and divided by its
content (the gcd of its integer components) after every combination, so it
stands for a nonzero multiple of the row of values; the few exact values a
result needs are read off a row as :class:`Radical` entries and ratios.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import compress

#: trial-division limit for extracting square factors from radicands
DEFAULT_FACTOR_BOUND = 10**6


class ExactNumError(ArithmeticError):
    """An exact operation could not be certified (bad input or bound hit)."""


#: the base-2 Wieferich primes (2**(p-1) == 1 mod p**2) below this bound
#: are 1093 and 3511 only (Dorais and Klyve, "A Wieferich prime search up to
#: 6.7e15", J. Integer Sequences 14, 2011)
_WIEFERICH_SEARCH_BOUND = 67 * 10**14


@lru_cache(maxsize=None)
def _odd_prime_flags() -> bytes:
    """``flags[i] == 1`` iff ``2*i + 1`` is a prime up to
    ``DEFAULT_FACTOR_BOUND``: a sieve of Eratosthenes over the odd numbers,
    built on first use."""
    flags = bytearray([1]) * ((DEFAULT_FACTOR_BOUND + 1) // 2)
    flags[0] = 0
    for i in range(1, (math.isqrt(DEFAULT_FACTOR_BOUND) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1  # strike p*p, p*p + 2p, ... at indices p*p//2 + k*p
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return bytes(flags)


def _trial_divisors():
    """2 and the odd numbers below 1001, then only the primes up to
    ``DEFAULT_FACTOR_BOUND``: a small radicand never needs the sieve."""
    yield 2
    yield from range(3, 1001, 2)
    flags = memoryview(_odd_prime_flags())[500:]  # from 2*500 + 1 = 1001 on
    yield from compress(range(1001, DEFAULT_FACTOR_BOUND + 1, 2), flags)


@lru_cache(maxsize=None)
def _split_square(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * d`` with ``d`` squarefree; return ``(s, d)``.

    Trial division by primes runs up to ``DEFAULT_FACTOR_BOUND``.  A cofactor m that
    survives it is certified squarefree when it is prime, a perfect square,
    at most the bound cubed (then it cannot hide a square factor), or below
    ``_WIEFERICH_SEARCH_BOUND**2`` with ``2**(m-1) == 1 (mod m)``: if
    p**2 | m, the order of 2 mod p**2 divides m - 1, which p does not
    divide, and p*(p - 1), so it divides p - 1 and p is a Wieferich prime
    below the search bound, 1093 or 3511, both removed by trial division.
    Otherwise we refuse rather than guess, and say why: the cofactor is
    beyond the proved range, or it fails the base-2 test and is composite.
    """
    if n <= 0:
        raise ExactNumError(f"radicand must be positive, got {n}")
    s = d = 1
    m = n
    for p in _trial_divisors():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
    else:
        p = DEFAULT_FACTOR_BOUND + 1
    if m == 1:
        return s, d
    if p * p > m:
        return s, d * m  # cofactor is prime
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    if m <= DEFAULT_FACTOR_BOUND**3:
        return s, d * m  # no factor <= bound and not a square: two primes at most
    if m >= _WIEFERICH_SEARCH_BOUND**2:
        why = "is beyond the proved range of the base-2 test and may well be prime"
    elif pow(2, m - 1, m) == 1:
        return s, d * m  # no square factor at all
    else:
        why = "fails the base-2 Fermat test, so it is composite and may hide a square"
    try:
        text = str(n)  # ValueError past the int-to-text digit limit
    except ValueError:
        text = f"a {n.bit_length()}-bit number"
    raise ExactNumError(
        f"cannot certify a squarefree radicand for {text}: its {m.bit_length()}-bit "
        f"cofactor with no factor up to {DEFAULT_FACTOR_BOUND} {why}"
    )


_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+)\s*$")
#: digits Python converts between int and text (0: no limit; Python < 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _parse_pair(text: str) -> tuple[int, int]:
    """A number read from a document as the reduced pair ``(num, den)``,
    ``den > 0``, of ``Fraction(text)``.

    Refuses, with ValueError, a non-ASCII character or an underscore, which
    ``Fraction`` reads (``"٣"`` as 3, ``"1_000"`` as 1000) but the program
    never writes; a number whose numerator or denominator has more decimal
    digits than Python converts to text, since no message or output could
    show it; and one whose exponent is over twice that limit: its value
    would be refused too, after a computation that grows with it.  A zero
    denominator raises ZeroDivisionError, as ``Fraction`` does.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for a rational number: {text[:40]!r}")
    limit = _max_str_digits()
    if not limit or (len(text) <= limit and "e" not in text and "E" not in text):
        # [-]digits[/digits] straight to int(); all else as Fraction reads it
        num, slash, den = text.partition("/")
        if num.removeprefix("-").isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit():
                n, d = int(num), int(den)
                if not d:
                    raise ZeroDivisionError(f"Fraction({n}, 0)")
                g = math.gcd(n, d)
                return (n, d) if g == 1 else (n // g, d // g)
        q = Fraction(text)  # no part has more digits than the text
        return q.numerator, q.denominator
    exp = _EXPONENT_RE.search(text)
    if exp and abs(int(exp.group(1))) > 2 * limit:
        raise ValueError(f"exponent beyond {2 * limit} in a number")
    q = Fraction(text)
    big = max(abs(q.numerator), q.denominator)
    if big.bit_length() > 3.32 * limit and big >= 10**limit:
        raise ValueError(f"number with more than {limit} digits")
    return q.numerator, q.denominator


def _operand(x) -> tuple | None:
    """``(terms, den)`` of a Radical, int or Fraction operand; None for any
    other type.  An int or Fraction is read as its numerator and denominator."""
    if isinstance(x, Radical):
        return x._terms, x._den
    if isinstance(x, (int, Fraction)):
        n = x.numerator
        return ((1, n),) if n else (), x.denominator
    return None


@total_ordering
class Radical:
    """An exact value ``sum(n_d * sqrt(d)) / den`` over squarefree integers ``d``.

    ``_terms`` holds the pairs ``(d, n_d)`` sorted by radicand, each ``n_d``
    a nonzero int; the rational part rides on the key ``d == 1``.  ``_den``
    is an int > 0 with ``gcd(den, *n_d) == 1``, and zero is ``((), 1)``.
    That makes the representation canonical: ``x == y`` iff the pairs and
    the denominators match.  Every operation runs on ints and reduces once.
    Instances are immutable, hashable and safe to share across threads.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, value: int | Fraction | "Radical" = 0):
        pair = _operand(value)
        if pair is None:
            raise TypeError(f"cannot build a Radical from {type(value).__name__}")
        self._terms, self._den = pair

    @classmethod
    def _raw(cls, terms: tuple, den: int) -> "Radical":
        self = object.__new__(cls)
        self._terms = terms
        self._den = den
        return self

    @classmethod
    def _of(cls, terms: tuple, den: int) -> "Radical":
        """The value of sorted pairs with nonzero int numerators over an int
        ``den > 0``, put in lowest terms by one gcd."""
        if not terms:
            return cls._raw((), 1)
        g = math.gcd(den, *[c for _, c in terms])
        if g != 1:
            terms = tuple([(d, c // g) for d, c in terms])
            den //= g
        return cls._raw(terms, den)

    @classmethod
    def _from_pairs(cls, pairs: dict) -> "Radical":
        """The value of a map from squarefree radicand to an int pair
        ``(num, den)`` with ``den > 0``, over the lcm of the denominators."""
        den = math.lcm(*[d for n, d in pairs.values() if n])
        return cls._of(tuple(sorted((r, n * (den // d)) for r, (n, d) in pairs.items() if n)), den)

    @classmethod
    def single(cls, d: int, coeff: int | Fraction) -> "Radical":
        """The value ``coeff * sqrt(d)`` for a positive integer ``d``, with
        its square factor moved into the coefficient."""
        s, d = _split_square(d)  # ExactNumError unless d >= 1
        n = coeff.numerator * s
        return cls._of(((d, n),) if n else (), coeff.denominator)

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple([(d, Fraction(c, self._den)) for d, c in self._terms])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return len(self._terms) == 0 or (len(self._terms) == 1 and self._terms[0][0] == 1)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational:
            return Fraction(self._terms[0][1], self._den)
        raise ExactNumError(f"{self} is irrational")

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _sum(t1: tuple, d: int, t2: tuple, e: int, sign: int) -> "Radical":
        """``t1/d + sign * t2/e`` over ``d*e/gcd(d, e)``: a common factor of
        the result's numerators and denominator divides that gcd (Knuth,
        TAOCP Vol. 2, 4.5.1), so one gcd with it reduces the sum."""
        if not t2:
            return Radical._raw(t1, d)
        if not t1:
            return Radical._raw(t2 if sign > 0 else tuple([(r, -c) for r, c in t2]), e)
        g = math.gcd(d, e)
        a, b = e // g, sign * (d // g)
        den = d * a
        if len(t1) == 1 and len(t2) == 1 and t1[0][0] == t2[0][0]:
            n = t1[0][1] * a + t2[0][1] * b
            if not n:
                return Radical._raw((), 1)
            h = math.gcd(n, g)
            return Radical._raw(((t1[0][0], n // h),), den // h)
        acc = dict(t1) if a == 1 else {r: c * a for r, c in t1}
        for r, c in t2:
            acc[r] = acc.get(r, 0) + c * b
        terms = tuple(sorted(item for item in acc.items() if item[1]))
        if not terms:
            return Radical._raw((), 1)
        if g != 1:
            h = math.gcd(g, *[c for _, c in terms])
            if h != 1:
                terms = tuple([(r, c // h) for r, c in terms])
                den //= h
        return Radical._raw(terms, den)

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Radical._sum(self._terms, self._den, *o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Radical._raw(tuple([(d, -c) for d, c in self._terms]), self._den)

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Radical._sum(self._terms, self._den, *o, -1)

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Radical._sum(*o, self._terms, self._den, -1)

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        t1, t2 = self._terms, o[0]
        if not t1 or not t2:
            return Radical._raw((), 1)
        den = self._den * o[1]
        # sqrt(d1) * sqrt(d2) = g * sqrt(d1*d2/g^2) with g = gcd(d1, d2)
        if len(t1) == 1 and len(t2) == 1:
            (d1, c1), (d2, c2) = t1[0], t2[0]
            g = math.gcd(d1, d2)
            n = c1 * c2 * g
            h = math.gcd(n, den)
            return Radical._raw((((d1 // g) * (d2 // g), n // h),), den // h)
        acc: dict[int, int] = {}
        for d1, c1 in t1:
            for d2, c2 in t2:
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                acc[d] = acc.get(d, 0) + c1 * c2 * g
        return Radical._of(tuple(sorted(item for item in acc.items() if item[1])), den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Radical(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _reciprocal(self) -> "Radical":
        # 1 / (n/den) for a rational self != 0
        n, den = self._terms[0][1], self._den
        return Radical._raw(((1, den if n > 0 else -den),), abs(n))

    def inverse(self) -> "Radical":
        """Exact reciprocal, one quadratic step at a time.

        With ``self = A + B*sqrt(q)`` (:meth:`_split`), the reciprocal is
        ``(A - B*sqrt(q)) / (A^2 - q*B^2)``.  The conjugate is nonzero
        (canonical forms vanish only when every coefficient does), so the
        norm is too, and it lies in a field with one generator fewer: the
        recursion ends at a rational.
        """
        if not self._terms:
            raise ZeroDivisionError("Radical division by zero")
        if self.is_rational:
            return self._reciprocal()
        q, a, b = self._split()
        conj = Radical._raw(tuple([(d, c if d % q else -c) for d, c in self._terms]), self._den)
        return conj * (a * a - q * (b * b)).inverse()

    def _split(self) -> tuple[int, "Radical", "Radical"]:
        """``(q, A, B)`` with ``self == A + B*sqrt(q)``, for an irrational self.

        ``q > 1`` is squarefree and divides or is coprime to every radicand,
        so the radicands of ``A`` and ``B`` are coprime to q and sqrt(q) lies
        outside the field they generate.  One pass finds q: shrinking it to
        a divisor keeps each earlier radicand's relation to it.
        """
        rads = [d for d, _ in self._terms if d != 1]
        q = rads[0]
        for d in rads:
            g = math.gcd(q, d)
            if 1 < g < q:
                q = g
        a = tuple([(d, c) for d, c in self._terms if d % q])
        b = tuple([(d // q, c) for d, c in self._terms if not d % q])  # still sorted
        return q, Radical._of(a, self._den), Radical._of(b, self._den)

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        o = Radical._raw(*o)
        if not o._terms:
            raise ZeroDivisionError("Radical division by zero")
        return self * (o._reciprocal() if o.is_rational else o.inverse())

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Radical._raw(*o) / self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._terms == o[0] and self._den == o[1]

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._terms, self._den))

    def __bool__(self):
        return bool(self._terms)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        Zero iff the term tuple is empty (canonical form).  Otherwise the
        value is enclosed in a 64-bit rational interval; when it does not
        exclude zero, ``self = A + B*sqrt(q)`` (:meth:`_split`) is decided
        from the signs of ``A`` and ``B`` and, when they differ, of the norm
        ``A^2 - q*B^2``, each with one generator fewer.
        """
        if not self._terms:
            return 0
        signs = {c > 0 for _, c in self._terms}
        if len(signs) == 1:
            return 1 if signs.pop() else -1  # all terms pull the same way
        lo, hi = self._enclosure(64)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        q, a, b = self._split()  # b != 0: q divides a radicand
        sa, sb = a.sign(), b.sign()
        if sa == sb or not sa:
            return sb
        # |A| > |B|*sqrt(q) iff A^2 > q*B^2; never equal as self != 0
        return sa * (a * a - q * (b * b)).sign()

    def _enclosure(self, bits: int) -> tuple[int, int]:
        """Int bounds ``(lo, hi)`` on the value times ``den * 2**bits``, each
        sqrt(d) enclosed by ``isqrt(d * 4**bits)`` and one more over 2**bits."""
        lo = hi = 0
        for d, c in self._terms:
            if d == 1:
                lo += c << bits
                hi += c << bits
                continue
            s = math.isqrt(d << (2 * bits))
            if c > 0:
                lo += c * s
                hi += c * (s + 1)
            else:
                lo += c * (s + 1)
                hi += c * s
        return lo, hi

    def __lt__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Radical._sum(self._terms, self._den, *o, -1).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rendering -------------------------------------------------------

    def to_float(self) -> float:
        """Advisory double-precision value: a rational value correctly
        rounded, otherwise the exact midpoint of a 128-bit enclosure
        (int true division rounds correctly)."""
        if not self._terms:
            return 0.0
        if self.is_rational:
            return self._terms[0][1] / self._den
        lo, hi = self._enclosure(128)
        return (lo + hi) / (self._den << 129)

    __float__ = to_float

    def __str__(self):
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d, c in self._terms:
            g = math.gcd(c, self._den)
            n, e = abs(c) // g, self._den // g
            try:
                body = str(n) if e == 1 else f"{n}/{e}"  # ValueError past the digit limit
            except ValueError as exc:
                limit = _max_str_digits()
                raise ExactNumError(f"value with more than {limit} digits cannot be printed") from exc
            if d != 1:
                body = f"sqrt({d})" if n == e == 1 else f"{body}*sqrt({d})"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Radical({str(self)!r})"

    _TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$", re.ASCII)

    @classmethod
    def parse(cls, text: str) -> "Radical":
        """Inverse of ``str``: ``Radical.parse(str(x)) == x``.

        Accepts any sum of signed terms ``p/q`` or ``[c*]sqrt(d)``; input
        radicands need not be squarefree (they are normalized on entry).
        Raises ExactNumError on anything else.
        """
        compact = text.replace(" ", "")
        if not compact:
            raise ExactNumError("empty Radical literal")
        tokens = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(tokens) != compact:
            raise ExactNumError(f"cannot parse Radical literal {text!r}")
        total = cls(0)
        for tok in tokens:
            body = tok.lstrip("+-")
            m = cls._TERM_RE.match(body)
            try:
                n, d = _parse_pair((m.group(1) or "1") if m else body)
                term = cls._raw(((1, -n if tok[0] == "-" else n),) if n else (), d)
                if m:
                    term = term * rad_sqrt(int(m.group(2)))  # ValueError past the digit limit
            except (ValueError, ZeroDivisionError) as exc:
                raise ExactNumError(f"cannot parse Radical term {tok[:40]!r}: {exc}") from exc
            total = total + term
        return total


# -- exact linear algebra over a multiquadratic field ----------------------


def _coprime_base(radicands) -> tuple[int, ...]:
    """The sorted pairwise-coprime integers > 1 whose products are the given
    squarefree radicands, by repeated gcds: ``{6, 10}`` gives ``(2, 3, 5)``."""
    base: list[int] = []
    for x in radicands:
        split = []
        for b in base:
            g = math.gcd(x, b)
            x //= g
            split += [v for v in (g, b // g) if v > 1]
        base = split + [x] if x > 1 else split
    return tuple(sorted(base))


def _primitive(row: list) -> list:
    """``row`` divided by its content, the gcd of its integer components."""
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _scaled(row: list, s: int) -> tuple[list, int]:
    """``(row, s)`` divided by the gcd of every component and ``s``."""
    g = math.gcd(s, *row)
    return (row, s) if g < 2 else ([v // g for v in row], s // g)


def _lincomb(terms: list) -> list:
    """The int list ``sum(c * x for c, x in terms)``, four terms to a pass."""
    if len(terms) > 4:
        return _lincomb([(1, _lincomb(terms[:4]))] + terms[4:])
    if len(terms) == 4:
        (a, x), (b, y), (c, z), (e, w) = terms
        return [a * p + b * q + c * r + e * s for p, q, r, s in zip(x, y, z, w)]
    if len(terms) == 3:
        (a, x), (b, y), (c, z) = terms
        return [a * p + b * q + c * r for p, q, r in zip(x, y, z)]
    if len(terms) == 2:
        (a, x), (b, y) = terms
        return [a * p + b * q for p, q in zip(x, y)]
    ((a, x),) = terms
    return [a * p for p in x]


class _Rows:
    """Fraction-free rows over Q(sqrt(g_1), ..., sqrt(g_k)), the field of a
    set of squarefree radicands, for elimination and Fourier-Motzkin.

    ``g_1 < ... < g_k`` is the radicands' coprime base.  For a bitmask S over
    it, ``g_S`` is the product of the ``g_i`` with i in S; the 2^k roots
    sqrt(g_S) are linearly independent (Besicovitch 1940), and
    ``sqrt(g_S) * sqrt(g_T) = g_{S&T} * sqrt(g_{S^T})``.  A value is the
    list of its 2^k coefficients; a row of n values is 2^k blocks of n ints,
    block S holding the coefficients of sqrt(g_S) (at k = 1, the entries
    A_i + B_i*sqrt(d) as A_0..A_{n-1}, B_0..B_{n-1}).  A row is scaled by
    the lcm of its denominators and divided by its content, so it stands for
    a nonzero multiple of its row of values, read only through zero tests,
    ratios, and signs where every scaling was positive.

    * ``lift(values)``: the row of the values, a positive multiple;
      ``scaled(values)`` also returns the positive int factor, and
      ``products(values, pairs)`` does the same for the row of the products
      ``values[i] * values[j]`` over index pairs, formed on ints;
    * ``append(row, tail)``: the row followed by the rational entries
      ``tail``, given as ints;
    * ``nonzero(row, i)``, ``sign(row, i)``: entry i is nonzero; its sign;
      ``lead(row, stop)``: the first nonzero entry before ``stop``;
    * ``combine(row, prow, col, roots)``: ``prow[col]*row - row[col]*prow``
      divided by its content, which clears column ``col``; a positive
      multiple when both operands are and ``prow[col] > 0 > row[col]``.
      ``roots``, from ``roots(prow)``, holds prow's sqrt(g_S) multiples,
      formed once for a pivot row that reduces many rows;
    * ``pivot(row, col)``: the row times the conjugates of its lead, which
      makes the lead rational;
    * ``ratio(row, i, j)``: entry i over the rational lead j of a row made
      by ``pivot``, as a :class:`Radical`;
    * ``entry(row, i)``: entry i as a :class:`Radical`, value i times the
      row's multiple.
    """

    __slots__ = ("k", "rad", "order", "index", "perm")

    def __init__(self, radicands):
        base = _coprime_base(radicands)
        self.k = len(base)
        self.rad = [math.prod(g for i, g in enumerate(base) if S >> i & 1) for S in range(2**self.k)]
        self.order = sorted(range(2**self.k), key=self.rad.__getitem__)
        self.index = {r: S for S, r in enumerate(self.rad)}
        # block U of sqrt(g_S) * x is g times block T of x: perm[S][U] == (T, g)
        self.perm = [[(U ^ S, self.rad[S & (U ^ S)]) for U in range(2**self.k)] for S in range(2**self.k)]

    def _ratios(self, values) -> list:
        n = len(values)
        ratios = [(0, 1)] * (n << self.k)
        index = self.index
        for i, x in enumerate(values):
            if isinstance(x, Radical):
                for r, c in x._terms:
                    ratios[i if r == 1 else index[r] * n + i] = (c, x._den)
            else:
                ratios[i] = x.as_integer_ratio()
        return ratios

    def _ints(self, values) -> tuple[list, int]:
        """The values' coefficients times the lcm of their denominators,
        and that lcm.  A Radical's denominator is the lcm of its reduced
        coefficients' denominators, so the lcm is that of the reduced ones."""
        ratios = self._ratios(values)
        den = math.lcm(*[d for _, d in ratios])
        return [n * (den // d) for n, d in ratios], den

    def lift(self, values) -> list:
        return _primitive(self._ints(values)[0])

    def scaled(self, values) -> tuple[list, int]:
        return _scaled(*self._ints(values))

    def products(self, values, pairs) -> tuple[list, int]:
        a, den = self._ints(values)
        if not self.k:
            return _scaled([a[i] * a[j] for i, j in pairs], den * den)
        n = len(values)
        left = [[a[S * n + i] for i, _ in pairs] for S in range(len(self.rad))]
        right = [[a[S * n + j] for _, j in pairs] for S in range(len(self.rad))]
        out = [[0] * len(pairs) for _ in self.rad]
        for S, x in enumerate(left):
            for T, y in enumerate(right):
                if any(x) and any(y):  # sqrt(g_S) * sqrt(g_T) = g_{S&T} * sqrt(g_{S^T})
                    g, U = self.rad[S & T], S ^ T
                    out[U] = [o + g * p * q for o, p, q in zip(out[U], x, y)]
        return _scaled([v for block in out for v in block], den * den)

    def append(self, row, tail) -> list:
        if not self.k:
            return row + tail
        n, zeros = len(row) >> self.k, [0] * len(tail)
        out = row[:n] + tail
        for S in range(1, len(self.rad)):
            out += row[S * n : S * n + n]
            out += zeros
        return out

    def entry(self, row, i) -> "Radical":
        return self._radical(row[i :: len(row) >> self.k])

    def nonzero(self, row, i) -> bool:
        return row[i] != 0 or (self.k > 0 and any(row[i :: len(row) >> self.k]))

    def lead(self, row, stop) -> int | None:
        n = len(row) >> self.k
        for i in range(stop):
            if row[i] or (self.k and any(row[i::n])):
                return i
        return None

    def sign(self, row, i) -> int:
        return self._sign(row[i :: len(row) >> self.k])

    def roots(self, row) -> list | None:
        if not self.k:
            return None
        n = len(row) >> self.k
        return [self._root_times(S, row, n) for S in range(len(self.rad))]

    def combine(self, row, prow, col, roots=None) -> list:
        if self.k:
            n = len(row) >> self.k
            p, f = prow[col::n], row[col::n]
            if any(p[1:]) or any(f[1:]):
                g = math.gcd(*p, *f)
                terms = self._terms(p, row, n, g) + self._terms(f, prow, n, -g, roots)
                return _primitive(_lincomb(terms))
        p, f = prow[col], row[col]  # rational factors act on every block alike
        g = math.gcd(p, f)
        if g > 1:
            p, f = p // g, f // g
        return _primitive([p * a - f * b for a, b in zip(row, prow)])

    def pivot(self, row, col) -> list:
        n = len(row) >> self.k
        c = self._cofactor(row[col::n])
        return row if c is None else _primitive(_lincomb(self._terms(c, row, n)))

    def ratio(self, row, i, j) -> "Radical":
        return self._radical(row[i :: len(row) >> self.k], row[j])

    # -- field arithmetic on coefficient lists ----------------------------

    def _root_times(self, S, x, n) -> list:
        """The row x, of n entries a block, times sqrt(g_S)."""
        if not S:
            return x
        out = []
        for T, g in self.perm[S]:
            b = x[T * n : T * n + n]
            out += [g * v for v in b] if g > 1 else b
        return out

    def _terms(self, c, x, n, g=1, roots=None) -> list:
        """The terms ``(c_S / g, sqrt(g_S) * x)`` whose sum is the row x times
        c / g, for g dividing every c_S; ``roots`` holds x's multiples."""
        if roots:
            return [(v // g, roots[S]) for S, v in enumerate(c) if v]
        return [(v // g, self._root_times(S, x, n)) for S, v in enumerate(c) if v]

    def _mul(self, x, y) -> list:
        """The product of a nonzero value x and a value y, for k >= 1."""
        return _lincomb(self._terms(x, y, 1))

    def _cofactor(self, x) -> list | None:
        """A value c with c * x rational, or None if x is: x's conjugate
        over each generator x involves, multiplied in one at a time."""
        if not any(x[1:]):
            return None
        c = None
        for bit in (1 << i for i in range(self.k)):
            if any(v for S, v in enumerate(x) if S & bit):
                w = [-v if S & bit else v for S, v in enumerate(x)]
                c = w if c is None else self._mul(c, w)
                if 2 * bit < len(x):  # x may still involve a later generator
                    x = self._mul(x, w)
        return c

    def _sign(self, x) -> int:
        a = x[0]
        if self.k > 1:
            return self._radical(x).sign()
        if not self.k or not x[1]:
            return (a > 0) - (a < 0)
        # a + b*sqrt(d): b decides unless a has the other sign and
        # a^2 > d*b^2 (never equal for b != 0, as sqrt(d) is irrational)
        b = x[1]
        sb = 1 if b > 0 else -1
        return sb if (a > 0) - (a < 0) != -sb or self.rad[1] * b * b > a * a else -sb

    def _radical(self, x, den=1) -> "Radical":
        if den < 0:
            x, den = [-v for v in x], -den
        return Radical._of(tuple([(self.rad[S], x[S]) for S in self.order if x[S]]), den)


_rows_over = lru_cache(maxsize=256)(_Rows)  # one record per set of radicands


def _rows_for(values) -> _Rows:
    """The row record over the field of the ints, Fractions and Radicals
    ``values``, cached per set of radicands."""
    radicands = set()
    for v in values:
        if isinstance(v, Radical) and v._terms and v._terms[-1][0] != 1:  # sorted: 1 first
            radicands.update(r for r, _ in v._terms if r != 1)
    return _rows_over(frozenset(radicands))


# -- operation-style entry points -----------------------------------------


def rad_sqrt(q: int | Fraction) -> Radical:
    """Exact square root of a nonnegative rational.

    With ``q = p/r`` we have ``sqrt(q) = sqrt(p*r)/r``; the largest square
    factor ``s**2`` of ``p*r`` is extracted so the result is a single term
    ``(s/r)*sqrt(d)`` with ``d`` squarefree.
    """
    n, r = q.numerator, q.denominator
    if n < 0:
        raise ExactNumError(f"square root of negative rational {q}")
    if not n:
        return Radical(0)
    s, d = _split_square(n * r)
    g = math.gcd(s, r)
    return Radical._raw(((d, s // g),), r // g)


def float_str(x: Radical | Fraction | int) -> str:
    """Advisory float rendering at 17 significant digits, enough to read
    the double back; a value beyond the double range reads inf or -inf."""
    rad = isinstance(x, Radical)
    try:
        v = x.to_float() if rad else float(Fraction(x))
    except OverflowError:
        negative = x.sign() < 0 if rad else x < 0
        v = -math.inf if negative else math.inf
    return format(v, ".17g")
