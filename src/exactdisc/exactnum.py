"""Exact scalar arithmetic: rationals and sums of square roots.

Values of the form ``c_1 + c_2*sqrt(d_2) + ...`` with rational ``c_i`` and
squarefree positive integer radicands ``d_i`` form a field that is closed
under the four arithmetic operations and has a unique normal form: the
square roots of distinct squarefree integers are linearly independent over
the rationals, so two values are equal iff their coefficient maps are
equal.  Equality is therefore decidable by inspection.  The sign of a
nonzero value comes from rational interval enclosures of 64 to 512 bits
and, when they straddle zero, from exact quadratic steps: writing the
value as ``A + B*sqrt(q)`` with sqrt(q) independent of ``A`` and ``B``
reduces it to signs in a field with one generator fewer.

Rationals are plain :class:`fractions.Fraction` (aliased ``Rat``);
:class:`Radical` carries the sqrt combinations.  Exact linear algebra runs
on fraction-free rows picked per computation by ``_rows_for``: lists of
ints for rational inputs, ints ``A + B*sqrt(d)`` for inputs with one
radicand d, and Radicals for several.  An integer row is scaled by the lcm
of its denominators and divided by its content (the gcd of its integer
components) after every combination, so it stands for a nonzero multiple of
the row of values; the few exact values a result needs are formed in a
working field (Fraction, the two-Fraction :class:`_QSqrt`, or Radical) and
converted back to :class:`Radical` at the end.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

Rat = Fraction

#: trial-division limit for extracting square factors from radicands
DEFAULT_FACTOR_BOUND = 10**6


class ExactNumError(ArithmeticError):
    """An exact operation could not be certified (bad input or bound hit)."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # Miller-Rabin; the fixed base set is deterministic for n < 3.3e24.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _split_square(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * d`` with ``d`` squarefree; return ``(s, d)``.

    Trial division runs up to ``DEFAULT_FACTOR_BOUND``.  A cofactor that
    survives it is certified squarefree when it is prime, a perfect square,
    or at most the bound cubed (then it cannot hide a square factor);
    otherwise we refuse rather than guess.
    """
    if n <= 0:
        raise ExactNumError(f"radicand must be positive, got {n}")
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
    if m == 1:
        return s, d
    if p * p > m:
        return s, d * m  # cofactor is prime
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    if m <= DEFAULT_FACTOR_BOUND**3 or _is_probable_prime(m):
        # no factor <= bound and not a square: at most two distinct primes
        return s, d * m
    raise ExactNumError(
        f"cannot certify a squarefree radicand for {n}: a composite factor may hide a square"
    )


_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+)\s*$")
#: digits Python converts between int and text (0: no limit; Python < 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` for a number read from a document.

    Refuses, with ValueError, a number whose numerator or denominator has
    more decimal digits than Python converts to text, since no message or
    output could show it, and one whose exponent is over twice that limit:
    its value would be refused too, after a computation that grows with it.
    """
    limit = _max_str_digits()
    if not limit or (len(text) <= limit and "e" not in text and "E" not in text):
        # ASCII [-]digits[/digits] straight to int(); all else as Fraction reads it
        num, slash, den = text.partition("/")
        if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den or 1))
        return Fraction(text)  # no part has more digits than the text
    exp = _EXPONENT_RE.search(text)
    if exp and abs(int(exp.group(1))) > 2 * limit:
        raise ValueError(f"exponent beyond {2 * limit} in a number")
    q = Fraction(text)
    big = max(abs(q.numerator), q.denominator)
    if big.bit_length() > 3.32 * limit and big >= 10**limit:
        raise ValueError(f"number with more than {limit} digits")
    return q


def _sqrt_interval(d: int, bits: int) -> tuple[Fraction, Fraction]:
    # enclosure of sqrt(d) of width 2**-bits
    s = math.isqrt(d << (2 * bits))
    return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)


class Radical:
    """An exact value ``sum(c_d * sqrt(d))`` over squarefree integers ``d``.

    The rational part rides on the key ``d == 1``.  Terms are stored
    sorted by radicand with all-nonzero coefficients, which makes the
    representation canonical: ``x == y`` iff the term tuples match.
    Instances are immutable, hashable and safe to share across threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, value: int | Fraction | "Radical" = 0):
        if isinstance(value, Radical):
            self._terms = value._terms
        elif isinstance(value, (int, Fraction)):
            q = Fraction(value)
            self._terms = ((1, q),) if q else ()
        else:
            raise TypeError(f"cannot build a Radical from {type(value).__name__}")

    @classmethod
    def _raw(cls, terms: tuple[tuple[int, Fraction], ...]) -> "Radical":
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def _from_map(cls, terms: dict[int, Fraction]) -> "Radical":
        return cls._raw(tuple(sorted((d, c) for d, c in terms.items() if c)))

    @classmethod
    def single(cls, d: int, coeff: Fraction) -> "Radical":
        """The value ``coeff * sqrt(d)`` for an already-squarefree ``d``."""
        if d < 1:
            raise ExactNumError(f"radicand must be positive, got {d}")
        return cls._from_map({d: Fraction(coeff)})

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

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
            return self._terms[0][1]
        raise ExactNumError(f"{self} is irrational")

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Radical | None":
        if isinstance(other, Radical):
            return other
        if isinstance(other, (int, Fraction)):
            return Radical(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for d, c in o._terms:
            acc[d] = acc.get(d, Fraction(0)) + c
        return Radical._from_map(acc)

    __radd__ = __add__

    def __neg__(self):
        return Radical._raw(tuple((d, -c) for d, c in self._terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for d1, c1 in self._terms:
            for d2, c2 in o._terms:
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                acc[d] = acc.get(d, Fraction(0)) + c1 * c2 * g
        return Radical._from_map(acc)

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
            return Radical(1 / self._terms[0][1])
        q, a, b = self._split()
        conj = Radical._raw(tuple((d, c if d % q else -c) for d, c in self._terms))
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
        a: dict[int, Fraction] = {}
        b: dict[int, Fraction] = {}
        for d, c in self._terms:
            if d % q:
                a[d] = c
            else:
                b[d // q] = c
        return q, Radical._from_map(a), Radical._from_map(b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational:
            q = o.as_fraction()
            if q == 0:
                raise ZeroDivisionError("Radical division by zero")
            return self * Radical(1 / q)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        Zero iff the term tuple is empty (canonical form).  Otherwise the
        value is enclosed in rational intervals of 64 to 512 bits; when
        none excludes zero, ``self = A + B*sqrt(q)`` (:meth:`_split`) is
        decided from the signs of ``A`` and ``B`` and, when they differ, of
        the norm ``A^2 - q*B^2``, each with one generator fewer.
        """
        if not self._terms:
            return 0
        signs = {1 if c > 0 else -1 for _, c in self._terms}
        if len(signs) == 1:
            return signs.pop()  # all terms pull the same way
        for bits in (64, 128, 256, 512):
            lo, hi = self._enclosure(bits)
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

    def _enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational bounds ``(lo, hi)`` on the value, each sqrt(d) enclosed to 2**-bits."""
        lo = hi = Fraction(0)
        for d, c in self._terms:
            if d == 1:
                lo += c
                hi += c
                continue
            slo, shi = _sqrt_interval(d, bits)
            if c > 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return lo, hi

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rendering -------------------------------------------------------

    def to_float(self) -> float:
        """Advisory double-precision value (exact midpoint of a 128-bit enclosure)."""
        if not self._terms:
            return 0.0
        lo, hi = self._enclosure(128)
        return float((lo + hi) / 2)

    __float__ = to_float

    def __str__(self):
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d, c in self._terms:
            try:
                body = str(abs(c))  # ValueError past the int-to-text digit limit
            except ValueError as exc:
                limit = _max_str_digits()
                raise ExactNumError(f"value with more than {limit} digits cannot be printed") from exc
            if d != 1:
                body = f"sqrt({d})" if abs(c) == 1 else f"{body}*sqrt({d})"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Radical({str(self)!r})"

    _TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")

    @classmethod
    def parse(cls, text: str) -> "Radical":
        """Inverse of ``str``: ``Radical.parse(str(x)) == x``.

        Accepts any sum of signed terms ``p/q`` or ``[c*]sqrt(d)``; input
        radicands need not be squarefree (they are normalized on entry).
        """
        compact = text.replace(" ", "")
        if not compact:
            raise ExactNumError("empty Radical literal")
        if compact == "0":
            return cls(0)
        tokens = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(tokens) != compact:
            raise ExactNumError(f"cannot parse Radical literal {text!r}")
        total = cls(0)
        for tok in tokens:
            sign = -1 if tok.startswith("-") else 1
            body = tok.lstrip("+-")
            m = cls._TERM_RE.match(body)
            if m:
                coeff = _parse_rational(m.group(1)) if m.group(1) else Fraction(1)
                term = rad_sqrt(int(m.group(2))) * Radical(sign * coeff)
            else:
                try:
                    term = cls(sign * _parse_rational(body))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ExactNumError(f"cannot parse Radical term {tok!r}: {exc}") from exc
            total = total + term
        return total


# -- working representations for exact linear algebra --------------------


_Q0 = Fraction(0)


class _QSqrt:
    """The value ``a + b*sqrt(d)`` of Q(sqrt(d)) for one fixed squarefree d > 1.

    A working type for elimination and Fourier-Motzkin: operands always
    share ``d`` (the caller picks it once per computation), so no radicand
    bookkeeping happens per operation.  Results go back to :class:`Radical`
    through :meth:`radical`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def of(cls, x: "Radical", d: int) -> "_QSqrt":
        a = b = _Q0
        for r, c in x._terms:
            if r == 1:
                a = c
            else:  # r == d: the caller checked the radicands
                b = c
        return cls(a, b, d)

    def radical(self) -> "Radical":
        if self.a:
            return Radical._raw(((1, self.a), (self.d, self.b)) if self.b else ((1, self.a),))
        return Radical._raw(((self.d, self.b),) if self.b else ())

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, o):
        a, b, c, e = self.a, self.b, o.a, o.b
        return _QSqrt(a + c if c else a, b + e if e else b, self.d)

    def __sub__(self, o):
        a, b, c, e = self.a, self.b, o.a, o.b
        return _QSqrt(a - c if c else a, b - e if e else b, self.d)

    def __neg__(self):
        return _QSqrt(-self.a, -self.b, self.d)

    def __mul__(self, o):
        # (a + b*r)(c + e*r) = (ac + d*be) + (ae + bc)*r with r = sqrt(d).
        # Rational and pure-sqrt operands are common, so products with a
        # zero part are skipped: each costs as much as a Fraction product.
        a, b, c, e = self.a, self.b, o.a, o.b
        if not b:
            if not a:
                return self
            return _QSqrt(a * c if c else c, a * e if e else e, self.d)
        if not e:
            if not c:
                return o
            return _QSqrt(a * c if a else a, b * c, self.d)
        if not a:
            return _QSqrt(self.d * b * e, b * c if c else c, self.d)
        if not c:
            return _QSqrt(self.d * b * e, a * e, self.d)
        return _QSqrt(a * c + self.d * b * e, a * e + b * c, self.d)

    def inverse(self) -> "_QSqrt":
        """Reciprocal through the conjugate: (a - b*sqrt(d)) / (a^2 - d*b^2)."""
        a, b = self.a, self.b
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero in Q(sqrt(d))")
            return _QSqrt(1 / a, b, self.d)
        norm = a * a - self.d * b * b  # nonzero: sqrt(d) is irrational
        return _QSqrt(a / norm, -b / norm, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def sign(self) -> int:
        """Exact sign from the signs of a and b and, when they differ,
        from comparing a^2 with d*b^2 (never equal for b != 0)."""
        a, b = self.a, self.b
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        return sa if a * a > self.d * b * b else sb

    def __repr__(self):
        return f"_QSqrt({self.a}, {self.b}, {self.d})"


def _as_radical(x) -> "Radical":
    return x if isinstance(x, Radical) else Radical(x)


_ONE = Radical(1)


def _primitive(row: list) -> list:
    """``row`` divided by its content, the gcd of its integer components."""
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _int_row(ratios: list) -> list:
    """The rationals ``(numerator, denominator)`` scaled by the lcm of their
    denominators, as a primitive int row."""
    den = math.lcm(*[d for _, d in ratios])
    return _primitive([n * (den // d) for n, d in ratios])


class _IntRows:
    """Rows over Z, for rational inputs: a row is a list of ints.

    Each row stands for a positive rational multiple of the row of values it
    was lifted from, or for a nonzero multiple of the row elimination would
    hold; its working field is ``Fraction``.
    """

    __slots__ = ()

    @staticmethod
    def value(x) -> Fraction:
        # only called on values _rows_for found rational
        if isinstance(x, Radical):
            return x._terms[0][1] if x._terms else _Q0
        return Fraction(x)

    @staticmethod
    def fsign(q: Fraction) -> int:
        n = q.numerator
        return (n > 0) - (n < 0)

    @staticmethod
    def lower(q: Fraction) -> "Radical":
        return Radical._raw(((1, q),) if q else ())

    @staticmethod
    def lift(values) -> list:
        ratios = []
        for x in values:
            if isinstance(x, Radical):
                x = x._terms[0][1] if x._terms else 0
            ratios.append(x.as_integer_ratio())
        return _int_row(ratios)

    @staticmethod
    def nonzero(row, i) -> bool:
        return row[i] != 0

    @staticmethod
    def sign(row, i) -> int:
        v = row[i]
        return (v > 0) - (v < 0)

    @staticmethod
    def combine(row, prow, col) -> list:
        p, f = prow[col], row[col]
        g = math.gcd(p, f)
        if g > 1:
            p //= g
            f //= g
        return _primitive([p * a - f * b for a, b in zip(row, prow)])

    @staticmethod
    def pivot(row, col) -> list:
        return row

    @staticmethod
    def entry(row, i) -> Fraction:
        return Fraction(row[i])

    @staticmethod
    def ratio(row, i, j) -> Fraction:
        return Fraction(row[i], row[j])


class _SqrtIntRows:
    """Rows over Z[sqrt(d)], for inputs whose irrational parts share one
    squarefree radicand d: the entries ``A_i + B_i*sqrt(d)`` of a row of
    length n are the flat int list ``A_0, ..., A_{n-1}, B_0, ..., B_{n-1}``.

    Scalings are as in :class:`_IntRows`, by elements of Q(sqrt(d)); the
    working field is :class:`_QSqrt`.
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def value(self, x) -> "_QSqrt":
        return _QSqrt.of(_as_radical(x), self.d)

    fsign = staticmethod(_QSqrt.sign)
    lower = staticmethod(_QSqrt.radical)

    @staticmethod
    def lift(values) -> list:
        n = len(values)
        ratios = [(0, 1)] * (2 * n)
        for i, x in enumerate(values):
            if isinstance(x, Radical):
                for r, c in x._terms:
                    ratios[i if r == 1 else n + i] = c.as_integer_ratio()
            else:
                ratios[i] = x.as_integer_ratio()
        return _int_row(ratios)

    @staticmethod
    def nonzero(row, i) -> bool:
        return row[i] != 0 or row[i + (len(row) >> 1)] != 0

    def sign(self, row, i) -> int:
        # a + b*sqrt(d): b decides unless a has the other sign and
        # a^2 > d*b^2 (never equal for b != 0, as sqrt(d) is irrational)
        a, b = row[i], row[i + (len(row) >> 1)]
        if not b:
            return (a > 0) - (a < 0)
        sb = 1 if b > 0 else -1
        if (a > 0) - (a < 0) != -sb or self.d * b * b > a * a:
            return sb
        return -sb

    def combine(self, row, prow, col) -> list:
        n = len(row) >> 1
        pa, pb, fa, fb = prow[col], prow[n + col], row[col], row[n + col]
        g = math.gcd(pa, pb, fa, fb)
        if g > 1:
            pa, pb, fa, fb = pa // g, pb // g, fa // g, fb // g
        if not pb and not fb:  # rational factors act on both halves alike
            return _primitive([pa * a - fa * b for a, b in zip(row, prow)])
        # (pa + pb*r)(x + y*r) - (fa + fb*r)(u + v*r) with r = sqrt(d)
        dpb, dfb = self.d * pb, self.d * fb
        xy = list(zip(row[:n], row[n:], prow[:n], prow[n:]))
        return _primitive(
            [pa * x + dpb * y - fa * u - dfb * v for x, y, u, v in xy]
            + [pa * y + pb * x - fa * v - fb * u for x, y, u, v in xy]
        )

    def pivot(self, row, col) -> list:
        """The row times the conjugate of its lead, which makes the lead
        rational, so later combinations with it take the rational path."""
        n = len(row) >> 1
        a, b = row[col], row[n + col]
        if not b:
            return row
        db = self.d * b
        xy = list(zip(row[:n], row[n:]))
        return _primitive([a * x - db * y for x, y in xy] + [a * y - b * x for x, y in xy])

    def entry(self, row, i) -> "_QSqrt":
        return _QSqrt(Fraction(row[i]), Fraction(row[i + (len(row) >> 1)]), self.d)

    def ratio(self, row, i, j) -> "_QSqrt":
        n = len(row) >> 1
        c = row[j]  # rational: see pivot
        return _QSqrt(Fraction(row[i], c), Fraction(row[n + i], c), self.d)


class _RadicalRows:
    """Rows of :class:`Radical` values, for inputs with several radicands.

    No content to divide out: a new pivot row is scaled to lead 1, and a
    combination with such a row only subtracts a multiple of it.
    """

    __slots__ = ()

    value = lower = staticmethod(_as_radical)
    fsign = staticmethod(Radical.sign)

    @staticmethod
    def lift(values) -> list:
        return [_as_radical(x) for x in values]

    @staticmethod
    def nonzero(row, i) -> bool:
        return bool(row[i])

    @staticmethod
    def sign(row, i) -> int:
        return row[i].sign()

    @staticmethod
    def combine(row, prow, col) -> list:
        p, f = prow[col], row[col]
        if p == _ONE:
            return [a - f * b if b else a for a, b in zip(row, prow)]
        nf = -f
        return [p * a + nf * b for a, b in zip(row, prow)]

    @staticmethod
    def pivot(row, col) -> list:
        inv = _ONE / row[col]
        return [v * inv if v else v for v in row]

    @staticmethod
    def entry(row, i) -> "Radical":
        return row[i]

    @staticmethod
    def ratio(row, i, j) -> "Radical":
        return row[i]  # row[j] is 1: see pivot


_INT_ROWS = _IntRows()
_RADICAL_ROWS = _RadicalRows()


def _rows_for(values):
    """The cheapest row representation that holds every value.

    ``values`` are ints, Fractions or Radicals.  Returns a row record:
    :class:`_IntRows` when every value is rational, :class:`_SqrtIntRows`
    when the irrational values share a single radicand d, and
    :class:`_RadicalRows` otherwise.  Each record supplies

    * ``lift(values)``: the row of the values, scaled by the lcm of their
      denominators and divided by its content (integer records);
    * ``nonzero(row, i)`` and ``sign(row, i)``: entry i is nonzero, and its
      exact sign;
    * ``combine(row, prow, col)``: ``prow[col]*row - row[col]*prow``, which
      clears column ``col`` (divided by its content in the integer records);
      when ``prow[col] > 0 > row[col]`` it is a positive combination, so it
      stands for a positive multiple if both operands do;
    * ``pivot(row, col)``: a new pivot row with a cheap lead (rational, or
      1 for Radical rows);
    * ``entry(row, i)`` and ``ratio(row, i, j)``: entry i, and entry i over
      the lead j of a row made by ``pivot``, as values of the working field;
    * ``value(x)``, ``fsign(v)`` and ``lower(v)``: the working field
      (Fraction, :class:`_QSqrt` or Radical) -- an input value in it, the
      exact sign of one of its values, and that value as a canonical
      :class:`Radical`.

    An integer row stands for a nonzero multiple of its row of values, so
    its entries are read only through zero tests, ratios, and signs where
    every scaling was positive.
    """
    radicands = set()
    for v in values:
        if isinstance(v, Radical) and v._terms and v._terms[-1][0] != 1:  # sorted: 1 first
            radicands.update(r for r, _ in v._terms if r != 1)
    if not radicands:
        return _INT_ROWS
    if len(radicands) == 1:
        return _SqrtIntRows(*radicands)
    return _RADICAL_ROWS


# -- operation-style entry points -----------------------------------------


def rad_sqrt(q: int | Fraction) -> Radical:
    """Exact square root of a nonnegative rational.

    With ``q = p/r`` we have ``sqrt(q) = sqrt(p*r)/r``; the largest square
    factor ``s**2`` of ``p*r`` is extracted so the result is a single term
    ``(s/r)*sqrt(d)`` with ``d`` squarefree.
    """
    q = Fraction(q)
    if q < 0:
        raise ExactNumError(f"square root of negative rational {q}")
    if q == 0:
        return Radical(0)
    s, d = _split_square(q.numerator * q.denominator)
    return Radical.single(d, Fraction(s, q.denominator))


def float_str(x: Radical | Fraction | int, sig: int = 17) -> str:
    """Advisory float rendering at ``sig`` significant digits."""
    if isinstance(x, Radical):
        v = x.to_float()
    else:
        v = float(Fraction(x))
    return format(v, f".{sig}g")
