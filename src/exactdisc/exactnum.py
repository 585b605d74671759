"""Exact scalar arithmetic: rationals and sums of square roots.

Values of the form ``c_1 + c_2*sqrt(d_2) + ...`` with rational ``c_i`` and
squarefree positive integer radicands ``d_i`` form a field that is closed
under the four arithmetic operations and has a unique normal form: the
square roots of distinct squarefree integers are linearly independent over
the rationals, so two values are equal iff their coefficient maps are
equal.  Equality is therefore decidable by inspection, and the sign of a
nonzero value is decidable by interval refinement with a provable
separation bound.

Rationals are plain :class:`fractions.Fraction` (aliased ``Rat``);
:class:`Radical` carries the sqrt combinations.  Exact linear algebra may
compute in a cheaper private representation of the same values
(``_field_for``: Fraction, or :class:`_QSqrt` for a single radicand) and
convert back to :class:`Radical` at the end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

Rat = Fraction

#: trial-division limit for extracting square factors from radicands
DEFAULT_FACTOR_BOUND = 10**6

#: starting interval precision (bits) of the sign oracle
SIGN_START_BITS = 64


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
def _split_square(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> tuple[int, int]:
    """Write ``n = s**2 * d`` with ``d`` squarefree; return ``(s, d)``.

    Trial division runs up to ``bound``.  A cofactor that survives it is
    certified squarefree when it is prime, a perfect square, or small
    enough (<= bound**3) that it cannot hide a square factor; otherwise we
    refuse rather than guess.
    """
    if n <= 0:
        raise ExactNumError(f"radicand must be positive, got {n}")
    s = d = 1
    m = n
    p = 2
    while p <= bound and p * p <= m:
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
    if m <= bound**3 or _is_probable_prime(m):
        # no factor <= bound and not a square: at most two distinct primes
        return s, d * m
    raise ExactNumError(
        f"cannot certify a squarefree radicand for {n}; raise the factor bound"
    )


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
        """Exact reciprocal via the product of sign-flip conjugates.

        Flipping the signs of any subset of the sqrt terms yields another
        nonzero value (each flip pattern is again a canonical Radical, and
        a canonical form vanishes only when all coefficients do).  The
        product over all flip patterns is even in every sqrt separately and
        hence rational, so dividing the product of the nontrivial
        conjugates by it gives the reciprocal.
        """
        if not self._terms:
            raise ZeroDivisionError("Radical division by zero")
        if self.is_rational:
            return Radical(1 / self._terms[0][1])
        prod = self._conjugate_product()
        norm = self * prod
        if not norm.is_rational or norm.is_zero:
            raise ExactNumError("conjugate product did not yield a nonzero rational")
        return prod * Radical(1 / norm.as_fraction())

    def _conjugate_product(self) -> "Radical":
        """Product of the conjugates that flip a nonempty set of sqrt signs."""
        rads = [d for d, _ in self._terms if d != 1]
        prod = Radical(1)
        for mask in range(1, 1 << len(rads)):
            flip = {rads[i] for i in range(len(rads)) if mask >> i & 1}
            conj = Radical._raw(
                tuple((d, -c if d in flip else c) for d, c in self._terms)
            )
            prod = prod * conj
        return prod

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

    def sign(self, start_bits: int = SIGN_START_BITS) -> int:
        """Exact sign: -1, 0 or +1.

        Zero iff the term tuple is empty (canonical form).  Otherwise the
        value is enclosed in a rational interval whose width halves each
        round; a separation bound derived from the conjugate-product norm
        caps the refinement, so the loop provably terminates.
        """
        if not self._terms:
            return 0
        signs = {1 if c > 0 else -1 for _, c in self._terms}
        if len(signs) == 1:
            return signs.pop()  # all terms pull the same way
        bits = max(8, start_bits)
        for _ in range(4):
            s = self._interval_sign(bits)
            if s is not None:
                return s
            bits *= 2
        # refine once more at the provable separation width
        sep = self._separation_bound()
        weight = sum(abs(c) for _, c in self._terms)
        while Fraction(weight, 1 << bits) >= sep:
            bits *= 2
        s = self._interval_sign(bits)
        if s is None:
            raise ExactNumError("sign refinement failed below the separation bound")
        return s

    def _interval_sign(self, bits: int) -> int | None:
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
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return None

    def _separation_bound(self) -> Fraction:
        """A positive rational ``b`` with ``|self| >= b`` (self nonzero)."""
        k = sum(1 for d, _ in self._terms if d != 1)
        norm = self * self._conjugate_product() if k else self
        val = abs(norm.as_fraction())
        big = sum(abs(c) * (math.isqrt(d) + 1) for d, c in self._terms)
        return val / max(Fraction(1), Fraction(big)) ** (2**k - 1)

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
        lo = hi = Fraction(0)
        for d, c in self._terms:
            slo, shi = (Fraction(1), Fraction(1)) if d == 1 else _sqrt_interval(d, 128)
            if c > 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return float((lo + hi) / 2)

    __float__ = to_float

    def __str__(self):
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d, c in self._terms:
            if d == 1:
                body = str(abs(c))
            elif abs(c) == 1:
                body = f"sqrt({d})"
            else:
                body = f"{abs(c)}*sqrt({d})"
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
                coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
                term = rad_sqrt(int(m.group(2))) * Radical(sign * coeff)
            else:
                try:
                    term = cls(sign * Fraction(body))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ExactNumError(f"cannot parse Radical term {tok!r}") from exc
            total = total + term
        return total


# -- working representations for exact linear algebra --------------------


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
        a = b = Fraction(0)
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


def _fraction_sign(q: Fraction) -> int:
    n = q.numerator
    return (n > 0) - (n < 0)


def _lift_fraction(x) -> Fraction:
    # only called on values _field_for found rational: terms () or ((1, q),)
    if isinstance(x, Radical):
        return x._terms[0][1] if x._terms else Fraction(0)
    return Fraction(x)


def _as_radical(x) -> "Radical":
    return x if isinstance(x, Radical) else Radical(x)


def _field_for(values):
    """The cheapest exact representation that holds every value.

    ``values`` are ints, Fractions or Radicals.  Returns ``(lift, sign,
    lower)``: ``lift`` maps one of the values (or an int) into the
    representation, ``sign`` gives the exact sign of a represented value,
    and ``lower`` turns it back into a canonical :class:`Radical`.  The
    representation is ``Fraction`` when every value is rational,
    :class:`_QSqrt` when the irrational values share a single radicand d,
    and ``Radical`` itself otherwise.
    """
    radicands = set()
    for v in values:
        if isinstance(v, Radical):
            for r, _ in v._terms:
                if r != 1:
                    radicands.add(r)
    if not radicands:
        return _lift_fraction, _fraction_sign, Radical
    if len(radicands) == 1:
        (d,) = radicands
        return (lambda x: _QSqrt.of(_as_radical(x), d)), _QSqrt.sign, _QSqrt.radical
    return _as_radical, Radical.sign, _as_radical


# -- operation-style entry points -----------------------------------------


def rad_sqrt(q: int | Fraction, bound: int = DEFAULT_FACTOR_BOUND) -> Radical:
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
    s, d = _split_square(q.numerator * q.denominator, bound)
    return Radical.single(d, Fraction(s, q.denominator))


def float_str(x: Radical | Fraction | int, sig: int = 17) -> str:
    """Advisory float rendering at ``sig`` significant digits."""
    if isinstance(x, Radical):
        v = x.to_float()
    else:
        v = float(Fraction(x))
    return format(v, f".{sig}g")
