"""Exact piecewise functions on a rational interval.

A function is a list of contiguous pieces over [domain_lo, domain_hi].
Every piece owns the half-open interval [lo, hi); the final piece also
owns the right domain endpoint.  A piece's value is

    p(x) + sum_i q_i(x) * sqrt(a_i*x + b_i)

with rational-coefficient polynomials p, q_i and canonicalized integer
lines (a_i, b_i).  Plain polynomial pieces and single-sqrt pieces
(``q(x)*sqrt(alpha*x+beta)``) are the common cases; the general form
exists so that linear combinations and products stay representable
(e.g. combining a sqrt-ramp function with a polynomial one on a shared
interval).  Values are exact :class:`~exactdisc.exactnum.Radical`
scalars throughout; integration is closed-form via u-substitution.

Invariant: every Piece's terms are canonical and sorted -- distinct
canonical lines in increasing order, none of them (0, 1), each with a
nonzero q -- and every Poly is a tuple of int numerators over one positive
int denominator in lowest terms (``gcd(*nums, den) == 1``) without a
trailing zero, so equal polynomials have equal fields.  The polynomial
kernel runs on those ints and reduces once per result: a sum takes one
lcm, a product one convolution and one gcd, and an evaluation or integral
one Horner pass; integrals add int pairs per radicand and build one
Radical from them, and an evaluation builds its Radical from Horner's
pair.  Breakpoints are Fractions.

``_norm_expr`` is the only canonicalizer: document terms,
``Piece.from_poly_sqrt`` and the cross terms of ``_expr_mul`` (the one
place that decides products of sqrt terms, irrational scalars included)
pass through it, and ``Piece(lo, hi, poly, terms)`` takes canonical
terms as given.  The kernel operations preserve the form and rely on it
to skip work: scaling by a rational keeps every line as it is, adding an
expression without terms keeps the other side's terms, and a term times
a polynomial stays on its line.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactnum import ExactNumError, Radical, rad_sqrt, _parse_pair, _split_square


class DomainError(ValueError):
    """Evaluation point or operand domain outside the function's domain."""


class UnsupportedProduct(ValueError):
    """Product of sqrt pieces over genuinely different radicand lines."""


# ---------------------------------------------------------------------------
# polynomials


def _horner(nums, p: int, q: int) -> int:
    """q**k * sum(nums[i] * (p/q)**i) for k = len(nums) - 1, in ints."""
    acc = 0
    qk = 1
    for c in reversed(nums):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _affine_nums(nums, beta: int, alpha: int, gamma: int) -> list:
    """gamma**k * sum(nums[i] * ((beta + alpha*t)/gamma)**i) as int
    coefficients in t, for k = len(nums) - 1."""
    acc = []
    gk = 1
    for c in reversed(nums):
        out = [x * beta for x in acc] + [0]
        for j, x in enumerate(acc):
            out[j + 1] += x * alpha
        out[0] += c * gk
        acc = out
        gk *= gamma
    return acc


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Poly:
    """Dense polynomial sum(nums[i] * x**i) / den in lowest terms.

    ``den > 0``, ``gcd(*nums, den) == 1`` and ``nums`` has no trailing
    zero, so the pair is unique: the zero polynomial is ``((), 1)``.
    """

    nums: tuple
    den: int

    def __init__(self, coeffs=()):
        # over the lcm of reduced denominators the numerators have gcd 1
        # with it: a coefficient whose denominator holds the highest power
        # of a prime p leaves a numerator prime to p
        nums, den = [], 1
        for c in coeffs:
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            d = c.denominator
            if den % d:
                m = d // math.gcd(den, d)
                nums = [n * m for n in nums]
                den *= m
            nums.append(c.numerator * (den // d))
        while nums and not nums[-1]:
            nums.pop()
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, nums: list, den: int = 1) -> "Poly":
        """The Poly sum(nums[i] * x**i) / den from ints, den > 0: trailing
        zeros are trimmed, then one gcd puts the pair in lowest terms."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: Fraction) -> Fraction:
        return Fraction(*self._at(x))

    def _at(self, x: Fraction) -> tuple[int, int]:
        """The value at x as an int pair (num, den), den > 0, by Horner."""
        p, q = x.numerator, x.denominator
        return _horner(self.nums, p, q), self.den * q ** max(0, len(self.nums) - 1)

    def __add__(self, other):
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a = [x * (db // g) for x in a]
            b = [y * (da // g) for y in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return Poly._of(out, da)

    def __neg__(self):
        return Poly._of([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def _scaled(self, n: int, d: int) -> "Poly":
        """self * n/d for ints n and d > 0."""
        if n == d:
            return self
        if not n or not self.nums:
            return _ZERO
        return Poly._of([c * n for c in self.nums], self.den * d)

    def __mul__(self, other):
        if type(other) is not Poly:
            if type(other) is int:
                return self._scaled(other, 1)
            if type(other) is Fraction:
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        a, b = self.nums, other.nums
        if len(b) == 1:
            return self._scaled(b[0], other.den)
        if len(a) == 1:
            return other._scaled(a[0], self.den)
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly._of(out, self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # pseudo-division on the numerators: lead**k * a == quo * b + rem
        a, b = self.nums, other.nums
        k = max(0, len(a) - len(b) + 1)
        lead = b[-1]
        rem, quo = list(a), [0] * k
        for i in range(k - 1, -1, -1):
            c = rem[i + len(b) - 1]
            rem = [x * lead for x in rem]
            quo = [x * lead for x in quo]
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
        # self = (lead**k * a)/(lead**k * self.den), other = b/other.den
        scale = lead**k * self.den
        sign = -1 if scale < 0 else 1
        return (Poly._of([sign * other.den * x for x in quo], abs(scale)),
                Poly._of([sign * x for x in rem[: len(b) - 1]], abs(scale)))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.nums) if i], self.den)

    def _integral(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """The integral over [lo, hi] as an int pair (num, den), den > 0."""
        cs = self.nums
        if not cs:
            return 0, 1
        # the antiderivative sum cs[i] * x**(i+1) / (i+1) is x * A(x) / m with
        # m = lcm(1..k) and int coefficients cs[i] * m/(i+1) in A; Horner
        # gives q**k * A(p/q) at both ends
        k = len(cs)
        m = math.lcm(*range(2, k + 1))
        p1, q1, p0, q0 = hi.numerator, hi.denominator, lo.numerator, lo.denominator
        a1 = a0 = 0
        qk1 = qk0 = 1
        for i in range(k - 1, -1, -1):
            c = cs[i] * (m // (i + 1))
            a1 = a1 * p1 + c * qk1
            a0 = a0 * p0 + c * qk0
            qk1 *= q1
            qk0 *= q0
        if q1 == q0:
            return p1 * a1 - p0 * a0, qk1 * m * self.den
        return p1 * a1 * qk0 - p0 * a0 * qk1, qk1 * qk0 * m * self.den

    def integrate(self, lo: Fraction, hi: Fraction) -> Fraction:
        return Fraction(*self._integral(lo, hi))

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


_ZERO = Poly()


def _poly_gcd(p: Poly, q: Poly) -> Poly:
    while not q.is_zero:
        p, q = q, p % q
    if p.is_zero:
        return p
    return p * (1 / p.coeffs[-1])


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = [v > 0 for v in (p(x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    if p.degree == 0:
        return 0
    sf = divmod(p, _poly_gcd(p, p.derivative()))[0]  # squarefree part
    chain = _sturm_chain(sf)
    inside = _sign_variations(chain, lo) - _sign_variations(chain, hi)  # roots in (lo, hi]
    return inside + (1 if p(lo) == 0 else 0)


def _poly_zeros_in(p: Poly, lo: Fraction, hi: Fraction):
    """All zeros of p in [lo, hi] as Fractions, or None if not locatable.

    Degrees 0/1 are exact; higher degrees are certified zero-free via a
    Sturm count when possible, otherwise reported unknown.
    """
    if p.degree <= 0:
        return []
    if p.degree == 1:
        r = Fraction(-p.nums[0], p.nums[1])
        return [r] if lo <= r <= hi else []
    if real_root_count(p, lo, hi) == 0:
        return []
    return None


# ---------------------------------------------------------------------------
# radicand lines

Line = tuple[int, int]  # (a, b) for sqrt(a*x + b), integer with squarefree content


def canonical_line(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Line]:
    """Rewrite sqrt(alpha*x + beta), alpha and beta ints or Fractions, as
    scale * sqrt(a*x + b).

    (a, b) is an integer pair whose content (gcd) is squarefree, so it is
    the unique representative of the line modulo square rational factors;
    scale is a positive rational.  Degenerate zero line returns scale 0;
    a constant line reduces to (0, d) with d squarefree (d = 1 meaning
    the whole term is rational and should be folded into the poly part).
    """
    an, da, bn, db = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    if not an and not bn:
        return Fraction(0), (0, 1)
    if not an and bn < 0:
        raise ExactNumError(f"constant radicand {beta} is negative")
    lcm = da * db // math.gcd(da, db)
    a0 = an * (lcm // da) * lcm  # alpha * lcm**2, exactly
    b0 = bn * (lcm // db) * lcm
    s, _ = _split_square(math.gcd(a0, b0))
    return Fraction(s, lcm), (a0 // (s * s), b0 // (s * s))


def _line_primitive(line: Line) -> tuple[int, Line]:
    a, b = line
    g = math.gcd(abs(a), abs(b))
    return g, (a // g, b // g)


# expressions: (poly, terms) with terms a sorted tuple of (line, Poly)


def _norm_expr(poly: Poly, raw_terms) -> tuple[Poly, tuple]:
    """Canonicalize raw (alpha, beta, q) sqrt terms and merge lines."""
    acc: dict[Line, Poly] = {}
    for alpha, beta, q in raw_terms:
        if q.is_zero:
            continue
        scale, line = canonical_line(alpha, beta)
        if not scale:
            continue
        q = q * scale
        if line == (0, 1):
            poly = poly + q
        else:
            acc[line] = acc.get(line, _ZERO) + q
    terms = tuple(sorted((ln, q) for ln, q in acc.items() if not q.is_zero))
    return poly, terms


def _expr_add(e1, e2):
    p1, t1 = e1
    p2, t2 = e2
    if not t2:
        return p1 + p2, t1
    if not t1:
        return p1 + p2, t2
    acc = dict(t1)
    for ln, q in t2:
        acc[ln] = acc.get(ln, _ZERO) + q
    return p1 + p2, tuple(sorted((ln, q) for ln, q in acc.items() if not q.is_zero))


def _expr_scale(c: Radical):
    """The map e -> c*e for an exact scalar, which is always representable;
    c is classified once, so a caller scaling many expressions pays for it
    once.

    A rational scalar leaves every (canonical, sorted) line where it is and
    only scales the polynomials; 1 returns e itself.  An irrational one is
    the constant expression sum c_d*sqrt(d), whose (0, d) lines multiply
    with any line.
    """
    terms, den = c._terms, c._den
    if not terms:
        return lambda e: (_ZERO, ())
    if c.is_rational:
        n = terms[0][1]
        if n == den:
            return lambda e: e
        return lambda e: (e[0]._scaled(n, den), tuple((ln, t._scaled(n, den)) for ln, t in e[1]))
    rational = Poly._of([n for d, n in terms if d == 1], den)
    roots = tuple(((0, d), Poly._of([n], den)) for d, n in terms if d != 1)
    return lambda e: _expr_mul(e, (rational, roots))


def _expr_mul(e1, e2):
    p1, t1 = e1
    p2, t2 = e2
    # a term times the other side's poly stays on its canonical line
    linear = _expr_add(
        (p1 * p2, tuple((ln, q * p2) for ln, q in t1) if p2.nums else ()),
        (_ZERO, tuple((ln, q * p1) for ln, q in t2) if p1.nums else ()),
    )
    if not (t1 and t2):
        return linear
    right = [(ln, _line_primitive(ln), q) for ln, q in t2]
    raw = []
    for (a1, b1), q1 in t1:
        g1, prim1 = _line_primitive((a1, b1))
        for (a2, b2), (g2, prim2), q2 in right:
            if prim1 == prim2:
                # sqrt(g1*P)*sqrt(g2*P) = g*sqrt(g1*g2/g^2)*P wherever both
                # radicands are admissible; every constant line has P = 1
                g = math.gcd(g1, g2)
                line_poly = Poly._of([g * prim1[1], g * prim1[0]])
                raw.append((0, (g1 // g) * (g2 // g), q1 * q2 * line_poly))
            elif a1 == 0 or a2 == 0:
                # one radicand is constant, so the product is still linear
                raw.append((a1 * b2 + a2 * b1, b1 * b2, q1 * q2))
            else:
                raise UnsupportedProduct(
                    f"cannot multiply sqrt({a1}*x+{b1}) by sqrt({a2}*x+{b2})"
                )
    return _expr_add(linear, _norm_expr(_ZERO, raw))


def _rational(num: int, den: int) -> Radical:
    """The Radical num/den for ints num and den > 0."""
    return Radical._of(((1, num),) if num else (), den)


def _expr_eval(e, x: Fraction) -> Radical:
    poly, terms = e
    val = _rational(*poly._at(x))
    p, r = x.numerator, x.denominator
    for (a, b), q in terms:
        val = val + _rational(*q._at(x)) * rad_sqrt(Fraction(a * p + b * r, r))
    return val


def _add_pair(total: dict, d: int, num: int, den: int) -> None:
    """total[d] += num/den on int pairs over the lcm of the denominators."""
    n0, d0 = total.get(d, (0, 1))
    g = math.gcd(d0, den)
    total[d] = (n0 * (den // g) + num * (d0 // g), d0 // g * den)


def _expr_integrate(e, lo: Fraction, hi: Fraction, total: dict) -> None:
    """Add the integral over [lo, hi] into ``total``, a map from radicand
    to an int pair (num, den) with den > 0."""
    poly, terms = e
    if poly.nums:
        _add_pair(total, 1, *poly._integral(lo, hi))
    for (a, b), q in terms:
        if a == 0:  # b is squarefree
            _add_pair(total, b, *q._integral(lo, hi))
            continue
        # u = a*x + b: integral of q(x)sqrt(u) dx = F(u)*sqrt(u)/a between
        # u(lo) and u(hi), with F(u) = sum_j r_j * u^(j+1) / (j+3/2) and
        # r(u) = q((u - b)/a) = sum_j rn[j] * u^j / (a^(n-1) * q.den); over
        # the lcm of 3, 5, ..., 2n+1, F(u/v)*sqrt(u/v)/a is
        # u * H * s*sqrt(d) / (v^(n+1) * den) with H = Horner of steps at u/v
        n = len(q.nums)
        rn = _affine_nums(q.nums, -b, 1, a)
        lcm = math.lcm(*range(3, 2 * n + 2, 2))
        steps = [c * (2 * lcm // (2 * j + 3)) for j, c in enumerate(rn)]
        den = lcm * a**n * q.den
        ends = ((hi, 1), (lo, -1)) if den > 0 else ((hi, -1), (lo, 1))
        for x, sign in ends:
            xn, xd = x.numerator, x.denominator
            u = a * xn + b * xd
            if u:  # F(0) = 0
                g = math.gcd(u, xd)
                u, v = u // g, xd // g
                s, d = _split_square(u * v)  # sqrt(u/v) = s*sqrt(d)/v
                _add_pair(total, d, sign * u * _horner(steps, u, v) * s, v ** (n + 1) * abs(den))


def _expr_const_value(e):
    """The expression's value if it is constant, else None."""
    poly, terms = e
    if poly.degree > 0 or any(a or q.degree > 0 for (a, _), q in terms):
        return None
    # constant lines are (0, d) with d squarefree and distinct, none of them 1
    return Radical._from_pairs({1: (poly.nums[0] if poly.nums else 0, poly.den),
                                **{d: (q.nums[0], q.den) for (_, d), q in terms}})


def _is_zero(e) -> bool:
    """Whether the expression is identically zero."""
    return e[0].is_zero and not e[1]


def _expr_zeros(e, lo: Fraction, hi: Fraction):
    """Zeros of the expression on the closed [lo, hi]: a sorted list of
    Fractions when the zero set is finite and locatable, else None (an
    identically zero expression included)."""
    poly, terms = e
    if _is_zero(e):
        return None
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
    return None  # mixed poly + sqrt or several lines: not located


# ---------------------------------------------------------------------------
# pieces and functions


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Piece:
    """One piece: value poly(x) + sum q_i(x)*sqrt(line_i) on [lo, hi)."""

    lo: Fraction
    hi: Fraction
    poly: Poly
    terms: tuple

    def __init__(self, lo, hi, poly=_ZERO, terms=()):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        # on numerators and (positive) denominators: sign(a*x + b) is the
        # sign of a*num + b*den
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if ln * hd >= hn * ld:
            raise ValueError(f"empty or degenerate piece [{lo}, {hi})")
        for (a, b), _ in terms:
            if a and (a * ln + b * ld < 0 or a * hn + b * hd < 0):
                raise ValueError(
                    f"radicand {a}*x+{b} negative on piece [{lo}, {hi})"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_poly(cls, lo, hi, coeffs) -> "Piece":
        return cls(lo, hi, Poly(coeffs))

    @classmethod
    def from_poly_sqrt(cls, lo, hi, coeffs, alpha, beta) -> "Piece":
        """q(x)*sqrt(alpha*x+beta) with rational alpha, beta."""
        raw = [(Fraction(alpha), Fraction(beta), Poly(coeffs))]
        return cls(lo, hi, *_norm_expr(_ZERO, raw))

    @property
    def expr(self):
        return (self.poly, self.terms)

    def value_if_constant(self):
        return _expr_const_value(self.expr)

    def __repr__(self):
        return f"Piece([{self.lo}, {self.hi}), poly={self.poly!r}, terms={self.terms!r})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PiecewiseFn:
    """Contiguous pieces over [domain_lo, domain_hi], half-open convention.

    Piece k owns [lo_k, hi_k); the final piece also owns the right domain
    endpoint.  Adjacent pieces with identical expressions are merged, so
    equality of two functions is equality of the merged representations.
    """

    domain_lo: Fraction = field(compare=False)
    domain_hi: Fraction = field(compare=False)
    pieces: tuple
    _los: tuple = field(compare=False)
    _hash: int | None = field(compare=False)

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("a piecewise function needs at least one piece")
        for prev, cur in zip(pieces, pieces[1:]):
            a, b = prev.hi, cur.lo  # on ints: loaded seams are distinct objects
            if a is not b and (a.numerator != b.numerator or a.denominator != b.denominator):
                raise ValueError(
                    f"pieces not contiguous: [{prev.lo},{prev.hi}) then [{cur.lo},{cur.hi})"
                )
        merged = [pieces[0]]
        for cur in pieces[1:]:
            last = merged[-1]
            if last.terms == cur.terms and last.poly == cur.poly:
                merged[-1] = Piece(last.lo, cur.hi, last.poly, last.terms)
            else:
                merged.append(cur)
        object.__setattr__(self, "pieces", tuple(merged))
        object.__setattr__(self, "domain_lo", merged[0].lo)
        object.__setattr__(self, "domain_hi", merged[-1].hi)
        object.__setattr__(self, "_los", tuple(p.lo for p in merged))
        object.__setattr__(self, "_hash", None)

    @property
    def domain(self):
        return (self.domain_lo, self.domain_hi)

    def breakpoints(self):
        return self._los + (self.domain_hi,)

    def piece_at(self, x) -> Piece:
        x = Fraction(x)
        if x < self.domain_lo or x > self.domain_hi:
            raise DomainError(f"{x} outside domain [{self.domain_lo}, {self.domain_hi}]")
        return self.pieces[bisect_right(self._los, x) - 1]

    def __hash__(self):
        # computed once: the Gram cache hashes whole subspaces per lookup
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.pieces))
        return self._hash

    def __repr__(self):
        return f"PiecewiseFn({len(self.pieces)} pieces on [{self.domain_lo}, {self.domain_hi}])"


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The generated methods of a frozen slotted dataclass call super() with the
# class that slots=True replaced, which raises TypeError on a name that is
# not a field; these raise FrozenInstanceError (an AttributeError) on every
# name.
for _cls in (Poly, Piece, PiecewiseFn):
    _cls.__setattr__ = _refuse_assign
    _cls.__delattr__ = _refuse_delete
del _cls


def constant_fn(domain_lo, domain_hi, value=0) -> PiecewiseFn:
    return PiecewiseFn([Piece.from_poly(domain_lo, domain_hi, (Fraction(value),))])


# ---------------------------------------------------------------------------
# core operations


def pw_eval(f: PiecewiseFn, x) -> Radical:
    """Exact value f(x) under the half-open piece-ownership convention."""
    x = Fraction(x)
    return _expr_eval(f.piece_at(x).expr, x)


def _common_grid(f: PiecewiseFn, g: PiecewiseFn):
    """(lo, hi, f's expr, g's expr) on each cell of the merged breakpoints.

    Both piece lists are sorted and end at the common domain end, so one
    merge walk finds the cells.
    """
    if f.domain != g.domain:
        raise DomainError(f"domains differ: {f.domain} vs {g.domain}")
    fp, gp = f.pieces, g.pieces
    fi = gi = 0
    lo = f.domain_lo
    while fi < len(fp):
        a, b = fp[fi], gp[gi]
        x, y = a.hi, b.hi
        # sign of x - y; seams of functions built on one grid are one object
        c = 0 if x is y else x.numerator * y.denominator - y.numerator * x.denominator
        if not c:
            yield lo, a.hi, a.expr, b.expr
            lo = a.hi
            fi += 1
            gi += 1
        elif c < 0:
            yield lo, a.hi, a.expr, b.expr
            lo = a.hi
            fi += 1
        else:
            yield lo, b.hi, a.expr, b.expr
            lo = b.hi
            gi += 1


def pw_mul(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Pointwise product; sqrt pieces over truly different lines are rejected."""
    out = []
    for lo, hi, ef, eg in _common_grid(f, g):
        poly, terms = _expr_mul(ef, eg)
        out.append(Piece(lo, hi, poly, terms))
    return PiecewiseFn(out)


def pw_scale_add(c1, f: PiecewiseFn, c2, g: PiecewiseFn) -> PiecewiseFn:
    """Exact c1*f + c2*g on the refined breakpoint grid.

    Scalars may be any Radical values: constant radical factors ride on
    (0, d) lines, so the combination always stays representable.
    """
    s1 = _expr_scale(c1 if isinstance(c1, Radical) else Radical(c1))
    s2 = _expr_scale(c2 if isinstance(c2, Radical) else Radical(c2))
    out = []
    for lo, hi, ef, eg in _common_grid(f, g):
        poly, terms = _expr_add(s1(ef), s2(eg))
        out.append(Piece(lo, hi, poly, terms))
    return PiecewiseFn(out)


def pw_integrate(f: PiecewiseFn) -> Radical:
    """Exact Lebesgue integral of f over its domain."""
    total = {}
    for p in f.pieces:
        _expr_integrate(p.expr, p.lo, p.hi, total)
    return Radical._from_pairs(total)


def pw_inner(f: PiecewiseFn, g: PiecewiseFn) -> Radical:
    """Exact inner product, the integral of f*g: pw_integrate(pw_mul(f, g))
    summed cell by cell, without building the product function."""
    total = {}
    for lo, hi, ef, eg in _common_grid(f, g):
        _expr_integrate(_expr_mul(ef, eg), lo, hi, total)
    return Radical._from_pairs(total)


def breakpoint_limits(f: PiecewiseFn):
    """Diagnostic: (x, left limit, value at x, continuous?) per interior breakpoint.

    The left limit is the left piece's closed-form expression evaluated at
    x (pieces extend continuously to their closures); the value at x comes
    from the owning right piece.
    """
    rows = []
    for left, right in zip(f.pieces, f.pieces[1:]):
        x = right.lo
        lv = _expr_eval(left.expr, x)
        rv = _expr_eval(right.expr, x)
        rows.append((x, lv, rv, lv == rv))
    return rows


# ---------------------------------------------------------------------------
# support and closed-interval queries


def pw_support(f: PiecewiseFn) -> tuple:
    """Closed hulls (lo, hi) of f's maximal runs of pieces that are not
    identically zero; f vanishes everywhere outside them."""
    runs = []
    for p in f.pieces:
        if _is_zero(p.expr):
            continue
        if runs and runs[-1][1] == p.lo:
            runs[-1] = (runs[-1][0], p.hi)
        else:
            runs.append((p.lo, p.hi))
    return tuple(runs)


def supports_disjoint(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """True only when no point lies in the supports of both f and g.

    Every point of the domain is owned by exactly one cell of the common
    grid, so it is proved when f's or g's expression is identically zero
    in every cell.
    """
    return all(_is_zero(ef) or _is_zero(eg) for _, _, ef, eg in _common_grid(f, g))


def _check_interval(f: PiecewiseFn, lo, hi):
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < f.domain_lo or hi > f.domain_hi or lo > hi:
        raise DomainError(f"[{lo}, {hi}] not inside {f.domain}")
    return lo, hi


def nonvanishing_on(f: PiecewiseFn, lo, hi) -> bool:
    """Certify f(x) != 0 for every x in the closed interval [lo, hi].

    Conservative: returns False whenever a piece's zero set cannot be
    located, so a True answer is always a proof.  A seam p.hi < domain_hi,
    zero or not, is left to the next piece, which owns that point and
    whose closed interval starts there.
    """
    lo, hi = _check_interval(f, lo, hi)
    for p in f.pieces:
        olo, ohi = max(lo, p.lo), min(hi, p.hi)
        if olo > ohi or olo == p.hi < f.domain_hi:
            continue
        if olo == ohi:
            if not pw_eval(f, olo):
                return False
            continue
        zs = _expr_zeros(p.expr, olo, ohi)
        if zs is None or any(z < p.hi or p.hi == f.domain_hi for z in zs):
            return False
    return True


def constant_value_on(f: PiecewiseFn, lo, hi):
    """Exact constant value of f on closed [lo, hi], or None if not constant."""
    lo, hi = _check_interval(f, lo, hi)
    value = None
    for p in f.pieces:
        if max(lo, p.lo) >= min(hi, p.hi):
            continue
        v = p.value_if_constant()
        if v is None or (value is not None and value != v):
            return None
        value = v
    # the pieces read own every point of [lo, hi); hi is owned by one of
    # them or by the piece starting there
    at_hi = pw_eval(f, hi)
    if value is None:  # [lo, hi] is a single point
        return at_hi
    return value if at_hi == value else None


# ---------------------------------------------------------------------------
# serialization: all numbers as "p/q" strings


#: The longest document number the reader keeps.  No digit limit is below
#: 640, so without an exponent such a number reads the same under any limit.
_KEPT_LEN = 40


@lru_cache(maxsize=1024)
def _kept_frac(s: str) -> Fraction:
    return Fraction(*_parse_pair(s))


def _parse_frac(s) -> Fraction:
    """A document rational as a Fraction: a string, or a JSON integer (not a
    boolean).  Short numbers repeat (a seam is two pieces' ends), so each
    short string is read once and its Fraction kept, and equal breakpoints
    are one object.  Only exact ``str`` keys are kept: ``True == 1``."""
    if type(s) is str and len(s) <= _KEPT_LEN and "e" not in s and "E" not in s:
        return _kept_frac(s)
    if isinstance(s, str):
        return Fraction(*_parse_pair(s))  # Fraction reads surrounding ASCII blanks
    if type(s) is int:  # bool is an int subclass
        return Fraction(s)
    raise ValueError(f"expected a rational string, got {s!r}")


def _doc_list(doc: dict, key: str, default=None) -> list:
    """``doc[key]`` (``default`` when it is absent and a default is given),
    which must be a JSON array: a string is not read item by item."""
    v = doc[key] if default is None or key in doc else default
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a JSON array, got {type(v).__name__}")
    return v


def _coeff_strs(p: Poly) -> list:
    """p's coefficients as document strings, str(Fraction) of each; ["0"]
    for the zero polynomial."""
    out = []
    for n in p.nums:
        g = math.gcd(n, p.den)
        out.append(str(n // g) if g == p.den else f"{n // g}/{p.den // g}")
    return out or ["0"]


def piece_to_doc(p: Piece) -> dict:
    doc = {"lo": str(p.lo), "hi": str(p.hi)}
    if not p.terms:
        doc["poly"] = _coeff_strs(p.poly)
        return doc
    if len(p.terms) == 1 and p.poly.is_zero:
        (a, b), q = p.terms[0]
        doc["poly"] = _coeff_strs(q)
        doc["sqrt"] = {"alpha": str(a), "beta": str(b)}
        return doc
    doc["poly"] = _coeff_strs(p.poly)
    doc["sqrt_terms"] = [
        {"coeff": _coeff_strs(q), "alpha": str(a), "beta": str(b)} for (a, b), q in p.terms
    ]
    return doc


def piece_from_doc(doc: dict) -> Piece:
    lo = _parse_frac(doc["lo"])
    hi = _parse_frac(doc["hi"])
    # "poly" is q of q(x)*sqrt(...) beside "sqrt" and the rational part
    # beside "sqrt_terms", so a piece with both keys has no single reading
    if "sqrt" in doc and "sqrt_terms" in doc:
        raise ValueError("a piece takes 'sqrt' or 'sqrt_terms', not both")
    poly = Poly([_parse_frac(c) for c in _doc_list(doc, "poly", ["0"])])
    if "sqrt" in doc:
        alpha = _parse_frac(doc["sqrt"]["alpha"])
        beta = _parse_frac(doc["sqrt"]["beta"])
        return Piece(lo, hi, *_norm_expr(_ZERO, [(alpha, beta, poly)]))
    raw = [
        (_parse_frac(t["alpha"]), _parse_frac(t["beta"]),
         Poly([_parse_frac(c) for c in _doc_list(t, "coeff")]))
        for t in _doc_list(doc, "sqrt_terms", [])
    ]
    return Piece(lo, hi, *_norm_expr(poly, raw))


def fn_to_doc(name: str, f: PiecewiseFn) -> dict:
    return {"name": name, "pieces": [piece_to_doc(p) for p in f.pieces]}


def fn_from_doc(doc: dict) -> tuple[str, PiecewiseFn]:
    if not isinstance(doc, dict):
        raise ValueError(f"a function must be a JSON object, got {type(doc).__name__}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"a function name must be a string, got {type(name).__name__}")
    return name, PiecewiseFn([piece_from_doc(d) for d in _doc_list(doc, "pieces")])
