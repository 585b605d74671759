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
nonzero q -- and every Poly has Fraction coefficients without trailing
zeros.  ``_norm_expr`` is the only canonicalizer: document terms,
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
from dataclasses import dataclass
from fractions import Fraction
from bisect import bisect_right

from .exactnum import ExactNumError, Radical, Rat, rad_sqrt, _split_square


class DomainError(ValueError):
    """Evaluation point or operand domain outside the function's domain."""


class UnsupportedProduct(ValueError):
    """Product of sqrt pieces over genuinely different radicand lines."""


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense polynomial with Fraction coefficients, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, cs: list) -> "Poly":
        """A Poly from a list of Fractions, trimmed in place but not coerced."""
        while cs and not cs[-1]:
            cs.pop()
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(cs))
        return self

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((Fraction(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    def __neg__(self):
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if not other or not self.coeffs:
                return _ZERO
            return Poly._of([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(b) == 1:
            return self * b[0]
        if len(a) == 1:
            return other * a[0]
        out = [_F0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return Poly._of(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [_F0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs[-1]
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / d
            quo[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly._of(quo), Poly._of(rem[: len(other.coeffs) - 1])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.coeffs) if i])

    def compose_affine(self, c0: Fraction, c1: Fraction) -> "Poly":
        """p(c0 + c1*t) as a polynomial in t."""
        arg = Poly((c0, c1))
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly._of([c])
        return acc

    def integrate(self, lo: Fraction, hi: Fraction) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


_F0 = Fraction(0)
_ZERO = Poly()
_ONE = Poly.const(1)


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
    signs = [v for v in ((1 if p(x) > 0 else -1 if p(x) < 0 else 0) for p in chain) if v]
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
        r = -p.coeffs[0] / p.coeffs[1]
        return [r] if lo <= r <= hi else []
    if real_root_count(p, lo, hi) == 0:
        return []
    return None


# ---------------------------------------------------------------------------
# radicand lines

Line = tuple[int, int]  # (a, b) for sqrt(a*x + b), integer with squarefree content


def canonical_line(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Line]:
    """Rewrite sqrt(alpha*x + beta) as scale * sqrt(a*x + b).

    (a, b) is an integer pair whose content (gcd) is squarefree, so it is
    the unique representative of the line modulo square rational factors;
    scale is a positive rational.  Degenerate zero line returns scale 0;
    a constant line reduces to (0, d) with d squarefree (d = 1 meaning
    the whole term is rational and should be folded into the poly part).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0 and beta == 0:
        return Fraction(0), (0, 1)
    if alpha == 0 and beta < 0:
        raise ExactNumError(f"constant radicand {beta} is negative")
    da, db = alpha.denominator, beta.denominator
    lcm = da * db // math.gcd(da, db)
    a0 = alpha.numerator * (lcm // da) * lcm  # alpha * lcm**2, exactly
    b0 = beta.numerator * (lcm // db) * lcm
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
        if scale == 0:
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


def _expr_scale(e, c: Radical):
    """Multiply an expression by an exact scalar; always representable.

    A rational scalar leaves every (canonical, sorted) line where it is and
    only scales the polynomials.  An irrational one is the constant
    expression sum c_d*sqrt(d), whose (0, d) lines multiply with any line.
    """
    if c.is_rational:
        q = c.as_fraction()
        if q == 1:
            return e
        if not q:
            return _ZERO, ()
        poly, terms = e
        return poly * q, tuple((ln, t * q) for ln, t in terms)
    rational = Poly._of([coeff for d, coeff in c.terms if d == 1])
    roots = tuple(((0, d), Poly._of([coeff])) for d, coeff in c.terms if d != 1)
    return _expr_mul(e, (rational, roots))


def _expr_mul(e1, e2):
    p1, t1 = e1
    p2, t2 = e2
    # a term times the other side's poly stays on its canonical line
    linear = _expr_add(
        (p1 * p2, tuple((ln, q * p2) for ln, q in t1) if p2.coeffs else ()),
        (_ZERO, tuple((ln, q * p1) for ln, q in t2) if p1.coeffs else ()),
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
                line_poly = Poly._of([Fraction(g * prim1[1]), Fraction(g * prim1[0])])
                raw.append((0, (g1 // g) * (g2 // g), q1 * q2 * line_poly))
            elif a1 == 0 or a2 == 0:
                # one radicand is constant, so the product is still linear
                raw.append((a1 * b2 + a2 * b1, b1 * b2, q1 * q2))
            else:
                raise UnsupportedProduct(
                    f"cannot multiply sqrt({a1}*x+{b1}) by sqrt({a2}*x+{b2})"
                )
    return _expr_add(linear, _norm_expr(_ZERO, raw))


def _expr_eval(e, x: Fraction) -> Radical:
    poly, terms = e
    val = Radical(poly(x))
    for (a, b), q in terms:
        val = val + Radical(q(x)) * rad_sqrt(Fraction(a) * x + b)
    return val


def _expr_integrate(e, lo: Fraction, hi: Fraction) -> Radical:
    poly, terms = e
    total = Radical(poly.integrate(lo, hi))
    for (a, b), q in terms:
        if a == 0:
            total = total + Radical.single(b, q.integrate(lo, hi))
            continue
        # u = a*x + b: integral of q(x)sqrt(u) dx
        #   = (1/a) * sum_k c_k * u^(k+3/2) / (k+3/2) between u(lo), u(hi)
        r = q.compose_affine(Fraction(-b, a), Fraction(1, a))
        u0, u1 = Fraction(a) * lo + b, Fraction(a) * hi + b
        s0, s1 = rad_sqrt(u0), rad_sqrt(u1)
        acc = Radical(0)
        for k, c in enumerate(r.coeffs):
            if not c:
                continue
            term = s1 * Radical(u1**(k + 1)) - s0 * Radical(u0**(k + 1))
            acc = acc + term * Radical(c / (Fraction(k) + Fraction(3, 2)))
        total = total + acc * Radical(Fraction(1, a))
    return total


def _expr_const_value(e):
    """The expression's value if it is constant, else None."""
    poly, terms = e
    if poly.degree > 0 or any(q.degree > 0 for _, q in terms):
        return None
    val = Radical(poly(Fraction(0)))
    for (a, b), q in terms:
        if a != 0:
            return None
        val = val + Radical.single(b, q.coeffs[0])
    return val


def _expr_zeros(e, lo: Fraction, hi: Fraction):
    """Zeros of the expression on the closed [lo, hi].

    Returns "all" when identically zero, a sorted list of Fractions when
    the zero set is finite and locatable, or None when undecided.
    """
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
    return None  # mixed poly + sqrt or several lines: not located


# ---------------------------------------------------------------------------
# pieces and functions


class Piece:
    """One piece: value poly(x) + sum q_i(x)*sqrt(line_i) on [lo, hi)."""

    __slots__ = ("lo", "hi", "poly", "terms")

    def __init__(self, lo, hi, poly=_ZERO, terms=()):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo >= hi:
            raise ValueError(f"empty or degenerate piece [{lo}, {hi})")
        for (a, b), _ in terms:
            if a != 0 and (Fraction(a) * lo + b < 0 or Fraction(a) * hi + b < 0):
                raise ValueError(
                    f"radicand {a}*x+{b} negative on piece [{lo}, {hi})"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Piece is immutable")

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

    def restricted(self, lo, hi) -> "Piece":
        return Piece(lo, hi, self.poly, self.terms)

    def value_if_constant(self):
        return _expr_const_value(self.expr)

    def __eq__(self, other):
        return (
            isinstance(other, Piece)
            and (self.lo, self.hi, self.poly, self.terms)
            == (other.lo, other.hi, other.poly, other.terms)
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.poly, self.terms))

    def __repr__(self):
        return f"Piece([{self.lo}, {self.hi}), poly={self.poly!r}, terms={self.terms!r})"


class PiecewiseFn:
    """Contiguous pieces over [domain_lo, domain_hi], half-open convention.

    Piece k owns [lo_k, hi_k); the final piece also owns the right domain
    endpoint.  Adjacent pieces with identical expressions are merged, so
    equality of two functions is equality of the merged representations.
    """

    __slots__ = ("domain_lo", "domain_hi", "pieces", "_los", "_hash")

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("a piecewise function needs at least one piece")
        for prev, cur in zip(pieces, pieces[1:]):
            if prev.hi != cur.lo:
                raise ValueError(
                    f"pieces not contiguous: [{prev.lo},{prev.hi}) then [{cur.lo},{cur.hi})"
                )
        merged = [pieces[0]]
        for cur in pieces[1:]:
            last = merged[-1]
            if last.expr == cur.expr:
                merged[-1] = Piece(last.lo, cur.hi, last.poly, last.terms)
            else:
                merged.append(cur)
        object.__setattr__(self, "pieces", tuple(merged))
        object.__setattr__(self, "domain_lo", merged[0].lo)
        object.__setattr__(self, "domain_hi", merged[-1].hi)
        object.__setattr__(self, "_los", tuple(p.lo for p in merged))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("PiecewiseFn is immutable")

    @property
    def domain(self):
        return (self.domain_lo, self.domain_hi)

    def breakpoints(self):
        return self._los + (self.domain_hi,)

    def piece_at(self, x) -> Piece:
        x = Fraction(x)
        if x < self.domain_lo or x > self.domain_hi:
            raise DomainError(f"{x} outside domain [{self.domain_lo}, {self.domain_hi}]")
        if x == self.domain_hi:
            return self.pieces[-1]
        return self.pieces[bisect_right(self._los, x) - 1]

    def __eq__(self, other):
        return isinstance(other, PiecewiseFn) and self.pieces == other.pieces

    def __hash__(self):
        # computed once: the Gram cache hashes whole subspaces per lookup
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.pieces))
        return self._hash

    def __repr__(self):
        return f"PiecewiseFn({len(self.pieces)} pieces on [{self.domain_lo}, {self.domain_hi}])"


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
        if a.hi == b.hi:
            yield lo, a.hi, a.expr, b.expr
            lo = a.hi
            fi += 1
            gi += 1
        elif a.hi < b.hi:
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
    c1 = c1 if isinstance(c1, Radical) else Radical(c1)
    c2 = c2 if isinstance(c2, Radical) else Radical(c2)
    out = []
    for lo, hi, ef, eg in _common_grid(f, g):
        poly, terms = _expr_add(_expr_scale(ef, c1), _expr_scale(eg, c2))
        out.append(Piece(lo, hi, poly, terms))
    return PiecewiseFn(out)


def pw_integrate(f: PiecewiseFn) -> Radical:
    """Exact Lebesgue integral of f over its domain."""
    total = Radical(0)
    for p in f.pieces:
        total = total + _expr_integrate(p.expr, p.lo, p.hi)
    return total


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
# support


@dataclass(frozen=True)
class SupportInterval:
    lo: Rat
    hi: Rat
    lo_in: bool
    hi_in: bool


@dataclass(frozen=True)
class Support:
    """Support as interval hulls minus recorded isolated zeros.

    The support set is union(intervals, respecting endpoint flags) minus
    the isolated_zeros points.  ``exact`` is False when some piece's zero
    set could not be located; then the intervals are a sound superset but
    the isolated-zero list may be incomplete.
    """

    intervals: tuple
    isolated_zeros: tuple
    exact: bool

    def hull(self):
        return tuple((iv.lo, iv.hi) for iv in self.intervals)


def pw_support(f: PiecewiseFn) -> Support:
    exact = True
    candidates: list[Fraction] = []
    run = None  # [lo, hi] of the current non-vanishing run
    runs = []
    for p in f.pieces:
        if p.poly.is_zero and not p.terms:
            if run is not None:
                runs.append(tuple(run))
                run = None
            continue
        zs = _expr_zeros(p.expr, p.lo, p.hi)
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
        intervals.append(SupportInterval(lo, hi, lo_in, hi_in))
    # candidate zeros come from closed piece intervals; keep only points the
    # owning piece really sends to zero, strictly inside a run
    inner = tuple(
        sorted(
            z
            for z in set(candidates)
            if any(iv.lo < z < iv.hi for iv in intervals) and not pw_eval(f, z)
        )
    )
    return Support(tuple(intervals), inner, exact)


def _point_in(iv: SupportInterval, x: Fraction) -> bool:
    if x == iv.lo:
        return iv.lo_in
    if x == iv.hi:
        return iv.hi_in
    return iv.lo < x < iv.hi


def supports_disjoint(sa: Support, sb: Support) -> bool:
    """True only when the two supports are provably disjoint."""
    for ia in sa.intervals:
        for ib in sb.intervals:
            lo = max(ia.lo, ib.lo)
            hi = min(ia.hi, ib.hi)
            if lo > hi:
                continue
            if lo < hi:
                return False  # positive-length overlap survives isolated zeros
            x = lo
            # possibly-in: a point is certainly out only when the flags say
            # so, or when an exact zero list excludes it
            maybe_a = _point_in(ia, x) and not (sa.exact and x in sa.isolated_zeros)
            maybe_b = _point_in(ib, x) and not (sb.exact and x in sb.isolated_zeros)
            if maybe_a and maybe_b:
                return False
    return True


def nonvanishing_on(f: PiecewiseFn, lo, hi) -> bool:
    """Certify f(x) != 0 for every x in the closed interval [lo, hi].

    Conservative: returns False whenever a piece's zero set cannot be
    located, so a True answer is always a proof.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < f.domain_lo or hi > f.domain_hi or lo > hi:
        raise DomainError(f"[{lo}, {hi}] not inside {f.domain}")
    for p in f.pieces:
        olo, ohi = max(lo, p.lo), min(hi, p.hi)
        if olo > ohi:
            continue
        if olo == ohi:
            if not pw_eval(f, olo):
                return False
            continue
        zs = _expr_zeros(p.expr, olo, ohi)
        if zs == "all" or zs is None:
            return False
        for z in zs:
            if z < p.hi or p.hi == f.domain_hi:
                return False  # zero at an owned point
            if not pw_eval(f, z):  # seam point: the next piece owns it
                return False
    return True


def constant_value_on(f: PiecewiseFn, lo, hi):
    """Exact constant value of f on closed [lo, hi], or None if not constant."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < f.domain_lo or hi > f.domain_hi or lo > hi:
        raise DomainError(f"[{lo}, {hi}] not inside {f.domain}")
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
    if value is None:  # [lo, hi] is a single point
        return pw_eval(f, lo)
    for x in set([lo, hi] + [p.lo for p in f.pieces if lo <= p.lo <= hi]):
        if pw_eval(f, x) != value:
            return None
    return value


# ---------------------------------------------------------------------------
# serialization: all numbers as "p/q" strings


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_frac(s) -> Fraction:
    if isinstance(s, str):
        return Fraction(s.strip())
    if isinstance(s, int):
        return Fraction(s)
    raise ValueError(f"expected a rational string, got {s!r}")


def piece_to_doc(p: Piece) -> dict:
    doc = {"lo": _frac_str(p.lo), "hi": _frac_str(p.hi)}
    if not p.terms:
        doc["poly"] = [_frac_str(c) for c in p.poly.coeffs] or ["0"]
        return doc
    if len(p.terms) == 1 and p.poly.is_zero:
        (a, b), q = p.terms[0]
        doc["poly"] = [_frac_str(c) for c in q.coeffs] or ["0"]
        doc["sqrt"] = {"alpha": str(a), "beta": str(b)}
        return doc
    doc["poly"] = [_frac_str(c) for c in p.poly.coeffs] or ["0"]
    doc["sqrt_terms"] = [
        {
            "coeff": [_frac_str(c) for c in q.coeffs] or ["0"],
            "alpha": str(a),
            "beta": str(b),
        }
        for (a, b), q in p.terms
    ]
    return doc


def piece_from_doc(doc: dict) -> Piece:
    lo = _parse_frac(doc["lo"])
    hi = _parse_frac(doc["hi"])
    coeffs = [_parse_frac(c) for c in doc.get("poly", ["0"])]
    if "sqrt" in doc:
        alpha = _parse_frac(doc["sqrt"]["alpha"])
        beta = _parse_frac(doc["sqrt"]["beta"])
        return Piece.from_poly_sqrt(lo, hi, coeffs, alpha, beta)
    raw = [
        (
            _parse_frac(t["alpha"]),
            _parse_frac(t["beta"]),
            Poly([_parse_frac(c) for c in t["coeff"]]),
        )
        for t in doc.get("sqrt_terms", [])
    ]
    return Piece(lo, hi, *_norm_expr(Poly(coeffs), raw))


def fn_to_doc(name: str, f: PiecewiseFn) -> dict:
    return {"name": name, "pieces": [piece_to_doc(p) for p in f.pieces]}


def fn_from_doc(doc: dict) -> tuple[str, PiecewiseFn]:
    pieces = [piece_from_doc(d) for d in doc["pieces"]]
    return doc.get("name", ""), PiecewiseFn(pieces)
