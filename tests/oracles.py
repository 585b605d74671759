"""Independent cross-checking oracles for the test suite.

Everything in here is intentionally written against sympy/mpmath, the
JSON document formats or plain Fractions, not against the package's own
arithmetic, so that agreement between the two paths actually means
something.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import sympy
from sympy import Matrix, Rational, linsolve, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.solvers.simplex import UnboundedLPError, linprog

QUAD_DPS = 60


# ---------------------------------------------------------------------------
# numeric evaluation of piecewise docs


def _piece_value(piece, x):
    """mpmath value of one piece doc at mpf x."""
    poly = [mp.mpf(sympy.Rational(c).p) / sympy.Rational(c).q for c in piece["poly"]]
    val = mp.mpf(0)
    for c in reversed(poly):
        val = val * x + c
    if "sqrt" in piece:
        a = Rational(piece["sqrt"]["alpha"])
        b = Rational(piece["sqrt"]["beta"])
        rad = (mp.mpf(a.p) / a.q) * x + mp.mpf(b.p) / b.q
        if rad < 0:
            rad = mp.mpf(0)  # clamp endpoint rounding
        return val * mp.sqrt(rad)
    total = val
    for term in piece.get("sqrt_terms", ()):
        q = [mp.mpf(Rational(c).p) / Rational(c).q for c in term["coeff"]]
        qv = mp.mpf(0)
        for c in reversed(q):
            qv = qv * x + c
        a = Rational(term["alpha"])
        b = Rational(term["beta"])
        rad = (mp.mpf(a.p) / a.q) * x + mp.mpf(b.p) / b.q
        if rad < 0:
            rad = mp.mpf(0)
        total += qv * mp.sqrt(rad)
    return total


def fn_evaluator(fn_doc):
    """Callable mpf -> mpf for a piecewise function doc (half-open pieces)."""
    pieces = [
        (Rational(p["lo"]), Rational(p["hi"]), p) for p in fn_doc["pieces"]
    ]

    def ev(x):
        for lo, hi, p in pieces:
            if mp.mpf(lo.p) / lo.q <= x < mp.mpf(hi.p) / hi.q:
                return _piece_value(p, x)
        last = pieces[-1]
        return _piece_value(last[2], x)

    return ev


def quad_product(fn_doc_a, fn_doc_b, dps=QUAD_DPS):
    """50+-digit quadrature of the product of two piecewise docs."""
    old = mp.mp.dps
    mp.mp.dps = dps
    try:
        edges = sorted(
            {Rational(p["lo"]) for p in fn_doc_a["pieces"]}
            | {Rational(p["hi"]) for p in fn_doc_a["pieces"]}
            | {Rational(p["lo"]) for p in fn_doc_b["pieces"]}
            | {Rational(p["hi"]) for p in fn_doc_b["pieces"]}
        )
        fa, fb = fn_evaluator(fn_doc_a), fn_evaluator(fn_doc_b)
        total = mp.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            a = mp.mpf(lo.p) / lo.q
            b = mp.mpf(hi.p) / hi.q
            total += mp.quad(lambda x: fa(x) * fb(x), [a, b])
        return total
    finally:
        mp.mp.dps = old


def radical_to_mpf(terms, dps=QUAD_DPS):
    """Σ c·sqrt(d) from (d, Fraction) pairs, evaluated at high precision."""
    old = mp.mp.dps
    mp.mp.dps = dps
    try:
        total = mp.mpf(0)
        for d, c in terms:
            total += (mp.mpf(c.numerator) / c.denominator) * mp.sqrt(d)
        return total
    finally:
        mp.mp.dps = old


# ---------------------------------------------------------------------------
# reference sqrt arithmetic: one Fraction per radicand


class FracRadical:
    """sum(c_d * sqrt(d)) over squarefree d as sorted ``(d, Fraction)``
    pairs with nonzero coefficients, the rational part on d == 1: the
    dict-of-Fraction arithmetic that ``exactnum.Radical`` used before its int
    form, kept as a reference for it.  Operands are FracRadicals, ints or
    Fractions; ``terms``, ``str``, ``to_float`` and ``sign`` are what
    Radical's must equal."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, (int, Fraction)):
            terms = {1: Fraction(terms)}
        self.terms = tuple(sorted((d, Fraction(c)) for d, c in dict(terms).items() if c))

    @staticmethod
    def _of(x):
        return x if isinstance(x, FracRadical) else FracRadical(x)

    def __add__(self, other):
        acc = dict(self.terms)
        for d, c in self._of(other).terms:
            acc[d] = acc.get(d, Fraction(0)) + c
        return FracRadical(acc)

    __radd__ = __add__

    def __neg__(self):
        return FracRadical({d: -c for d, c in self.terms})

    def __sub__(self, other):
        return self + (-self._of(other))

    def __rsub__(self, other):
        return self._of(other) + (-self)

    def __mul__(self, other):
        acc = {}
        for d1, c1 in self.terms:
            for d2, c2 in self._of(other).terms:
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                acc[d] = acc.get(d, Fraction(0)) + c1 * c2 * g
        return FracRadical(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FracRadical(1)
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 1)

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if self.is_rational:
            return FracRadical(1 / self.terms[0][1])
        q, a, b = self._split()
        conj = FracRadical({d: c if d % q else -c for d, c in self.terms})
        return conj * (a * a - q * (b * b)).inverse()

    def _split(self):
        rads = [d for d, _ in self.terms if d != 1]
        q = rads[0]
        for d in rads:
            g = math.gcd(q, d)
            if 1 < g < q:
                q = g
        a = FracRadical({d: c for d, c in self.terms if d % q})
        b = FracRadical({d // q: c for d, c in self.terms if not d % q})
        return q, a, b

    def __truediv__(self, other):
        return self * self._of(other).inverse()

    def __rtruediv__(self, other):
        return self._of(other) * self.inverse()

    def __eq__(self, other):
        return self.terms == self._of(other).terms

    __hash__ = None

    def _enclosure(self, bits):
        lo = hi = Fraction(0)
        for d, c in self.terms:
            s = math.isqrt(d << (2 * bits))
            slo, shi = (Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)) if d != 1 else (1, 1)
            lo += c * (slo if c > 0 else shi)
            hi += c * (shi if c > 0 else slo)
        return lo, hi

    def sign(self):
        if not self.terms:
            return 0
        signs = {1 if c > 0 else -1 for _, c in self.terms}
        if len(signs) == 1:
            return signs.pop()
        for bits in (64, 128, 256, 512):
            lo, hi = self._enclosure(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        q, a, b = self._split()
        sa, sb = a.sign(), b.sign()
        if sa == sb or not sa:
            return sb
        return sa * (a * a - q * (b * b)).sign()

    def to_float(self):
        """The midpoint of a 128-bit enclosure (the value itself when rational)."""
        if not self.terms:
            return 0.0
        lo, hi = self._enclosure(128)
        return float((lo + hi) / 2)

    def float_str(self):
        try:
            v = self.to_float()
        except OverflowError:
            v = -math.inf if self.sign() < 0 else math.inf
        return format(v, ".17g")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            body = str(abs(c))
            if d != 1:
                body = f"sqrt({d})" if abs(c) == 1 else f"{body}*sqrt({d})"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


# ---------------------------------------------------------------------------
# exact linear algebra cross-checks (sympy)


def solve_moment_system(columns, rhs):
    """linsolve-based solve: returns (status, data).

    status "unique" -> data = the weight tuple; "affine" -> parametrized
    set exists; "empty" -> no solution.  columns/rhs are sympy Rationals
    (or anything sympy accepts).
    """
    m = len(columns)
    M = Matrix([[columns[j][r] for j in range(m)] for r in range(len(rhs))])
    b = Matrix(len(rhs), 1, list(rhs))
    lam = symbols(f"l0:{m}", real=True)
    sols = linsolve((M, b), *lam)
    if sols is sympy.EmptySet or len(sols) == 0:
        return "empty", None
    (sol,) = sols
    if not any(s.free_symbols for s in sol):
        return "unique", tuple(sol)
    return "affine", tuple(sol)


def column_rank(columns):
    return Matrix([list(c) for c in columns]).T.rank()


@functools.lru_cache(maxsize=None)
def _sqrt_field(ds):
    return sympy.QQ.algebraic_field(*(sympy.sqrt(d) for d in ds)) if ds else sympy.QQ


@functools.lru_cache(maxsize=None)
def _surd_in(ds, surd):
    # sympy's conversion finds a minimal polynomial per element: slow, so
    # only the square roots themselves go through it, once each
    return _sqrt_field(ds).from_sympy(surd)


def field_element(expr, *ds):
    """A sympy sum of rational multiples of square roots as an element of
    QQ<sqrt(d), ...>, where equality is exact."""
    field = _sqrt_field(ds)
    total = field.zero
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, surd = term.as_coeff_Mul()
        total += field.from_sympy(c) * _surd_in(ds, surd)
    return total


def _matrix_over_sqrts(columns, ds):
    rows = [[field_element(col[r], *ds) for col in columns] for r in range(len(columns[0]))]
    return DomainMatrix(rows, (len(rows), len(columns)), _sqrt_field(ds))


def column_rank_over_sqrt(columns, *ds):
    """Column rank of sympy entries in Q(sqrt(d), ...), computed in sympy's
    algebraic field QQ<sqrt(d), ...> so that zero tests are exact."""
    return _matrix_over_sqrts(columns, ds).rank()


def pivot_columns_over_sqrt(columns, *ds):
    """Pivot columns of the reduced row echelon form in QQ<sqrt(d), ...>."""
    return tuple(_matrix_over_sqrts(columns, ds).rref()[1])


def rref_over_sqrt(columns, *ds):
    """(rows, pivot columns) of the reduced row echelon form in
    QQ<sqrt(d), ...>, the rows as lists of field elements (see
    field_element); with no ds, over QQ."""
    reduced, pivots = _matrix_over_sqrts(columns, ds).rref()
    return reduced.to_list(), tuple(pivots)


def rref_of_pairs(rows, d=None):
    """Reduced row echelon form of a matrix whose entries are rational pairs
    (a, b) standing for a + b*sqrt(d), computed by sympy over QQ (d None,
    every b zero) or QQ<sqrt(d)>.  Returns (rref rows as Fraction pairs,
    pivot columns)."""
    field = sympy.QQ if d is None else _sqrt_field((d,))
    root = None if d is None else _surd_in((d,), sympy.sqrt(d))

    def element(a, b):
        x = field.from_sympy(Rational(a.numerator, a.denominator))
        if b:
            x += field.from_sympy(Rational(b.numerator, b.denominator)) * root
        return x

    def pair(x):
        coeffs = [x] if d is None else x.to_list()
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs]
        return tuple(coeffs[::-1] + [Fraction(0)] * (2 - len(coeffs)))

    shape = (len(rows), len(rows[0]))
    reduced, pivots = DomainMatrix(
        [[element(a, b) for a, b in row] for row in rows], shape, field
    ).rref()
    return [[pair(x) for x in row] for row in reduced.to_list()], tuple(pivots)


def sqrt_coefficients(expr, d):
    """(a, b) with expr == a + b*sqrt(d) for rational a, b; raises if expr
    is not of that form."""
    e = sympy.expand(sympy.radsimp(expr))
    b = e.coeff(sympy.sqrt(d))
    a = sympy.expand(e - b * sympy.sqrt(d))
    if not (a.is_Rational and b.is_Rational):
        raise ValueError(f"{expr} is not in Q(sqrt({d}))")
    return a, b


def strictly_positive_solution_exists(columns, rhs):
    """Exact check: does M·λ = b admit λ with every entry > 0?

    Takes linsolve's parametrization λ(t) = P + N·t of the solution set
    and maximizes the slack z subject to λ(t) >= z·1, z <= 1 by exact
    vertex enumeration: N has full column rank (one tautological row per
    free variable), so the feasible region in (t, z) is pointed and the
    bounded objective attains its maximum at a vertex.  The open orthant
    is reachable iff that maximum is positive.  (sympy's `lpmax` is not
    used: it mis-solves some instances, see `_lp_min`.)
    """
    status, sol = solve_moment_system(columns, rhs)
    if status == "empty":
        return False
    if status == "unique":
        return all(v > 0 for v in sol)
    free = sorted({f for e in sol for f in e.free_symbols}, key=str)
    zero = {f: 0 for f in free}
    P = [e.subs(zero) for e in sol]
    N = [[e.coeff(f) for f in free] for e in sol]
    k = len(free)
    # rows of G·(t, z) >= h: each coordinate's positivity slack, then z <= 1
    G = Matrix([row + [-1] for row in N] + [[0] * k + [-1]])
    h = Matrix([-p for p in P] + [Rational(-1)])
    best = None
    for rows in itertools.combinations(range(G.rows), k + 1):
        Gs = G[list(rows), :]
        if Gs.det() == 0:
            continue
        v = Gs.solve(h[list(rows), :])
        if all((G[r, :] * v)[0] >= h[r] for r in range(G.rows)):
            z = v[k]
            best = z if best is None or z > best else best
    assert best is not None, "pointed nonempty region must have a vertex"
    return best > 0


def _lp_min(c, G, h, x0):
    """(min c.x, argmin) over free x subject to G.x <= h, or None when c.x
    is unbounded below; x0 meets every constraint.

    The LP is posed to sympy's simplex (`linprog`, Bland's rule, exact) in
    s = x - x0 = p - q with p, q >= 0, so its right-hand side h - G.x0 is
    nonnegative and the origin is feasible: sympy's phase 1, which leaves
    its loop on a cycle check and can then hand phase 2 an infeasible basis
    (it gave a max slack of 1 on an instance whose true maximum is -34/19),
    never runs.  The returned point is checked against every constraint.
    """
    n = len(c)
    rhs = [hi - sum(g * x for g, x in zip(row, x0)) for row, hi in zip(G, h)]
    assert all(r >= 0 for r in rhs), "x0 must meet every constraint"
    try:
        _, pq = linprog(list(c) + [-v for v in c], [list(r) + [-g for g in r] for r in G], rhs)
    except UnboundedLPError:
        return None
    x = [x0[j] + pq[j] - pq[n + j] for j in range(n)]
    assert all(sum(g * v for g, v in zip(row, x)) <= hi for row, hi in zip(G, h))
    return sum(cj * v for cj, v in zip(c, x)), x


def _lp_constraints(particular, null_basis):
    """(G, h) of every weight >= 0 as G.t <= h over the parameters t."""
    G = [[-Rational(nu[i]) for nu in null_basis] for i in range(len(particular))]
    return G, [Rational(p) for p in particular]


def lp_max_slack(particular, null_basis):
    """(max z, its parameter point) subject to every weight >= z and z <= 1,
    by sympy's simplex (`_lp_min`): z > 0 iff some parameter point makes
    every weight strictly positive.  Entries are rationals."""
    G, h = _lp_constraints(particular, null_basis)
    k = len(null_basis)
    z0 = min(h + [Rational(1)])  # at t = 0, z = z0 meets every constraint
    G = [row + [Rational(1)] for row in G] + [[Rational(0)] * k + [Rational(1)]]
    val, x = _lp_min([0] * k + [-1], G, h + [Rational(1)], [Rational(0)] * k + [z0])
    return -val, x[:k]


def lp_back_substitution(particular, null_basis):
    """The parameter point Fourier-Motzkin back-substitution picks, found
    by linear programs (`_lp_min`).

    From the last parameter to the first, with the later ones fixed at the
    values already found, t_var ranges over [lo, hi]: the min and max of
    t_var subject to every weight >= 0, the earlier parameters free.  It is
    set to (lo + hi)/2, to lo + 1 or hi - 1 when only one end is finite, and
    to 0 when neither is.  The system must have a strictly positive point.
    """
    k = len(null_basis)
    G_all, h_all = _lp_constraints(particular, null_basis)
    ts = []
    for var in range(k - 1, -1, -1):
        h = [hi + sum((-row[j] * t for j, t in zip(range(var + 1, k), ts)), Rational(0))
             for row, hi in zip(G_all, h_all)]
        G = [row[: var + 1] for row in G_all]
        slack, x0 = lp_max_slack(h, [[-row[j] for row in G] for j in range(var + 1)])
        assert slack > 0, "no strictly positive point"
        e = [int(j == var) for j in range(var + 1)]
        lo, hi = _lp_min(e, G, h, x0), _lp_min([-v for v in e], G, h, x0)
        lo, hi = lo and lo[0], hi and -hi[0]  # an end is None when unbounded
        if lo is not None and hi is not None:
            t = (lo + hi) / 2
        elif lo is not None:
            t = lo + 1
        elif hi is not None:
            t = hi - 1
        else:
            t = Rational(0)
        ts.insert(0, t)
    return ts


def check_case_reason(columns, rhs, reason):
    """Re-verify one exhaustion-log entry by independent means."""
    status, _ = solve_moment_system(columns, rhs)
    if reason == "inconsistent":
        return status == "empty" and column_rank(columns) == len(columns)
    if reason == "rank-deficient":
        return status == "empty" and column_rank(columns) < len(columns)
    if reason == "positivity-infeasible":
        return status != "empty" and not strictly_positive_solution_exists(
            columns, rhs
        )
    return False


# ---------------------------------------------------------------------------
# independent minimality enumerator (piecewise-constant docs only)


def _constant_fns(doc):
    fns = []
    for fd in doc["functions"]:
        pieces = []
        for p in fd["pieces"]:
            if "sqrt" in p or "sqrt_terms" in p or len(p["poly"]) > 1:
                raise ValueError("oracle only handles piecewise-constant docs")
            v = Rational(p["poly"][0]) if p["poly"] else Rational(0)
            pieces.append((Rational(p["lo"]), Rational(p["hi"]), v))
        fns.append(pieces)
    return fns


def brute_min(doc, mode):
    """Minimal node count by direct enumeration over region vectors.

    A from-scratch re-derivation of the decision procedure for subspace
    docs with constant pieces: regions from the union of breakpoints,
    values per region, Gram from lengths, subsets in increasing size.
    """
    fns = _constant_fns(doc)
    edges = sorted({e for f in fns for lo, hi, _ in f for e in (lo, hi)})
    regions = list(zip(edges, edges[1:]))

    def value(f, x):
        for lo, hi, v in f:
            if lo <= x < hi:
                return v
        return f[-1][2]

    n = len(fns)
    pairs = [(i, s) for i in range(n) for s in range(i, n)]
    vecs = []
    for lo, hi in regions:
        mid = (lo + hi) / 2
        vals = [value(f, mid) for f in fns]
        vecs.append(tuple(vals[i] * vals[s] for i, s in pairs))
    gram = [Rational(0)] * len(pairs)
    for (lo, hi), vec in zip(regions, vecs):
        for k in range(len(pairs)):
            gram[k] += (hi - lo) * vec[k]
    distinct = []
    for v in vecs:
        if v not in distinct:
            distinct.append(v)
    for m in range(1, len(distinct) + 1):
        for subset in itertools.combinations(distinct, m):
            cols = [list(v) for v in subset]
            if mode == "positive":
                if strictly_positive_solution_exists(cols, gram):
                    return m
            else:
                status, _ = solve_moment_system(cols, gram)
                if status != "empty":
                    return m
    raise AssertionError("enumeration exhausted without a feasible subset")
