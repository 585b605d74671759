"""Independent cross-checking oracles for the test suite.

Everything in here is intentionally written against sympy/mpmath and the
JSON document formats, not against the package's own arithmetic, so that
agreement between the two paths actually means something.
"""

import functools
import itertools

import mpmath as mp
import sympy
from sympy import Matrix, Rational, linsolve, symbols
from sympy.polys.matrices import DomainMatrix

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
    return sympy.QQ.algebraic_field(*(sympy.sqrt(d) for d in ds))


@functools.lru_cache(maxsize=None)
def _surd_in(ds, surd):
    # sympy's conversion finds a minimal polynomial per element: slow, so
    # only the square roots themselves go through it, once each
    return _sqrt_field(ds).from_sympy(surd)


def _matrix_over_sqrts(columns, ds):
    field = _sqrt_field(ds)

    def element(expr):
        total = field.zero
        for term in sympy.Add.make_args(sympy.expand(expr)):
            c, surd = term.as_coeff_Mul()
            total += field.from_sympy(c) * _surd_in(ds, surd)
        return total

    rows = [[element(col[r]) for col in columns] for r in range(len(columns[0]))]
    return DomainMatrix(rows, (len(rows), len(columns)), field)


def column_rank_over_sqrt(columns, *ds):
    """Column rank of sympy entries in Q(sqrt(d), ...), computed in sympy's
    algebraic field QQ<sqrt(d), ...> so that zero tests are exact."""
    return _matrix_over_sqrts(columns, ds).rank()


def pivot_columns_over_sqrt(columns, *ds):
    """Pivot columns of the reduced row echelon form in QQ<sqrt(d), ...>."""
    return tuple(_matrix_over_sqrts(columns, ds).rref()[1])


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
    is reachable iff that maximum is positive.  (sympy's simplex is not
    used: it mis-solves some degenerate equality-constrained instances.)
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
