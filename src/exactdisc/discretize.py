"""Exact discretization rules on piecewise subspaces.

Central identity: a rule (nodes xi_j, weights lambda_j) is exact for a
subspace -- integral of f^2 equals the weighted node sum of f^2 for every
f in the span -- iff the weighted sum of node moment vectors equals the
flattened Gram matrix.  (Polarization: exactness on squares of all basis
combinations is equivalent to exactness on all basis pair products; no
orthogonality is assumed.)  Everything here works over the exact Radical
scalar field: Gram matrices, rule verification, weight solving, strict
positivity via Fourier-Motzkin with Farkas certificates, minimal node
counts for piecewise-constant subspaces, structural lower bounds, and
Caratheodory support reduction.  A node enters only through its basis
values: the solvers lift them into integer rows and form the pair products
there (`_lift_columns`), and the checks form each product in Radical
arithmetic (`_verify_values`).  The minimality and grid searches decide
each node subset through one engine, `_subset_outcomes`, which keeps the
elimination state of the nodes a subset shares with the previous one.
Elimination (one step, `_push`, per column) and Fourier-Motzkin run on
fraction-free integer rows over the field of their inputs (see
`exactnum._Rows`): for each product g_S of the radicands' coprime base,
the coefficients of sqrt(g_S); plain ints for rational inputs.  A row is
divided by its content after each combination and stands for a nonzero
(in Fourier-Motzkin, positive) multiple of the row of values, so results
are read off as ratios and handed back as Radicals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exactnum import Radical, Rat, _rows_for, float_str
from .piecewise import (
    DomainError,
    PiecewiseFn,
    _doc_list,
    _parse_frac,
    constant_value_on,
    fn_from_doc,
    fn_to_doc,
    nonvanishing_on,
    pw_eval,
    pw_inner,
    pw_mul,
    pw_support,
    supports_disjoint,
)


class PreconditionError(ValueError):
    """An operation's structural precondition does not hold."""


def _val_doc(x) -> dict:
    x = Radical(x)
    return {"exact": str(x), "float": float_str(x)}


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class Subspace:
    """Named basis functions over a common domain (independence not assumed)."""

    names: tuple
    funcs: tuple
    flags: tuple = ()

    def __post_init__(self):
        if not self.funcs or len(self.names) != len(self.funcs):
            raise ValueError("need one name per basis function")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        dom = self.funcs[0].domain
        for f in self.funcs[1:]:
            if f.domain != dom:
                raise ValueError("basis functions live on different domains")

    @property
    def dimension(self) -> int:
        return len(self.funcs)

    @property
    def domain(self):
        return self.funcs[0].domain

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis function named {name!r}") from None


@dataclass(frozen=True)
class Rule:
    """Pairwise distinct sample nodes with exact weights."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        nodes = tuple(Fraction(x) for x in self.nodes)
        weights = tuple(Radical(w) for w in self.weights)
        if len(nodes) != len(weights):
            raise ValueError("need one weight per node")
        if not nodes:
            raise ValueError("a rule needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("rule nodes must be pairwise distinct")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.nodes)


def index_pairs(n: int):
    """All (i, s) with i <= s in lexicographic order: the rows of the
    moment system, in the order its witnesses and residuals follow."""
    return [(i, s) for i in range(n) for s in range(i, n)]


# ---------------------------------------------------------------------------
# gram


@lru_cache(maxsize=128)
def _gram_cached(s: Subspace):
    n = s.dimension
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = pw_inner(s.funcs[i], s.funcs[j])
            g[i][j] = g[j][i] = v
    _, rank = _solve_system(g, [Radical(0)] * n, range(n))  # g is symmetric
    return tuple(tuple(row) for row in g), rank


def gram(s: Subspace):
    """Exact Gram matrix of the basis plus its rank."""
    return _gram_cached(s)


# ---------------------------------------------------------------------------
# rule verification


@dataclass(frozen=True)
class VerifyReport:
    pairs: tuple
    residuals: tuple
    passed: bool
    failing: tuple

    def residual(self, i: int, s: int) -> Radical:
        return self.residuals[self.pairs.index((i, s))]


def _check_nodes(s: Subspace, nodes):
    out = []
    lo, hi = s.domain
    for x in nodes:
        x = Fraction(x)
        if not lo <= x <= hi:
            raise DomainError(f"node {x} outside domain [{lo}, {hi}]")
        out.append(x)
    if len(set(out)) != len(out):
        raise ValueError("nodes must be pairwise distinct")
    return tuple(out)


def verify_rule(s: Subspace, rule: Rule) -> VerifyReport:
    """Exact per-pair residuals of the moment identity; pass iff all zero."""
    nodes = _check_nodes(s, rule.nodes)
    return _verify_values(s, rule.weights, [[pw_eval(f, x) for f in s.funcs] for x in nodes])


def _verify_values(s: Subspace, weights, values) -> VerifyReport:
    """verify_rule for nodes whose basis values are already known.  Each
    product f_i(x) f_s(x) is formed here, in Radical arithmetic, so the check
    shares no code with the integer rows the solvers eliminate on."""
    pairs, rhs = _pair_system(s)
    residuals = []
    failing = []
    for (i, j), target in zip(pairs, rhs):
        acc = Radical(0)
        for w, v in zip(weights, values):
            acc = acc + w * (v[i] * v[j])
        r = acc - target
        residuals.append(r)
        if r:
            failing.append((i, j))
    return VerifyReport(tuple(pairs), tuple(residuals), not failing, tuple(failing))


# ---------------------------------------------------------------------------
# weight solving


@dataclass(frozen=True)
class WeightSolution:
    nodes: tuple
    particular: tuple
    null_basis: tuple

    @property
    def unique(self) -> bool:
        return not self.null_basis


@dataclass(frozen=True)
class Infeasible:
    witness_pair: tuple


class _Coords:
    """An elimination vector read as coordinates: entry `start + i` over
    its rational entry `at`, for i < m.  They are formed as Radicals once,
    when first read, and shared by every subset whose state holds the
    vector."""

    __slots__ = ("vec", "at", "_radicals")

    def __init__(self, vec, at):
        self.vec, self.at, self._radicals = vec, at, None

    def radicals(self, rows, start, m) -> tuple:
        if self._radicals is None:
            self._radicals = tuple([rows.ratio(self.vec, start + i, self.at) for i in range(m)])
        return self._radicals


class _Prefix(NamedTuple):
    """The elimination state of a system's first columns (see `_push`)."""

    pivots: tuple  # (pivot row, vector, its root multiples) per pivot column
    rhs: _Coords  # the right-hand side, reduced against the pivot columns
    nulls: tuple  # _Coords per free column, whose vector has reduced to 0


def _vector(rows, scaled, at, m) -> list:
    """The vector of the column at position `at` < m from its `(row, s)`
    over `rows`: its values times s, then its m + 1 coordinates, s at `at`
    and 0 elsewhere."""
    row, s = scaled
    return rows.append(row, [0] * at + [s] + [0] * (m - at))


def _start(rows, rhs, n_rows, m) -> _Prefix:
    """The state of no columns, from the right-hand side b's `(row, s)`: its
    values times s and the coordinate -s at m, as the vector of -b."""
    row, s = rhs
    return _Prefix((), _Coords(rows.append(row, [0] * m + [-s]), n_rows + m), ())


def _push(rows, state, column, at, n_rows, m):
    """The state after one more column, the one elimination step.

    A vector is a column's `n_rows` values followed by its coordinates over
    the m columns and the negated right-hand side -b (`_vector`, `_start`):
    every step is linear, so the values stay the coordinates' combination
    of the system's columns and -b.  `column` is the new column's
    `(row, s)`, at position `at`.  The new vector is reduced against the
    pivot columns in order, which zeroes it on their pivot rows.  If a value
    is still nonzero, the first such row becomes its pivot row: the vector
    is multiplied by its lead's conjugates (a rational lead) and clears that
    row of the right-hand side.  A vector is then zero on every row before
    its pivot row, so a non-pivot row is only ever combined with earlier
    rows, and the right-hand side's first nonzero row is the first whose
    row prefix has no solution.  Otherwise the column is free, and its
    coordinates over its own are a null vector, the free column's in the
    reduced row echelon form: the rank, pivot columns and null basis are
    those of absorbing the rows one at a time.
    """
    pivots, rhs, nulls = state
    vec = _vector(rows, column, at, m)
    for p, pvec, roots in pivots:
        if rows.nonzero(vec, p):
            vec = rows.combine(vec, pvec, p, roots)
    lead = rows.lead(vec, n_rows)
    if lead is None:
        return _Prefix(pivots, rhs, nulls + (_Coords(vec, n_rows + at),))
    vec = rows.pivot(vec, lead)
    roots = rows.roots(vec)
    if rows.nonzero(rhs.vec, lead):
        rhs = _Coords(rows.combine(rhs.vec, vec, lead, roots), rhs.at)
    return _Prefix(pivots + ((lead, vec, roots),), rhs, nulls)


def _solution(rows, state, n_rows, m):
    """(particular, null_basis) as Radicals, or None when the right-hand
    side is outside the columns' span.  The right-hand side's coordinates
    over its own (that of -b) solve the system with every free variable 0."""
    if rows.lead(state.rhs.vec, n_rows) is not None:
        return None
    particular = state.rhs.radicals(rows, n_rows, m)
    return particular, tuple(c.radicals(rows, n_rows, m) for c in state.nulls)


def _lift_columns(values, rhs, labels):
    """(rows, columns, target): the row record over the field of the
    right-hand side `rhs` and the nodes' basis values `values`, each node's
    moment column over the pair rows `labels` as the `(row, s)` of the
    products of its values (`_Rows.products`), and the right-hand side's."""
    rows = _rows_for(itertools.chain(rhs, *values))
    return rows, [rows.products(v, labels) for v in values], rows.scaled(rhs)


def _eliminate(rows, columns, target, labels):
    """`_solve_system` on columns and a right-hand side already lifted into
    `rows` as `(row, s)` pairs, one `_push` per column."""
    m, n_rows = len(columns), len(labels)
    state = _start(rows, target, n_rows, m)
    for j, col in enumerate(columns):
        state = _push(rows, state, col, j, n_rows, m)
    witness = rows.lead(state.rhs.vec, n_rows)
    if witness is not None:
        return Infeasible(labels[witness]), len(state.pivots)
    return _solution(rows, state, n_rows, m), len(state.pivots)


def _solve_system(columns, rhs, labels):
    """Exact solve of sum_j x_j * columns[j] = rhs (`_eliminate`).

    Returns (result, rank) with result either (particular, null_basis) or
    an Infeasible carrying the witness label: the first row such that the
    system restricted to the rows up to it has no solution (rows are
    labeled by basis pairs, already in canonical order).  The rank is the
    column rank of the coefficient matrix whether or not the system is
    consistent.  The particular solution has every free variable at 0, and
    the null basis has one vector per free column, 1 there and 0 at the
    other free columns: both are those of the reduced row echelon form.

    The vectors are the integer rows of `_rows_for` over the entries' field
    (plain ints when every entry is rational), each a nonzero multiple of
    its vector of values, so its zeros, and the rank and the witness, are
    those of the values; the solution is read off as ratios of coordinates
    and formed as Radicals once, at the end.
    """
    rows = _rows_for(itertools.chain(*columns, rhs))
    return _eliminate(rows, [rows.scaled(col) for col in columns], rows.scaled(rhs), labels)


def _pair_system(s: Subspace, pairs=None):
    """(labels, rhs) of the moment system: the enforced basis pairs in
    canonical order (all of them when `pairs` is None) and the Gram entries
    the weighted node sums must match."""
    g, _ = gram(s)
    labels = index_pairs(s.dimension)
    if pairs is not None:
        wanted = {(min(i, sx), max(i, sx)) for i, sx in pairs}
        unknown = wanted - set(labels)
        if unknown:
            raise ValueError(f"pairs outside the basis: {sorted(unknown)}")
        labels = [p for p in labels if p in wanted]
    return labels, [g[i][sx] for i, sx in labels]


def solve_weights(s: Subspace, nodes, pairs=None):
    """Solve the exact moment system for weights at the given nodes.

    Returns a WeightSolution (particular + null basis: the full affine
    solution set) or Infeasible with a witnessing basis pair.  `pairs`
    restricts the enforced conditions to a subset of basis pairs.
    """
    nodes = _check_nodes(s, nodes)
    labels, rhs = _pair_system(s, pairs)
    values = [[pw_eval(f, x) for f in s.funcs] for x in nodes]
    result, _rank = _eliminate(*_lift_columns(values, rhs, labels), labels)
    if isinstance(result, Infeasible):
        return result
    particular, null_basis = result
    return WeightSolution(nodes, particular, null_basis)


# ---------------------------------------------------------------------------
# strict positivity via Fourier-Motzkin


@dataclass(frozen=True)
class PositiveWitness:
    weights: tuple
    assignment: tuple  # parameter values in the affine solution set


@dataclass(frozen=True)
class NoPositive:
    """Farkas-style refutation: nonnegative multipliers over the weight
    inequalities combining to a contradictory constant bound."""

    multipliers: tuple
    constant: Radical  # = sum(mult_i * particular_i), proved <= 0


def positive_feasible(sol: WeightSolution):
    """Decide whether the affine weight set meets the strict positive orthant.

    Fourier-Motzkin elimination over the null-space parameters with exact
    sign decisions.  An infeasible outcome returns a checkable combination:
    multipliers >= 0 over the original inequalities with
    sum(mult_i * lambda_i(t)) identically equal to a constant <= 0.

    The inequalities are the integer rows of `_rows_for` over the field of
    the particular solution and the null basis, as in `_solve_system`.
    Lower bound L and upper bound U on a parameter combine as
    L[var]*U - U[var]*L divided by its content, a positive multiple of the
    unscaled combination, so every sign decision, the order of the
    inequalities and the ratios the back-substitution reads are those of the
    unscaled elimination.  No multipliers are carried: a derived inequality records the pair it came
    from, and a refuting one is replayed down that tree (at most 2^k
    leaves) in the record's working values, by the unscaled combinations,
    which gives its multipliers and constant.  The returned weights,
    assignment, multipliers and constant are Radicals.
    """
    m = len(sol.particular)
    k = len(sol.null_basis)
    rows = _rows_for(itertools.chain(sol.particular, *sol.null_basis))
    # inequality i: particular[i] + sum_j t_j null_basis[j][i] > 0, as the
    # row (null_basis[0][i], ..., null_basis[k-1][i], particular[i]) and its
    # origin: i, or (lower origin, upper origin, var) when derived
    ineqs = [
        (rows.lift([nu[i] for nu in sol.null_basis] + [sol.particular[i]]), i)
        for i in range(m)
    ]
    levels = []
    for var in range(k):
        levels.append(ineqs)
        lowers, uppers, new = [], [], []
        for q in ineqs:
            sg = rows.sign(q[0], var)
            (lowers if sg > 0 else uppers if sg < 0 else new).append(q)
        for lo, lo_origin in lowers:
            for up, up_origin in uppers:
                new.append((rows.combine(up, lo, var), (lo_origin, up_origin, var)))
        ineqs = new
    for row, origin in ineqs:
        if rows.sign(row, k) <= 0:
            _, const, mults = _replay(rows, sol, origin)
            return NoPositive(tuple(v.radical() for v in mults), const.radical())
    # feasible: back-substitute a strictly interior parameter point; a
    # bound is a ratio of entries, which the rows' scaling leaves alone
    zero, one = rows.value(0), rows.value(1)
    ts = [zero] * k
    for var in range(k - 1, -1, -1):
        lb = ub = None
        for row, _ in levels[var]:
            sg = rows.sign(row, var)
            if not sg:
                continue
            rest = rows.entry(row, k)
            for j in range(var + 1, k):
                rest = rest + rows.entry(row, j) * ts[j]
            bound = -rest / rows.entry(row, var)
            if sg > 0:
                lb = bound if lb is None or (bound - lb).sign() > 0 else lb
            else:
                ub = bound if ub is None or (bound - ub).sign() < 0 else ub
        if lb is not None and ub is not None:
            ts[var] = (lb + ub) / rows.value(2)
        elif lb is not None:
            ts[var] = lb + one
        elif ub is not None:
            ts[var] = ub - one
    weights = [rows.value(v) for v in sol.particular]
    for t, nu in zip(ts, sol.null_basis):
        weights = [w + t * rows.value(v) if v else w for w, v in zip(weights, nu)]
    if any(w.sign() <= 0 for w in weights):
        raise AssertionError("elimination produced a non-interior witness")
    return PositiveWitness(tuple(w.radical() for w in weights), tuple(t.radical() for t in ts))


def _replay(rows, sol, origin):
    """(coefs, const, mults) of an inequality of `positive_feasible`, as
    working values of `rows` and unscaled: the original inequality, or b*L + a*U with
    a = L[var] > 0 and b = -U[var] > 0 for L and U replayed alike."""
    if isinstance(origin, int):
        zero, one = rows.value(0), rows.value(1)
        coefs = [rows.value(nu[origin]) for nu in sol.null_basis]
        mults = [one if r == origin else zero for r in range(len(sol.particular))]
        return coefs, rows.value(sol.particular[origin]), mults
    lo, up, var = origin
    cl, kl, ml = _replay(rows, sol, lo)
    cu, ku, mu = _replay(rows, sol, up)
    a, b = cl[var], -cu[var]
    return (
        [b * x + a * y for x, y in zip(cl, cu)],
        b * kl + a * ku,
        [b * x + a * y for x, y in zip(ml, mu)],
    )


# ---------------------------------------------------------------------------
# minimality for piecewise-constant subspaces


@dataclass(frozen=True)
class VectorGroup:
    """Constancy regions sharing one vector of basis values (so one moment
    column), plus a representative."""

    regions: tuple
    representative: Rat
    values: tuple


@dataclass(frozen=True)
class CaseLog:
    subset: tuple
    reason: str  # rank-deficient | inconsistent | positivity-infeasible


@dataclass(frozen=True)
class LevelLog:
    m: int
    count: int
    cases: tuple


@dataclass(frozen=True)
class MinCertificate:
    mode: str
    m_min: int
    witness: Rule
    groups: tuple
    exhaustion: tuple
    justification: str
    fallback: Rule
    flags: tuple = ()


_MERGE_JUSTIFICATION = (
    "Nodes of any exact rule can be grouped by the constancy region that "
    "contains them; moment vectors are constant per region, so merging "
    "same-region nodes (summing their weights) changes no pair sum.  An "
    "m-node rule therefore implies a feasible subset of at most m distinct "
    "region moment vectors, and enumerating subsets of the distinct vectors "
    "in increasing size is exhaustive.  Positivity survives merging because "
    "sums of positive weights stay positive.  Termination: one node per "
    "region weighted by the region length is always an exact positive rule."
)


def constancy_groups(s: Subspace):
    """Regions of common constancy grouped by their shared moment vector.

    Raises PreconditionError unless every basis function is piecewise
    constant.  Returns (groups, regions) with groups in first-appearance
    order and region representatives at first-region midpoints.  Each
    piece's value is read once; the regions walk every function's pieces in
    step, a function moving to its next piece where the current one ends.
    """
    values = [[p.value_if_constant() for p in f.pieces] for f in s.funcs]
    for name, vs in zip(s.names, values):
        if any(v is None for v in vs):
            raise PreconditionError(
                f"basis function {name!r} is not piecewise constant; "
                "the exhaustive minimality search only applies to "
                "piecewise-constant subspaces (use the grid search instead)"
            )
    edges = sorted(set().union(*(f.breakpoints() for f in s.funcs)))
    regions = list(zip(edges, edges[1:]))
    at = [0] * s.dimension  # per function, the index of its piece on the region
    by_vec: dict[tuple, tuple] = {}  # values -> (representative, regions)
    for lo, hi in regions:
        at = [i + (f.pieces[i].hi == lo) for i, f in zip(at, s.funcs)]
        vals = tuple(vs[i] for i, vs in zip(at, values))
        by_vec.setdefault(vals, ((lo + hi) / 2, []))[1].append((lo, hi))
    groups = tuple(VectorGroup(tuple(regs), rep, vals) for vals, (rep, regs) in by_vec.items())
    return groups, regions


def _region_rule(regions) -> Rule:
    return Rule(
        [(lo + hi) / 2 for lo, hi in regions],
        [Radical(hi - lo) for lo, hi in regions],
    )


def measure_rule(s: Subspace) -> Rule:
    """One node per constancy region, weighted by region length (always exact)."""
    _, regions = constancy_groups(s)
    return _region_rule(regions)


def _subset_outcomes(values, nodes, rhs, labels, sizes, mode: str):
    """Decide each subset of the nodes of each size in `sizes`, sizes in the
    given order and subsets of one size in lexicographic order.

    `values[i]` is node i's basis values.  Yields (subset of node indices,
    outcome): the subset's Rule (the particular solution, or in positive
    mode the interior witness) or the CaseLog reason it has none.

    Every node's values are lifted once, up front, into one row record over
    the field of the right-hand side and the values, and its moment column
    over the pair rows `labels` is formed there as ints (`_lift_columns`).
    The subsets are walked depth first: the state of a subset's first d
    nodes (`_push`) is kept while the next subset shares them, so each
    subset costs one elimination step per node past the shared prefix, and
    a solution's Radicals are formed once per state that holds them.
    """
    n_rows = len(labels)
    rows, columns, target = _lift_columns(values, rhs, labels)
    for m in sizes:
        # stack[d]: the state of the current subset's first d nodes
        stack = [_start(rows, target, n_rows, m)]
        prev = ()
        for subset in itertools.combinations(range(len(nodes)), m):
            keep = next((d for d, (a, b) in enumerate(zip(prev, subset)) if a != b), 0)
            del stack[keep + 1 :]
            for d in range(keep, m):
                stack.append(_push(rows, stack[-1], columns[subset[d]], d, n_rows, m))
            prev = subset
            state = stack[-1]
            result = _solution(rows, state, n_rows, m)
            if result is None:
                yield subset, "rank-deficient" if len(state.pivots) < m else "inconsistent"
                continue
            sol = WeightSolution(tuple(nodes[i] for i in subset), *result)
            if mode == "signed":
                yield subset, Rule(sol.nodes, sol.particular)
                continue
            pf = positive_feasible(sol)
            if isinstance(pf, NoPositive):
                yield subset, "positivity-infeasible"
            else:
                yield subset, Rule(sol.nodes, pf.weights)


def decide_min(s: Subspace, mode: str = "signed") -> MinCertificate:
    """Minimal node count for a piecewise-constant subspace, with certificate.

    mode "signed" allows arbitrary real weights; "positive" requires all
    weights strictly positive.  The exhaustion log itemizes every size-m
    multiset of distinct region moment vectors at each infeasible size with
    the exact reason (multisets rather than subsets: a repeated vector is
    feasibility-equivalent to its support set, so the repeats are redundant
    but make the case list explicit); enumeration and logging follow
    lexicographic order, and the search stops at the first feasible subset.

    Only the subsets of distinct vectors are solved, by one run of
    `_subset_outcomes` over every size: each group's values are lifted
    once, and a subset is eliminated from the state of the groups it
    shares with the previous subset.  The first Rule found is verified on
    the groups' basis values, and returned.
    A multiset with a repeated vector takes its reason from its support
    set, which is smaller and so was refuted at an earlier size: the
    repeated column makes it "rank-deficient", except in positive mode
    when the support was solvable but had no positive solution -- splitting
    or merging positive weights of equal columns keeps them positive, so
    the multiset is then "positivity-infeasible" too.
    """
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown mode {mode!r}")
    groups, regions = constancy_groups(s)
    labels, rhs = _pair_system(s)
    nodes = tuple(grp.representative for grp in groups)

    reasons = {}  # every subset of distinct groups refuted so far
    exhaustion = []
    sizes = range(1, len(groups) + 1)
    outcomes = _subset_outcomes([grp.values for grp in groups], nodes, rhs, labels, sizes, mode)
    for m, level in itertools.groupby(outcomes, lambda outcome: len(outcome[0])):
        for subset, outcome in level:
            if isinstance(outcome, str):
                reasons[subset] = outcome
                continue
            witness_values = [groups[i].values for i in subset]
            if not _verify_values(s, outcome.weights, witness_values).passed:
                raise AssertionError("minimality witness failed verification")
            return MinCertificate(
                mode,
                m,
                outcome,
                groups,
                tuple(exhaustion),
                _MERGE_JUSTIFICATION,
                _region_rule(regions),
                s.flags,
            )
        cases = []
        for multiset in itertools.combinations_with_replacement(range(len(groups)), m):
            support = tuple(dict.fromkeys(multiset))
            reason = reasons[support]
            if len(support) < m and reason != "positivity-infeasible":
                reason = "rank-deficient"
            cases.append(CaseLog(multiset, reason))
        exhaustion.append(LevelLog(m, len(cases), tuple(cases)))
    raise AssertionError("measure-decomposition rule should always be feasible")


def search_grid(
    s: Subspace,
    candidates,
    m: int,
    mode: str = "signed",
    max_subsets: int | None = None,
    pairs=None,
):
    """Enumerate size-m node subsets of the candidates; return feasible rules.

    Exploration only -- an empty result is not a nonexistence certificate.
    `pairs` restricts the enforced pair conditions (the returned rules then
    satisfy only those); `max_subsets` caps how many subsets are examined.
    Subsets are examined in lexicographic order (`_subset_outcomes`), each
    eliminated from the state of the candidates it shares with the previous
    one; every candidate they reach is evaluated and lifted once, up front.
    """
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown mode {mode!r}")
    cand = _check_nodes(s, candidates)
    if not 1 <= m <= len(cand):
        raise ValueError(f"subset size {m} out of range for {len(cand)} candidates")
    labels, rhs = _pair_system(s, pairs)
    # in lexicographic order the first c subsets of size m cover the first m - 1 + c candidates
    reach = cand if max_subsets is None else cand[: m - 1 + max_subsets]
    values = [[pw_eval(f, x) for f in s.funcs] for x in reach]
    outcomes = _subset_outcomes(values, reach, rhs, labels, (m,), mode)
    outcomes = itertools.islice(outcomes, max_subsets)
    return [rule for _, rule in outcomes if isinstance(rule, Rule)]


# ---------------------------------------------------------------------------
# structural lower bounds


@dataclass(frozen=True)
class TargetClause:
    target: int
    count: int
    norm_sq: Radical
    inner: Radical
    nonvanishing: bool
    support_hull: tuple


@dataclass(frozen=True)
class LowerBoundCertificate:
    bound: int
    witness_index: int
    target_indices: tuple
    clauses: tuple
    regions: tuple  # closed intervals that must contain the counted nodes
    flags: tuple = ()


@dataclass(frozen=True)
class ImprovedBound:
    bound: int
    base: LowerBoundCertificate
    u1: int
    u2: int
    constants: tuple
    sums: tuple


@dataclass(frozen=True)
class NotApplicable:
    reason: str


def support_lower_bound(s: Subspace, witness_index: int, target_indices) -> LowerBoundCertificate:
    """Count nodes forced into pairwise-disjoint target supports.

    For each target h with a nonzero norm, any exact rule needs a node in
    supp(h) (else the (h, h) condition fails).  If moreover the witness u
    is orthogonal to h and certified nonvanishing on supp(h), one node is
    impossible: with a single node xi the (h, h) condition forces
    lambda * h(xi) != 0 while the (u, h) condition forces
    lambda * u(xi) * h(xi) = 0, so u(xi) = 0 -- contradiction; hence two.
    Support disjointness makes the per-target counts add up.
    """
    target_indices = tuple(target_indices)
    u = s.funcs[witness_index]
    for a, b in itertools.combinations(target_indices, 2):
        if not supports_disjoint(s.funcs[a], s.funcs[b]):
            raise PreconditionError(
                f"supports of targets {s.names[a]!r} and {s.names[b]!r} "
                "are not provably disjoint"
            )
    g, _ = gram(s)
    clauses = []
    regions = []
    for t in target_indices:
        hull = pw_support(s.funcs[t])
        norm_sq = g[t][t]
        inner = g[witness_index][t]
        count = 0
        nonvan = False
        if norm_sq:
            count = 1
            nonvan = all(nonvanishing_on(u, lo, hi) for lo, hi in hull)
            if not inner and nonvan:
                count = 2
        clauses.append(TargetClause(t, count, norm_sq, inner, nonvan, hull))
        if count:
            regions.extend(hull)
    return LowerBoundCertificate(
        sum(c.count for c in clauses),
        witness_index,
        target_indices,
        tuple(clauses),
        tuple(sorted(regions)),
        s.flags,
    )


def forced_region_contradiction(
    s: Subspace, bound: LowerBoundCertificate, u1: int, u2: int
):
    """Upgrade a lower bound by one via incompatible forced weight sums.

    If a rule had exactly `bound` nodes they would all lie in the bound's
    region set; when u1^2 and u2^2 are exactly constant (c1, c2 > 0) there,
    the (u1, u1) and (u2, u2) conditions force the weight sum to equal both
    ||u1||^2/c1 and ||u2||^2/c2.  If those differ, no such rule exists.
    """
    if not bound.regions:
        return NotApplicable("the base bound forces no nodes into any region")
    g, _ = gram(s)
    consts = []
    for idx in (u1, u2):
        sq = pw_mul(s.funcs[idx], s.funcs[idx])
        vals = [constant_value_on(sq, lo, hi) for lo, hi in bound.regions]
        if any(v is None for v in vals) or any(v != vals[0] for v in vals):
            return NotApplicable(
                f"{s.names[idx]!r}^2 is not exactly constant on the forced regions"
            )
        c = vals[0]
        if c.sign() <= 0:
            return NotApplicable(
                f"{s.names[idx]!r}^2 is not strictly positive on the forced regions"
            )
        consts.append(c)
    sums = (g[u1][u1] / consts[0], g[u2][u2] / consts[1])
    if sums[0] == sums[1]:
        return NotApplicable("both functions force the same weight sum")
    return ImprovedBound(bound.bound + 1, bound, u1, u2, tuple(consts), sums)


# ---------------------------------------------------------------------------
# Caratheodory support reduction


@dataclass(frozen=True)
class ReduceStep:
    null_vector: tuple
    t: Radical
    dropped: tuple  # node values removed at this step


@dataclass(frozen=True)
class ReduceResult:
    rule: Rule
    steps: tuple
    mode: str


def caratheodory_reduce(s: Subspace, rule: Rule, mode: str = "signed") -> ReduceResult:
    """Shrink a verifying rule along null combinations of node moment vectors.

    Ends with linearly independent vectors, so at most rank-many (hence at
    most N(N+1)/2) nodes survive.  In positive mode the step size stops at
    the first weight to reach zero from above, preserving positivity; the
    output rule is verified exactly, in both modes, on the basis values
    already held.  The nodes' columns are lifted once, into one row record.
    """
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown mode {mode!r}")
    nodes = list(_check_nodes(s, rule.nodes))
    values = [[pw_eval(f, x) for f in s.funcs] for x in nodes]
    if not _verify_values(s, rule.weights, values).passed:
        raise PreconditionError("input rule does not verify; nothing to reduce")
    weights = list(rule.weights)
    if mode == "positive" and any(w.sign() <= 0 for w in weights):
        raise PreconditionError("positive-mode reduction needs strictly positive weights")
    steps = []
    row_pairs = index_pairs(s.dimension)
    rows, cols, zero = _lift_columns(values, [0] * len(row_pairs), row_pairs)
    while True:
        (_, null_basis), _rank = _eliminate(rows, cols, zero, row_pairs)
        if not null_basis:
            break
        mu = list(null_basis[0])
        if mode == "positive":
            if not any(v.sign() > 0 for v in mu):
                mu = [-v for v in mu]
            t = None
            for w, v in zip(weights, mu):
                if v.sign() > 0:
                    ratio = w / v
                    if t is None or ratio < t:
                        t = ratio
        else:
            pivot = next(i for i, v in enumerate(mu) if v)
            t = weights[pivot] / mu[pivot]
        weights = [w - t * v for w, v in zip(weights, mu)]
        kept = [i for i, w in enumerate(weights) if w]
        dropped = tuple(nodes[i] for i, w in enumerate(weights) if not w)
        steps.append(ReduceStep(tuple(mu), t, dropped))
        nodes = [nodes[i] for i in kept]
        weights = [weights[i] for i in kept]
        values = [values[i] for i in kept]
        cols = [cols[i] for i in kept]
        if not nodes:
            raise AssertionError("reduction emptied the rule")
    out = Rule(nodes, weights)
    if not _verify_values(s, out.weights, values).passed:
        raise AssertionError("reduced rule failed verification")
    if mode == "positive" and any(w.sign() <= 0 for w in out.weights):
        raise AssertionError("positive-mode reduction lost positivity")
    return ReduceResult(out, tuple(steps), mode)


# ---------------------------------------------------------------------------
# document serialization


def subspace_to_doc(s: Subspace) -> dict:
    lo, hi = s.domain
    doc = {
        "domain": [str(lo), str(hi)],
        "functions": [fn_to_doc(n, f) for n, f in zip(s.names, s.funcs)],
    }
    if s.flags:
        doc["flags"] = list(s.flags)
    return doc


def subspace_from_doc(doc: dict) -> Subspace:
    names = []
    funcs = []
    for fd in _doc_list(doc, "functions"):
        n, f = fn_from_doc(fd)
        names.append(n)
        funcs.append(f)
    flags = _doc_list(doc, "flags", [])
    if not all(isinstance(flag, str) for flag in flags):
        raise ValueError("'flags' must be a list of strings")
    s = Subspace(tuple(names), tuple(funcs), tuple(flags))
    lo, hi = (_parse_frac(v) for v in _doc_list(doc, "domain"))
    if s.domain != (lo, hi):
        raise ValueError(
            f"declared domain [{lo}, {hi}] does not match the pieces {s.domain}"
        )
    return s


def rule_to_doc(rule: Rule) -> dict:
    return {
        "nodes": [str(x) for x in rule.nodes],
        "weights": [str(w) for w in rule.weights],
    }


def rule_from_doc(doc: dict) -> Rule:
    nodes = [_parse_frac(x) for x in _doc_list(doc, "nodes")]
    weights = [
        Radical.parse(w) if isinstance(w, str) else Radical(_parse_frac(w))
        for w in _doc_list(doc, "weights")
    ]
    return Rule(nodes, weights)


def verify_report_to_doc(s: Subspace, rule: Rule, report: VerifyReport) -> dict:
    return {
        "kind": "verify",
        "pass": report.passed,
        "names": list(s.names),
        "rule": rule_to_doc(rule),
        "pairs": [
            {
                "pair": [s.names[i], s.names[sx]],
                "residual": _val_doc(r),
            }
            for (i, sx), r in zip(report.pairs, report.residuals)
        ],
        "failing": [[s.names[i], s.names[sx]] for i, sx in report.failing],
    }


def _interval_doc(lo, hi):
    return [str(lo), str(hi)]


def min_certificate_to_doc(s: Subspace, cert: MinCertificate) -> dict:
    doc = {
        "kind": "min",
        "mode": cert.mode,
        "m_min": cert.m_min,
        "witness": rule_to_doc(cert.witness),
        "vector_groups": [
            {
                "index": gi,
                "regions": [_interval_doc(lo, hi) for lo, hi in grp.regions],
                "representative": str(grp.representative),
                "values": [_val_doc(v) for v in grp.values],
            }
            for gi, grp in enumerate(cert.groups)
        ],
        "exhaustion": [
            {
                "m": lvl.m,
                "count": lvl.count,
                "cases": [
                    {"groups": list(c.subset), "reason": c.reason} for c in lvl.cases
                ],
            }
            for lvl in cert.exhaustion
        ],
        "justification": cert.justification,
        "fallback_witness": rule_to_doc(cert.fallback),
    }
    if cert.flags:
        doc["flags"] = list(cert.flags)
    return doc


def lower_bound_to_doc(s: Subspace, cert: LowerBoundCertificate, refined=None) -> dict:
    doc = {
        "kind": "lowerbound",
        "bound": cert.bound,
        "witness": s.names[cert.witness_index],
        "targets": [s.names[t] for t in cert.target_indices],
        "clauses": [
            {
                "target": s.names[c.target],
                "count": c.count,
                "norm_sq": _val_doc(c.norm_sq),
                "inner_with_witness": _val_doc(c.inner),
                "witness_nonvanishing": c.nonvanishing,
                "support_hull": [_interval_doc(lo, hi) for lo, hi in c.support_hull],
            }
            for c in cert.clauses
        ],
        "regions": [_interval_doc(lo, hi) for lo, hi in cert.regions],
    }
    if cert.flags:
        doc["flags"] = list(cert.flags)
    if refined is not None:
        if isinstance(refined, ImprovedBound):
            doc["refinement"] = {
                "applicable": True,
                "pair": [s.names[refined.u1], s.names[refined.u2]],
                "square_constants": [_val_doc(c) for c in refined.constants],
                "forced_weight_sums": [_val_doc(v) for v in refined.sums],
            }
            doc["bound"] = refined.bound
        else:
            doc["refinement"] = {"applicable": False, "reason": refined.reason}
    return doc


def reduce_result_to_doc(rule_in: Rule, res: ReduceResult) -> dict:
    return {
        "kind": "reduce",
        "mode": res.mode,
        "input_rule": rule_to_doc(rule_in),
        "output_rule": rule_to_doc(res.rule),
        "steps": [
            {
                "null_vector": [_val_doc(v) for v in st.null_vector],
                "t": _val_doc(st.t),
                "dropped_nodes": [str(x) for x in st.dropped],
            }
            for st in res.steps
        ],
        "input_size": len(rule_in),
        "output_size": len(res.rule),
    }


def gram_to_doc(s: Subspace) -> dict:
    g, rank = gram(s)
    return {
        "kind": "gram",
        "names": list(s.names),
        "rank": rank,
        "matrix": [[_val_doc(v) for v in row] for row in g],
    }
