"""Exact discretization rules on piecewise subspaces.

Central identity: a rule (nodes xi_j, weights lambda_j) is exact for a
subspace -- integral of f^2 equals the weighted node sum of f^2 for every
f in the span -- iff the weighted sum of node moment vectors equals the
flattened Gram matrix.  (Polarization: exactness on squares of all basis
combinations is equivalent to exactness on all basis pair products; no
orthogonality is assumed.)  Everything here works over the exact Radical
scalar field: Gram matrices, rule verification, weight solving, strict
positivity via Fourier-Motzkin with multiplier tracking, minimal node
counts for piecewise-constant subspaces, structural lower bounds, and
Caratheodory support reduction.  The minimality and grid searches decide
each node subset through one engine, `_subset_outcomes`.  Elimination and
Fourier-Motzkin compute internally in the cheapest representation that
holds their inputs (see `exactnum._field_for`) and hand back Radicals.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import Radical, Rat, _as_radical, _field_for, float_str
from .piecewise import (
    DomainError,
    PiecewiseFn,
    constant_value_on,
    fn_from_doc,
    fn_to_doc,
    nonvanishing_on,
    pw_eval,
    pw_integrate,
    pw_mul,
    pw_support,
    supports_disjoint,
)


class PreconditionError(ValueError):
    """An operation's structural precondition does not hold."""


def _val_doc(x) -> dict:
    x = _as_radical(x)
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


class Rule:
    """Sample nodes with exact weights; duplicate nodes merge with a warning."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        nodes = [Fraction(x) for x in nodes]
        weights = [_as_radical(w) for w in weights]
        if len(nodes) != len(weights):
            raise ValueError("need one weight per node")
        if not nodes:
            raise ValueError("a rule needs at least one node")
        if len(set(nodes)) != len(nodes):
            warnings.warn("duplicate rule nodes merged (weights summed)", stacklevel=2)
            seen: dict[Fraction, int] = {}
            mnodes: list[Fraction] = []
            mweights: list[Radical] = []
            for x, w in zip(nodes, weights):
                if x in seen:
                    mweights[seen[x]] = mweights[seen[x]] + w
                else:
                    seen[x] = len(mnodes)
                    mnodes.append(x)
                    mweights.append(w)
            nodes, weights = mnodes, mweights
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "weights", tuple(weights))

    def __setattr__(self, *a):
        raise AttributeError("Rule is immutable")

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.nodes == other.nodes
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.nodes, self.weights))

    def __repr__(self):
        pairs = ", ".join(f"{x}:{w}" for x, w in zip(self.nodes, self.weights))
        return f"Rule({pairs})"


@dataclass(frozen=True)
class MomentVec:
    """Products f_i(x) f_s(x) over pairs i <= s, flattened canonically."""

    dim: int
    entries: tuple

    def entry(self, i: int, s: int) -> Radical:
        return self.entries[pair_index(i, s, self.dim)]


def pair_index(i: int, s: int, n: int) -> int:
    """Position of pair (i, s), i <= s, in lexicographic pair order."""
    if not 0 <= i <= s < n:
        raise IndexError(f"bad pair ({i}, {s}) for dimension {n}")
    return i * n - i * (i - 1) // 2 + (s - i)


def index_pairs(n: int):
    """All (i, s) with i <= s in the canonical order matching pair_index."""
    return [(i, s) for i in range(n) for s in range(i, n)]


# ---------------------------------------------------------------------------
# gram and moments


@lru_cache(maxsize=128)
def _gram_cached(s: Subspace):
    n = s.dimension
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = pw_integrate(pw_mul(s.funcs[i], s.funcs[j]))
            g[i][j] = g[j][i] = v
    _, rank = _solve_system(g, [Radical(0)] * n, range(n))  # g is symmetric
    return tuple(tuple(row) for row in g), rank


def gram(s: Subspace):
    """Exact Gram matrix of the basis plus its rank."""
    return _gram_cached(s)


def moment_vector(s: Subspace, x) -> MomentVec:
    """The vector (f_i(x) f_s(x)) over pairs i <= s."""
    x = Fraction(x)
    vals = [pw_eval(f, x) for f in s.funcs]
    return MomentVec(s.dimension, _moment_entries_from_values(vals))


def _moment_entries_from_values(vals) -> tuple:
    n = len(vals)
    return tuple(vals[i] * vals[j] for i, j in index_pairs(n))


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


def _moment_columns(s: Subspace, nodes) -> list:
    return [moment_vector(s, x).entries for x in _check_nodes(s, nodes)]


def verify_rule(s: Subspace, rule: Rule) -> VerifyReport:
    """Exact per-pair residuals of the moment identity; pass iff all zero."""
    return _verify_columns(s, rule.weights, _moment_columns(s, rule.nodes))


def _verify_columns(s: Subspace, weights, cols) -> VerifyReport:
    """verify_rule for nodes whose moment columns are already known."""
    pairs, _, rhs = _pair_system(s)
    residuals = []
    failing = []
    for k, (pair, target) in enumerate(zip(pairs, rhs)):
        acc = Radical(0)
        for w, col in zip(weights, cols):
            acc = acc + w * col[k]
        r = acc - target
        residuals.append(r)
        if r:
            failing.append(pair)
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


def _solve_system(columns, rhs, labels):
    """Exact incremental-RREF solve of sum_j x_j * columns[j] = rhs.

    Rows (labeled by basis pairs, already in canonical order) are absorbed
    one at a time, so on inconsistency the witness label identifies the
    exact prefix boundary: the system restricted to rows strictly before
    the witness is solvable, and adding the witness row makes it not.
    Rows after the witness are still reduced, so the returned rank is the
    column rank of the coefficient matrix whether or not the system is
    consistent.  Returns (result, rank) with result either
    (particular, null_basis) or an Infeasible carrying the witness label.

    The elimination runs in the representation `_field_for` picks from
    the entries: Fraction when every entry is rational, a two-Fraction
    Q(sqrt(d)) value when the irrational entries share one radicand d,
    and Radical when they involve several.  Results are wrapped as
    Radical once, at the end.
    """
    m = len(columns)
    lift, _sign, lower = _field_for(v for col in (*columns, rhs) for v in col)
    columns = [[lift(v) for v in col] for col in columns]
    rhs = [lift(v) for v in rhs]
    zero, one = lift(0), lift(1)
    witness = None
    pivot_rows = []  # (pivot_col, normalized fully-reduced row), sorted by col
    for r in range(len(rhs)):
        if witness is not None and len(pivot_rows) == m:
            break  # every column already has a pivot: the rank is final
        row = [columns[j][r] for j in range(m)] + [rhs[r]]
        for pc, prow in pivot_rows:
            if row[pc]:
                f = row[pc]
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        lead = next((c for c in range(m) if row[c]), None)
        if lead is None:
            if row[m] and witness is None:
                witness = labels[r]
            continue
        inv = one / row[lead]
        row = [v * inv if v else v for v in row]
        for i, (pc, prow) in enumerate(pivot_rows):
            if prow[lead]:
                f = prow[lead]
                pivot_rows[i] = (pc, [a - f * b if b else a for a, b in zip(prow, row)])
        pivot_rows.append((lead, row))
        pivot_rows.sort(key=lambda t: t[0])
    if witness is not None:
        return Infeasible(witness), len(pivot_rows)
    pivots = [pc for pc, _ in pivot_rows]
    particular = [zero] * m
    for pc, prow in pivot_rows:
        particular[pc] = prow[m]
    free = [c for c in range(m) if c not in pivots]
    null_basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for pc, prow in pivot_rows:
            v[pc] = -prow[fc]
        null_basis.append(tuple(map(lower, v)))
    return (tuple(map(lower, particular)), tuple(null_basis)), len(pivots)


def _pair_system(s: Subspace, pairs=None):
    """(labels, rows, rhs) of the moment system: the enforced basis pairs in
    canonical order (all of them when `pairs` is None), their positions in a
    moment vector, and the Gram entries the weighted node sums must match."""
    g, _ = gram(s)
    labels = index_pairs(s.dimension)
    if pairs is not None:
        wanted = {(min(i, sx), max(i, sx)) for i, sx in pairs}
        unknown = wanted - set(labels)
        if unknown:
            raise ValueError(f"pairs outside the basis: {sorted(unknown)}")
        labels = [p for p in labels if p in wanted]
    rows = [pair_index(i, sx, s.dimension) for i, sx in labels]
    return labels, rows, [g[i][sx] for i, sx in labels]


def solve_weights(s: Subspace, nodes, pairs=None):
    """Solve the exact moment system for weights at the given nodes.

    Returns a WeightSolution (particular + null basis: the full affine
    solution set) or Infeasible with a witnessing basis pair.  `pairs`
    restricts the enforced conditions to a subset of basis pairs.
    """
    nodes = _check_nodes(s, nodes)
    labels, rows, rhs = _pair_system(s, pairs)
    cols = []
    for x in nodes:
        entries = moment_vector(s, x).entries
        cols.append([entries[r] for r in rows])
    result, _rank = _solve_system(cols, rhs, labels)
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
    sign decisions.  Every working inequality carries its multiplier vector
    over the original inequalities, so an infeasible outcome returns a
    checkable combination: multipliers >= 0 with
    sum(mult_i * lambda_i(t)) identically equal to a constant <= 0.

    The elimination runs in the representation `_field_for` picks from
    the particular solution and the null basis (Fraction, a Q(sqrt(d))
    value, or Radical for several radicands, as in `_solve_system`); the
    returned weights, assignment, multipliers and constant are Radicals.
    """
    m = len(sol.particular)
    k = len(sol.null_basis)
    lift, sign, lower = _field_for(itertools.chain(sol.particular, *sol.null_basis))
    particular = [lift(v) for v in sol.particular]
    null_basis = [[lift(v) for v in nu] for nu in sol.null_basis]
    zero, one = lift(0), lift(1)
    # inequality i: particular[i] + sum_k t_k null_basis[k][i] > 0
    ineqs = []
    for i in range(m):
        coefs = tuple(null_basis[j][i] for j in range(k))
        mults = tuple(one if r == i else zero for r in range(m))
        ineqs.append((coefs, particular[i], mults))
    levels = []
    for var in range(k):
        levels.append(ineqs)
        lowers = [q for q in ineqs if sign(q[0][var]) > 0]
        uppers = [q for q in ineqs if sign(q[0][var]) < 0]
        keep = [q for q in ineqs if not q[0][var]]
        new = list(keep)
        for cl, kl, ml in lowers:
            for cu, ku, mu in uppers:
                a, b = cl[var], -cu[var]  # a > 0, b > 0
                coefs = tuple(b * x + a * y for x, y in zip(cl, cu))
                const = b * kl + a * ku
                mults = tuple(b * x + a * y for x, y in zip(ml, mu))
                new.append((coefs, const, mults))
        ineqs = new
    for _, const, mults in ineqs:
        if sign(const) <= 0:
            return NoPositive(tuple(map(lower, mults)), lower(const))
    # feasible: back-substitute a strictly interior parameter point
    ts = [zero] * k
    for var in range(k - 1, -1, -1):
        lb = ub = None
        for coefs, const, _ in levels[var]:
            c = coefs[var]
            if not c:
                continue
            rest = const
            for j in range(var + 1, k):
                rest = rest + coefs[j] * ts[j]
            bound = -rest / c
            if sign(c) > 0:
                lb = bound if lb is None or sign(bound - lb) > 0 else lb
            else:
                ub = bound if ub is None or sign(bound - ub) < 0 else ub
        if lb is not None and ub is not None:
            ts[var] = (lb + ub) / lift(2)
        elif lb is not None:
            ts[var] = lb + one
        elif ub is not None:
            ts[var] = ub - one
    weights = particular
    for j in range(k):
        weights = [w + ts[j] * v for w, v in zip(weights, null_basis[j])]
    if any(sign(w) <= 0 for w in weights):
        raise AssertionError("elimination produced a non-interior witness")
    return PositiveWitness(tuple(map(lower, weights)), tuple(map(lower, ts)))


# ---------------------------------------------------------------------------
# minimality for piecewise-constant subspaces


@dataclass(frozen=True)
class VectorGroup:
    """Constancy regions sharing one moment vector, plus a representative."""

    regions: tuple
    representative: Rat
    values: tuple
    moments: tuple


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
    order and region representatives at first-region midpoints.
    """
    for name, f in zip(s.names, s.funcs):
        for p in f.pieces:
            if p.value_if_constant() is None:
                raise PreconditionError(
                    f"basis function {name!r} is not piecewise constant; "
                    "the exhaustive minimality search only applies to "
                    "piecewise-constant subspaces (use the grid search instead)"
                )
    edges = sorted(set().union(*(f.breakpoints() for f in s.funcs)))
    regions = list(zip(edges, edges[1:]))
    by_vec: dict[tuple, dict] = {}
    for lo, hi in regions:
        mid = (lo + hi) / 2
        vals = tuple(pw_eval(f, mid) for f in s.funcs)
        ent = by_vec.setdefault(
            vals, {"regions": [], "rep": mid, "moments": _moment_entries_from_values(vals)}
        )
        ent["regions"].append((lo, hi))
    groups = tuple(
        VectorGroup(tuple(e["regions"]), e["rep"], vals, e["moments"])
        for vals, e in by_vec.items()
    )
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


def _subset_outcomes(column, nodes, rhs, labels, m: int, mode: str):
    """Decide each size-m subset of the nodes, in lexicographic order.

    `column(i)` is node i's column over the pair rows `labels`; it is called
    once per node, when the first subset reaches it.  Yields (subset of node
    indices, outcome): the subset's Rule (the particular solution, or in
    positive mode the interior witness) or the CaseLog reason it has none.
    """
    columns = {}
    for subset in itertools.combinations(range(len(nodes)), m):
        for i in subset:
            if i not in columns:
                columns[i] = column(i)
        result, rank = _solve_system([columns[i] for i in subset], rhs, labels)
        if isinstance(result, Infeasible):
            yield subset, "rank-deficient" if rank < m else "inconsistent"
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

    Only the subsets of distinct vectors are solved (`_subset_outcomes`),
    one elimination each; the first Rule found is verified and returned.
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
    labels, _, rhs = _pair_system(s)
    nodes = tuple(grp.representative for grp in groups)

    reasons = {}  # every subset of distinct groups refuted so far
    exhaustion = []
    for m in range(1, len(groups) + 1):
        outcomes = _subset_outcomes(lambda i: groups[i].moments, nodes, rhs, labels, m, mode)
        for subset, outcome in outcomes:
            if isinstance(outcome, str):
                reasons[subset] = outcome
                continue
            if not verify_rule(s, outcome).passed:
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
    Subsets are examined in lexicographic order (`_subset_outcomes`), and
    each candidate's column (its moment vector restricted to the enforced
    pairs) is computed once, when the first examined subset reaches it.
    """
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown mode {mode!r}")
    cand = _check_nodes(s, candidates)
    if not 1 <= m <= len(cand):
        raise ValueError(f"subset size {m} out of range for {len(cand)} candidates")
    labels, rows, rhs = _pair_system(s, pairs)

    def column(i):
        entries = moment_vector(s, cand[i]).entries
        return [entries[r] for r in rows]

    outcomes = itertools.islice(_subset_outcomes(column, cand, rhs, labels, m, mode), max_subsets)
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
    supports = {t: pw_support(s.funcs[t]) for t in target_indices}
    for a, b in itertools.combinations(target_indices, 2):
        if not supports_disjoint(supports[a], supports[b]):
            raise PreconditionError(
                f"supports of targets {s.names[a]!r} and {s.names[b]!r} "
                "are not provably disjoint"
            )
    g, _ = gram(s)
    clauses = []
    regions = []
    for t in target_indices:
        sup = supports[t]
        hull = sup.hull()
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
    output rule verifies exactly in both modes.
    """
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown mode {mode!r}")
    cols = _moment_columns(s, rule.nodes)
    if not _verify_columns(s, rule.weights, cols).passed:
        raise PreconditionError("input rule does not verify; nothing to reduce")
    weights = list(rule.weights)
    if mode == "positive" and any(w.sign() <= 0 for w in weights):
        raise PreconditionError("positive-mode reduction needs strictly positive weights")
    nodes = list(rule.nodes)
    steps = []
    row_pairs = index_pairs(s.dimension)
    while True:
        result, _rank = _solve_system(cols, [Radical(0)] * len(row_pairs), row_pairs)
        _, null_basis = result
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
        cols = [cols[i] for i in kept]
        if not nodes:
            raise AssertionError("reduction emptied the rule")
    out = Rule(nodes, weights)
    if not verify_rule(s, out).passed:
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
    for fd in doc["functions"]:
        n, f = fn_from_doc(fd)
        names.append(n)
        funcs.append(f)
    s = Subspace(tuple(names), tuple(funcs), tuple(doc.get("flags", ())))
    lo, hi = (Fraction(str(v)) for v in doc["domain"])
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
    nodes = [Fraction(str(x)) for x in doc["nodes"]]
    weights = [Radical.parse(str(w)) for w in doc["weights"]]
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
