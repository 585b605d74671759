"""Core solver tests: Gram data, rule verification, weight solving with
prefix witnesses, strict-positivity certificates, exhaustive minimality,
grid exploration, structural lower bounds, and support reduction."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

import oracles
import props
from exactdisc import cli
from exactdisc.corpus import (
    build_f1, build_f2, build_gap, build_X2, build_X8, Example1Params, golden_rules,
)
from exactdisc.discretize import (
    _MERGE_JUSTIFICATION,
    _subset_outcomes,
    CaseLog,
    Infeasible,
    LevelLog,
    MinCertificate,
    NoPositive,
    NotApplicable,
    PositiveWitness,
    PreconditionError,
    ReduceResult,
    ReduceStep,
    Rule,
    Subspace,
    WeightSolution,
    _solve_system,
    caratheodory_reduce,
    constancy_groups,
    decide_min,
    forced_region_contradiction,
    gram,
    index_pairs,
    measure_rule,
    min_certificate_to_doc,
    positive_feasible,
    reduce_result_to_doc,
    rule_to_doc,
    search_grid,
    solve_weights,
    subspace_to_doc,
    support_lower_bound,
    verify_rule,
)
from exactdisc.exactnum import Radical, rad_sqrt
from exactdisc.piecewise import (
    DomainError,
    Piece,
    PiecewiseFn,
    constant_fn,
    pw_eval,
    pw_scale_add,
    pw_support,
)

X2 = build_X2()
X8 = build_X8()
GOLDEN = golden_rules()
NEG_RULE = GOLDEN["ex1-negative"][1]
POS_RULE = GOLDEN["ex1-positive"][1]
NINE_RULE = GOLDEN["ex2-nine"][1]
MIDS = (Fraction(-1, 2), Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8))


# The paper's phenomenon on a piecewise-constant subspace: seven region
# vectors, an exact 5-node rule exists, but every one has a negative weight
# (the positive minimum is 6).
SIGN_GAP = build_gap()


def moment_column(values, labels):
    """The products values[i] * values[s] over the pairs (i, s) of `labels`,
    formed in Radical arithmetic."""
    return [values[i] * values[s] for i, s in labels]


def rational_columns(groups, subset):
    labels = index_pairs(len(groups[0].values))
    return [[v.as_fraction() for v in moment_column(groups[g].values, labels)] for g in subset]


def rational_rhs(s):
    g, _ = gram(s)
    return [g[i][sx].as_fraction() for i, sx in index_pairs(s.dimension)]


# ---------------------------------------------------------------------------
# Gram data


def test_gram_of_pair():
    g, rank = gram(X2)
    assert rank == 2
    assert g[0][0] == Radical(1)
    assert g[0][1] == g[1][0] == Radical(0)
    assert g[1][1] == Radical(Fraction(15, 2))


def test_gram_of_hierarchy():
    g, rank = gram(X8)
    assert rank == 8
    diag = [1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 2)] + [Fraction(1, 4)] * 4
    for i in range(8):
        assert g[i][i] == Radical(diag[i])
    cross = Radical(Fraction(-43, 240)) + Radical.single(6, Fraction(3, 40))
    for i in range(8):
        for s in range(i + 1, 8):
            assert g[i][s] == (cross if (i, s) == (0, 1) else Radical(0))


# ---------------------------------------------------------------------------
# subspaces and rules


def test_subspace_validation():
    with pytest.raises(ValueError, match="distinct"):
        Subspace(("f", "f"), (build_f1(), build_f1()))
    with pytest.raises(ValueError, match="different domains"):
        Subspace(("a", "b"), (constant_fn(0, 1, 1), build_f1()))
    with pytest.raises(ValueError, match="one name per"):
        Subspace(("a",), ())
    assert X2.index_of("f2") == 1
    with pytest.raises(KeyError):
        X2.index_of("f9")


def test_rule_validation_and_merging():
    with pytest.raises(ValueError, match="one weight per node"):
        Rule([0, 1], [1])
    with pytest.raises(ValueError, match="at least one node"):
        Rule([], [])
    with pytest.raises(ValueError, match="pairwise distinct"):
        Rule([Fraction(1, 8), Fraction(1, 8), Fraction(3, 8)], [1, 2, 5])
    with pytest.raises(ValueError, match="pairwise distinct"):
        Rule(["1/8", Fraction(2, 16)], [1, 1])  # equal once read as rationals
    r = Rule([Fraction(1, 8), Fraction(3, 8)], [3, 5])
    assert r.nodes == (Fraction(1, 8), Fraction(3, 8))
    assert r.weights == (Radical(3), Radical(5))
    assert len(r) == 2
    twin = Rule(["1/8", 0.375], [Radical(3), 5])
    assert r == twin and hash(r) == hash(twin)
    assert r != Rule([Fraction(1, 8), Fraction(3, 8)], [3, 4])
    with pytest.raises(AttributeError):
        r.nodes = (Fraction(0),)


# ---------------------------------------------------------------------------
# verification


def test_verify_golden_rules():
    assert verify_rule(X2, NEG_RULE).passed
    assert verify_rule(X2, POS_RULE).passed
    report = verify_rule(X2, NEG_RULE)
    assert report.pairs == ((0, 0), (0, 1), (1, 1))
    assert all(r == Radical(0) for r in report.residuals)
    assert report.failing == ()


def test_verify_catches_tampering():
    # bump the negative weight: only the (f2, f2) condition sees the node
    bad = Rule(NEG_RULE.nodes, [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)])
    report = verify_rule(X2, bad)
    assert not report.passed
    assert report.failing == ((1, 1),)
    assert report.residual(1, 1) == Radical(1)
    assert report.residual(0, 0) == Radical(0)


def test_verify_rejects_nodes_outside_domain():
    with pytest.raises(DomainError, match="outside domain"):
        verify_rule(X2, Rule([Fraction(3, 2)], [1]))


# ---------------------------------------------------------------------------
# weight solving


def test_solve_weights_unique():
    sol = solve_weights(X2, NEG_RULE.nodes)
    assert isinstance(sol, WeightSolution)
    assert sol.unique
    assert sol.particular == (Radical(Fraction(-3, 2)), Radical(Fraction(1, 2)), Radical(Fraction(1, 2)))


def assert_prefix_witness(s, nodes, expected_pair):
    """The witness marks the exact prefix boundary of solvability."""
    sol = solve_weights(s, nodes)
    assert isinstance(sol, Infeasible)
    assert sol.witness_pair == expected_pair
    allp = index_pairs(s.dimension)
    k = allp.index(expected_pair)
    if k:
        before = solve_weights(s, nodes, pairs=allp[:k])
        assert isinstance(before, WeightSolution)
    through = solve_weights(s, nodes, pairs=allp[: k + 1])
    assert isinstance(through, Infeasible)
    assert through.witness_pair == expected_pair


def test_solve_weights_infeasibility_witnesses():
    assert_prefix_witness(X2, [Fraction(1, 8)], (0, 1))
    assert_prefix_witness(X2, [Fraction(1, 8), Fraction(3, 8)], (1, 1))
    assert_prefix_witness(X8, NINE_RULE.nodes, (2, 2))


def test_solve_weights_underdetermined():
    nodes = [Fraction(-1, 2), Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)]
    sol = solve_weights(X2, nodes)
    assert isinstance(sol, WeightSolution) and not sol.unique
    assert sol.particular == (
        Radical(Fraction(-3, 2)), Radical(Fraction(1, 2)), Radical(Fraction(1, 2)), Radical(0),
    )
    assert len(sol.null_basis) == 1
    (nu,) = sol.null_basis
    # null direction is killed by every moment column
    cols = [moment_column([pw_eval(f, x) for f in X2.funcs], index_pairs(2)) for x in nodes]
    for k in range(3):
        acc = Radical(0)
        for v, col in zip(nu, cols):
            acc = acc + v * col[k]
        assert acc == Radical(0)
    assert verify_rule(X2, Rule(nodes, sol.particular)).passed
    shifted = [p + v for p, v in zip(sol.particular, nu)]
    assert verify_rule(X2, Rule(nodes, shifted)).passed


def test_solve_weights_with_pair_restriction():
    pairs = [p for p in index_pairs(8) if p != (0, 1)]
    sol = solve_weights(X8, NINE_RULE.nodes, pairs=pairs)
    assert isinstance(sol, WeightSolution)
    assert sol.unique
    assert sol.particular == (Radical(-4),) + (Radical(Fraction(1, 8)),) * 8
    with pytest.raises(ValueError, match="pairs outside the basis"):
        solve_weights(X2, [Fraction(1, 8)], pairs=[(0, 5)])


def test_solve_weights_rejects_bad_nodes():
    with pytest.raises(DomainError):
        solve_weights(X2, [Fraction(5, 4)])
    with pytest.raises(ValueError, match="pairwise distinct"):
        solve_weights(X2, [Fraction(1, 8), Fraction(1, 8)])


def random_rational_system(rng):
    """Small random system with zeros, sometimes a dependent column and
    sometimes a right-hand side built from the columns."""
    n_rows, m = rng.randint(1, 6), rng.randint(1, 4)

    def entry():
        return props.random_fraction(rng, 3, 2) if rng.random() < 0.7 else Fraction(0)

    cols = [[entry() for _ in range(n_rows)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        c = props.random_fraction(rng)
        cols[b] = [c * v for v in cols[a]]
    if rng.random() < 0.5:
        coefs = [props.random_fraction(rng) for _ in range(m)]
        rhs = [sum(c * col[r] for c, col in zip(coefs, cols)) for r in range(n_rows)]
    else:
        rhs = [entry() for _ in range(n_rows)]
    return cols, rhs


def solve_rows(cols, rhs, labels, k):
    """_solve_system on the first k rows only."""
    return _solve_system([col[:k] for col in cols], rhs[:k], labels[:k])


def test_solve_system_matches_sympy_on_random_rational_systems():
    rng = random.Random(7)
    statuses = Counter()
    for trial in range(60):
        cols, rhs = random_rational_system(rng)
        labels = [f"r{k}" for k in range(len(rhs))]
        if trial % 2:  # Radical entries, as the solvers pass them
            cols = [[Radical(v) for v in col] for col in cols]
            rhs = [Radical(v) for v in rhs]
        result, rank = _solve_system(cols, rhs, labels)
        fcols = [[Radical(v).as_fraction() for v in col] for col in cols]
        frhs = [Radical(v).as_fraction() for v in rhs]
        assert rank == oracles.column_rank(fcols)
        status, sol = oracles.solve_moment_system(fcols, frhs)
        statuses[status] += 1
        if status == "empty":
            # the rank is the full column rank, and the witness is the
            # first row whose prefix has no solution
            assert isinstance(result, Infeasible)
            k = labels.index(result.witness_pair)
            before, _ = solve_rows(cols, rhs, labels, k)
            assert not isinstance(before, Infeasible)
            through, through_rank = solve_rows(cols, rhs, labels, k + 1)
            assert isinstance(through, Infeasible)
            assert through.witness_pair == result.witness_pair
            assert through_rank == oracles.column_rank([col[: k + 1] for col in fcols])
            continue
        particular, null_basis = result
        assert all(isinstance(v, Radical) for v in particular)
        assert all(isinstance(v, Radical) for nu in null_basis for v in nu)
        free = sorted({f for e in sol for f in e.free_symbols}, key=lambda f: int(f.name[1:]))
        zero = {f: 0 for f in free}
        assert particular == tuple(Radical(Fraction(str(e.subs(zero)))) for e in sol)
        assert null_basis == tuple(
            tuple(Radical(Fraction(str(e.coeff(f)))) for e in sol) for f in free
        )
        assert len(null_basis) == len(cols) - rank
    assert statuses["empty"] and statuses["unique"] and statuses["affine"]


def random_sqrt_system(rng, d):
    """random_rational_system with entries a + b*sqrt(d): zeros, pure
    rationals, pure multiples of sqrt(d) and mixed values, sometimes a
    column that is a Q(sqrt(d)) multiple of another, and sometimes a
    right-hand side built from the columns."""
    r = rad_sqrt(d)

    def value(num=3, den=2):
        a, b = props.random_fraction(rng, num, den), props.random_fraction(rng, num, den)
        kind = rng.random()
        if kind < 0.3:
            return Radical(0)
        if kind < 0.45:
            return Radical(a)
        if kind < 0.6:
            return Radical(b) * r
        return Radical(a) + Radical(b) * r

    return random_system_of(rng, value)


def random_multi_sqrt_system(rng, ds):
    """random_sqrt_system over Q(sqrt(d) for d in ds): each entry is zero or
    a rational part plus a random subset of the square roots and of their
    pairwise products."""
    roots = [rad_sqrt(d) for d in ds]
    roots += [a * b for a, b in itertools.combinations(roots, 2)]

    def value(num=3, den=2):
        if rng.random() < 0.3:
            return Radical(0)
        v = Radical(props.random_fraction(rng, num, den))
        for r in rng.sample(roots, rng.randint(1, 3)):
            v = v + Radical(props.random_fraction(rng, num, den)) * r
        return v

    return random_system_of(rng, value)


def random_system_of(rng, value):
    """Columns and right-hand side drawn from ``value(num, den)``."""
    n_rows, m = rng.randint(1, 6), rng.randint(1, 4)
    cols = [[value() for _ in range(n_rows)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        c = value(9, 4) or Radical(1)
        cols[b] = [c * v for v in cols[a]]
    if rng.random() < 0.5:
        coefs = [value(9, 4) for _ in range(m)]
        rhs = [sum((c * col[k] for c, col in zip(coefs, cols)), Radical(0)) for k in range(n_rows)]
    else:
        rhs = [value() for _ in range(n_rows)]
    return cols, rhs


def to_sympy(x):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for r, c in x.terms),
               sympy.Integer(0))


def from_sympy(expr, d):
    a, b = oracles.sqrt_coefficients(expr, d)
    return Radical(Fraction(a.p, a.q)) + Radical(Fraction(b.p, b.q)) * rad_sqrt(d)


def test_solve_system_matches_sympy_on_random_q_sqrt_d_systems():
    rng = random.Random(11)
    statuses = Counter()
    for trial in range(60):
        d = (2, 3, 5, 6, 7)[trial % 5]
        cols, rhs = random_sqrt_system(rng, d)
        labels = [f"r{k}" for k in range(len(rhs))]
        result, rank = _solve_system(cols, rhs, labels)
        scols = [[to_sympy(v) for v in col] for col in cols]
        srhs = [to_sympy(v) for v in rhs]
        assert rank == oracles.column_rank_over_sqrt(scols, d)
        status, sol = oracles.solve_moment_system(scols, srhs)
        statuses[status] += 1
        if status == "empty":
            assert isinstance(result, Infeasible)
            k = labels.index(result.witness_pair)
            before, _ = solve_rows(cols, rhs, labels, k)
            assert not isinstance(before, Infeasible)
            through, through_rank = solve_rows(cols, rhs, labels, k + 1)
            assert isinstance(through, Infeasible)
            assert through.witness_pair == result.witness_pair
            assert through_rank == oracles.column_rank_over_sqrt(
                [col[: k + 1] for col in scols], d
            )
            continue
        particular, null_basis = result
        assert all(type(v) is Radical for v in particular)
        assert all(type(v) is Radical for nu in null_basis for v in nu)
        free = sorted({f for e in sol for f in e.free_symbols}, key=lambda f: int(f.name[1:]))
        zero = {f: 0 for f in free}
        assert particular == tuple(from_sympy(e.subs(zero), d) for e in sol)
        assert null_basis == tuple(
            tuple(from_sympy(sympy.expand(e).coeff(f), d) for e in sol) for f in free
        )
        assert len(null_basis) == len(cols) - rank
    assert statuses["empty"] and statuses["unique"] and statuses["affine"]


def test_solve_system_matches_sympy_on_random_multi_sqrt_systems():
    rng = random.Random(13)
    statuses = Counter()
    for trial in range(60):
        ds = ((2, 3), (2, 5, 7), (6, 10))[trial % 3]
        cols, rhs = random_multi_sqrt_system(rng, ds)
        m = len(cols)
        labels = [f"r{k}" for k in range(len(rhs))]
        result, rank = _solve_system(cols, rhs, labels)
        scols = [[to_sympy(v) for v in col] for col in cols]
        srhs = [to_sympy(v) for v in rhs]
        assert rank == oracles.column_rank_over_sqrt(scols, *ds)
        if oracles.column_rank_over_sqrt(scols + [srhs], *ds) > rank:
            statuses["empty"] += 1
            assert isinstance(result, Infeasible)
            k = labels.index(result.witness_pair)
            assert not isinstance(solve_rows(cols, rhs, labels, k)[0], Infeasible)
            assert isinstance(solve_rows(cols, rhs, labels, k + 1)[0], Infeasible)
            continue
        particular, null_basis = result
        statuses["unique" if rank == m else "affine"] += 1
        for r in range(len(rhs)):
            assert sum((x * col[r] for x, col in zip(particular, cols)), Radical(0)) == rhs[r]
            for nu in null_basis:
                assert sum((x * col[r] for x, col in zip(nu, cols)), Radical(0)) == Radical(0)
        # reduced row echelon form: free variables are 0 in the particular
        # solution and unit vectors across the null basis
        pivots = oracles.pivot_columns_over_sqrt(scols, *ds)
        free = [c for c in range(m) if c not in pivots]
        assert len(pivots) == rank and len(null_basis) == len(free)
        assert all(particular[c] == 0 for c in free)
        for i, nu in enumerate(null_basis):
            assert [nu[c] for c in free] == [Radical(int(i == j)) for j in range(len(free))]
    assert statuses["empty"] and statuses["unique"] and statuses["affine"]


def big_fraction(rng, zero=0.2):
    """Zero with probability ``zero``, else a signed rational whose
    numerator and denominator have 20 to 40 digits each."""
    if rng.random() < zero:
        return Fraction(0)

    def digits():
        n = rng.randint(20, 40)
        return rng.randrange(10 ** (n - 1), 10**n)

    return Fraction(rng.choice((-1, 1)) * digits(), digits())


def big_value(rng, d):
    """big_fraction, plus big_fraction * sqrt(d) unless d is None."""
    v = Radical(big_fraction(rng))
    return v if d is None else v + Radical.single(d, big_fraction(rng))


def as_pair(x, d):
    """(a, b) with x == a + b*sqrt(d), read off the terms."""
    terms = dict(x.terms)
    assert set(terms) <= {1, d}
    return terms.get(1, Fraction(0)), terms.get(d, Fraction(0))


def test_solve_system_matches_sympy_on_large_entries():
    rng = random.Random(29)
    statuses = Counter()
    for trial in range(24):
        d = (None, 5, 23)[trial % 3]
        n_rows = rng.randint(1, 8)
        m = rng.randint(1, 12) if trial % 2 else rng.randint(1, n_rows)
        cols = [[big_value(rng, d) for _ in range(n_rows)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            a, b = rng.sample(range(m), 2)
            c = big_value(rng, d) or Radical(1)
            cols[b] = [c * v for v in cols[a]]
        if rng.random() < 0.5:
            coefs = [big_value(rng, d) for _ in range(m)]
            rhs = [
                sum((c * col[r] for c, col in zip(coefs, cols)), Radical(0)) for r in range(n_rows)
            ]
        else:
            rhs = [big_value(rng, d) for _ in range(n_rows)]
        labels = [f"r{r}" for r in range(n_rows)]
        result, rank = _solve_system(cols, rhs, labels)
        rows = [[as_pair(col[r], d) for col in cols] + [as_pair(rhs[r], d)] for r in range(n_rows)]
        reduced, pivots = oracles.rref_of_pairs(rows, d)
        assert rank == len([pc for pc in pivots if pc < m])
        if m in pivots:
            statuses["empty"] += 1
            assert isinstance(result, Infeasible)
            # the witness is the first row whose prefix has no solution
            first = next(
                r for r in range(n_rows) if m in oracles.rref_of_pairs(rows[: r + 1], d)[1]
            )
            assert result.witness_pair == labels[first]
            continue
        particular, null_basis = result
        zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
        expected = [zero] * m
        for i, pc in enumerate(pivots):
            expected[pc] = reduced[i][m]
        assert [as_pair(x, d) for x in particular] == expected
        free = [c for c in range(m) if c not in pivots]
        assert len(null_basis) == len(free)
        for fc, nu in zip(free, null_basis):
            expected = [zero] * m
            expected[fc] = one
            for i, pc in enumerate(pivots):
                a, b = reduced[i][fc]
                expected[pc] = (-a, -b)
            assert [as_pair(x, d) for x in nu] == expected
        statuses["affine" if free else "unique"] += 1
    assert statuses["empty"] and statuses["unique"] and statuses["affine"], statuses


def test_solve_system_over_q_sqrt2():
    r2 = rad_sqrt(2)
    c0 = [Radical(1), r2, Radical(3)]
    c1 = [r2 * v for v in c0]
    c2 = [Radical(0), Radical(1), r2]
    cols = [c0, c1, c2]
    labels = ["r0", "r1", "r2"]
    rhs = [(Radical(1) + r2) * a + Radical(2) * b for a, b in zip(c0, c2)]
    (particular, null_basis), rank = _solve_system(cols, rhs, labels)
    assert rank == 2 and len(null_basis) == 1
    assert all(isinstance(v, Radical) for v in particular + null_basis[0])
    for r in range(3):
        assert sum((x * col[r] for x, col in zip(particular, cols)), Radical(0)) == rhs[r]
        assert sum((x * col[r] for x, col in zip(null_basis[0], cols)), Radical(0)) == Radical(0)
    # (1, 0, 0) agrees with c0 - sqrt(2) c2 on the first two rows only
    result, rank = _solve_system(cols, [Radical(1), Radical(0), Radical(0)], labels)
    assert isinstance(result, Infeasible) and result.witness_pair == "r2"
    assert rank == 2


#: radicands of the fields of the kernel's differential tests
KERNEL_FIELDS = {"rational": (), "sqrt5": (5,), "sqrt2-sqrt3-sqrt5": (2, 3, 5)}


def random_field_value(rng, ds, num=3, den=2):
    """Zero, or a rational plus rational multiples of up to three square
    roots of products of the radicands ds."""
    if rng.random() < 0.25:
        return Radical(0)
    products = (c for r in range(1, len(ds) + 1) for c in itertools.combinations(ds, r))
    roots = [rad_sqrt(math.prod(c)) for c in products]
    v = Radical(props.random_fraction(rng, num, den))
    for root in rng.sample(roots, rng.randint(0, min(3, len(roots)))):
        v = v + Radical(props.random_fraction(rng, num, den)) * root
    return v


def random_low_rank_system(rng, ds):
    """Columns spanning a random space of lower dimension than both their
    count and their length, and a right-hand side in that span, outside
    it, or in it but for one row."""
    n_rows, m = rng.randint(2, 6), rng.randint(2, 5)
    rank = rng.randint(0, min(n_rows, m) - 1)
    base = [[random_field_value(rng, ds) for _ in range(n_rows)] for _ in range(rank)]

    def combination():
        coefs = [random_field_value(rng, ds, 9, 4) for _ in base]
        return [sum((c * b[r] for c, b in zip(coefs, base)), Radical(0)) for r in range(n_rows)]

    cols = [combination() for _ in range(m)]
    kind = rng.choice(("in-span", "outside", "one-row"))
    if kind == "outside":
        rhs = [random_field_value(rng, ds) for _ in range(n_rows)]
    else:
        rhs = combination()
    if kind == "one-row":
        r = rng.randrange(n_rows)
        rhs[r] = rhs[r] + (random_field_value(rng, ds) or Radical(1))
    return cols, rhs


@pytest.mark.parametrize("field", sorted(KERNEL_FIELDS))
def test_solve_system_matches_sympy_rref_on_low_rank_systems(field):
    ds = KERNEL_FIELDS[field]
    rng = random.Random(f"low-rank:{field}")

    def element(x):
        return oracles.field_element(to_sympy(x), *ds)

    zero, one = element(Radical(0)), element(Radical(1))
    statuses = Counter()
    for _ in range(30):
        cols, rhs = random_low_rank_system(rng, ds)
        m, n_rows = len(cols), len(rhs)
        labels = [f"r{k}" for k in range(n_rows)]
        result, rank = _solve_system(cols, rhs, labels)
        augmented = [[to_sympy(v) for v in col] for col in cols + [rhs]]
        reduced, pivots = oracles.rref_over_sqrt(augmented, *ds)
        assert rank == len([pc for pc in pivots if pc < m]) < min(m, n_rows)
        if m in pivots:
            statuses["inconsistent"] += 1
            # the witness is the first row whose row prefix has no solution
            first = next(
                k for k in range(n_rows)
                if m in oracles.rref_over_sqrt([col[: k + 1] for col in augmented], *ds)[1]
            )
            assert isinstance(result, Infeasible) and result.witness_pair == labels[first]
            continue
        statuses["consistent"] += 1
        particular, null_basis = result
        expected = [zero] * m
        for i, pc in enumerate(pivots):
            expected[pc] = reduced[i][m]
        assert [element(x) for x in particular] == expected
        free = [c for c in range(m) if c not in pivots]
        assert len(null_basis) == len(free)
        for fc, nu in zip(free, null_basis):
            expected = [zero] * m
            expected[fc] = one
            for i, pc in enumerate(pivots):
                expected[pc] = -reduced[i][fc]
            assert [element(x) for x in nu] == expected
    assert statuses["inconsistent"] and statuses["consistent"], statuses


def reference_outcomes(values, nodes, rhs, labels, m, mode):
    """The stream of `_subset_outcomes` for one size, each subset solved
    from scratch: its moment columns formed as Radical products and handed
    to `_solve_system`."""
    for subset in itertools.combinations(range(len(nodes)), m):
        cols = [moment_column(values[i], labels) for i in subset]
        result, rank = _solve_system(cols, rhs, labels)
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


def assert_outcomes_match_reference(values, rhs, labels):
    nodes = tuple(Fraction(i, len(values)) for i in range(len(values)))
    kinds = Counter()
    for mode in ("signed", "positive"):
        sizes = range(1, len(values) + 1)
        want = [list(reference_outcomes(values, nodes, rhs, labels, m, mode)) for m in sizes]
        for m in sizes:
            got = _subset_outcomes(values, nodes, rhs, labels, (m,), mode)
            assert list(got) == want[m - 1]
        got = list(_subset_outcomes(values, nodes, rhs, labels, sizes, mode))
        assert got == [outcome for level in want for outcome in level]
        kinds.update(o if isinstance(o, str) else "rule" for _, o in got)
    return kinds


def test_subset_outcomes_lift_into_one_record(monkeypatch):
    from exactdisc import discretize

    r2, r3, r5 = rad_sqrt(2), rad_sqrt(3), rad_sqrt(5)
    q = [Radical(Fraction(v)) for v in (1, 2, -1, 3, "1/2", -2)]
    # nodes 0-2 rational; 3 brings sqrt(2), 4 sqrt(3), 6 sqrt(5); 5's
    # sqrt(6) is already in the field of sqrt(2) and sqrt(3), and 7 has the
    # moment column of 3
    values = [
        (q[0], q[1]), (q[2], q[0]), (q[3], q[4]),
        (r2, q[0] + r2), (q[1] * r3, q[5]), (r2 * r3, q[0]), (r5 - r2, q[4]), (-r2, -q[0] - r2),
    ]
    labels = index_pairs(2)
    # a rational right-hand side: positive weights on nodes 0-2
    rhs = [
        sum((Radical(w) * values[i][a] * values[i][b] for w, i in ((1, 0), (2, 1), (1, 2))), Radical(0))
        for a, b in labels
    ]
    records = []
    lift_columns = discretize._lift_columns

    def recorded(*args):
        rows, cols, target = lift_columns(*args)
        records.append([rows.rad[1 << i] for i in range(rows.k)])  # its coprime base
        return rows, cols, target

    monkeypatch.setattr(discretize, "_lift_columns", recorded)
    kinds = assert_outcomes_match_reference(values, rhs, labels)
    # one record per call of the engine, over every node's radicands, though
    # the first subsets reach only rational nodes
    assert records == [[2, 3, 5]] * (2 * (len(values) + 1))
    assert set(kinds) == {"rule", "rank-deficient", "inconsistent", "positivity-infeasible"}, kinds


@pytest.mark.parametrize("field", sorted(KERNEL_FIELDS))
def test_subset_outcomes_match_per_subset_reference(field):
    ds = KERNEL_FIELDS[field]
    rng = random.Random(f"outcomes:{field}")
    kinds = Counter()
    for dim in (1, 2, 3):
        values = [tuple(random_field_value(rng, ds) for _ in range(dim)) for _ in range(5)]
        # a multiple of a column makes rank-deficient subsets
        c = random_field_value(rng, ds) or Radical(2)
        values.insert(rng.randrange(1, 6), tuple(c * v for v in rng.choice(values)))
        pairs = index_pairs(dim)
        labels = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
        # positive weights on a few nodes, so that some subsets have rules
        support = rng.sample(range(len(values)), rng.randint(1, 3))
        rhs = [
            sum((Radical(rng.randint(1, 3)) * values[i][a] * values[i][b] for i in support), Radical(0))
            for a, b in labels
        ]
        kinds += assert_outcomes_match_reference(values, rhs, labels)
    assert set(kinds) == {"rule", "rank-deficient", "inconsistent", "positivity-infeasible"}, kinds


def test_gram_rank_of_dependent_basis():
    f1, f2 = build_f1(), build_f2(Example1Params())
    s = Subspace(("f1", "f2", "f1+f2"), (f1, f2, pw_scale_add(1, f1, 1, f2)))
    g, rank = gram(s)
    assert rank == 2
    assert g[2][2] == g[0][0] + Radical(2) * g[0][1] + g[1][1]


# ---------------------------------------------------------------------------
# strict positivity


def recheck_no_positive(sol, cert):
    """Replay the refutation: nonnegative multipliers, zero on the null
    space, summing the particular weights to a nonpositive constant."""
    assert all(m.sign() >= 0 for m in cert.multipliers)
    acc = Radical(0)
    for m, p in zip(cert.multipliers, sol.particular):
        acc = acc + m * p
    assert acc == cert.constant
    assert cert.constant.sign() <= 0
    for nu in sol.null_basis:
        combo = Radical(0)
        for m, v in zip(cert.multipliers, nu):
            combo = combo + m * v
        assert combo == Radical(0)


def test_positive_feasible_unique_negative():
    sol = solve_weights(X2, NEG_RULE.nodes)
    cert = positive_feasible(sol)
    assert isinstance(cert, NoPositive)
    assert cert.constant == Radical(Fraction(-3, 2))
    recheck_no_positive(sol, cert)


def test_positive_feasible_unique_positive():
    sol = solve_weights(X2, POS_RULE.nodes)
    wit = positive_feasible(sol)
    assert isinstance(wit, PositiveWitness)
    assert wit.assignment == ()
    assert wit.weights == sol.particular
    assert all(w.sign() > 0 for w in wit.weights)


def test_positive_feasible_underdetermined_interior_point():
    nodes = [Fraction(-1, 2), Fraction(1, 8), Fraction(3, 8), Fraction(7, 8)]
    sol = solve_weights(X2, nodes)
    assert not sol.unique
    wit = positive_feasible(sol)
    assert isinstance(wit, PositiveWitness)
    assert all(w.sign() > 0 for w in wit.weights)
    # assignment reconstructs the weights from the affine solution set
    rebuilt = list(sol.particular)
    for t, nu in zip(wit.assignment, sol.null_basis):
        rebuilt = [w + t * v for w, v in zip(rebuilt, nu)]
    assert tuple(rebuilt) == wit.weights
    assert verify_rule(X2, Rule(nodes, wit.weights)).passed


def test_positive_feasible_underdetermined_refutation():
    # two nodes share the moment vector (0, 0, 1); the pair conditions pin
    # the right-hand weights and force the left pair to sum to -3/2
    nodes = [Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(3, 8)]
    sol = solve_weights(X2, nodes)
    assert not sol.unique
    cert = positive_feasible(sol)
    assert isinstance(cert, NoPositive)
    recheck_no_positive(sol, cert)


def test_positive_feasible_trivial_subspace():
    s = Subspace(("f1",), (build_f1(),))
    sol = solve_weights(s, [Fraction(1, 2)])
    wit = positive_feasible(sol)
    assert isinstance(wit, PositiveWitness)
    assert wit.weights == (Radical(1),)


def reference_positive_feasible(sol):
    """Fourier-Motzkin with every operation in Radical arithmetic, as
    positive_feasible computed it before it picked a representation."""
    m = len(sol.particular)
    k = len(sol.null_basis)
    ineqs = []
    for i in range(m):
        coefs = tuple(sol.null_basis[j][i] for j in range(k))
        mults = tuple(Radical(1 if r == i else 0) for r in range(m))
        ineqs.append((coefs, sol.particular[i], mults))
    levels = []
    for var in range(k):
        levels.append(ineqs)
        lowers = [q for q in ineqs if q[0][var].sign() > 0]
        uppers = [q for q in ineqs if q[0][var].sign() < 0]
        keep = [q for q in ineqs if not q[0][var]]
        new = list(keep)
        for cl, kl, ml in lowers:
            for cu, ku, mu in uppers:
                a, b = cl[var], cu[var]
                coefs = tuple((-b) * x + a * y for x, y in zip(cl, cu))
                const = (-b) * kl + a * ku
                mults = tuple((-b) * x + a * y for x, y in zip(ml, mu))
                new.append((coefs, const, mults))
        ineqs = new
    for _, const, mults in ineqs:
        if const.sign() <= 0:
            return NoPositive(mults, const)
    ts = [Radical(0)] * k
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
            if c.sign() > 0:
                lb = bound if lb is None or bound > lb else lb
            else:
                ub = bound if ub is None or bound < ub else ub
        if lb is not None and ub is not None:
            ts[var] = (lb + ub) / Radical(2)
        elif lb is not None:
            ts[var] = lb + Radical(1)
        elif ub is not None:
            ts[var] = ub - Radical(1)
    weights = list(sol.particular)
    for j in range(k):
        weights = [w + ts[j] * v for w, v in zip(weights, sol.null_basis[j])]
    assert all(w.sign() > 0 for w in weights)
    return PositiveWitness(tuple(weights), tuple(ts))


FIELDS = {"rational": (), "sqrt": (2,), "two-radicand": (2, 3), "shared-factor": (6, 10)}


def random_weight_solution(rng, field, k):
    """A WeightSolution with m <= 5 weights and a k-dimensional null space
    whose entries lie in Q, Q(sqrt(d)), Q(sqrt(2), sqrt(3)) or Q(sqrt(6), sqrt(10))."""
    radicands = FIELDS[field]
    if field == "sqrt":
        radicands = (rng.choice((2, 3, 5, 6, 7)),)

    def value():
        x = Radical(props.random_fraction(rng, 5, 3)) if rng.random() < 0.75 else Radical(0)
        for d in radicands:
            if rng.random() < 0.5:
                x = x + Radical.single(d, props.random_fraction(rng, 5, 3))
        return x

    m = rng.randint(max(k, 1), 5)
    nodes = tuple(Fraction(i, m) for i in range(m))
    null_basis = tuple(tuple(value() for _ in range(m)) for _ in range(k))
    return WeightSolution(nodes, tuple(value() for _ in range(m)), null_basis)


def rendered(result):
    """The result as the strings a document would print."""
    if isinstance(result, PositiveWitness):
        return ("witness", [str(w) for w in result.weights], [str(t) for t in result.assignment])
    return ("refuted", [str(v) for v in result.multipliers], str(result.constant))


def test_positive_feasible_matches_radical_reference():
    rng = random.Random(3)
    outcomes = Counter()
    for field in FIELDS:
        for trial in range(40):
            k = trial % 4
            sol = random_weight_solution(rng, field, k)
            got = positive_feasible(sol)
            assert rendered(got) == rendered(reference_positive_feasible(sol)), sol
            runs = [got]
            entries = list(itertools.chain(sol.particular, *sol.null_basis))
            if all(v.is_rational for v in entries):
                # the public entry point also takes the entries as Fractions
                fracs = WeightSolution(
                    sol.nodes,
                    tuple(v.as_fraction() for v in sol.particular),
                    tuple(tuple(v.as_fraction() for v in nu) for nu in sol.null_basis),
                )
                runs.append(positive_feasible(fracs))
                assert rendered(runs[1]) == rendered(got), sol
            for res in runs:
                if isinstance(res, PositiveWitness):
                    assert all(type(v) is Radical for v in res.weights + res.assignment)
                else:
                    assert all(type(v) is Radical for v in res.multipliers + (res.constant,))
                    recheck_no_positive(sol, res)
            outcomes[field, k, type(got).__name__] += 1
    for field in FIELDS:
        for kind in ("PositiveWitness", "NoPositive"):
            assert sum(outcomes[field, k, kind] for k in range(4)) >= 5, (field, kind)
        assert all(outcomes[field, k, "PositiveWitness"] for k in range(1, 4)), field


def test_positive_feasible_matches_radical_reference_on_large_entries():
    # solution sets shaped as elimination returns them: k = 4 free weights,
    # 0 in the particular solution and unit vectors across the null basis
    rng = random.Random(31)
    outcomes = Counter()
    for trial in range(24):
        d = (None, 5, 23)[trial % 3]
        k, m = 4, rng.randint(5, 8)
        free = sorted(rng.sample(range(m), k))
        particular = [Radical(0) if i in free else big_value(rng, d) for i in range(m)]
        null_basis = [
            [Radical(int(i == fc)) if i in free else big_value(rng, d) for i in range(m)]
            for fc in free
        ]
        if trial % 2:
            # weight q is minus the sum of the others, minus a positive
            # constant: a refutation that needs every weight
            q = rng.choice([i for i in range(m) if i not in free])
            others = [i for i in range(m) if i != q]
            for nu in null_basis:
                nu[q] = -sum((nu[i] for i in others), Radical(0))
            particular[q] = -sum((particular[i] for i in others), Radical(abs(big_fraction(rng, 0))))
        particular, null_basis = tuple(particular), tuple(map(tuple, null_basis))
        sol = WeightSolution(tuple(Fraction(i, m) for i in range(m)), particular, null_basis)
        got = positive_feasible(sol)
        assert rendered(got) == rendered(reference_positive_feasible(sol)), sol
        if isinstance(got, NoPositive):
            recheck_no_positive(sol, got)
        outcomes[d, type(got).__name__] += 1
    for d in (None, 5, 23):
        assert outcomes[d, "PositiveWitness"] and outcomes[d, "NoPositive"], outcomes


def test_positive_feasible_agrees_with_linear_programs():
    """On rational draws, the witness's assignment is the point a linear
    program's back-substitution picks, and the verdict is that of the LP's
    maximal slack (sympy's simplex, written independently of both).  Draw
    73 is a refuted system on which sympy's own `lpmax` reports slack 1."""
    rng = random.Random(5)
    witnesses = Counter()
    refuted = Counter()
    for trial in range(120):
        k = trial % 3 + 1
        sol = random_weight_solution(rng, "rational", k)
        got = positive_feasible(sol)
        particular = [v.as_fraction() for v in sol.particular]
        null_basis = [[v.as_fraction() for v in nu] for nu in sol.null_basis]
        slack, _ = oracles.lp_max_slack(particular, null_basis)
        if isinstance(got, NoPositive):
            assert slack <= 0, sol
            refuted[k] += 1
            continue
        assert slack > 0, sol
        if witnesses[k] < 8:
            want = oracles.lp_back_substitution(particular, null_basis)
            assert [t.as_fraction() for t in got.assignment] == [Fraction(t.p, t.q) for t in want], sol
            witnesses[k] += 1
    assert all(witnesses[k] >= 8 and refuted[k] for k in (1, 2, 3)), (witnesses, refuted)


# ---------------------------------------------------------------------------
# minimal node counts


def test_decide_min_signed():
    cert = decide_min(X2)
    assert cert.mode == "signed" and cert.m_min == 3
    assert cert.witness == NEG_RULE
    assert verify_rule(X2, cert.witness).passed
    assert [(lvl.m, lvl.count) for lvl in cert.exhaustion] == [(1, 5), (2, 15)]
    assert len(cert.groups) == 5
    assert verify_rule(X2, cert.fallback).passed
    assert cert.justification  # merge argument travels with the certificate


def test_decide_min_positive():
    cert = decide_min(X2, "positive")
    assert cert.m_min == 3
    assert cert.witness == Rule(
        [Fraction(-1, 2), Fraction(1, 8), Fraction(7, 8)],
        [Fraction(3, 2), Fraction(2, 5), Fraction(3, 5)],
    )
    assert all(w.sign() > 0 for w in cert.witness.weights)
    assert [(lvl.m, lvl.count) for lvl in cert.exhaustion] == [(1, 5), (2, 15)]


def test_decide_min_exhaustion_reasons_recheck():
    rhs = rational_rhs(X2)
    for cert in (decide_min(X2), decide_min(X2, "positive")):
        reasons = {}
        for lvl in cert.exhaustion:
            assert len(lvl.cases) == lvl.count
            for case in lvl.cases:
                reasons.setdefault((lvl.m, case.reason), 0)
                reasons[(lvl.m, case.reason)] += 1
                cols = rational_columns(cert.groups, case.subset)
                assert oracles.check_case_reason(cols, rhs, case.reason), case
        # level 1: every single vector misses; level 2: the five repeated
        # vectors are rank-deficient, the ten genuine pairs inconsistent
        assert reasons == {
            (1, "inconsistent"): 5,
            (2, "rank-deficient"): 5,
            (2, "inconsistent"): 10,
        }


def test_decide_min_trivial_subspace():
    s = Subspace(("f1",), (build_f1(),))
    for mode in ("signed", "positive"):
        cert = decide_min(s, mode)
        assert cert.m_min == 1
        assert cert.exhaustion == ()
        assert verify_rule(s, cert.witness).passed


def test_decide_min_rejects_non_constant_basis():
    with pytest.raises(PreconditionError, match="not piecewise constant"):
        decide_min(X8)
    with pytest.raises(ValueError, match="unknown mode"):
        decide_min(X2, "best")


def test_decide_min_agrees_with_brute_enumeration():
    import random

    from exactdisc.discretize import subspace_to_doc

    rng = random.Random(21)
    for _ in range(8):
        s = props.random_pwc_subspace(rng)
        doc = subspace_to_doc(s)
        for mode in ("signed", "positive"):
            assert decide_min(s, mode).m_min == oracles.brute_min(doc, mode), doc


def test_decide_min_solves_nothing_after_the_witness(monkeypatch):
    from exactdisc import discretize

    events = []
    outcomes, push = discretize._subset_outcomes, discretize._push
    feasible = discretize.positive_feasible

    def counted_outcomes(*args):
        for subset, outcome in outcomes(*args):
            events.append("decide")
            yield subset, outcome

    def counted_push(*args):
        events.append("push")
        return push(*args)

    def counted_feasible(sol):
        events.append("positive")
        return feasible(sol)

    monkeypatch.setattr(discretize, "_subset_outcomes", counted_outcomes)
    monkeypatch.setattr(discretize, "_push", counted_push)
    monkeypatch.setattr(discretize, "positive_feasible", counted_feasible)
    rng = random.Random(5)
    subspaces = [X2, SIGN_GAP] + [props.random_pwc_subspace(rng, 3, 8) for _ in range(6)]
    stopped_early = 0
    for s in subspaces:
        gram(s)  # warm the Gram cache, so every elimination step below is a subset's
        groups, _ = constancy_groups(s)
        index = {g.representative: i for i, g in enumerate(groups)}
        for mode in ("signed", "positive"):
            events.clear()
            cert = decide_min(s, mode)
            witness = tuple(index[x] for x in cert.witness.nodes)
            level = list(itertools.combinations(range(len(groups)), cert.m_min))
            earlier = sum(math.comb(len(groups), m) for m in range(1, cert.m_min))
            assert events.count("decide") == earlier + level.index(witness) + 1
            # the witness's decision is the last work: no elimination step
            # after its own, and in positive mode one positivity check
            last_push = len(events) - 1 - events[::-1].index("push")
            tail = ["push", "positive", "decide"] if mode == "positive" else ["push", "decide"]
            assert events[last_push:] == tail
            stopped_early += level.index(witness) < len(level) - 1
    assert stopped_early >= 4


@pytest.mark.parametrize("mode", ["signed", "positive"])
def test_decide_min_evaluates_each_region_once(monkeypatch, mode):
    from exactdisc import discretize

    calls = []
    evaluate = discretize.pw_eval

    def counted_eval(f, x):
        calls.append(x)
        return evaluate(f, x)

    monkeypatch.setattr(discretize, "pw_eval", counted_eval)
    rng = random.Random(11)
    subspaces = [X2, SIGN_GAP] + [props.random_pwc_subspace(rng, 3, 8) for _ in range(2)]
    for s in subspaces:
        gram(s)  # warm the Gram cache
        decide_min(s, mode)
        measure_rule(s)
    # region values are read from the pieces, and the witness is checked
    # on them
    assert calls == []


def midpoint_groups(s):
    """constancy_groups' (groups, regions) as plain tuples, each region's
    values read by evaluating every basis function at its midpoint."""
    edges = sorted(set().union(*(f.breakpoints() for f in s.funcs)))
    regions = list(zip(edges, edges[1:]))
    by_vec = {}
    for lo, hi in regions:
        mid = (lo + hi) / 2
        vals = tuple(pw_eval(f, mid) for f in s.funcs)
        by_vec.setdefault(vals, (mid, []))[1].append((lo, hi))
    groups = [(tuple(regs), rep, vals) for vals, (rep, regs) in by_vec.items()]
    return groups, regions


def random_sqrt_pwc_subspace(rng, dim, max_regions):
    """Piecewise-constant functions a + b*sqrt(d) on [-1, 1], d drawn per
    function, each from two rational step functions with their own edges, so
    the functions' breakpoints differ."""
    pool = [Fraction(k, 8) for k in range(-7, 8)]

    def steps():
        inner = sorted(rng.sample(pool, rng.randint(0, max_regions - 1)))
        edges = [Fraction(-1)] + inner + [Fraction(1)]
        return PiecewiseFn([Piece.from_poly(lo, hi, [props.random_fraction(rng, 2, 2)])
                            for lo, hi in zip(edges, edges[1:])])

    funcs = tuple(pw_scale_add(1, steps(), rad_sqrt(rng.choice((2, 3, 6, 8))), steps())
                  for _ in range(dim))
    return Subspace(tuple(f"f{i + 1}" for i in range(dim)), funcs)


def test_constancy_groups_match_midpoint_evaluation():
    rng = random.Random(29)
    subspaces = [X2, SIGN_GAP]
    subspaces += [props.random_pwc_subspace(rng, 4, 8) for _ in range(20)]
    subspaces += [random_sqrt_pwc_subspace(rng, rng.randint(1, 4), 5) for _ in range(20)]
    irrational = 0
    for s in subspaces:
        groups, regions = constancy_groups(s)
        want_groups, want_regions = midpoint_groups(s)
        assert regions == want_regions
        assert [(g.regions, g.representative, g.values) for g in groups] == want_groups
        assert [[str(v) for v in g.values] for g in groups] == [
            [str(v) for v in vals] for _, _, vals in want_groups
        ]
        irrational += any(not v.is_rational for g in groups for v in g.values)
    assert irrational >= 10  # the draws do reach Q(sqrt d)
    # the precondition names the first non-constant function in basis order
    s = Subspace(("c", "h1", "h2"), (constant_fn(*X8.domain, 2), X8.funcs[1], X8.funcs[2]))
    assert all(any(p.value_if_constant() is None for p in f.pieces) for f in s.funcs[1:])
    with pytest.raises(PreconditionError, match="basis function 'h1' is not piecewise constant"):
        constancy_groups(s)


def test_sign_gap_subspace_needs_a_negative_weight_at_the_minimum():
    doc = subspace_to_doc(SIGN_GAP)
    signed, positive = decide_min(SIGN_GAP), decide_min(SIGN_GAP, "positive")
    assert len(signed.groups) == 7
    assert (signed.m_min, positive.m_min) == (5, 6)
    assert signed.m_min == oracles.brute_min(doc, "signed")
    assert positive.m_min == oracles.brute_min(doc, "positive")
    assert any(w.sign() < 0 for w in signed.witness.weights)
    level5 = positive.exhaustion[-1]
    assert (level5.m, level5.count) == (5, 462)
    assert Counter(c.reason for c in level5.cases) == {
        "inconsistent": 20,
        "rank-deficient": 441,
        "positivity-infeasible": 1,
    }
    (refuted,) = [c for c in level5.cases if c.reason == "positivity-infeasible"]
    assert refuted.subset == (0, 1, 2, 4, 5)
    # the signed log is the positive log up to size 4; recheck the latter
    assert signed.exhaustion == positive.exhaustion[:4]
    rhs = rational_rhs(SIGN_GAP)
    for lvl in positive.exhaustion:
        for case in lvl.cases:
            cols = rational_columns(positive.groups, case.subset)
            assert oracles.check_case_reason(cols, rhs, case.reason), case


#: sha256 of the stdout of `min <SIGN_GAP> --mode M --format json`, recorded
#: while every subset was solved from scratch
SIGN_GAP_MIN_PINS = {
    "signed": "4175d344e5d2cf7962e0cb9d8937224cc3d7f19d415f59ba24ef7793640851b7",
    "positive": "ce95220188d3753a4cdb280826c05e9b197f1e17084ba374867775ac1eccd05b",
}


@pytest.mark.parametrize("mode", sorted(SIGN_GAP_MIN_PINS))
def test_sign_gap_min_output_bytes_are_pinned(tmp_path, capsys, mode):
    sub = tmp_path / "gap.subspace.json"
    sub.write_text(json.dumps(subspace_to_doc(SIGN_GAP)))
    assert cli.main(["min", str(sub), "--mode", mode, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["m_min"] == {"signed": 5, "positive": 6}[mode]
    assert hashlib.sha256(out.encode()).hexdigest() == SIGN_GAP_MIN_PINS[mode]


def reference_rank(columns):
    """Column rank of rational columns by plain Gaussian elimination."""
    rows = [[v.as_fraction() for v in col] for col in columns]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_min_doc(s, mode):
    """The minimality search without the support-set memo: every multiset
    is solved on its own, and an infeasible one is labelled by a rank
    computed apart from the solve."""
    groups, _ = constancy_groups(s)
    g, _ = gram(s)
    row_pairs = index_pairs(s.dimension)
    rhs = [g[i][sx] for i, sx in row_pairs]
    exhaustion = []
    for m in range(1, len(groups) + 1):
        cases = []
        for subset in itertools.combinations_with_replacement(range(len(groups)), m):
            cols = [moment_column(groups[i].values, row_pairs) for i in subset]
            result, _ = _solve_system(cols, rhs, row_pairs)
            if isinstance(result, Infeasible):
                reason = "rank-deficient" if reference_rank(cols) < m else "inconsistent"
                cases.append(CaseLog(subset, reason))
                continue
            sol = WeightSolution(tuple(groups[i].representative for i in subset), *result)
            weights = sol.particular
            if mode == "positive":
                pf = positive_feasible(sol)
                if isinstance(pf, NoPositive):
                    cases.append(CaseLog(subset, "positivity-infeasible"))
                    continue
                weights = pf.weights
            cert = MinCertificate(
                mode, m, Rule(sol.nodes, weights), groups, tuple(exhaustion),
                _MERGE_JUSTIFICATION, measure_rule(s),
            )
            return json.dumps(min_certificate_to_doc(s, cert))
        exhaustion.append(LevelLog(m, len(cases), tuple(cases)))
    raise AssertionError("no feasible multiset")


def test_decide_min_matches_per_multiset_reference():
    # seed 362 draws a subspace with signed minimum 4 and positive minimum
    # 6, so its size-5 log repeats groups of positivity-infeasible subsets
    rng = random.Random(2026)
    subspaces = [SIGN_GAP, props.random_pwc_subspace(random.Random(362), 3, 8)]
    subspaces += [props.random_pwc_subspace(rng) for _ in range(10)]
    repeated_positivity = 0
    for s in subspaces:
        for mode in ("signed", "positive"):
            cert = decide_min(s, mode)
            doc = json.dumps(min_certificate_to_doc(s, cert))
            assert doc == reference_min_doc(s, mode), subspace_to_doc(s)
            repeated_positivity += sum(
                len(set(c.subset)) < len(c.subset)
                for lvl in cert.exhaustion
                for c in lvl.cases
                if c.reason == "positivity-infeasible"
            )
    assert repeated_positivity == 4


def test_measure_rule_is_exact_and_positive():
    r = measure_rule(X2)
    assert r.nodes == MIDS
    assert r.weights == (Radical(1),) + (Radical(Fraction(1, 4)),) * 4
    assert verify_rule(X2, r).passed


def test_minimum_is_sandwiched_by_the_known_rule():
    # exhaustion gives the lower bound, the verified golden rule the upper
    assert decide_min(X2).m_min == len(NEG_RULE)


# ---------------------------------------------------------------------------
# grid exploration


def test_search_grid_small_sizes_find_nothing():
    assert search_grid(X2, MIDS, 1) == []
    assert search_grid(X2, MIDS, 2) == []


def test_search_grid_finds_all_three_node_rules():
    signed = search_grid(X2, MIDS, 3)
    positive = search_grid(X2, MIDS, 3, "positive")
    assert len(signed) == 10 and len(positive) == 5
    for r in signed:
        assert verify_rule(X2, r).passed
    for r in positive:
        assert all(w.sign() > 0 for w in r.weights)
    assert NEG_RULE in signed and NEG_RULE not in positive
    assert POS_RULE in positive
    assert Rule(
        [Fraction(-1, 2), Fraction(5, 8), Fraction(7, 8)],
        [Fraction(7, 2), Fraction(1, 2), Fraction(1, 2)],
    ) in positive


def test_search_grid_max_subsets_cap():
    # lexicographically the third subset is the first positive-feasible one
    capped = search_grid(X2, MIDS, 3, "positive", max_subsets=3)
    assert capped == [
        Rule(
            [Fraction(-1, 2), Fraction(1, 8), Fraction(7, 8)],
            [Fraction(3, 2), Fraction(2, 5), Fraction(3, 5)],
        )
    ]
    assert search_grid(X2, MIDS, 3, "positive", max_subsets=2) == []


@pytest.mark.parametrize("cap", [0, -1])
def test_search_grid_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match=rf"^max_subsets must be positive, got {cap}$"):
        search_grid(X2, MIDS, 3, "positive", max_subsets=cap)


def test_search_grid_evaluates_each_candidate_once(monkeypatch):
    from exactdisc import discretize

    calls = []
    evaluate = discretize.pw_eval

    def counted_eval(f, x):
        calls.append(x)
        return evaluate(f, x)

    monkeypatch.setattr(discretize, "pw_eval", counted_eval)
    grid = MIDS + (Fraction(-3, 4), Fraction(1, 4), Fraction(3, 4))
    pairs = [p for p in index_pairs(8) if p != (0, 1)]
    cases = [
        (X2, grid, 3, None, None),
        (X2, grid, 4, 5, None),  # the cap stops before the last candidates
        (X2, grid, 5, 1, [(0, 0), (1, 1)]),
        (SIGN_GAP, grid, 6, 20, None),
        (X2, grid, 7, 20, None),  # a cap past all 8 subsets: m - 1 + cap > len(grid)
        (X8, NINE_RULE.nodes, 9, None, pairs),
    ]
    for s, cands, m, cap, rows in cases:
        gram(s)
        for mode in ("signed", "positive"):
            calls.clear()
            search_grid(s, cands, m, mode, max_subsets=cap, pairs=rows)
            examined = itertools.islice(itertools.combinations(range(len(cands)), m), cap)
            reached = set().union(*examined)
            assert len(calls) == s.dimension * len(reached)
            assert len(set(calls)) == len(reached)


def reference_grid_doc(s, candidates, m, mode, max_subsets=None, pairs=None):
    """search_grid through the public solver: solve_weights and, in
    positive mode, positive_feasible on each subset in lexicographic order."""
    rules = []
    for nodes in itertools.islice(itertools.combinations(candidates, m), max_subsets):
        sol = solve_weights(s, nodes, pairs)
        if isinstance(sol, Infeasible):
            continue
        if mode == "signed":
            rules.append(Rule(sol.nodes, sol.particular))
            continue
        pf = positive_feasible(sol)
        if isinstance(pf, PositiveWitness):
            rules.append(Rule(sol.nodes, pf.weights))
    return json.dumps([rule_to_doc(r) for r in rules])


def random_quarter_subspace(rng, dim, radicands):
    """Piecewise-constant subspace on the eight quarter-cells of [-1, 1];
    each value is a small rational (sometimes 0) times sqrt(d), d drawn
    from `radicands` (1 for a rational value)."""
    edges = [Fraction(k, 4) for k in range(-4, 5)]

    def piece(lo, hi):
        c = Fraction(rng.choice((-2, -1, 0, 1, 1, 2, 3)), rng.choice((1, 2)))
        d = rng.choice(radicands)
        if d == 1:
            return Piece.from_poly(lo, hi, [c])
        return Piece.from_poly_sqrt(lo, hi, [c], 0, d)

    funcs = tuple(
        PiecewiseFn([piece(lo, hi) for lo, hi in zip(edges, edges[1:])]) for _ in range(dim)
    )
    return Subspace(tuple(f"f{i + 1}" for i in range(dim)), funcs)


def test_search_grid_matches_public_solver_reference():
    rng = random.Random(88)
    # the quarter-cell midpoints, a second point in the cell of 1/8, and a cell edge
    cands = tuple(Fraction(2 * k + 1, 8) for k in range(-4, 4)) + (Fraction(1, 16), Fraction(-3, 4))
    found = Counter()
    for field, radicands in (("rational", (1,)), ("sqrt5", (1, 5)), ("sqrt2-sqrt3", (1, 2, 3))):
        for dim in (2, 3):
            s = random_quarter_subspace(rng, dim, radicands)
            n_pairs = dim * (dim + 1) // 2
            skipped = rng.choice(index_pairs(dim))
            restricted = [p for p in index_pairs(dim) if p != skipped]
            for m, cap, pairs in (
                (n_pairs, None if dim == 2 else 20, None),  # all 120 subsets of size 3
                (n_pairs + 1, 12, restricted),
                (n_pairs + 2, 8, None),
            ):
                for mode in ("signed", "positive"):
                    got = search_grid(s, cands, m, mode, max_subsets=cap, pairs=pairs)
                    want = reference_grid_doc(s, cands, m, mode, cap, pairs)
                    assert json.dumps([rule_to_doc(r) for r in got]) == want, (
                        field, dim, m, cap, pairs, mode, subspace_to_doc(s))
                    found[field, mode] += len(got)
    # every field and mode finds rules, so the comparison covers the weights
    assert len(found) == 6 and all(found.values()), found


def field_subspaces(seed):
    """One quarter-cell subspace of dimension 3 per field of FIELDS."""
    rng = random.Random(seed)
    return {field: random_quarter_subspace(rng, 3, (1,) + ds) for field, ds in FIELDS.items()}


def test_solve_weights_matches_radical_product_reference():
    # solve_weights forms its columns on the integer rows of the lifted basis
    # values; the reference forms the products as Radicals and hands them to
    # _solve_system, which lifts them as they are
    rng = random.Random(14)
    cands = tuple(Fraction(2 * k + 1, 8) for k in range(-4, 4))
    kinds = Counter()
    for field, s in field_subspaces(14).items():
        g, _ = gram(s)
        for pairs in (None, rng.sample(index_pairs(3), 4)):
            labels = index_pairs(3) if pairs is None else sorted(pairs)
            rhs = [g[i][sx] for i, sx in labels]
            for m in (3, 6, 8):  # all eight midpoints carry the measure rule
                nodes = tuple(rng.sample(cands, m))
                cols = [moment_column([pw_eval(f, x) for f in s.funcs], labels) for x in nodes]
                result, _ = _solve_system(cols, rhs, labels)
                want = result if isinstance(result, Infeasible) else WeightSolution(nodes, *result)
                got = solve_weights(s, nodes, pairs)
                assert got == want, (field, nodes, pairs)
                kind = "infeasible" if isinstance(got, Infeasible) else "unique" if got.unique else "free"
                kinds[field, kind] += 1
    assert all(kinds[f, k] for f in FIELDS for k in ("infeasible", "unique", "free")), kinds


def test_search_grid_recovers_nine_node_rule_under_restriction():
    pairs = [p for p in index_pairs(8) if p != (0, 1)]
    found = search_grid(X8, NINE_RULE.nodes, 9, "signed", pairs=pairs)
    assert found == [NINE_RULE]
    assert search_grid(X8, NINE_RULE.nodes, 9, "positive", pairs=pairs) == []
    # with the full pair list nothing survives
    assert search_grid(X8, NINE_RULE.nodes, 9, "signed") == []


def test_search_grid_argument_validation():
    with pytest.raises(ValueError, match="out of range"):
        search_grid(X2, MIDS, 0)
    with pytest.raises(ValueError, match="out of range"):
        search_grid(X2, MIDS, 6)
    with pytest.raises(DomainError):
        search_grid(X2, [Fraction(3, 2)], 1)
    with pytest.raises(ValueError, match="pairwise distinct"):
        search_grid(X2, [Fraction(1, 8), Fraction(1, 8)], 1)


# ---------------------------------------------------------------------------
# structural lower bounds


def test_support_lower_bound_counts_eight():
    cert = support_lower_bound(X8, 0, (4, 5, 6, 7))
    assert cert.bound == 8
    assert cert.regions == (
        (Fraction(9, 64), Fraction(11, 64)),
        (Fraction(13, 64), Fraction(15, 64)),
        (Fraction(41, 64), Fraction(43, 64)),
        (Fraction(45, 64), Fraction(47, 64)),
    )
    for clause in cert.clauses:
        assert clause.count == 2
        assert clause.norm_sq == Radical(Fraction(1, 4))
        assert clause.inner == Radical(0)
        assert clause.nonvanishing


def test_support_lower_bound_single_target():
    cert = support_lower_bound(X8, 0, (2,))
    assert cert.bound == 2
    # numeric spot check of the clause premise via the independent
    # evaluator: the witness stays near 1 on the whole forced hull, so a
    # single node xi there cannot satisfy both lambda*h0(xi)*h2(xi) = 0
    # and lambda*h2(xi)^2 = ||h2||^2 != 0
    from exactdisc.discretize import subspace_to_doc

    doc = subspace_to_doc(X8)
    ev0 = oracles.fn_evaluator(doc["functions"][0])
    (lo, hi) = cert.clauses[0].support_hull[0]
    for k in range(11):
        x = float(lo) + k * (float(hi) - float(lo)) / 10
        assert abs(float(ev0(x))) > 0.9


def test_support_lower_bound_without_orthogonality_premise():
    cert = support_lower_bound(X2, 0, (1,))
    assert cert.bound == 1
    (clause,) = cert.clauses
    assert clause.count == 1
    assert not clause.nonvanishing  # the indicator dies on [-1, 0)


def test_support_lower_bound_rejects_overlapping_targets():
    with pytest.raises(PreconditionError, match="not provably disjoint"):
        support_lower_bound(X8, 0, (2, 4))


def test_forced_region_contradiction_upgrades_to_nine():
    base = support_lower_bound(X8, 0, (4, 5, 6, 7))
    improved = forced_region_contradiction(X8, base, 0, 1)
    assert improved.bound == 9
    assert improved.constants == (Radical(1), Radical(1))
    assert improved.sums == (Radical(1), Radical(Fraction(3, 4)))


def test_forced_region_contradiction_refusals():
    base = support_lower_bound(X8, 0, (4, 5, 6, 7))
    same = forced_region_contradiction(X8, base, 0, 0)
    assert isinstance(same, NotApplicable) and "same weight sum" in same.reason

    not_const = forced_region_contradiction(X8, base, 2, 1)
    assert isinstance(not_const, NotApplicable)
    assert "not exactly constant" in not_const.reason

    base2 = support_lower_bound(X2, 0, (1,))
    res2 = forced_region_contradiction(X2, base2, 0, 1)
    assert isinstance(res2, NotApplicable) and "not exactly constant" in res2.reason

    zero = constant_fn(-1, 1, 0)
    s3 = Subspace(("z", "f1", "f2"), (zero, build_f1(), build_f2(Example1Params())))
    cert3 = support_lower_bound(s3, 1, (2,))
    assert cert3.bound == 1
    res3 = forced_region_contradiction(s3, cert3, 0, 1)
    assert isinstance(res3, NotApplicable) and "not strictly positive" in res3.reason

    s0 = Subspace(("z", "f1"), (zero, build_f1()))
    empty = support_lower_bound(s0, 1, (0,))
    assert empty.bound == 0 and empty.regions == ()
    res0 = forced_region_contradiction(s0, empty, 0, 1)
    assert isinstance(res0, NotApplicable) and "forces no nodes" in res0.reason


def test_zero_norm_target_contributes_nothing():
    zero = constant_fn(-1, 1, 0)
    s = Subspace(("z", "f1"), (zero, build_f1()))
    cert = support_lower_bound(s, 1, (0,))
    (clause,) = cert.clauses
    assert clause.count == 0 and clause.norm_sq == Radical(0)


# ---------------------------------------------------------------------------
# support reduction


def test_caratheodory_reduce_positive():
    res = caratheodory_reduce(X2, measure_rule(X2), "positive")
    assert res.rule == Rule(
        [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)],
        [Fraction(1, 4), Fraction(9, 20), Fraction(3, 10)],
    )
    assert len(res.steps) == 2
    assert verify_rule(X2, res.rule).passed
    assert all(w.sign() > 0 for w in res.rule.weights)
    dropped = [x for step in res.steps for x in step.dropped]
    assert set(dropped) | set(res.rule.nodes) == set(MIDS)


def test_caratheodory_reduce_signed():
    res = caratheodory_reduce(X2, measure_rule(X2), "signed")
    assert len(res.rule) <= 3  # at most pair-count many nodes survive
    assert verify_rule(X2, res.rule).passed


def test_caratheodory_reduce_fixpoint():
    res = caratheodory_reduce(X2, NEG_RULE)
    assert res.rule == NEG_RULE and res.steps == ()


def reference_reduce(s, rule, mode):
    """caratheodory_reduce as a loop over _solve_system: the columns of the
    surviving nodes formed as Radical products and solved afresh each step."""
    labels = index_pairs(s.dimension)
    nodes, weights, steps = list(rule.nodes), list(rule.weights), []
    while True:
        cols = [moment_column([pw_eval(f, x) for f in s.funcs], labels) for x in nodes]
        (_, null_basis), _ = _solve_system(cols, [Radical(0)] * len(labels), labels)
        if not null_basis:
            return ReduceResult(Rule(nodes, weights), tuple(steps), mode)
        mu = list(null_basis[0])
        if mode == "positive":
            if not any(v.sign() > 0 for v in mu):
                mu = [-v for v in mu]
            t = min(w / v for w, v in zip(weights, mu) if v.sign() > 0)
        else:
            t = next(w / v for w, v in zip(weights, mu) if v)
        weights = [w - t * v for w, v in zip(weights, mu)]
        steps.append(ReduceStep(tuple(mu), t, tuple(x for x, w in zip(nodes, weights) if not w)))
        nodes = [x for x, w in zip(nodes, weights) if w]
        weights = [w for w in weights if w]


def test_caratheodory_reduce_matches_solve_system_reference():
    for field, s in field_subspaces(15).items():
        rule = measure_rule(s)
        for mode in ("signed", "positive"):
            got = caratheodory_reduce(s, rule, mode)
            assert got == reference_reduce(s, rule, mode), (field, mode)
            assert got.steps, (field, mode)


@pytest.mark.parametrize("mode", ["signed", "positive"])
def test_caratheodory_reduce_evaluates_each_node_once(monkeypatch, mode):
    from exactdisc import discretize

    rule = measure_rule(X2)
    gram(X2)
    calls = []
    evaluate = discretize.pw_eval

    def counted_eval(f, x):
        calls.append(x)
        return evaluate(f, x)

    monkeypatch.setattr(discretize, "pw_eval", counted_eval)
    caratheodory_reduce(X2, rule, mode)
    # input columns once; the closing check reuses the surviving columns
    assert len(calls) == X2.dimension * len(rule)


def test_output_rechecks_still_fire(monkeypatch):
    from exactdisc import discretize

    rule = measure_rule(X2)

    def doubled(nodes, weights):
        return Rule(nodes, [2 * w for w in weights])

    # every Rule built inside discretize now has doubled weights, so the
    # checks on the held columns must refuse the outputs
    monkeypatch.setattr(discretize, "Rule", doubled)
    with pytest.raises(AssertionError, match="minimality witness failed verification"):
        decide_min(X2)
    with pytest.raises(AssertionError, match="reduced rule failed verification"):
        caratheodory_reduce(X2, rule)


def test_caratheodory_reduce_preconditions():
    with pytest.raises(PreconditionError, match="does not verify"):
        caratheodory_reduce(X2, Rule([Fraction(1, 2)], [1]))
    with pytest.raises(PreconditionError, match="strictly positive"):
        caratheodory_reduce(X2, NEG_RULE, "positive")
    with pytest.raises(ValueError, match="unknown mode"):
        caratheodory_reduce(X2, NEG_RULE, "fewest")


# ---------------------------------------------------------------------------
# the defect identity ties everything together


def test_polarization_defect_identity():
    # verified rule: zero defect on every random combination
    assert props.run_polarization(X2, NEG_RULE, 20) == 0
    assert props.run_polarization(X2, POS_RULE, 20) == 0
    # the nine-node rule misses exactly one pair condition, and the defect
    # identity pins every nonzero defect to that residual
    assert props.run_polarization(X8, NINE_RULE, 5) == 5


# ---------------------------------------------------------------------------
# basis change: m_min, grid rules and reductions belong to the subspace


def random_invertible(rng, n):
    """A random invertible n x n matrix of rationals a/b, |a| <= 3, b <= 3."""
    while True:
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(a).det():
            return a


def basis_answers(s):
    """The documents of `min` in both modes without the groups' values, of
    positive `reduce` on the measure rule, and the positive `grid` rules on
    the region midpoints at m = min(regions, pairs)."""
    out = {}
    for mode in ("signed", "positive"):
        doc = min_certificate_to_doc(s, decide_min(s, mode))
        for grp in doc["vector_groups"]:
            del grp["values"]
        out["min-" + mode] = doc
    rule = measure_rule(s)
    out["reduce"] = reduce_result_to_doc(rule, caratheodory_reduce(s, rule, "positive"))
    m = min(len(rule), len(index_pairs(s.dimension)))
    out["grid"] = [rule_to_doc(r) for r in search_grid(s, rule.nodes, m, "positive")]
    return out


def test_answers_are_invariant_under_a_change_of_basis():
    # the moment system of A*f is (A (x) A) times that of f, so the rank
    # profile of the node columns, hence every solution, null vector and
    # refutation, is that of f; only the group values move
    rng = random.Random(31)
    mismatches = []
    for _ in range(40):
        s = props.random_pwc_subspace(rng, max_dim=4, max_regions=9)
        a = random_invertible(rng, s.dimension)
        t = Subspace(s.names, tuple(props.combine(s, row) for row in a))
        want, got = basis_answers(s), basis_answers(t)
        mismatches += [(subspace_to_doc(s), a, key) for key in want if got[key] != want[key]]
    assert not mismatches, mismatches[:3]
