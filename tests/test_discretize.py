"""Core solver tests: Gram data, rule verification, weight solving with
prefix witnesses, strict-positivity certificates, exhaustive minimality,
grid exploration, structural lower bounds, and support reduction."""

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
from exactdisc.corpus import build_f1, build_f2, build_X2, build_X8, Example1Params, golden_rules
from exactdisc.discretize import (
    _MERGE_JUSTIFICATION,
    CaseLog,
    Infeasible,
    LevelLog,
    MinCertificate,
    NoPositive,
    NotApplicable,
    PositiveWitness,
    PreconditionError,
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
    moment_vector,
    pair_index,
    positive_feasible,
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


def pwc_subspace(edges, rows):
    """Piecewise-constant subspace on the given region edges, one row of
    region values per basis function."""
    regions = list(zip(edges, edges[1:]))
    funcs = tuple(
        PiecewiseFn([Piece.from_poly(Fraction(lo), Fraction(hi), [Fraction(v)])
                     for (lo, hi), v in zip(regions, row)])
        for row in rows
    )
    return Subspace(tuple(f"f{i + 1}" for i in range(len(rows))), funcs)


# The paper's phenomenon on a piecewise-constant subspace: seven region
# vectors, an exact 5-node rule exists, but every one has a negative weight
# (the positive minimum is 6).
SIGN_GAP = pwc_subspace(
    ("-1", "-1/2", "-3/8", "-1/4", "-1/8", "0", "3/8", "1"),
    (
        (2, -2, 0, -2, 0, 1, -1),
        (-1, 1, 2, -2, 2, -1, 1),
        (2, 1, 1, 1, -2, -1, -1),
    ),
)


def rational_columns(groups, subset):
    return [[v.as_fraction() for v in groups[g].moments] for g in subset]


def rational_rhs(s):
    g, _ = gram(s)
    return [g[i][sx].as_fraction() for i, sx in index_pairs(s.dimension)]


# ---------------------------------------------------------------------------
# pair indexing and Gram data


def test_pair_index_is_a_bijection():
    for n in range(1, 9):
        pairs = index_pairs(n)
        assert len(pairs) == n * (n + 1) // 2
        assert [pair_index(i, s, n) for i, s in pairs] == list(range(len(pairs)))
    with pytest.raises(IndexError):
        pair_index(1, 0, 2)
    with pytest.raises(IndexError):
        pair_index(0, 2, 2)


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


def test_moment_vector_entries():
    mv = moment_vector(X2, Fraction(1, 8))
    assert mv.entries == (Radical(1), Radical(3), Radical(9))
    assert mv.entry(0, 1) == Radical(3)
    assert mv.entry(1, 1) == Radical(9)


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
    with pytest.warns(UserWarning, match="duplicate rule nodes merged"):
        r = Rule([Fraction(1, 8), Fraction(1, 8), Fraction(3, 8)], [1, 2, 5])
    assert r.nodes == (Fraction(1, 8), Fraction(3, 8))
    assert r.weights == (Radical(3), Radical(5))
    assert len(r) == 2
    assert r == Rule([Fraction(1, 8), Fraction(3, 8)], [3, 5])


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
    cols = [moment_vector(X2, x).entries for x in nodes]
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
    for trial in range(40):
        ds = ((2, 3), (2, 5, 7))[trial % 2]
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


FIELDS = {"rational": (), "sqrt": (2,), "two-radicand": (2, 3)}


def random_weight_solution(rng, field, k):
    """A WeightSolution with m <= 5 weights and a k-dimensional null space
    whose entries lie in Q, Q(sqrt(d)) or Q(sqrt(2), sqrt(3))."""
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
            if isinstance(got, PositiveWitness):
                assert all(type(v) is Radical for v in got.weights + got.assignment)
            else:
                assert all(type(v) is Radical for v in got.multipliers + (got.constant,))
                recheck_no_positive(sol, got)
            outcomes[field, k, type(got).__name__] += 1
    for field in FIELDS:
        for kind in ("PositiveWitness", "NoPositive"):
            assert sum(outcomes[field, k, kind] for k in range(4)) >= 5, (field, kind)
        assert all(outcomes[field, k, "PositiveWitness"] for k in range(1, 4)), field


# ---------------------------------------------------------------------------
# minimal node counts


def test_decide_min_signed():
    cert = decide_min(X2)
    assert cert.mode == "signed" and cert.m_min == 3
    assert cert.witness == NEG_RULE
    assert verify_rule(X2, cert.witness).passed
    assert [(lvl.m, lvl.count) for lvl in cert.exhaustion] == [(1, 5), (2, 15)]
    assert len(cert.groups) == 5
    assert cert.flags == ()
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
    solve, feasible = discretize._solve_system, discretize.positive_feasible

    def counted_solve(columns, rhs, labels):
        events.append("solve")
        return solve(columns, rhs, labels)

    def counted_feasible(sol):
        events.append("positive")
        return feasible(sol)

    monkeypatch.setattr(discretize, "_solve_system", counted_solve)
    monkeypatch.setattr(discretize, "positive_feasible", counted_feasible)
    rng = random.Random(5)
    subspaces = [X2, SIGN_GAP] + [props.random_pwc_subspace(rng, 3, 8) for _ in range(6)]
    stopped_early = 0
    for s in subspaces:
        gram(s)  # warm the Gram cache, so every solve below is a subset's
        groups, _ = constancy_groups(s)
        index = {g.representative: i for i, g in enumerate(groups)}
        for mode in ("signed", "positive"):
            events.clear()
            cert = decide_min(s, mode)
            witness = tuple(index[x] for x in cert.witness.nodes)
            level = list(itertools.combinations(range(len(groups)), cert.m_min))
            earlier = sum(math.comb(len(groups), m) for m in range(1, cert.m_min))
            assert events.count("solve") == earlier + level.index(witness) + 1
            assert events[-1] == ("positive" if mode == "positive" else "solve")
            stopped_early += level.index(witness) < len(level) - 1
    assert stopped_early >= 4


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
            cols = [groups[i].moments for i in subset]
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
                _MERGE_JUSTIFICATION, measure_rule(s), s.flags,
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
    res = caratheodory_reduce(X2, rule, mode)
    # input columns once, then the closing recheck of the output rule
    assert len(calls) == X2.dimension * (len(rule) + len(res.rule))


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
