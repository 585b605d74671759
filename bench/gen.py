"""Seeded input generators for the three benchmark workloads.

Every workload is a pool of jobs; a job is one subspace's worth of
`exactdisc` commands.  `make_pool(workload, seed, workdir)` is a pure
function of its arguments: the same seed gives byte-identical input
documents.  Each job also carries the generator's own facts about its
inputs (`spec`), which `check.py` uses to re-check outputs without
trusting the program.

The documents are built with the package's public constructors and
serializers, so input generation is program work and shows in `setup_s`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from exactdisc import Piece, PiecewiseFn, Radical, Rule, Subspace, corpus
from exactdisc import pw_scale_add, rule_to_doc, subspace_to_doc

WORKLOADS = ("min_sweep", "grid_positive", "audit_radical")

#: Jobs per pool: more distinct subspaces than the 128-entry `gram` LRU
#: cache holds, so a job never finds an earlier job's Gram matrix there,
#: and more jobs than a run takes, so no job runs twice in a run.
POOL_SIZES = {"min_sweep": 200, "grid_positive": 400, "audit_radical": 200}

#: Pools are made of blocks: each block holds every shape of its workload
#: once, in seeded order, and runs stop at block boundaries, so every seed
#: runs the same mix of job shapes.

#: (dimension, regions, distinct region vectors) for one block of
#: `min_sweep` jobs.  Cost grows with the number of distinct vectors, so
#: most jobs are tiny and the four with 5 vectors in dimension 3-4
#: dominate, as in real use.  Five cost tiers (3 tiny, 4 small, 6 middle,
#: 3 upper, 4 dominant) put the median in the middle of the middle tier
#: and the 90th percentile inside the dominant one, not between two tiers.
MIN_SHAPES = (
    (1, 2, 2), (1, 5, 3), (1, 8, 5),
    (2, 3, 3), (2, 4, 4), (3, 3, 3), (4, 3, 3),
    (2, 5, 5), (2, 6, 5), (2, 7, 5), (2, 6, 6), (2, 7, 6), (2, 8, 6),
    (3, 6, 4), (3, 8, 4), (4, 6, 4),
    (3, 6, 5), (3, 7, 5), (3, 8, 5), (4, 8, 5),
)

#: (dimension, regions, radical) for one block of `grid_positive` jobs.
#: Every region has its own moment vector, so the pair rows have full rank
#: and m = pairs + k leaves a null space of dimension k.  In radical jobs
#: a third of the values are rational multiples of one sqrt(d), so weights,
#: null bases and positivity decisions live in Q(sqrt(d)) with mixed signs.
GRID_SHAPES = (
    (2, 3, False), (2, 5, True), (2, 8, False), (2, 6, True),
    (3, 6, False), (3, 7, True), (3, 8, False), (3, 8, True),
)
GRID_RADICANDS = (2, 3, 5, 6, 7)

#: `audit_radical` blocks: one rule that verifies and one that fails.
AUDIT_SHAPES = (True, False)

BLOCKS = {"min_sweep": MIN_SHAPES, "grid_positive": GRID_SHAPES,
          "audit_radical": AUDIT_SHAPES}

#: The fixed candidate grid: the sixteen midpoints (2k+1)/16 of the
#: eighth-cells that region edges (multiples of 1/8) cut [-1, 1] into.
GRID_CANDIDATES = tuple(Fraction(2 * k + 1, 16) for k in range(-8, 8))
GRID_EXTRA = (1, 2, 3, 4)  # m = pairs + k
GRID_MAX_SUBSETS = 4

#: Random combinations per `audit_radical` job for the polarization check.
POLAR_COMBOS = 3

#: <h0, h1> of the ex2 hierarchy as {radicand: coefficient}; h0 and h1 are
#: shared by every audit variant.
H01 = {1: Fraction(-43, 240), 6: Fraction(3, 40)}

_EDGE_POOL = tuple(Fraction(k, 8) for k in range(-7, 8))
_SQUAREFREE = tuple(
    n for n in range(2, 200) if all(n % (p * p) for p in range(2, 15))
)


@dataclass
class Job:
    index: int
    docs: dict  # file name -> JSON document, written during set-up
    commands: list  # (argv, expected exit code) in execution order
    spec: dict  # the generator's facts about the inputs, for check.py


def make_pool(workload: str, seed: int, workdir: str) -> list:
    """The job pool of one workload for one seed; paths point into workdir."""
    makers = {
        "min_sweep": _min_job,
        "grid_positive": _grid_job,
        "audit_radical": _audit_job,
    }
    if workload not in makers:
        raise KeyError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    seen = set()
    order: list = []
    while len(jobs) < POOL_SIZES[workload]:
        if not order:
            order = list(BLOCKS[workload])
            rng.shuffle(order)
        job = makers[workload](rng, len(jobs), order[-1], workdir)
        key = repr([job.docs[name] for name in sorted(job.docs)])
        if key in seen:  # keep the subspaces distinct (see POOL_SIZES)
            continue
        seen.add(key)
        order.pop()
        jobs.append(job)
    return jobs


def write_docs(jobs, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        for name, doc in job.docs.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# piecewise-constant subspaces (min_sweep, grid_positive)


def _rand_value(rng, d: int):
    """(a, b) standing for a + b*sqrt(d); one of the two is zero."""
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if d > 1 and rng.random() < 1 / 3:
        return (Fraction(0), c)
    return (c, Fraction(0))


def _pwc_regions(rng, dim: int, n_regions: int, n_vectors: int, d: int = 1):
    """Regions [(lo, hi, values)] with exactly n_vectors distinct nonzero
    value vectors, every basis function nonzero somewhere.  Values are
    (a, b) pairs for a + b*sqrt(d)."""
    inner = sorted(rng.sample(_EDGE_POOL, n_regions - 1))
    edges = [Fraction(-1)] + inner + [Fraction(1)]
    nonzero = lambda v: v != (0, 0)  # noqa: E731
    while True:
        vecs: list = []
        while len(vecs) < n_vectors:
            v = tuple(_rand_value(rng, d) for _ in range(dim))
            if any(map(nonzero, v)) and v not in vecs:
                vecs.append(v)
        if all(any(nonzero(v[i]) for v in vecs) for i in range(dim)):
            break
    assign = vecs + [rng.choice(vecs) for _ in range(n_regions - n_vectors)]
    rng.shuffle(assign)
    return [(lo, hi, v) for (lo, hi), v in zip(zip(edges, edges[1:]), assign)]


def _pwc_piece(lo, hi, value, d: int) -> Piece:
    a, b = value
    if b:
        return Piece.from_poly_sqrt(lo, hi, [b], 0, d)
    return Piece.from_poly(lo, hi, [a])


def _pwc_subspace_doc(regions, dim: int, d: int = 1) -> dict:
    funcs = tuple(
        PiecewiseFn([_pwc_piece(lo, hi, v[i], d) for lo, hi, v in regions])
        for i in range(dim)
    )
    return subspace_to_doc(Subspace(tuple(f"f{i + 1}" for i in range(dim)), funcs))


def _min_job(rng, index, shape, workdir) -> Job:
    dim, n_regions, n_vectors = shape
    regions = _pwc_regions(rng, dim, n_regions, n_vectors)
    sub = f"m{index:03d}.subspace.json"
    measure = f"m{index:03d}.measure.rule.json"
    measure_rule = Rule(
        [(lo + hi) / 2 for lo, hi, _ in regions], [hi - lo for lo, hi, _ in regions]
    )
    sp = os.path.join(workdir, sub)
    commands = [
        (["min", sp, "--mode", mode, "--jobs", "1", "--format", "json"], 0)
        for mode in ("signed", "positive")
    ]
    commands.append(
        (["reduce", sp, os.path.join(workdir, measure), "--mode", "positive",
          "--format", "json"], 0)
    )
    return Job(
        index,
        {sub: _pwc_subspace_doc(regions, dim), measure: rule_to_doc(measure_rule)},
        commands,
        {"dim": dim, "d": 1, "regions": regions, "measure": measure_rule},
    )


def _grid_job(rng, index, shape, workdir) -> Job:
    dim, n_regions, radical = shape
    d = rng.choice(GRID_RADICANDS) if radical else 1
    regions = _pwc_regions(rng, dim, n_regions, n_regions, d)
    sub = f"g{index:03d}.subspace.json"
    sp = os.path.join(workdir, sub)
    pairs = dim * (dim + 1) // 2
    ms = [pairs + k for k in GRID_EXTRA]
    orders = []
    commands = []
    for m in ms:
        # Each command has its own seeded candidate order, which decides the
        # subsets the cap reaches; independent orders keep the feasible
        # share of one command from deciding the whole job's cost.
        cands = list(GRID_CANDIDATES)
        rng.shuffle(cands)
        orders.append(cands)
        commands.append(
            (["grid", sp, "--candidates=" + ",".join(str(x) for x in cands), "-m", str(m),
              "--mode", "positive", "--max-subsets", str(GRID_MAX_SUBSETS), "--jobs", "1",
              "--format", "json"], 0)
        )
    return Job(
        index,
        {sub: _pwc_subspace_doc(regions, dim, d)},
        commands,
        {"dim": dim, "d": d, "regions": regions, "candidates": orders, "ms": ms},
    )


# ---------------------------------------------------------------------------
# ex2-shaped hierarchies (audit_radical)


def _scaled_wave_pair(start: Fraction, length: Fraction, d: int) -> PiecewiseFn:
    """A unit trapezoid wave on [start, start+length] glued to a sqrt(d)-scaled
    one on [start+length, start+2*length], zero elsewhere."""
    g1 = corpus.build_g(corpus.GSpec(start, start + length))
    g2 = corpus.build_g(corpus.GSpec(start + length, start + 2 * length))
    return pw_scale_add(Radical(1), g1, Radical.single(d, 1), g2)


def _offset(rng, lo: Fraction, slack: Fraction) -> Fraction:
    if slack <= 0:
        return lo
    return lo + slack * Fraction(rng.randint(0, 64), 64)


def hierarchy(rng, d2: int, d3: int):
    """An ex2-shaped hierarchy h0..h7 with level radicands d2 and d3.

    h0 and h1 are ex2's.  h2 and h3 sit inside h1's +1 and -1 plateaus
    (wave length L2 = 3/(4(1+d2))); under each, one top function on the
    +1 and one on the -1 plateau of its unscaled wave (length
    L3 = 3/(8(1+d3))).  These lengths fix every norm: ||h2||^2 = 1/2 and
    ||h_top||^2 = 1/4, so the nine-node rule shape carries over.  Needs
    1 + d3 >= 4 (1 + d2) and d2 >= 5 for the carriers to fit.  Returns
    (functions, plateau midpoints of the top functions' unscaled waves).
    """
    L2 = Fraction(3, 4 * (1 + d2))
    L3 = Fraction(3, 8 * (1 + d3))
    funcs = [corpus.build_h(0), corpus.build_h(1)]
    tops = []
    top_nodes = []
    for plateau_lo in (Fraction(1, 8), Fraction(5, 8)):
        a = _offset(rng, plateau_lo, Fraction(1, 4) - 2 * L2)
        funcs.append(_scaled_wave_pair(a, L2, d2))
        l2 = L2 / 8
        for sub_lo in (a + l2, a + 5 * l2):  # +1 and -1 plateaus of the unit wave
            c = _offset(rng, sub_lo, 2 * l2 - 2 * L3)
            tops.append(_scaled_wave_pair(c, L3, d3))
            l3 = L3 / 8
            top_nodes += [c + 2 * l3, c + 6 * l3]
    return funcs + tops, top_nodes


def audit_rule(top_nodes, passing: bool) -> Rule:
    """The nine-node ex2 rule (fails only on (h0, h1)), or an eleven-node
    repair that also matches <h0, h1> = c exactly: weight 3c at 1/24 (where
    h0 = 1, h1 = 1/3), -3c at 1/2 (h0 = 1, h1 = 0) and -4 - 16c/3 at -1/2."""
    nodes = [Fraction(-1, 2)] + list(top_nodes)
    weights = [Radical(-4)] + [Radical(Fraction(1, 8))] * len(top_nodes)
    if passing:
        c = Radical(H01[1]) + Radical.single(6, H01[6])
        nodes += [Fraction(1, 24), Fraction(1, 2)]
        weights[0] = Radical(-4) - c * Radical(Fraction(16, 3))
        weights += [c * Radical(3), c * Radical(-3)]
    return Rule(nodes, weights)


def _audit_job(rng, index, passing, workdir) -> Job:
    d2 = rng.choice([d for d in _SQUAREFREE if 5 <= d <= 15])
    d3 = rng.choice([d for d in _SQUAREFREE if 4 * (1 + d2) - 1 <= d <= 4 * (1 + d2) + 40])
    funcs, top_nodes = hierarchy(rng, d2, d3)
    names = tuple(f"h{i}" for i in range(8))
    sub = f"a{index:03d}.subspace.json"
    rule = f"a{index:03d}.rule.json"
    sp = os.path.join(workdir, sub)
    rp = os.path.join(workdir, rule)
    commands = [
        (["gram", sp, "--format", "json"], 0),
        (["verify", sp, rp, "--format", "json"], 0 if passing else 1),
        (["bound", sp, "--witness", "h0", "--targets", "h4,h5,h6,h7",
          "--refine", "h0,h1", "--format", "json"], 0),
    ]
    alphas = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in names]
        for _ in range(POLAR_COMBOS)
    ]
    return Job(
        index,
        {sub: subspace_to_doc(Subspace(names, tuple(funcs))),
         rule: rule_to_doc(audit_rule(top_nodes, passing))},
        commands,
        {"passing": passing, "d": (d2, d3), "alphas": alphas,
         "subspace": sp, "rule": rp},
    )
