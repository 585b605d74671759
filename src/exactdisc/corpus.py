"""Reference corpus: three worked subspaces and their known rules.

ex1: a two-dimensional piecewise-constant pair (an indicator plus a
four-sign step) whose minimal exact rule count is decided by exhaustive
region search, admitting both an all-positive and a mixed-sign rule at
the minimal count.

ex2: an eight-function hierarchy of trapezoidal waves (levels scaled by
sqrt(5) and sqrt(23), one square-root ramp function on top).  What is
certified: every exact rule has at least 9 nodes, the nine-node rule
``ex2-nine`` meets every condition except (h0, h1), and the eleven-node
rule ``ex2-eleven`` (two negative weights) is exact.  Whether an exact
rule with nine or ten nodes exists, and the signs of its weights, is not
certified.

gap: three piecewise-constant functions on seven regions that show the
paper's phenomenon.  What is certified, by the two `min` exhaustion logs:
the signed minimal node count is 5 and the positive one is 6, so every
exact five-node rule has a negative weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Radical
from .piecewise import Piece, PiecewiseFn, pw_scale_add
from .discretize import Rule, Subspace


@dataclass(frozen=True)
class Example1Params:
    """Step heights (a, A, B) for the ex1 pair, A > B > 0, a > 0.

    The separation inequality A^2 > 2 a^2 + B^2 is enforced at construction
    unless `unchecked` is set.  What is certified at the defaults (1, 3, 2)
    is a forced negative weight on one node triple: the exact weights at
    (-1/2, 1/8, 3/8) are unique, (-3/2, 1/2, 1/2), so no positive rule
    uses those nodes.  The inequality is not known to force a negative
    weight at the minimal node count: over a census of 147 triples (a, A,
    B), `min` found the signed and the positive minimum equal every time,
    whether the inequality held or not.
    """

    a: Fraction = Fraction(1)
    A: Fraction = Fraction(3)
    B: Fraction = Fraction(2)
    unchecked: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        if not self.a > 0:
            raise ValueError("need a > 0")
        if not self.A > self.B > 0:
            raise ValueError("need A > B > 0")
        if not (self.unchecked or self.separation_holds):
            raise ValueError(
                "parameters must satisfy A^2 > 2 a^2 + B^2 "
                "(pass unchecked=True to explore anyway)"
            )

    @property
    def separation_holds(self) -> bool:
        return self.A**2 > 2 * self.a**2 + self.B**2


@dataclass(frozen=True)
class GSpec:
    """Carrier interval [a, b] of one trapezoidal wave; l = (b - a)/8."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not Fraction(-1) <= self.a < self.b <= Fraction(1):
            raise ValueError("need -1 <= a < b <= 1")

    @property
    def l(self) -> Fraction:
        return (self.b - self.a) / 8


_DOM_LO = Fraction(-1)
_DOM_HI = Fraction(1)


def build_f1() -> PiecewiseFn:
    """Indicator of [0, 1] on [-1, 1]."""
    return PiecewiseFn(
        [Piece.from_poly(_DOM_LO, 0, [0]), Piece.from_poly(0, _DOM_HI, [1])]
    )


def build_f2(p: Example1Params) -> PiecewiseFn:
    """Steps a, A, -A, B, -B on the five quarters of [-1, 1]."""
    q = Fraction(1, 4)
    return PiecewiseFn(
        [
            Piece.from_poly(_DOM_LO, 0, [p.a]),
            Piece.from_poly(0, q, [p.A]),
            Piece.from_poly(q, 2 * q, [-p.A]),
            Piece.from_poly(2 * q, 3 * q, [p.B]),
            Piece.from_poly(3 * q, _DOM_HI, [-p.B]),
        ]
    )


def build_X2(p: Example1Params | None = None) -> Subspace:
    p = p if p is not None else Example1Params()
    return Subspace(("f1", "f2"), (build_f1(), build_f2(p)))


def build_g(spec: GSpec) -> PiecewiseFn:
    """Trapezoidal wave on [a, b] (up-plateau-down-plateau-up), zero outside.

    With l = (b - a)/8: a linear ramp 0 -> 1 on [a, a+l), plateau 1 on
    [a+l, a+3l), ramp 1 -> -1 on [a+3l, a+5l), plateau -1 on [a+5l, a+7l),
    ramp -1 -> 0 on [a+7l, b].
    """
    a, b, l = spec.a, spec.b, spec.l
    pieces = []
    if a > _DOM_LO:
        pieces.append(Piece.from_poly(_DOM_LO, a, [0]))
    pieces += [
        Piece.from_poly(a, a + l, [-a / l, 1 / l]),
        Piece.from_poly(a + l, a + 3 * l, [1]),
        Piece.from_poly(a + 3 * l, a + 5 * l, [(a + 4 * l) / l, -1 / l]),
        Piece.from_poly(a + 5 * l, a + 7 * l, [-1]),
        Piece.from_poly(a + 7 * l, b, [-b / l, 1 / l]),
    ]
    if b < _DOM_HI:
        pieces.append(Piece.from_poly(b, _DOM_HI, [0]))
    return PiecewiseFn(pieces)


def _scaled_pair(lo1, hi1, lo2, hi2, radicand: int) -> PiecewiseFn:
    g1 = build_g(GSpec(Fraction(lo1), Fraction(hi1)))
    g2 = build_g(GSpec(Fraction(lo2), Fraction(hi2)))
    return pw_scale_add(Radical(1), g1, Radical.single(radicand, 1), g2)


def build_h(i: int) -> PiecewiseFn:
    """The eight hierarchy functions h0..h7 on [-1, 1].

    h0 rises as sqrt(24 x), crosses over as sqrt(-8 x + 2), then sits at 1
    on [1/8, 1]; h1 is the ramp -x/2 on [-1, 0) glued to the unit wave on
    [0, 1]; h2, h3 pair a unit wave with a sqrt(5)-scaled one; h4..h7 pair
    narrower waves with sqrt(23)-scaled partners.
    """
    if i == 0:
        return PiecewiseFn(
            [
                Piece.from_poly(_DOM_LO, 0, [0]),
                Piece.from_poly_sqrt(0, Fraction(1, 16), [1], 24, 0),
                Piece.from_poly_sqrt(Fraction(1, 16), Fraction(1, 8), [1], -8, 2),
                Piece.from_poly(Fraction(1, 8), _DOM_HI, [1]),
            ]
        )
    if i == 1:
        g01 = build_g(GSpec(Fraction(0), Fraction(1)))
        ramp = Piece.from_poly(_DOM_LO, 0, [0, Fraction(-1, 2)])
        return PiecewiseFn([ramp] + [p for p in g01.pieces if p.lo >= 0])
    table = {
        2: (Fraction(1, 8), Fraction(1, 4), Fraction(1, 4), Fraction(3, 8), 5),
        3: (Fraction(5, 8), Fraction(3, 4), Fraction(3, 4), Fraction(7, 8), 5),
        4: (Fraction(9, 64), Fraction(5, 32), Fraction(5, 32), Fraction(11, 64), 23),
        5: (Fraction(13, 64), Fraction(7, 32), Fraction(7, 32), Fraction(15, 64), 23),
        6: (Fraction(41, 64), Fraction(21, 32), Fraction(21, 32), Fraction(43, 64), 23),
        7: (Fraction(45, 64), Fraction(23, 32), Fraction(23, 32), Fraction(47, 64), 23),
    }
    if i not in table:
        raise ValueError(f"no function h{i}")
    return _scaled_pair(*table[i])


#: Level structure of the h hierarchy: lower-level functions are constant
#: on the supports of strictly-higher-level ones.
H_LEVELS = ((0,), (1,), (2, 3), (4, 5, 6, 7))


def build_X8() -> Subspace:
    return Subspace(
        tuple(f"h{i}" for i in range(8)),
        tuple(build_h(i) for i in range(8)),
    )


#: Region edges of the gap subspace, and each function's value per region.
_GAP_EDGES = ("-1", "-1/2", "-3/8", "-1/4", "-1/8", "0", "3/8", "1")
_GAP_VALUES = (
    (2, -2, 0, -2, 0, 1, -1),
    (-1, 1, 2, -2, 2, -1, 1),
    (2, 1, 1, 1, -2, -1, -1),
)


def build_gap() -> Subspace:
    """The sign-gap subspace f1, f2, f3 on [-1, 1]: signed m_min is 5 and
    positive m_min is 6, so an exact five-node rule exists and every one of
    them has a negative weight."""
    edges = [Fraction(e) for e in _GAP_EDGES]
    funcs = tuple(
        PiecewiseFn([Piece.from_poly(lo, hi, [v]) for lo, hi, v in zip(edges, edges[1:], row)])
        for row in _GAP_VALUES
    )
    return Subspace(("f1", "f2", "f3"), funcs)


def build_subspace(name: str, p: Example1Params | None = None) -> Subspace:
    if name == "ex1":
        return build_X2(p)
    if name == "ex2":
        return build_X8()
    if name == "gap":
        return build_gap()
    raise KeyError(f"unknown subspace {name!r} (have: ex1, ex2, gap)")


def golden_rules(p: Example1Params | None = None) -> dict:
    """The four known rules, keyed by name, as (subspace id, Rule).

    ex1 weights come from the closed forms (2a^2 -+ (A^2 - B^2))/(2a^2)
    evaluated at the stored parameters; ex2-nine pairs weight -4 at -1/2
    with weight 1/8 at the eight plateau midpoints of h4..h7.  ex2-eleven,
    which `grid -m 11` finds on ex2-nine's nodes plus 1/25 and 79/800 (where
    h0 is (2/5)sqrt(6) and 11/10), is exact: 9 <= m_min(ex2) <= 11.
    """
    p = p if p is not None else Example1Params()
    half = Fraction(1, 2)
    lam_neg = (2 * p.a**2 - p.A**2 + p.B**2) / (2 * p.a**2)
    lam_pos = (2 * p.a**2 + p.A**2 - p.B**2) / (2 * p.a**2)
    nine_nodes = [Fraction(-1, 2)] + [
        Fraction(n, 256) for n in (37, 39, 53, 55, 165, 167, 181, 183)
    ]
    nine_weights = [Fraction(-4)] + [Fraction(1, 8)] * 8
    return {
        "ex1-negative": ("ex1", Rule([-half, Fraction(1, 8), Fraction(3, 8)], [lam_neg, half, half])),
        "ex1-positive": ("ex1", Rule([-half, Fraction(5, 8), Fraction(7, 8)], [lam_pos, half, half])),
        "ex2-nine": ("ex2", Rule(nine_nodes, nine_weights)),
        "ex2-eleven": ("ex2", Rule(
            nine_nodes + [Fraction(1, 25), Fraction(79, 800)],
            [Radical.parse("-4787/1650 - 1187/2475*sqrt(6)")] + nine_weights[1:]
            + [Radical.parse("498575/2851392 - 326425/4277088*sqrt(6)"),
               Radical.parse("-45325/326722 + 29675/490083*sqrt(6)")],
        )),
    }
