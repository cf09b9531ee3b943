"""Maximal lotteries as exact maximin strategies of the majority-margin game.

The solution set {x in the simplex : x^T M >= 0 componentwise} is returned as
its full vertex list, computed with exact rationals.  `maximin_vertices` is
the one route, for one game (a rule's outcome) and for several (the axiom
checks intersect outcomes):

1. a strict Condorcet winner of any game decides at once: its degenerate
   lottery is that game's only maximin strategy,
2. otherwise one exact simplex run per game locates a maximin strategy p,
3. by complementary slackness each game's maximin set is the strategies
   supported where p scores 0 that score exactly 0 against every column in
   p's support; one `polytope.enumerate_vertices` walk lists the vertices
   of the intersection of these faces (one solve when it is a point).

The suite cross-checks every route against an independent brute-force
oracle.  The walk is exponential in the face's dimension, which only
degenerate ties (even electorates) make positive, and refuses a face past
its budget with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Agenda, Lottery, Profile
from .margins import MarginMatrix, margins
from .polytope import enumerate_vertices
from .prng import SplitMix64

Rows = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class LotteryPolytope:
    """Vertex representation of a convex set of lotteries over one agenda."""

    agenda: Agenda
    vertices: tuple[Lottery, ...]

    def __post_init__(self):
        verts = tuple(sorted(set(self.vertices)))
        if not verts:
            raise ValueError("a lottery polytope has at least one vertex")
        for v in verts:
            if v.agenda != self.agenda:
                raise ValueError("vertex agenda mismatch")
        object.__setattr__(self, "vertices", verts)

    def unique(self) -> Lottery | None:
        return self.vertices[0] if len(self.vertices) == 1 else None

    def essential_support(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for v in self.vertices:
            seen.update(v.support())
        return tuple(sorted(seen))


@dataclass(frozen=True)
class CondorcetReport:
    """Weak winners (nonnegative margins) and the strict winner when one exists."""

    weak: tuple[str, ...]
    strict: str | None

    def __post_init__(self):
        if self.strict is not None and self.strict not in self.weak:
            raise ValueError("a strict winner is in particular a weak winner")


def _payoff_against(x, rows: Rows, j: int) -> Fraction:
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            total += xi * rows[i][j]
    return total


def never_loses(x, rows) -> bool:
    """True when the mixed strategy x scores x^T M >= 0 against every column.

    Checking the pure opponents suffices because the expected payoff is
    linear in the opponent's strategy.
    """
    return all(_payoff_against(x, rows, j) >= 0 for j in range(len(rows[0])))


def _unit(n: int, j: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if k == j else 0) for k in range(n))


def _one_maximin(rows: Rows, n: int) -> tuple[Fraction, ...]:
    """One maximin strategy of the skew game, from a single exact simplex run.

    The game is scaled to integers by the lcm D of its denominators and
    shifted by c = 1 + max|D M| so every payoff is positive; then
    max 1.w s.t. (D M + c) w <= 1, w >= 0 is solved on an integer tableau
    with fraction-free pivots (each update divides exactly by the previous
    pivot) and Bland's rule, which cannot cycle.  The normalized primal w is
    an optimal column strategy and the normalized dual (the slack entries of
    the objective row) an optimal row strategy; in a skew game both are
    maximin, and so is their midpoint, which carries the union of their
    supports and the intersection of their ties.
    """
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    game = [[int(v * scale) for v in row] for row in rows]
    shift = 1 + max(abs(v) for row in game for v in row)
    table = [
        [v + shift for v in row] + [int(k == i) for k in range(n)] + [1]
        for i, row in enumerate(game)
    ]
    table.append([-1] * n + [0] * (n + 1))
    basis = list(range(n, 2 * n))
    det = 1
    while (col := next((j for j in range(2 * n) if table[n][j] < 0), None)) is not None:
        # minimum ratio rhs / entry (compared crosswise, entries are
        # positive), ties to the lowest basic variable
        leave = None
        for i in range(n):
            a = table[i][col]
            if a > 0 and (
                leave is None
                or (table[i][-1] * table[leave][col], basis[i]) < (table[leave][-1] * a, basis[leave])
            ):
                leave = i
        pivot_row = table[leave]
        pivot = pivot_row[col]
        for i, row in enumerate(table):
            if i != leave:
                f = row[col]
                table[i] = [(x * pivot - f * y) // det for x, y in zip(row, pivot_row)]
        det = pivot
        basis[leave] = col
    primal = {var: row[-1] for var, row in zip(basis, table)}
    objective = table[n]
    return tuple(
        Fraction(primal.get(j, 0) + objective[n + j], 2 * objective[-1]) for j in range(n)
    )


def maximin_vertices(matrices: Sequence[MarginMatrix], over: Sequence[str]) -> list[tuple[Fraction, ...]]:
    """Sorted vertices, as tuples over `over`, of the lotteries that are 0 off
    `over` and never lose in any of the skew games; every game's agenda
    contains `over`."""
    for m in matrices:
        n = len(m.agenda)
        for i, w in enumerate(m.agenda.ids):
            if all(m.rows[i][j] > 0 for j in range(n) if j != i):
                if w in over and all(v >= 0 for g in matrices for v in g.rows[g.agenda.index(w)]):
                    return [_unit(len(over), over.index(w))]
                return []
    points = [_one_maximin(m.rows, len(m.agenda)) for m in matrices]
    # complementary slackness against each game's p: every maximin strategy
    # is supported where p scores 0 and scores exactly 0 against supp(p)
    keep = [
        x for x in over
        if all(_payoff_against(p, m.rows, m.agenda.index(x)) == 0 for m, p in zip(matrices, points))
    ]
    one, nought = Fraction(1), Fraction(0)
    equalities = [((one,) * len(keep), one)]
    inequalities = [(_unit(len(keep), k), nought) for k in range(len(keep))]
    for m, p in zip(matrices, points):
        rows = [m.rows[m.agenda.index(x)] for x in keep]
        for j, column in enumerate(zip(*rows)):
            (equalities if p[j] else inequalities).append((column, nought))
    out = []
    for v in enumerate_vertices(len(keep), equalities, inequalities):
        lifted = dict(zip(keep, v))
        out.append(tuple(lifted.get(x, nought) for x in over))
    return out


def maximin_polytope(matrix: MarginMatrix) -> LotteryPolytope:
    verts = maximin_vertices([matrix], matrix.agenda.ids)
    return LotteryPolytope(matrix.agenda, tuple(Lottery(matrix.agenda, v) for v in verts))


def maximal_lotteries(profile: Profile) -> LotteryPolytope:
    """Vertex set of the maximal-lottery polytope of a profile."""
    return maximin_polytope(margins(profile))


def is_maximal(profile: Profile, lottery: Lottery) -> bool:
    """Membership test: the lottery never loses in expectation."""
    if lottery.agenda != profile.agenda:
        raise ValueError("lottery and profile must share an agenda")
    return never_loses(lottery.probs, margins(profile).rows)


def unique_maximal(profile: Profile) -> Lottery | None:
    """The maximal lottery when it is unique, else None."""
    return maximal_lotteries(profile).unique()


def essential_set(profile: Profile) -> tuple[str, ...]:
    """Union of the supports of all maximal lotteries.

    Every point of the polytope is a convex combination of its vertices, so
    the union over vertices already covers the whole set.
    """
    return maximal_lotteries(profile).essential_support()


def condorcet_winners(profile: Profile) -> CondorcetReport:
    return _condorcet_report(margins(profile))


def _condorcet_report(matrix: MarginMatrix) -> CondorcetReport:
    n = len(matrix.agenda)
    weak = []
    strict = None
    for i, x in enumerate(matrix.agenda):
        row = matrix.rows[i]
        if all(row[j] >= 0 for j in range(n)):
            weak.append(x)
            if all(row[j] > 0 for j in range(n) if j != i):
                strict = x
    return CondorcetReport(tuple(weak), strict)


def sample(lottery: Lottery, seed: int) -> str:
    """Draw one alternative with exactly the lottery's probabilities.

    Probabilities are scaled to integers over their common denominator D and
    a uniform draw in [0, D) (SplitMix64 with rejection sampling) selects by
    cumulative ranges in canonical agenda order.  Deterministic in
    (lottery, seed).
    """
    denom = math.lcm(*(p.denominator for p in lottery.probs))
    ticket = SplitMix64(seed).below(denom)
    running = 0
    for x, p in zip(lottery.agenda, lottery.probs):
        running += p.numerator * (denom // p.denominator)
        if ticket < running:
            return x
    raise AssertionError("cumulative ranges must cover every ticket")
