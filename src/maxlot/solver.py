"""Maximal lotteries as exact maximin strategies of the majority-margin game.

The solution set {x in the simplex : x^T M >= 0 componentwise} is returned as
its full vertex list, computed with exact rationals.  `maximin_vertices` is
the one route, for one game (a rule's outcome) and for several (the axiom
checks intersect outcomes):

1. a strict Condorcet winner of any game decides at once: its degenerate
   lottery is that game's only maximin strategy,
2. otherwise one exact simplex run per game locates a maximin strategy p,
   and, when p ties a column outside its support, a second small simplex on
   the tied columns finds the essential set E: the support of a strictly
   complementary maximin strategy, which every maximin strategy lives on
   and scores exactly 0 against,
3. one `polytope.enumerate_vertices` walk lists the vertices of the face
   these equalities cut from the lotteries on the common essential set
   (one solve when it is a point); while a vertex loses against a column off
   E, that column joins as an inequality and the face is walked again.  The
   face is convex, so the final check certifies the whole face.

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


def never_loses(x, rows) -> bool:
    """True when the mixed strategy x scores x^T M >= 0 against every column.

    Checking the pure opponents suffices because the expected payoff is
    linear in the opponent's strategy.
    """
    support = [(xi, row) for xi, row in zip(x, rows) if xi]
    return all(sum(xi * row[j] for xi, row in support) >= 0 for j in range(len(rows[0])))


def _unit(n: int, j: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if k == j else 0) for k in range(n))


def _simplex(a: list[list[int]], b: list[int], cost: list[int]) -> tuple[list[int], list[int], int]:
    """max cost.w s.t. a w <= b, w >= 0, for integer a and cost and b >= 0.

    The tableau starts from the slack basis and stays integer: each
    fraction-free pivot update divides exactly by the previous pivot, and
    Bland's rule (lowest entering column; ratio-test ties to the lowest basic
    variable) cannot cycle.  Returns the primal w, the dual (the objective
    row's slack entries) and the optimum, as numerators over one positive
    denominator.  Both callers' programs are bounded.
    """
    rows, cols = len(a), len(a[0])
    width = cols + rows
    table = [row + [int(k == i) for k in range(rows)] + [rhs] for i, (row, rhs) in enumerate(zip(a, b))]
    table.append([-c for c in cost] + [0] * (rows + 1))
    basis = list(range(cols, width))
    det = 1
    while (col := next((j for j in range(width) if table[rows][j] < 0), None)) is not None:
        # minimum ratio rhs / entry (compared crosswise, entries are
        # positive), ties to the lowest basic variable
        leave = None
        for i in range(rows):
            e = table[i][col]
            if e > 0 and (
                leave is None
                or (table[i][-1] * table[leave][col], basis[i]) < (table[leave][-1] * e, basis[leave])
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
    primal = [0] * cols
    for var, row in zip(basis, table):
        if var < cols:
            primal[var] = row[-1]
    objective = table[rows]
    return primal, objective[cols:width], objective[-1]


def _integers(rows) -> tuple[list[list[int]], int]:
    """Rational rows scaled to integers by the lcm D of their denominators, and D."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _one_maximin(game: list[list[int]]) -> list[int]:
    """One maximin strategy of the integer skew game, up to a positive factor.

    The game is shifted by c = 1 + max|M| so every payoff is positive and
    max 1.w s.t. (M + c) w <= 1, w >= 0 is solved.  The normalized primal w
    is an optimal column strategy and the normalized dual an optimal row
    strategy; in a skew game both are maximin, and so is their sum, which
    carries the union of their supports and the intersection of their ties.
    """
    shift = 1 + max(abs(v) for row in game for v in row)
    n = len(game)
    primal, dual, _ = _simplex([[v + shift for v in row] for row in game], [1] * n, [1] * n)
    return [w + y for w, y in zip(primal, dual)]


def _essential(game: list[list[int]], scale: int) -> set[int]:
    """Indices of the essential set E of the integer skew game.

    E is the support of a strictly complementary maximin strategy x*, which
    is positive exactly on E and scores > 0 against every column off E; every
    maximin strategy lives on E and scores exactly 0 against E's columns.
    From a maximin p with tie set T = {j : (p^T M)_j = 0}, E lies between
    supp(p) and T.  When they differ, one more simplex on the T x T subgame,
    max 1.u s.t. (D I + M_TT) u + M_TT v <= D, u, v >= 0, has a dual y >= 0
    with y^T M_TT >= 0 and y + M_TT^T y >= 1, so p + e y is strictly
    complementary for small e > 0 and E = supp(p) | supp(y).
    """
    p = _one_maximin(game)
    support = {j for j, v in enumerate(p) if v}
    tied = [j for j in range(len(game)) if sum(p[i] * game[i][j] for i in support) == 0]
    if len(tied) == len(support):
        return support
    sub = [[game[i][j] for j in tied] for i in tied]
    _, y, _ = _simplex(
        [[v + scale * (r == c) for c, v in enumerate(row)] + row for r, row in enumerate(sub)],
        [scale] * len(tied),
        [1] * len(tied) + [0] * len(tied),
    )
    return support | {j for j, v in zip(tied, y) if v}


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
    games = []
    for m in matrices:
        game, scale = _integers(m.rows)
        games.append((m, game, _essential(game, scale)))
    # every maximin strategy of a game lives on its essential set E and
    # scores exactly 0 against E's columns; the face these equalities cut
    # from the simplex may still reach past a column off E, which the
    # vertex check below turns into an inequality
    on = [x for x in over if all(m.agenda.index(x) in essential for m, _, essential in games)]
    one, nought = Fraction(1), Fraction(0)
    equalities = [((one,) * len(on), one)]
    inequalities = [(_unit(len(on), k), nought) for k in range(len(on))]
    off = []
    for m, game, essential in games:
        rows = [game[m.agenda.index(x)] for x in on]
        for j, column in enumerate(zip(*rows)):
            if j in essential:
                equalities.append((column, nought))
            else:
                off.append(column)
    while True:
        vertices = enumerate_vertices(len(on), equalities, inequalities)
        # the face is convex, so it never loses once none of its vertices
        # does; a positive common scale keeps every score's sign
        scaled, _ = _integers(vertices)
        lost = [c for c in off if any(sum(v * e for v, e in zip(x, c)) < 0 for x in scaled)]
        if not lost:
            break
        inequalities += [(c, nought) for c in lost]
    out = []
    for v in vertices:
        lifted = dict(zip(on, v))
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
    """Union of the supports of all maximal lotteries: the support of a
    strictly complementary one, read off the simplex without a vertex walk."""
    m = margins(profile)
    return tuple(sorted(m.agenda.ids[j] for j in _essential(*_integers(m.rows))))


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
