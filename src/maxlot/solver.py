"""Maximal lotteries as exact maximin strategies of the majority-margin game.

The solution set {x in the simplex : x^T M >= 0 componentwise} is returned as
its full vertex list, computed with exact rationals.  `maximin_vertices` is
the one route, for one game (a rule's outcome) and for several (the axiom
checks intersect outcomes):

1. a strict Condorcet winner of any game decides at once: its degenerate
   lottery is that game's only maximin strategy,
2. otherwise one exact simplex run per game (`linalg.simplex`, on the
   game's int numerators `MarginMatrix.num`) locates a maximin strategy p,
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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Agenda, Lottery, Profile
from .linalg import integers, simplex
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


def _one_maximin(game: Sequence[Sequence[int]]) -> list[int]:
    """One maximin strategy of the integer skew game, up to a positive factor.

    The game is shifted by c = 1 + max|M| so every payoff is positive and
    max 1.w s.t. (M + c) w <= 1, w >= 0 is solved.  The normalized primal w
    is an optimal column strategy and the normalized dual an optimal row
    strategy; in a skew game both are maximin, and so is their sum, which
    carries the union of their supports and the intersection of their ties.
    """
    shift = 1 + max(abs(v) for row in game for v in row)
    n = len(game)
    primal, dual, _ = simplex([[v + shift for v in row] for row in game], [1] * n, [1] * n)
    return [w + y for w, y in zip(primal, dual)]


def _essential(game: Sequence[Sequence[int]], scale: int) -> set[int]:
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
    _, y, _ = simplex(
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
        w = _condorcet_report(m).strict
        if w is not None:
            if w in over and all(w in _condorcet_report(g).weak for g in matrices):
                return [tuple(Fraction(int(x == w)) for x in over)]
            return []
    games = [(m, m.num, _essential(m.num, m.scale)) for m in matrices]
    # every maximin strategy of a game lives on its essential set E and
    # scores exactly 0 against E's columns; the face these equalities cut
    # from the simplex may still reach past a column off E, which the
    # vertex check below turns into an inequality
    on = [x for x in over if all(m.agenda.index(x) in essential for m, _, essential in games)]
    equalities = [([1] * len(on), 1)]
    inequalities = [([int(j == k) for j in range(len(on))], 0) for k in range(len(on))]
    off = []
    for m, game, essential in games:
        rows = [game[m.agenda.index(x)] for x in on]
        for j, column in enumerate(zip(*rows)):
            if j in essential:
                equalities.append((column, 0))
            else:
                off.append(column)
    while True:
        vertices = enumerate_vertices(len(on), equalities, inequalities)
        # the face is convex, so it never loses once none of its vertices
        # does; a positive common scale keeps every score's sign
        scaled, _ = integers(vertices)
        lost = [c for c in off if any(sum(v * e for v, e in zip(x, c)) < 0 for x in scaled)]
        if not lost:
            break
        inequalities += [(c, 0) for c in lost]
    out = []
    for v in vertices:
        lifted = dict(zip(on, v))
        out.append(tuple(lifted.get(x, Fraction(0)) for x in over))
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
    return never_loses(lottery.probs, margins(profile).num)


def unique_maximal(profile: Profile) -> Lottery | None:
    """The maximal lottery when it is unique, else None."""
    return maximal_lotteries(profile).unique()


def essential_set(profile: Profile) -> tuple[str, ...]:
    """Union of the supports of all maximal lotteries: the support of a
    strictly complementary one, read off the simplex without a vertex walk."""
    m = margins(profile)
    return tuple(sorted(m.agenda.ids[j] for j in _essential(m.num, m.scale)))


def condorcet_winners(profile: Profile) -> CondorcetReport:
    return _condorcet_report(margins(profile))


def _condorcet_report(matrix: MarginMatrix) -> CondorcetReport:
    weak, strict = [], None
    for x, row in zip(matrix.agenda, matrix.num):
        if min(row) >= 0:
            weak.append(x)
            if row.count(0) == 1:  # only the diagonal ties
                strict = x
    return CondorcetReport(tuple(weak), strict)


def sample(lottery: Lottery, seed: int) -> str:
    """Draw one alternative with exactly the lottery's probabilities.

    Probabilities are scaled to integers over their common denominator D and
    a uniform draw in [0, D) (SplitMix64 with rejection sampling) selects by
    cumulative ranges in canonical agenda order.  Deterministic in
    (lottery, seed).
    """
    (counts,), denom = integers([lottery.probs])
    ticket = SplitMix64(seed).below(denom)
    running = 0
    for x, count in zip(lottery.agenda, counts):
        running += count
        if ticket < running:
            return x
    raise AssertionError("cumulative ranges must cover every ticket")
