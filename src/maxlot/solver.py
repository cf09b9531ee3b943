"""Maximal lotteries as exact maximin strategies of the majority-margin game.

The solution set {x in the simplex : x^T M >= 0 componentwise} is returned as
its full vertex list, computed with exact rationals.  The route is:

1. a strict Condorcet winner short-circuits to its degenerate lottery,
2. otherwise one maximin strategy p is located by support enumeration
   (supports whose square submatrix has a one-dimensional kernel),
3. a rank certificate decides whether p is the unique vertex,
4. failing that, `polytope.maximin_face` enumerates the face that provably
   carries the whole solution set: strategies supported on the columns
   where p's payoff is zero (degenerate ties only),
5. when no support yields a strategy, `maximin_face` runs on the whole game.

Every route returns the same vertex set; the suite cross-checks against an
independent brute-force oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Agenda, Lottery, Profile
from .linalg import kernel_basis, rank
from .margins import MarginMatrix, margins
from .polytope import maximin_face
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


def _one_maximin(rows: Rows, n: int):
    """First maximin strategy in (support size, lexicographic) order, or None.

    Only supports whose square submatrix has a one-dimensional kernel are
    examined; degenerate games can slip through and are handled by the
    exhaustive fallback in the caller.
    """
    for size in range(1, n + 1):
        for supp in itertools.combinations(range(n), size):
            if size == 1:
                x = _unit(n, supp[0])
            else:
                basis = kernel_basis([[rows[i][j] for j in supp] for i in supp])
                if len(basis) != 1:
                    continue
                vec = basis[0]
                if not (all(v > 0 for v in vec) or all(v < 0 for v in vec)):
                    continue
                total = sum(vec)
                x = [Fraction(0)] * n
                for k, i in enumerate(supp):
                    x[i] = vec[k] / total
            if never_loses(x, rows):
                return tuple(x)
    return None


def _face_vertices(rows: Rows, n: int, allowed: list[int]):
    """Vertices of {x in simplex: x^T M >= 0, supp(x) within allowed}, in n coordinates."""
    out = []
    for v in maximin_face([[rows[i] for i in allowed]], len(allowed)):
        x = [Fraction(0)] * n
        for k, i in enumerate(allowed):
            x[i] = v[k]
        out.append(tuple(x))
    return out


def maximin_vertices(rows: Rows) -> list[tuple[Fraction, ...]]:
    """All vertices of the maximin polytope of a skew payoff matrix."""
    n = len(rows)
    if n == 1:
        return [(Fraction(1),)]
    for i in range(n):
        if all(rows[i][j] > 0 for j in range(n) if j != i):
            return [_unit(n, i)]
    p = _one_maximin(rows, n)
    if p is None:
        return _face_vertices(rows, n, list(range(n)))
    tied = [j for j in range(n) if _payoff_against(p, rows, j) == 0]
    support = [i for i in range(n) if p[i] > 0]
    # every maximin strategy is supported inside `tied` and kills the
    # payoff columns of `support`; full rank there pins the polytope to p
    cert = [_unit(n, j) for j in range(n) if j not in tied]
    cert += [tuple(row[j] for row in rows) for j in support]
    cert.append(tuple(Fraction(1) for _ in range(n)))
    if rank(cert) == n:
        return [p]
    return _face_vertices(rows, n, tied)


def maximin_polytope(matrix: MarginMatrix) -> LotteryPolytope:
    verts = maximin_vertices(matrix.rows)
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
    matrix = margins(profile)
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
