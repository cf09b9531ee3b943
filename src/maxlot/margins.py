"""Majority margins and constructive decompositions of skew-symmetric matrices.

A margin matrix stores, for every ordered pair (x, y), the fraction of the
electorate preferring x to y minus the fraction preferring y to x, as int
numerators over one positive scale in lowest terms; `rows` is the `Fraction`
view.  Matrices produced from profiles always have entries in [-1, 1];
matrices built by hand (for synthesis) may carry any rationals as long as
they are skew-symmetric.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .core import Agenda, LinearOrder, Profile, make_profile
from .linalg import integers

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


@dataclass(frozen=True)
class MarginMatrix:
    """Skew-symmetric matrix over an agenda: entry (i, j) is num[i][j] / scale,
    in lowest terms, so equal matrices compare and hash equal and (num, scale)
    is `linalg.integers(rows)`.  The constructor takes any rationals over an
    int scale >= 1; int rows build no `Fraction`."""

    agenda: Agenda
    num: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, agenda: Agenda, rows, scale: int = 1):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        n = len(agenda)
        num = tuple(tuple(row) for row in rows)
        if len(num) != n or any(len(r) != n for r in num):
            raise ValueError("matrix shape must match the agenda")
        if not all(type(v) is int for row in num for v in row):
            num, d = integers([[Fraction(v) for v in row] for row in num])
            scale *= d
        g = math.gcd(scale, *(v for row in num for v in row))
        num = tuple(tuple(v // g for v in row) for row in num)
        for i in range(n):
            if num[i][i]:
                raise ValueError("diagonal must be zero")
            for j in range(i + 1, n):
                if num[i][j] != -num[j][i]:
                    raise ValueError("matrix must be skew-symmetric")
        self.__dict__.update(agenda=agenda, num=num, scale=scale // g)  # frozen: bypass __setattr__

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.num)

    def entry(self, x: str, y: str) -> Fraction:
        return Fraction(self.num[self.agenda.index(x)][self.agenda.index(y)], self.scale)

    def submatrix(self, subset: Iterable[str]) -> "MarginMatrix":
        keep = self.agenda.subset(subset)
        idx = [self.agenda.index(x) for x in keep]
        return MarginMatrix(Agenda(keep), tuple(tuple(self.num[i][j] for j in idx) for i in idx), self.scale)

    def is_zero(self) -> bool:
        return not any(v for row in self.num for v in row)


def margins(profile: Profile) -> MarginMatrix:
    """Skew-symmetric majority margins of a profile, entries in [-1, 1].

    Weights are tallied as integers over D, the lcm of their denominators.
    """
    (counts,), scale = integers([profile.weights.values()])
    return tally(profile.agenda, zip((order.ranking for order in profile.weights), counts), scale)


def tally(agenda: Agenda, counts: Iterable[tuple[Sequence[str], int]], scale: int) -> MarginMatrix:
    """Margins of rankings with integer multiplicities, over a scale D.

    `counts` yields (ranking, multiplicity) pairs, each ranking listing the
    whole agenda best first; a ranking may repeat.  With t_ij the total
    multiplicity ranking i above j, entry (i, j) is (t_ij - t_ji) / D, each
    divided once.  D is the electorate's total multiplicity when the
    entries are to lie in [-1, 1].
    """
    n = len(agenda)
    pos = {x: k for k, x in enumerate(agenda.ids)}
    above = [[0] * n for _ in range(n)]  # t_ij
    for ranking, count in counts:
        placed = [pos[x] for x in ranking]
        for k, i in enumerate(placed):
            row = above[i]
            for j in placed[k + 1 :]:
                row[j] += count
    diffs = tuple(tuple(above[i][j] - above[j][i] for j in range(n)) for i in range(n))
    return MarginMatrix(agenda, diffs, scale)


def is_regular(matrix: MarginMatrix, subset: Iterable[str]) -> bool:
    """Rows inside the subset sum to zero over the subset's columns."""
    keep = matrix.agenda.subset(subset)
    idx = [matrix.agenda.index(x) for x in keep]
    return all(sum(matrix.num[i][j] for j in idx) == 0 for i in idx)


def is_strongly_regular(matrix: MarginMatrix, subset: Iterable[str]) -> bool:
    """Every entry inside the subset block is zero."""
    keep = matrix.agenda.subset(subset)
    idx = [matrix.agenda.index(x) for x in keep]
    return not any(matrix.num[i][j] for i in idx for j in idx)


def mcgarvey(matrix: MarginMatrix) -> tuple[Profile, Fraction]:
    """Profile whose margins equal c times the given skew matrix, plus that c.

    For each positive entry (i, j), blend the profile that is uniform over
    all orders keeping i immediately above j (margin 1 on that pair, 0 on
    every other pair) with weight proportional to the entry; the normalizing
    constant is c = 1 / sum of positive entries.  The construction commutes
    with any relabeling that leaves the matrix invariant, so symmetric
    matrices yield symmetric profiles.

    Each order's weight is tallied as an integer multiplicity, the sum of
    the numerators of the positive pairs it places adjacently, and
    `make_profile` normalizes the multiplicities to the exact weights.
    """
    if matrix.is_zero():
        raise ValueError("the zero matrix has no margin-realizing profile with defined scale")
    ids = matrix.agenda.ids
    n = len(ids)
    tally: dict[tuple[str, ...], int] = {}
    total = 0
    for i in range(n):
        for j in range(n):
            count = matrix.num[i][j]
            if count <= 0:
                continue
            total += count
            pair = (ids[i], ids[j])
            others = [ids[k] for k in range(n) if k != i and k != j]
            for arrangement in itertools.permutations(others + [None]):
                k = arrangement.index(None)
                ranking = arrangement[:k] + pair + arrangement[k + 1 :]
                tally[ranking] = tally.get(ranking, 0) + count
    profile = make_profile(matrix.agenda, ((LinearOrder(r), w) for r, w in tally.items()))
    return profile, Fraction(matrix.scale, total)


@dataclass(frozen=True)
class CycleTerm:
    """One peeled cycle: a positive coefficient and the cycle's vertex ids."""

    coefficient: Fraction
    cycle: tuple[str, ...]

    def __post_init__(self):
        if Fraction(self.coefficient) <= 0:
            raise ValueError("cycle coefficient must be positive")
        if len(self.cycle) < 3 or len(set(self.cycle)) != len(self.cycle):
            raise ValueError("cycle needs at least 3 distinct alternatives")
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))


def cycle_incidence(agenda: Agenda, cycle: Sequence[str]) -> MarginMatrix:
    """Skew incidence matrix of a directed cycle: +1 forward, -1 backward."""
    n = len(agenda)
    rows = [[0] * n for _ in range(n)]
    for k, x in enumerate(cycle):
        y = cycle[(k + 1) % len(cycle)]
        i, j = agenda.index(x), agenda.index(y)
        rows[i][j] = 1
        rows[j][i] = -1
    return MarginMatrix(agenda, rows)


def cycle_decompose(matrix: MarginMatrix, prefix: Iterable[str]) -> list[CycleTerm]:
    """Peel a regular matrix into positively weighted directed cycles.

    Requires the matrix to vanish outside prefix x prefix and to be regular
    on the prefix (zero row sums).  Repeatedly walks strictly positive edges
    in canonical id order until a cycle closes (always length >= 3 because
    skew-symmetry forbids 2-cycles), subtracts the minimum edge weight times
    the cycle's incidence matrix, and stops at zero.  The scaled integer norm
    drops each round, so termination is guaranteed; the sum of the returned
    terms reconstructs the input exactly.
    """
    agenda = matrix.agenda
    keep = agenda.subset(prefix)
    inside = {agenda.index(x) for x in keep}
    for i in range(len(agenda)):
        for j in range(len(agenda)):
            if matrix.rows[i][j] != 0 and not (i in inside and j in inside):
                raise ValueError("matrix must vanish outside the prefix block")
    if not is_regular(matrix, keep):
        raise ValueError("matrix must be regular on the prefix")

    work = [list(row) for row in matrix.rows]
    order = sorted(inside)
    terms: list[CycleTerm] = []
    while True:
        cycle_idx = _positive_cycle(work, order)
        if cycle_idx is None:
            break
        edges = [(cycle_idx[k], cycle_idx[(k + 1) % len(cycle_idx)]) for k in range(len(cycle_idx))]
        lam = min(work[i][j] for i, j in edges)
        for i, j in edges:
            work[i][j] -= lam
            work[j][i] += lam
        terms.append(CycleTerm(lam, tuple(agenda.ids[i] for i in cycle_idx)))
    if any(v != 0 for row in work for v in row):
        raise AssertionError("peeling left a nonzero remainder on a regular matrix")
    return terms


def _positive_cycle(rows, order) -> list[int] | None:
    """First positive-edge cycle in canonical order, rotated to its least id."""
    start = None
    for i in order:
        if any(rows[i][j] > 0 for j in order):
            start = i
            break
    if start is None:
        return None
    path = [start]
    seen = {start: 0}
    while True:
        current = path[-1]
        nxt = next(j for j in order if rows[current][j] > 0)
        if nxt in seen:
            cycle = path[seen[nxt]:]
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[nxt] = len(path)
        path.append(nxt)


def parse_matrix(text: str) -> MarginMatrix:
    """Read the shared matrix text format.

    First content line: space-separated alternative ids.  Then one line per
    alternative with n rationals ("p/q" or integer) in the same id order.
    Lines starting with '#' and blank lines are ignored; skew-symmetry is
    validated on load.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError("empty matrix file")
    ids = lines[0].split()
    n = len(ids)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    given = {x: k for k, x in enumerate(ids)}
    if len(given) != n:
        raise ValueError("duplicate ids in matrix header")
    agenda = Agenda(ids)
    raw_rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != n:
            raise ValueError(f"expected {n} entries per row, found {len(cells)}")
        raw_rows.append([parse_rational(cell) for cell in cells])
    # reorder from file id order to canonical agenda order
    perm = [given[x] for x in agenda.ids]
    rows = tuple(tuple(raw_rows[i][j] for j in perm) for i in perm)
    return MarginMatrix(agenda, rows)


def format_matrix(matrix: MarginMatrix) -> str:
    lines = [" ".join(matrix.agenda.ids)]
    for row in matrix.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_rational(token: str) -> Fraction:
    """Read an exact rational written as "p/q" or as an integer.

    Raises ValueError naming the token when it is malformed or q is 0.
    """
    token = token.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"bad rational {token!r}: use p/q or an integer")
    numerator, _, denominator = token.partition("/")
    if denominator and int(denominator) == 0:
        raise ValueError(f"bad rational {token!r}: zero denominator")
    return Fraction(int(numerator), int(denominator or 1))
