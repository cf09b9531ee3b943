"""Exact vertex enumeration and convex-hull tests for rational polytopes.

Constraint systems are lists of (coefficients, rhs) pairs over n variables,
with int or Fraction entries: equalities mean coeffs . x == rhs, inequalities
mean coeffs . x >= rhs.  Every polytope handled here lives inside a
probability simplex, hence is bounded, so its vertex set is exactly the set
of feasible points whose tight constraints have full rank.  Enumeration
therefore eliminates the equalities once (`linalg.eliminate`), which writes
their solutions over d = n - rank(equalities) free coordinates, projects
each inequality onto those coordinates as one integer row, walks all ways of
making d of them tight, solves each d x d system with the same elimination,
and keeps the solutions that satisfy every projected row.  The walk stays in
integers; `Fraction`s are built only for the feasible points.  A walk longer
than WALK_BUDGET square systems is refused with a ValueError instead of run.
Convex-hull membership does not walk: it is one exact LP on
`linalg.simplex`, so `extreme_points` costs one LP per point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .linalg import eliminate, integers, simplex

Constraint = tuple[Sequence[Rational], Rational]

# Most square systems one walk may solve: far above the longest walk of the
# test suite (35) and the benchmark (7).  A system, with its feasibility
# check, takes about 0.09 to 0.17 ms at d = 6 and 0.46 to 0.52 ms at d = 15
# (faces of an order plus its reverse, 2-core Xeon, Python 3.11), so a walk
# at the budget takes about 1 to 5 s.
WALK_BUDGET = 10_000


def enumerate_vertices(
    n: int,
    equalities: Sequence[Constraint],
    inequalities: Sequence[Constraint],
) -> list[tuple[Fraction, ...]]:
    """All vertices of the system, sorted."""
    # each inequality scaled to integers by its own denominators; vacuous and
    # repeated ones are dropped, they cannot add tight-set rank
    kept: list[tuple[int, ...]] = []
    for coeffs, bound in inequalities:
        (row,), _ = integers([[*coeffs, bound]])
        if any(row[:n]):
            kept.append(tuple(row))
        elif row[n] > 0:
            return []
    kept = list(dict.fromkeys(kept))
    solved = eliminate([[*c, b] for c, b in equalities], n)
    if solved is None:
        return []
    table, pivots, det = solved
    free = [f for f in range(n) if f not in pivots]
    need = len(free)
    count = math.comb(len(kept), need)
    if count > WALK_BUDGET:
        raise ValueError(
            f"face of dimension d = {need} needs {count} square systems "
            f"(C({len(kept)}, {need})), over the walk budget of {WALK_BUDGET}"
        )
    # the equalities' solutions are x = (base + sum_f t_f dir_f) / det with
    # t_f = x_f over the free columns f: base is table[k][n] at pivots[k],
    # dir_f is det at f and -table[k][f] at pivots[k].  So c.x >= b reads
    # (c.dir_f)_f . t >= b det - c.base, one integer row per inequality,
    # divided by its gcd so the walk's integers stay small
    reduced = []
    for row in kept:
        on_pivots = [row[c] for c in pivots]
        projected = [row[f] * det - sum(a * r[f] for a, r in zip(on_pivots, table)) for f in free]
        projected.append(row[n] * det - sum(a * r[n] for a, r in zip(on_pivots, table)))
        g = math.gcd(*projected) or 1
        reduced.append([v // g for v in projected])
    found: set[tuple[Fraction, ...]] = set()
    for picked in itertools.combinations(reduced, need):
        square = eliminate(picked, need)
        if square is None or len(square[1]) < need:
            continue
        # t = num / scale, feasible when every reduced row has a.num >= rhs scale
        rows, _, scale = square
        num = [r[need] for r in rows]
        if all(sum(a * t for a, t in zip(r, num)) >= r[need] * scale for r in reduced):
            x = [0] * n
            for f, t in zip(free, num):
                x[f] = t * det
            for c, r in zip(pivots, table):
                x[c] = r[n] * scale - sum(r[f] * t for f, t in zip(free, num))
            found.add(tuple(Fraction(v, det * scale) for v in x))
    return sorted(found)


def in_convex_hull(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact membership of `point` in the convex hull of `points`, by one LP.

    All coordinates are scaled to integers and shifted by their componentwise
    minimum, so the target t and the columns of A (the points) are
    nonnegative.  Then max 1.A l + 1.l s.t. A l <= t, 1.l <= 1, l >= 0 starts
    feasible from the slack basis and is bounded, and its optimum is tight
    everywhere exactly when t is a convex combination of the points.  So the
    target is a member iff the optimal weights l have sum(l) > 0 and
    A l = t sum(l), a test the shift does not change.
    """
    if not points:
        return False
    cloud, _ = integers([point, *points])
    target, *columns = cloud
    low = [min(axis) for axis in zip(*cloud)]
    shifted = [[v - m for v, m in zip(p, low)] for p in columns]
    a = [list(axis) for axis in zip(*shifted)] + [[1] * len(columns)]
    b = [v - m for v, m in zip(target, low)] + [1]
    weights, _, _ = simplex(a, b, [sum(p) + 1 for p in shifted])
    total = sum(weights)
    return total > 0 and all(
        sum(w * p[i] for w, p in zip(weights, columns)) == v * total for i, v in enumerate(target)
    )


def extreme_points(points: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Minimal subset with the same convex hull (duplicates dropped)."""
    uniq = sorted({tuple(p) for p in points})
    return [p for p in uniq if not in_convex_hull(p, [q for q in uniq if q != p])]
