"""Exact vertex enumeration and convex-hull tests for rational polytopes.

Constraint systems are lists of (coefficients, rhs) pairs over n variables:
equalities mean coeffs . x == rhs, inequalities mean coeffs . x >= rhs.
Every polytope handled here lives inside a probability simplex, hence is
bounded, so its vertex set is exactly the set of feasible points whose tight
constraints have full rank.  Enumeration therefore writes the solutions of
the equalities as a base point plus d = n - rank(equalities) free
coordinates, walks all ways of making d inequalities tight, solves each
d x d system exactly, and keeps the feasible solutions; a walk longer than
WALK_BUDGET square systems is refused with a ValueError instead of run.
Convex-hull membership does not walk: it is one exact LP on
`linalg.simplex`, so `extreme_points` costs one LP per point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .linalg import dot, integers, simplex, solution_space, solve_unique

Constraint = tuple[tuple[Fraction, ...], Fraction]

# Most square systems one walk may solve: far above the longest walk of the
# test suite (10) and the benchmark (7).  A system, with its feasibility
# check, takes about 0.4 ms at d = 6 and 1.2 to 1.7 ms at d = 15 (faces of
# an order plus its reverse, 2-core Xeon, Python 3.11), so a walk at the
# budget takes about 4 to 17 s.
WALK_BUDGET = 10_000


def enumerate_vertices(
    n: int,
    equalities: Sequence[Constraint],
    inequalities: Sequence[Constraint],
) -> list[tuple[Fraction, ...]]:
    """All vertices of the system, sorted."""
    # drop vacuous and repeated inequalities; they cannot add tight-set rank
    kept: list[Constraint] = []
    seen: set[Constraint] = set()
    for coeffs, bound in inequalities:
        coeffs = tuple(coeffs)
        bound = Fraction(bound)
        if all(v == 0 for v in coeffs):
            if bound > 0:
                return []
            continue
        if (coeffs, bound) not in seen:
            seen.add((coeffs, bound))
            kept.append((coeffs, bound))
    inequalities = kept
    space = solution_space([c for c, _ in equalities], [b for _, b in equalities], n)
    if space is None:
        return []
    base, directions = space
    need = len(directions)
    count = math.comb(len(inequalities), need)
    if count > WALK_BUDGET:
        raise ValueError(
            f"face of dimension d = {need} needs {count} square systems "
            f"(C({len(inequalities)}, {need})), over the walk budget of {WALK_BUDGET}"
        )
    # on x = base + sum_k t_k directions[k] each inequality c.x >= b reads
    # (c.directions[k])_k . t >= b - c.base, so each system is d x d
    reduced = [(tuple(dot(c, d) for d in directions), b - dot(c, base)) for c, b in inequalities]
    found: set[tuple[Fraction, ...]] = set()
    for picked in itertools.combinations(reduced, need):
        t = solve_unique([c for c, _ in picked], [b for _, b in picked]) if need else []
        if t is None:
            continue
        if all(dot(c, t) >= b for c, b in reduced):
            found.add(tuple(v + sum(tk * d[j] for tk, d in zip(t, directions)) for j, v in enumerate(base)))
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
