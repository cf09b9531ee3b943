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
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .linalg import dot, solution_space, solve_unique

Constraint = tuple[tuple[Fraction, ...], Fraction]

# Most square systems one walk may solve: far above the longest walk of the
# test suite (10) and the benchmark (7).  A system takes about 0.15 ms at
# d = 6 and 2.5 ms at d = 15 (2-core Xeon, Python 3.11), so a walk at the
# budget takes 1.5 to 25 s.
WALK_BUDGET = 10_000


def enumerate_vertices(
    n: int,
    equalities: Sequence[Constraint],
    inequalities: Sequence[Constraint],
    find_one: bool = False,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the system, sorted; with find_one, at most one point."""
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
            point = tuple(v + sum(tk * d[j] for tk, d in zip(t, directions)) for j, v in enumerate(base))
            if find_one:
                return [point]
            found.add(point)
    return sorted(found)


def in_convex_hull(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact membership of `point` in the convex hull of `points`."""
    pts = [tuple(p) for p in points]
    target = tuple(point)
    if target in pts:
        return True
    if not pts:
        return False
    k = len(pts)
    one = Fraction(1)
    equalities: list[Constraint] = [
        (tuple(Fraction(p[i]) for p in pts), Fraction(target[i])) for i in range(len(target))
    ]
    equalities.append((tuple(one for _ in range(k)), one))
    nonneg = [(tuple(one if j == i else Fraction(0) for j in range(k)), Fraction(0)) for i in range(k)]
    return bool(enumerate_vertices(k, equalities, nonneg, find_one=True))


def extreme_points(points: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Minimal subset with the same convex hull (duplicates dropped)."""
    uniq = sorted({tuple(p) for p in points})
    return [p for p in uniq if not in_convex_hull(p, [q for q in uniq if q != p])]
