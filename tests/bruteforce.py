"""Independent brute-force oracles for the test suite.

Deliberately separate from the library's linear algebra: these use their own
elimination, their own feasibility filter, and their own convex-hull test, so
agreement with the solver is evidence rather than tautology.
"""

import itertools
import math
from fractions import Fraction


def _solve_square(rows, rhs):
    """Unique solution of a square rational system, or None when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        div = aug[col][col]
        aug[col] = [v / div for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _affine_rank(vectors):
    """Rank of the difference space of a list of rational vectors."""
    if not vectors:
        return 0
    base = vectors[0]
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(vec, base)] for vec in vectors[1:]]
    width = len(base)
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        div = rows[rank][col]
        rows[rank] = [v / div for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def hull_contains(point, points):
    """Exact hull membership via affinely independent subsets (Caratheodory)."""
    point = tuple(Fraction(v) for v in point)
    pts = [tuple(Fraction(v) for v in p) for p in points]
    if point in pts:
        return True
    dim = len(point)
    for size in range(1, dim + 2):
        for subset in itertools.combinations(pts, size):
            rows = [[subset[j][i] for j in range(size)] for i in range(dim)]
            rows.append([Fraction(1)] * size)
            rhs = list(point) + [Fraction(1)]
            # overdetermined: solve on a square slice, then verify every row
            for picked in itertools.combinations(range(dim + 1), size):
                coeffs = _solve_square([rows[i] for i in picked], [rhs[i] for i in picked])
                if coeffs is None:
                    continue
                if all(c >= 0 for c in coeffs) and all(
                    sum(r[j] * coeffs[j] for j in range(size)) == b for r, b in zip(rows, rhs)
                ):
                    return True
                break
    return False


def prune_extreme(points):
    uniq = sorted({tuple(Fraction(v) for v in p) for p in points})
    return [p for p in uniq if not hull_contains(p, [q for q in uniq if q != p])]


def vertex_oracle(n, equalities, inequalities):
    """All vertices of {x : c.x == b for the equalities, c.x >= b for the
    inequalities} over n unknowns, sorted.

    Every n-subset of all the rows is solved as a square system, and the
    solutions that satisfy every row are kept: a point is a vertex exactly
    when n linearly independent rows are tight at it.
    """
    rows = [*equalities, *inequalities]

    def value(coeffs, x):
        return sum(Fraction(c) * v for c, v in zip(coeffs, x))

    found = set()
    for picked in itertools.combinations(rows, n):
        x = _solve_square([c for c, _ in picked], [b for _, b in picked])
        if x is None:
            continue
        if all(value(c, x) == b for c, b in equalities) and all(value(c, x) >= b for c, b in inequalities):
            found.add(tuple(x))
    return sorted(found)


def maximin_vertex_oracle(rows):
    """All vertices of {x >= 0, sum x = 1, x^T M >= 0} by naive basis search.

    M has one row per coordinate of x and any number of columns (stacking
    the columns of several games gives the lotteries that never lose in
    any of them).  Every n-subset of the full constraint list is solved as
    a square system, feasible solutions are kept, and non-extreme points
    pruned.
    """
    n = len(rows)
    m = len(rows[0])
    one = Fraction(1)
    zero = Fraction(0)
    constraints = [tuple(one for _ in range(n))]  # sum = 1, index 0
    rhs = [one]
    for j in range(n):  # x_j >= 0
        constraints.append(tuple(one if k == j else zero for k in range(n)))
        rhs.append(zero)
    for j in range(m):  # expected margin against column j >= 0
        constraints.append(tuple(Fraction(rows[i][j]) for i in range(n)))
        rhs.append(zero)
    candidates = set()
    for picked in itertools.combinations(range(len(constraints)), n):
        x = _solve_square([constraints[i] for i in picked], [rhs[i] for i in picked])
        if x is None:
            continue
        if sum(x) != 1:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(x[i] * rows[i][j] for i in range(n)) < 0 for j in range(m)):
            continue
        candidates.add(tuple(x))
    return prune_extreme(candidates)


def condorcet_paradox_fraction_3x3():
    """Exact fraction of 3-voter, 3-alternative voter assignments with no weak
    Condorcet winner, by exhaustive enumeration of all 6^3 equiprobable cases."""
    orders = list(itertools.permutations(range(3)))
    total = 0
    hits = 0
    for combo in itertools.product(orders, repeat=3):
        total += 1
        wins = [[0] * 3 for _ in range(3)]
        for order in combo:
            for hi in range(3):
                for lo in range(hi + 1, 3):
                    wins[order[hi]][order[lo]] += 1
        weak = False
        for x in range(3):
            if all(wins[x][y] >= wins[y][x] for y in range(3) if y != x):
                weak = True
                break
        if not weak:
            hits += 1
    return Fraction(hits, total)


def borda_scores_oracle(profile):
    """Positional scores recomputed as sums of pairwise fractions."""
    from maxlot import pairwise_fraction

    return {
        x: sum(pairwise_fraction(profile, x, y) for y in profile.agenda if y != x)
        for x in profile.agenda
    }


def margins_oracle(profile):
    """Margin rows recomputed entry by entry from pairwise fractions."""
    from maxlot import pairwise_fraction

    ids = profile.agenda.ids
    return tuple(
        tuple(
            Fraction(0) if x == y else pairwise_fraction(profile, x, y) - pairwise_fraction(profile, y, x)
            for y in ids
        )
        for x in ids
    )


def mcgarvey_oracle(matrix):
    """McGarvey's construction summed in Fractions, one order per placement.

    Each positive entry (i, j) spreads c * m_ij evenly over the (n-1)!
    orders that keep i immediately above j, with c = 1 / sum of the
    positive entries.  Returns the profile and c.
    """
    from maxlot import LinearOrder, make_profile

    ids = matrix.agenda.ids
    n = len(ids)
    total = sum(v for row in matrix.rows for v in row if v > 0)
    c = 1 / Fraction(total)
    share = Fraction(1, math.factorial(n - 1))
    tally = {}
    for i in range(n):
        for j in range(n):
            m = matrix.rows[i][j]
            if m <= 0:
                continue
            others = [ids[k] for k in range(n) if k != i and k != j]
            for arrangement in itertools.permutations(others + [None]):
                ranking = []
                for item in arrangement:
                    ranking.extend((ids[i], ids[j]) if item is None else (item,))
                order = LinearOrder(ranking)
                tally[order] = tally.get(order, Fraction(0)) + c * m * share
    return make_profile(matrix.agenda, tally.items()), c


def spatial_oracle(n_alternatives, n_voters, dim, seed):
    """The spatial profile drawn with Fraction coordinates on the 2^-32 grid.

    Same draws as `maxlot.sim.gen_spatial`: one point per alternative in id
    order, then one per voter, each coordinate `next_u64() >> 32` over 2^32;
    voters rank by exact Fraction squared distance, ties by id.
    """
    from maxlot import Agenda, LinearOrder, make_profile
    from maxlot.prng import SplitMix64

    agenda = Agenda(f"a{i:02d}" for i in range(n_alternatives))
    gen = SplitMix64(seed)
    grid = 1 << 32

    def point():
        return tuple(Fraction(gen.next_u64() >> 32, grid) for _ in range(dim))

    spots = {x: point() for x in agenda}
    entries = []
    for _ in range(n_voters):
        here = point()
        ranked = sorted(
            agenda.ids,
            key=lambda x: (sum((a - b) ** 2 for a, b in zip(spots[x], here)), x),
        )
        entries.append((LinearOrder(ranked), 1))
    return make_profile(agenda, entries)


def affinely_independent(vectors) -> bool:
    return _affine_rank(vectors) == len(vectors) - 1
