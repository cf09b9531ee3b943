import itertools
import time
from fractions import Fraction

import pytest

from bruteforce import _affine_rank, _solve_square, hull_contains, vertex_oracle
from maxlot.linalg import eliminate
from maxlot.polytope import enumerate_vertices, extreme_points, in_convex_hull
from maxlot.prng import SplitMix64

F = Fraction


def _entry(gen: SplitMix64):
    """A small int or Fraction, negative ones included."""
    num = gen.below(9) - 4
    return num if gen.below(2) else F(num, 1 + gen.below(4))


def _satisfies(rows, rhs, x) -> bool:
    return all(sum(F(v) * xi for v, xi in zip(row, x)) == b for row, b in zip(rows, rhs))


def _eliminated(rows, rhs, n):
    """`eliminate` on [rows | rhs], with det > 0 checked; None when inconsistent."""
    solved = eliminate([[*row, b] for row, b in zip(rows, rhs)], n)
    if solved is not None:
        assert solved[2] > 0, solved
    return solved


def _unique(rows, rhs):
    """x[k] = table[k][n] / det when every unknown is a pivot, else None."""
    n = len(rows[0])
    solved = _eliminated(rows, rhs, n)
    if solved is None or len(solved[1]) < n:
        return None
    table, _, det = solved
    return [F(row[n], det) for row in table[:n]]


def _space(rows, rhs, n):
    """The solutions as base + sum_k t_k directions[k], read from the table:
    one direction per free column f, 1 at f and -table[k][f] / det at
    pivots[k]; None when inconsistent."""
    solved = _eliminated(rows, rhs, n)
    if solved is None:
        return None
    table, pivots, det = solved
    base = [F(0)] * n
    for row, c in zip(table, pivots):
        base[c] = F(row[n], det)
    directions = []
    for f in sorted(set(range(n)) - set(pivots)):
        d = [F(0)] * n
        d[f] = F(1)
        for row, c in zip(table, pivots):
            d[c] = F(-row[f], det)
        directions.append(d)
    return base, directions


class TestLinalg:
    def test_solve_unique(self):
        # the second pivot is -2, so the table comes back negated with det 2
        table, pivots, det = eliminate([(F(1), F(1), F(3)), (F(1), F(-1), F(1))], 2)
        assert (table, pivots, det) == ([[2, 0, 4], [0, 2, 2]], [0, 1], 2)
        assert _unique([(F(1), F(1)), (F(1), F(-1))], (F(3), F(1))) == [F(2), F(1)]

    def test_solve_detects_underdetermined_and_inconsistent(self):
        assert _unique([(F(1), F(1))], (F(1),)) is None
        assert _unique([(F(1), F(0)), (F(1), F(0))], (F(0), F(1))) is None

    def test_overdetermined_consistent(self):
        rows = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        assert _unique(rows, (F(2), F(3), F(5))) == [F(2), F(3)]

    def test_solve_unique_matches_oracle_on_square_systems(self):
        # fraction-free elimination swaps rows and divides by the previous
        # pivot; a zero leading entry forces a swap and a copied row makes
        # the system singular.  Row swaps follow the zero entries, not the
        # signs, so negating the first row flips the sign of the last pivot:
        # one of each pair below ends on a negative pivot
        gen = SplitMix64(18)
        singular = 0
        for size in range(1, 7):
            for case in range(12):
                rows = [[_entry(gen) for _ in range(size)] for _ in range(size)]
                rhs = [_entry(gen) for _ in range(size)]
                if case % 3 == 0:
                    rows[0][0] = 0
                if case % 4 == 1:
                    rows[-1] = [2 * v for v in rows[0]]
                expected = _solve_square(rows, rhs)
                singular += expected is None
                assert _unique(rows, rhs) == expected, (size, case)
                flipped = [[-v for v in rows[0]], *rows[1:]]
                assert _unique(flipped, [-rhs[0], *rhs[1:]]) == expected, (size, case)
        assert singular >= 12

    def test_solution_space_on_rectangular_systems(self):
        gen = SplitMix64(1968)
        for case in range(60):
            m, n = 1 + gen.below(5), 1 + gen.below(6)
            rows = [[_entry(gen) for _ in range(n)] for _ in range(m)]
            if case % 5 == 0:
                rows[0][0] = 0
            if m > 1 and case % 2:
                # a dependent row lowers the rank without breaking consistency
                rows[-1] = [a + 3 * b for a, b in zip(rows[0], rows[1 % (m - 1)])]
            x = [_entry(gen) for _ in range(n)]
            rhs = [sum(F(v) * xi for v, xi in zip(row, x)) for row in rows]
            base, directions = _space(rows, rhs, n)
            assert _satisfies(rows, rhs, base), case
            for d in directions:
                assert _satisfies(rows, rhs, [b + v for b, v in zip(base, d)]), case
            assert len(directions) == n - _affine_rank([[0] * n] + rows), case
            if m > 1 and case % 2:
                # the same dependent row with another right-hand side
                assert _space(rows, rhs[:-1] + [rhs[-1] + 1], n) is None, case
        assert _space([[0, 0]], [1], 2) is None


SQUARE = [  # unit square in the plane
    (F(0), F(0)),
    (F(0), F(1)),
    (F(1), F(0)),
    (F(1), F(1)),
]


class TestHull:
    def test_membership(self):
        assert in_convex_hull((F(1, 2), F(1, 2)), SQUARE)
        assert in_convex_hull((F(1), F(1)), SQUARE)
        assert not in_convex_hull((F(2), F(0)), SQUARE)

    def test_extreme_points_drop_interior_and_duplicates(self):
        cloud = SQUARE + [(F(1, 2), F(1, 2)), (F(0), F(0)), (F(1, 3), F(0))]
        assert extreme_points(cloud) == sorted(SQUARE)

    def test_extreme_points_involutive_and_order_free(self):
        cloud = SQUARE + [(F(1, 4), F(1, 4))]
        once = extreme_points(cloud)
        assert extreme_points(once) == once
        assert extreme_points(list(reversed(cloud))) == once

    def test_membership_matches_oracle_on_random_clouds(self):
        # negative coordinates exercise the shift to the componentwise minimum
        gen = SplitMix64(1503)
        verdicts = set()
        for dim in range(1, 5):
            for k in range(1, 8):
                cloud = [tuple(_entry(gen) for _ in range(dim)) for _ in range(k)]
                weights = [gen.below(4) for _ in range(k)]
                weights[gen.below(k)] += 1
                inside = tuple(sum(F(w, sum(weights)) * p[i] for w, p in zip(weights, cloud)) for i in range(dim))
                # each point moved away from the combination, then jittered
                pushed = [
                    tuple(v + (v - c) * (1 + gen.below(3)) + F(gen.below(3) - 1, 2) for v, c in zip(p, inside))
                    for p in cloud[:3]
                ]
                for target in [inside, *cloud, *pushed]:
                    verdict = in_convex_hull(target, cloud)
                    assert verdict == hull_contains(target, cloud), (cloud, target)
                    verdicts.add(verdict)
                assert in_convex_hull(inside, cloud)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n, denominator", [(3, 5), (4, 3)])
    def test_extreme_points_of_lattice_lotteries(self, n, denominator):
        # every lottery over n alternatives with the given denominator; a
        # hull test that walks C(k, n) square systems takes tens of seconds
        # on these clouds, one LP per point takes milliseconds
        cloud = [
            tuple(F(c, denominator) for c in counts)
            for counts in itertools.product(range(denominator + 1), repeat=n)
            if sum(counts) == denominator
        ]
        started = time.perf_counter()
        units = extreme_points(cloud)
        assert time.perf_counter() - started < 1
        assert units == sorted(tuple(F(int(i == j)) for i in range(n)) for j in range(n))


class TestEnumerateVertices:
    def test_simplex_face(self):
        one, zero = F(1), F(0)
        verts = enumerate_vertices(
            3,
            [((one, one, one), one)],
            [
                ((one, zero, zero), zero),
                ((zero, one, zero), zero),
                ((zero, zero, one), zero),
            ],
        )
        assert verts == [
            (zero, zero, one),
            (zero, one, zero),
            (one, zero, zero),
        ]

    def test_trivial_and_conflicting_rows(self):
        one, zero = F(1), F(0)
        # an always-true row is ignored; an impossible row empties the system
        base_eq = [((one, one), one)]
        nonneg = [((one, zero), zero), ((zero, one), zero)]
        assert enumerate_vertices(2, base_eq, nonneg + [((zero, zero), zero)]) == [
            (zero, one),
            (one, zero),
        ]
        assert enumerate_vertices(2, base_eq, nonneg + [((zero, zero), one)]) == []

    def test_equality_only_point(self):
        one = F(1)
        verts = enumerate_vertices(
            2, [((one, F(0)), F(1, 3)), ((one, one), one)], []
        )
        assert verts == [(F(1, 3), F(2, 3))]

    def test_degenerate_tight_sets_still_give_each_vertex_once(self):
        one, zero = F(1), F(0)
        # the origin has three tight constraints (x, y, and x + y >= 0) but
        # must still appear exactly once
        verts = enumerate_vertices(
            2,
            [],
            [
                ((one, zero), zero),
                ((zero, one), zero),
                ((-one, -one), -one),
                ((one, one), zero),
            ],
        )
        assert verts == [(zero, zero), (zero, one), (one, zero)]

    def test_matches_oracle_on_random_rational_systems(self):
        # bounded systems inside a simplex, written the way the solver never
        # writes them: the sum as -sum(x) = -1, rows scaled by positive
        # rational factors, negative coefficients and right-hand sides, and
        # repeated and parallel rows
        gen = SplitMix64(20)

        def positive():
            return F(1 + gen.below(5), 1 + gen.below(3))

        counts = set()
        for case in range(48):
            n = 1 + gen.below(4)
            k = positive()
            equalities = [((-k,) * n, -k)]
            if case % 3 == 0:
                # another equality through the uniform lottery
                coeffs = tuple(_entry(gen) for _ in range(n))
                equalities.append((coeffs, sum(F(c, n) for c in coeffs)))
            inequalities = [(tuple(positive() if j == i else 0 for j in range(n)), 0) for i in range(n)]
            for _ in range(gen.below(4)):
                inequalities.append((tuple(_entry(gen) for _ in range(n)), _entry(gen)))
            if case % 2:
                coeffs, bound = inequalities[gen.below(len(inequalities))]
                factor = positive()
                inequalities += [(coeffs, bound), (tuple(c * factor for c in coeffs), bound * factor)]
                if case % 4 == 3:
                    # a parallel row that cuts deeper
                    inequalities.append((coeffs, bound + F(1, 2)))
            verts = enumerate_vertices(n, equalities, inequalities)
            assert verts == vertex_oracle(n, equalities, inequalities), case
            counts.add(len(verts))
        assert 0 in counts and max(counts) >= 3
