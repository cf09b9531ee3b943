from fractions import Fraction

from maxlot.linalg import rank, solve_unique
from maxlot.polytope import enumerate_vertices, extreme_points, in_convex_hull

F = Fraction


class TestLinalg:
    def test_solve_unique(self):
        rows = [(F(1), F(1)), (F(1), F(-1))]
        assert solve_unique(rows, (F(3), F(1))) == [F(2), F(1)]

    def test_solve_detects_underdetermined_and_inconsistent(self):
        assert solve_unique([(F(1), F(1))], (F(1),)) is None
        assert solve_unique([(F(1), F(0)), (F(1), F(0))], (F(0), F(1))) is None

    def test_overdetermined_consistent(self):
        rows = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        assert solve_unique(rows, (F(2), F(3), F(5))) == [F(2), F(3)]

    def test_rank(self):
        rows = [(F(1), F(2), F(3)), (F(2), F(4), F(6))]
        assert rank(rows) == 1


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
