from fractions import Fraction

import pytest
from hypothesis import given

from maxlot import (
    Agenda,
    LinearOrder,
    Lottery,
    LotteryPolytope,
    condorcet_winners,
    essential_set,
    is_maximal,
    make_profile,
    margins,
    maximal_lotteries,
    maximin_polytope,
    permute,
    permute_lottery,
    sample,
    unique_maximal,
)
from maxlot import solver
from maxlot.polytope import in_convex_hull
from maxlot.prng import SplitMix64
from maxlot.rules import cubed_margins, ml_cubed
from maxlot.sim import gen_impartial_culture

from bruteforce import maximin_vertex_oracle
from conftest import profile_from
from test_core import profiles
from test_margins import skew

F = Fraction


def tie_profile():
    return profile_from({"x>y": F(1, 2), "y>x": F(1, 2)})


def random_profile(gen, n, max_ballots=6):
    agenda = Agenda(tuple("abcdef"[:n]))
    count = 1 + gen.below(max_ballots)
    return make_profile(
        agenda, [(LinearOrder(gen.permutation(agenda.ids)), 1) for _ in range(count)]
    )


class TestMaximalLotteries:
    def test_strict_winner_takes_all(self, strict_winner_profile):
        poly = maximal_lotteries(strict_winner_profile)
        assert poly.vertices == (Lottery.degenerate(poly.agenda, "a"),)

    def test_even_split_spans_the_segment(self):
        poly = maximal_lotteries(tie_profile())
        # canonical vertex order is lexicographic in the probability vector
        assert poly.vertices == (
            Lottery.degenerate(poly.agenda, "y"),
            Lottery.degenerate(poly.agenda, "x"),
        )

    def test_uniform_cycle_mixes_equally(self, cyclic_tie_profile):
        poly = maximal_lotteries(cyclic_tie_profile)
        assert poly.vertices == (Lottery(poly.agenda, (F(1, 3), F(1, 3), F(1, 3))),)

    def test_single_alternative(self):
        p = make_profile(Agenda(("solo",)), [(LinearOrder(("solo",)), 1)])
        assert maximal_lotteries(p).vertices == (Lottery.degenerate(p.agenda, "solo"),)

    def test_degenerate_even_game_falls_back(self):
        # two tied pairs facing off: no odd-support equilibrium exists
        agenda = Agenda(("a", "b", "c", "d"))
        m = skew(agenda, [("a", "c", 1), ("a", "d", -1), ("b", "c", -1), ("b", "d", 1)])
        verts = maximin_polytope(m).vertices
        assert [v.probs for v in verts] == [
            (F(0), F(0), F(1, 2), F(1, 2)),
            (F(1, 2), F(1, 2), F(0), F(0)),
        ]


    def test_cycle_with_coprime_denominators(self):
        # margins over 2, 3 and 5 scale to integers only by their lcm, 30
        agenda = Agenda(("a", "b", "c"))
        m = skew(agenda, [("a", "b", F(1, 2)), ("b", "c", F(1, 3)), ("c", "a", F(1, 5))])
        verts = [v.probs for v in maximin_polytope(m).vertices]
        assert verts == [(F(10, 31), F(6, 31), F(15, 31))] == maximin_vertex_oracle(m.rows)


class TestMembershipAndReports:
    def test_is_maximal_fixtures(self, strict_winner_profile):
        agenda = strict_winner_profile.agenda
        assert is_maximal(strict_winner_profile, Lottery.degenerate(agenda, "a"))
        assert not is_maximal(strict_winner_profile, Lottery.degenerate(agenda, "b"))

    def test_everything_is_maximal_under_full_tie(self):
        p = tie_profile()
        assert is_maximal(p, Lottery(p.agenda, (F(1, 3), F(2, 3))))

    def test_agenda_mismatch_rejected(self, strict_winner_profile):
        with pytest.raises(ValueError):
            is_maximal(strict_winner_profile, Lottery.degenerate(Agenda(("a", "b")), "a"))

    def test_unique_maximal(self, strict_winner_profile, cyclic_tie_profile):
        assert unique_maximal(strict_winner_profile) == Lottery.degenerate(
            strict_winner_profile.agenda, "a"
        )
        assert unique_maximal(tie_profile()) is None
        assert unique_maximal(cyclic_tie_profile) is not None

    def test_essential_set(self, strict_winner_profile, cyclic_tie_profile):
        assert essential_set(strict_winner_profile) == ("a",)
        assert essential_set(tie_profile()) == ("x", "y")
        assert essential_set(cyclic_tie_profile) == ("a", "b", "c")

    def test_condorcet_reports(self, strict_winner_profile, cyclic_tie_profile):
        strict = condorcet_winners(strict_winner_profile)
        assert strict.weak == ("a",) and strict.strict == "a"
        tie = condorcet_winners(tie_profile())
        assert tie.weak == ("x", "y") and tie.strict is None
        cycle = condorcet_winners(cyclic_tie_profile)
        assert cycle.weak == () and cycle.strict is None


class TestSolverProperties:
    def test_matches_oracle_on_random_profiles(self):
        gen = SplitMix64(99)
        cases = [random_profile(gen, 2 + gen.below(3)) for _ in range(60)]
        for n in range(3, 7):
            # an order plus its reverse ties every pair, so every ratio test
            # ties; the vertices are the n unit lotteries
            order = LinearOrder(tuple("abcdef"[:n]))
            p = make_profile(Agenda(order.ranking), [(order, 1), (LinearOrder(order.ranking[::-1]), 1)])
            units = sorted(Lottery.degenerate(p.agenda, x) for x in p.agenda.ids)
            assert maximal_lotteries(p).vertices == tuple(units)
            cases.append(p)
        for p in cases:
            # cubed margins have denominators up to v^3, exercising the lcm scaling
            for poly, rows in ((maximal_lotteries(p), margins(p).rows), (ml_cubed(p), cubed_margins(p).rows)):
                assert [v.probs for v in poly.vertices] == maximin_vertex_oracle(rows), p

    @pytest.mark.parametrize("n", [5, 6])
    def test_face_route_matches_oracle_on_even_electorates(self, n, monkeypatch):
        # small even electorates tie often, so most of these profiles reach
        # the face route on a proper subset of the alternatives, and some
        # need a second walk after a vertex loses against a column off the
        # essential set
        face_sizes = []
        walks = []
        real_walk = solver.enumerate_vertices

        def counting_walk(k, equalities, inequalities):
            face_sizes.append(k)
            walks[-1] += 1
            return real_walk(k, equalities, inequalities)

        monkeypatch.setattr(solver, "enumerate_vertices", counting_walk)
        for voters in (2, 4, 6):
            for seed in range(5):
                p = gen_impartial_culture(n, voters, seed)
                m = margins(p)
                walks.append(0)
                oracle = maximin_vertex_oracle(m.rows)
                assert solver.maximin_vertices([m], m.agenda.ids) == oracle, (voters, seed)
                support = {x for v in oracle for x, q in zip(p.agenda.ids, v) if q}
                assert essential_set(p) == tuple(sorted(support)), (voters, seed)
        assert any(0 < k < n for k in face_sizes)
        assert any(w >= 2 for w in walks)

    def test_face_cut_round_at_six(self, monkeypatch):
        # the face on the essential set reaches past a column off it, so the
        # first walk's vertices lose and a second walk adds that cut
        walks = []
        real_walk = solver.enumerate_vertices
        monkeypatch.setattr(solver, "enumerate_vertices", lambda *a: walks.append(a) or real_walk(*a))
        m = margins(gen_impartial_culture(6, 26, 6))
        assert solver.maximin_vertices([m], m.agenda.ids) == maximin_vertex_oracle(m.rows)
        assert len(walks) == 2

    def test_even_electorate_at_twenty_solves(self):
        # the simplex point ties 15 columns, but the essential set has 3
        # alternatives and the face three vertices
        p = gen_impartial_culture(20, 2, 0)
        probs = [v.probs for v in maximal_lotteries(p).vertices]
        assert len(probs) == 3
        assert all(is_maximal(p, Lottery(p.agenda, v)) for v in probs)
        for i, v in enumerate(probs):
            assert not in_convex_hull(v, probs[:i] + probs[i + 1 :])

    def test_even_electorate_at_twelve_solves(self):
        # a degenerate even-electorate game whose maximin strategies form a segment
        p = gen_impartial_culture(12, 26, 0)
        verts = maximal_lotteries(p).vertices
        assert [dict(zip(v.agenda.ids, v.probs)) for v in verts] == [
            {**dict.fromkeys(p.agenda.ids, F(0)), "a03": F(1, 5), "a11": F(4, 5)},
            {**dict.fromkeys(p.agenda.ids, F(0)), "a03": F(1, 3), "a11": F(2, 3)},
        ]
        assert all(is_maximal(p, v) for v in verts)

    @given(profiles())
    def test_vertices_are_maximal_and_extreme(self, profile):
        poly = maximal_lotteries(profile)
        assert len(poly.vertices) >= 1
        for v in poly.vertices:
            assert is_maximal(profile, v)
        probs = [v.probs for v in poly.vertices]
        for i, v in enumerate(probs):
            assert not in_convex_hull(v, probs[:i] + probs[i + 1 :])

    @given(profiles())
    def test_midpoints_stay_maximal(self, profile):
        poly = maximal_lotteries(profile)
        verts = poly.vertices
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                mid = Lottery(
                    poly.agenda,
                    tuple((a + b) / 2 for a, b in zip(verts[i].probs, verts[j].probs)),
                )
                assert is_maximal(profile, mid)

    @given(profiles())
    def test_strict_winner_law(self, profile):
        report = condorcet_winners(profile)
        if report.strict is not None:
            assert maximal_lotteries(profile).vertices == (
                Lottery.degenerate(profile.agenda, report.strict),
            )

    @given(profiles())
    def test_degenerate_vertices_are_weak_winners(self, profile):
        weak = set(condorcet_winners(profile).weak)
        for v in maximal_lotteries(profile).vertices:
            support = v.support()
            if len(support) == 1:
                assert support[0] in weak

    @given(profiles())
    def test_neutrality(self, profile):
        mapping = dict(zip(profile.agenda.ids, profile.agenda.ids[1:] + profile.agenda.ids[:1]))
        direct = sorted(
            permute_lottery(v, mapping) for v in maximal_lotteries(profile).vertices
        )
        relabeled = list(maximal_lotteries(permute(profile, mapping)).vertices)
        assert direct == relabeled


class TestPolytopeType:
    def test_sorted_and_deduped(self):
        agenda = Agenda(("x", "y"))
        a = Lottery.degenerate(agenda, "x")
        b = Lottery.degenerate(agenda, "y")
        poly = LotteryPolytope(agenda, (b, a, b))
        assert poly.vertices == (b, a)

    def test_rejects_empty_and_mismatched(self):
        agenda = Agenda(("x", "y"))
        with pytest.raises(ValueError):
            LotteryPolytope(agenda, ())
        with pytest.raises(ValueError):
            LotteryPolytope(agenda, (Lottery.degenerate(Agenda(("p", "q")), "p"),))


class TestSampling:
    def test_degenerate_is_certain(self):
        lot = Lottery.degenerate(Agenda(("a", "b", "c")), "b")
        assert all(sample(lot, seed) == "b" for seed in range(50))

    def test_deterministic_in_seed(self):
        lot = Lottery(Agenda(("x", "y")), (F(1, 2), F(1, 2)))
        assert [sample(lot, 7)] * 10 == [sample(lot, 7) for _ in range(10)]

    def test_frequencies_track_probabilities(self):
        lot = Lottery(Agenda(("a", "b")), (F(5, 6), F(1, 6)))
        hits = sum(1 for seed in range(60000) if sample(lot, seed) == "a")
        assert 0.82 <= hits / 60000 <= 0.85
