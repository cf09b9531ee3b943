import json
from fractions import Fraction

import pytest

from maxlot import (
    Agenda,
    Lottery,
    Profile,
    RuleId,
    apply_rule,
    check_agenda_consistency,
    check_cloning_consistency,
    check_composition_consistency,
    check_condorcet_consistency,
    check_neutrality,
    check_population_consistency,
    check_strong_population_consistency,
    check_unanimity,
    compose_lottery_sets,
    make_profile,
    mcgarvey,
    mix,
    outcome_intersection,
    random_check,
    restrict,
    rule_contains,
    run_random_suite,
    search_population_inconsistency,
)
from maxlot.axioms import AxiomVerdict, random_component_instance
from maxlot.polytope import extreme_points
from maxlot.prng import SplitMix64, derive_seed
from maxlot.rules import outcome_vertices, rule_payoff_matrix
from maxlot.sim import gen_impartial_culture

from bruteforce import maximin_vertex_oracle
from conftest import profile_from
from test_margins import skew

F = Fraction


def ml3_witness_profiles() -> tuple[Profile, Profile]:
    """Two 4-alternative profiles sharing one cubed-margin outcome.

    Both carry the same 3-cycle on {a, b, c}; the fourth alternative's row is
    (-3/4, 1/2, 1/2) against (a, b, c) in one profile and its rotation in the
    other.  Each cubed game accepts exactly the uniform lottery on {a, b, c},
    but mixing the electorates halves the d-row into (-1/8, -1/8, 1/2), whose
    cubes sum positive, so the shared lottery loses to d in the mixture.
    """
    agenda = Agenda(("a", "b", "c", "d"))
    g, u, v = F(1, 2), F(3, 4), F(1, 2)
    cycle = [("a", "b", g), ("b", "c", g), ("c", "a", g)]
    left_matrix = skew(agenda, cycle + [("d", "a", -u), ("d", "b", v), ("d", "c", v)])
    right_matrix = skew(agenda, cycle + [("d", "a", v), ("d", "b", -u), ("d", "c", v)])
    return mcgarvey(left_matrix)[0], mcgarvey(right_matrix)[0]


class TestPopulationConsistency:
    def test_ml_keeps_shared_lottery(self, agreeing_electorates):
        left, right = agreeing_electorates
        verdict = check_population_consistency(RuleId.ML, left, right, F(1, 2))
        assert verdict.passed
        # the half-half lottery on {a, b} is accepted by both electorates
        # and survives into their merge
        half = Lottery(left.agenda, (F(1, 2), F(1, 2), F(0)))
        merged = mix([(left, F(1, 2)), (right, F(1, 2))])
        assert rule_contains(RuleId.ML, left, half)
        assert rule_contains(RuleId.ML, right, half)
        assert rule_contains(RuleId.ML, merged, half)
        # and it lies in the computed intersection polytope
        shared = outcome_intersection(RuleId.ML, left, right)
        assert len(shared) == 2 and half.probs == tuple(
            (shared[0].probs[i] + shared[1].probs[i]) / 2 for i in range(3)
        )
        # a profile met with itself gives back its own outcome set
        for rule in RuleId:
            for p in (left, right, *ml3_witness_profiles()):
                assert outcome_intersection(rule, p, p) == list(apply_rule(rule, p).vertices)

    def test_rd_is_linear(self):
        gen = SplitMix64(5)
        agenda = Agenda(("a", "b", "c"))
        from maxlot import random_profile

        for _ in range(30):
            left = random_profile(gen, agenda)
            right = random_profile(gen, agenda)
            assert check_population_consistency(RuleId.RD, left, right, F(1, 3)).passed

    def test_agenda_mismatch_rejected(self, strict_winner_profile, clone_pair_profile):
        with pytest.raises(ValueError):
            check_population_consistency(
                RuleId.ML, strict_winner_profile, clone_pair_profile, F(1, 2)
            )

    def test_ml3_engineered_violation(self):
        left, right = ml3_witness_profiles()
        uniform_abc = Lottery.from_mapping(
            left.agenda, {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}
        )
        assert apply_rule(RuleId.ML3, left).vertices == (uniform_abc,)
        assert apply_rule(RuleId.ML3, right).vertices == (uniform_abc,)
        verdict = check_population_consistency(RuleId.ML3, left, right, F(1, 2))
        assert not verdict.passed
        witness = verdict.witness
        assert witness["lottery"] == uniform_abc
        # the witness re-validates through the public membership test
        assert rule_contains(RuleId.ML3, witness["left"], witness["lottery"])
        assert rule_contains(RuleId.ML3, witness["right"], witness["lottery"])
        assert not rule_contains(RuleId.ML3, witness["mixture"], witness["lottery"])
        # the same pair is harmless for plain maximal lotteries
        assert check_population_consistency(RuleId.ML, left, right, F(1, 2)).passed

    def test_search_finds_ml3_violation(self):
        verdict = search_population_inconsistency(RuleId.ML3, trials=400, seed=2)
        assert verdict is not None and not verdict.passed
        witness = verdict.witness
        assert rule_contains(RuleId.ML3, witness["left"], witness["lottery"])
        assert rule_contains(RuleId.ML3, witness["right"], witness["lottery"])
        assert not rule_contains(RuleId.ML3, witness["mixture"], witness["lottery"])
        mixture = mix(
            [(witness["left"], witness["coefficient"]), (witness["right"], 1 - witness["coefficient"])]
        )
        assert mixture == witness["mixture"]


class TestStrongPopulationConsistency:
    def test_ml_fails_on_opposed_electorates(self, cyclic_tie_profile):
        reversed_profile = make_profile(
            cyclic_tie_profile.agenda,
            [(order.reverse(), w) for order, w in cyclic_tie_profile.weights.items()],
        )
        verdict = check_strong_population_consistency(
            RuleId.ML, cyclic_tie_profile, reversed_profile, F(1, 2)
        )
        assert not verdict.passed
        assert verdict.witness["direction"] == "added"
        # the plain inclusion form still holds on the same pair
        assert check_population_consistency(
            RuleId.ML, cyclic_tie_profile, reversed_profile, F(1, 2)
        ).passed

    def test_vacuous_when_no_agreement(self, strict_winner_profile):
        flipped = profile_from({"b>a>c": 1})
        verdict = check_strong_population_consistency(
            RuleId.ML, strict_winner_profile, flipped, F(1, 2)
        )
        assert verdict.passed


class TestCompositionConsistency:
    def test_ml_passes_clone_fixture(self, clone_pair_profile):
        assert check_composition_consistency(
            RuleId.ML, clone_pair_profile, ("b", "b2"), "b"
        ).passed

    def test_rd_fails_clone_fixture(self, clone_pair_profile):
        verdict = check_composition_consistency(RuleId.RD, clone_pair_profile, ("b", "b2"), "b")
        assert not verdict.passed
        witness = verdict.witness
        # re-derive both sides from the witness and reproduce the mismatch
        outer = apply_rule(RuleId.RD, restrict(witness["profile"], ("a", "b")))
        inner = apply_rule(RuleId.RD, restrict(witness["profile"], witness["component"]))
        composed = compose_lottery_sets(outer.vertices, inner.vertices, witness["pivot"])
        returned = apply_rule(RuleId.RD, witness["profile"]).vertices
        assert sorted(composed) != sorted(returned)
        assert [v.as_mapping() for v in composed] == [
            {"a": F(1, 2), "b": F(1, 3), "b2": F(1, 6)}
        ]

    def test_singleton_component_trivial(self, strict_winner_profile):
        for rule in RuleId:
            assert check_composition_consistency(
                rule, strict_winner_profile, ("b",), "b"
            ).passed

    def test_rejects_non_component(self, strict_winner_profile):
        with pytest.raises(ValueError):
            check_composition_consistency(RuleId.ML, strict_winner_profile, ("a", "b"), "a")
        with pytest.raises(ValueError):
            check_composition_consistency(RuleId.ML, strict_winner_profile, ("b", "c"), "a")


class TestCloningConsistency:
    def test_rd_and_ml_pass_clone_fixture(self, clone_pair_profile):
        assert check_cloning_consistency(RuleId.RD, clone_pair_profile, ("b", "b2"), "b").passed
        assert check_cloning_consistency(RuleId.ML, clone_pair_profile, ("b", "b2"), "b").passed

    def test_singleton_component(self, strict_winner_profile):
        assert check_cloning_consistency(RuleId.ML, strict_winner_profile, ("c",), "c").passed

    def test_borda_failure_carries_a_witness(self):
        failed = [v for v in run_random_suite("cloning", RuleId.BORDA, 20, seed=0) if not v.passed]
        assert failed
        witness = failed[0].witness
        outside = witness["outside"]
        assert set(outside).isdisjoint(witness["component"]) and witness["pivot"] in witness["component"]
        assert witness["projection_full"] != witness["projection_reduced"]


class TestCondorcetConsistency:
    def test_ml_passes_rd_fails(self, strict_winner_profile):
        assert check_condorcet_consistency(RuleId.ML, strict_winner_profile).passed
        verdict = check_condorcet_consistency(RuleId.RD, strict_winner_profile)
        assert not verdict.passed
        assert verdict.witness["winner"] == "a"
        assert not rule_contains(
            RuleId.RD, verdict.witness["profile"], verdict.witness["lottery"]
        )

    def test_vacuous_without_winner(self, cyclic_tie_profile):
        for rule in RuleId:
            assert check_condorcet_consistency(rule, cyclic_tie_profile).passed


class TestNeutralityAndUnanimity:
    def test_identity_map(self, strict_winner_profile):
        ident = {x: x for x in strict_winner_profile.agenda}
        assert check_neutrality(RuleId.ML, strict_winner_profile, ident).passed

    def test_relabel_to_fresh_ids(self, strict_winner_profile):
        mapping = {"a": "z1", "b": "z2", "c": "z0"}
        for rule in RuleId:
            assert check_neutrality(rule, strict_winner_profile, mapping).passed

    def test_unanimity_all_rules(self):
        for rule in RuleId:
            assert check_unanimity(rule).passed


class TestAgendaConsistency:
    def test_ml_fixture(self, strict_winner_profile):
        assert check_agenda_consistency(
            RuleId.ML, strict_winner_profile, ("a", "b"), ("a", "c")
        ).passed

    def test_empty_both_sides(self, strict_winner_profile):
        verdict = check_agenda_consistency(
            RuleId.ML, strict_winner_profile, ("a", "b"), ("b", "c")
        )
        assert verdict.passed

    def test_rd_on_the_same_split(self, strict_winner_profile):
        # rd never separates the two sides: both are empty here
        assert check_agenda_consistency(
            RuleId.RD, strict_winner_profile, ("a", "b"), ("a", "c")
        ).passed

    def test_rejects_bad_agendas(self, strict_winner_profile):
        with pytest.raises(ValueError):
            check_agenda_consistency(RuleId.ML, strict_winner_profile, ("a", "b"), ("b",))
        with pytest.raises(ValueError):
            check_agenda_consistency(RuleId.ML, strict_winner_profile, ("a",), ("b", "c"))


def even_electorate_pairs():
    """Pairs of small even electorates over one agenda, n = 2..5; even
    electorates tie, so their outcome sets are often faces that meet."""
    for n in range(2, 6):
        for seed in range(3):
            yield gen_impartial_culture(n, 2, seed), gen_impartial_culture(n, 4, 10 + seed)


@pytest.mark.parametrize("rule", [RuleId.ML, RuleId.ML3])
class TestIntersectionsMatchOracle:
    """Both intersections against the oracle on the two games' stacked columns."""

    def test_outcome_intersection(self, rule):
        sizes = []
        for left, right in even_electorate_pairs():
            m1, m2 = rule_payoff_matrix(rule, left), rule_payoff_matrix(rule, right)
            stacked = [r1 + r2 for r1, r2 in zip(m1.rows, m2.rows)]
            shared = [v.probs for v in outcome_intersection(rule, left, right)]
            assert shared == maximin_vertex_oracle(stacked), (left, right)
            sizes.append(len(shared))
        assert 0 in sizes and any(k > 1 for k in sizes)

    def test_restricted_intersection(self, rule):
        sizes = []
        for left, right in even_electorate_pairs():
            profile = mix([(left, F(1, 2)), (right, F(1, 2))])
            ids = profile.agenda.ids
            a1, a2 = ids[: max(len(ids) - 1, 2)], ids[1:]
            common = tuple(sorted(set(a1) & set(a2)))
            m1 = rule_payoff_matrix(rule, restrict(profile, a1))
            m2 = rule_payoff_matrix(rule, restrict(profile, a2))
            stacked = [m1.rows[m1.agenda.index(x)] + m2.rows[m2.agenda.index(x)] for x in common]
            shared = outcome_vertices(rule, [restrict(profile, a1), restrict(profile, a2)], common)
            assert shared == maximin_vertex_oracle(stacked), (profile, a1, a2)
            sizes.append(len(shared))
        assert 0 in sizes and any(k > 0 for k in sizes)


def test_point_rules_meet_only_inside_over():
    # restricted to {a, b} every ballot puts a first, so a wins outside the
    # overlap {b, c}; restricted to {b, c} the winner is b
    profile = profile_from({"a>b>c": 1})
    left, right = restrict(profile, ("a", "b")), restrict(profile, ("b", "c"))
    flipped = profile_from({"b>a>c": 1})
    for rule in (RuleId.RD, RuleId.BORDA):
        assert outcome_vertices(rule, [right, right], ("b", "c")) == [(F(1), F(0))]
        assert outcome_vertices(rule, [left, right], ("b", "c")) == []
        assert outcome_vertices(rule, [profile, flipped], profile.agenda.ids) == []


@pytest.mark.parametrize("rule", list(RuleId))
def test_compositions_are_their_own_extreme_points(rule):
    """Composing vertices of the outer and inner outcomes yields only extreme
    points, so the composition check needs no hull test; checked on the
    random composition instances of three suite seeds."""
    several = 0
    for seed in range(3):
        for t in range(20):
            profile, component, pivot = random_component_instance(SplitMix64(derive_seed(seed, t)))
            outside = [x for x in profile.agenda if x not in component]
            outer = apply_rule(rule, restrict(profile, outside + [pivot]))
            inner = apply_rule(rule, restrict(profile, component))
            composed = [v.probs for v in compose_lottery_sets(outer.vertices, inner.vertices, pivot)]
            assert extreme_points(composed) == composed
            several += len(composed) > 1
    assert rule in (RuleId.RD, RuleId.BORDA) or several


class TestVerdictPlumbing:
    def test_failed_needs_witness(self):
        with pytest.raises(ValueError):
            AxiomVerdict("population", RuleId.ML, False, None)

    def test_witness_serializes_to_json(self, clone_pair_profile):
        verdict = check_composition_consistency(RuleId.RD, clone_pair_profile, ("b", "b2"), "b")
        blob = json.dumps(verdict.as_json())
        decoded = json.loads(blob)
        assert decoded["axiom"] == "composition"
        assert decoded["rule"] == "rd"
        assert decoded["passed"] is False
        assert decoded["witness"]["profile"]["ballots"]["b>b2>a"] == "1/2"

    def test_random_suite_is_seed_stable(self):
        first = run_random_suite("condorcet", RuleId.ML, 10, seed=3)
        second = run_random_suite("condorcet", RuleId.ML, 10, seed=3)
        assert [v.passed for v in first] == [v.passed for v in second]
        assert all(v.passed for v in first)

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            random_check("monotonicity", RuleId.ML, SplitMix64(0))

    @pytest.mark.parametrize("bound", [3, 4, 5, 6])
    def test_component_instances_respect_the_bound(self, bound):
        sizes = set()
        for t in range(200):
            profile, component, pivot = random_component_instance(SplitMix64(t), bound)
            assert pivot in component and len(profile.agenda) <= bound
            sizes.add(len(profile.agenda))
        assert max(sizes) == bound


class TestRandomSuitesSmoke:
    """Small random sweeps; the full 200-instance runs live in the acceptance suite."""

    @pytest.mark.parametrize(
        "axiom", ["population", "composition", "cloning", "condorcet", "neutrality", "agenda"]
    )
    def test_ml_passes(self, axiom):
        verdicts = run_random_suite(axiom, RuleId.ML, 25, seed=14)
        assert all(v.passed for v in verdicts)

    @pytest.mark.parametrize("axiom", ["population", "cloning"])
    def test_rd_passes(self, axiom):
        verdicts = run_random_suite(axiom, RuleId.RD, 25, seed=15)
        assert all(v.passed for v in verdicts)
