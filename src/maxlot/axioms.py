"""Executable consistency checks for voting rules, with re-checkable witnesses.

Each checker evaluates one axiom on one concrete instance and returns an
AxiomVerdict.  A failed verdict always carries a witness: the profiles,
lotteries, and subsets involved, sufficient to reproduce the failing
membership or equality test through the public API.

The checkers only state the axioms: every rule outcome, membership test and
intersection of outcomes comes from `rules` (`apply_rule`, `rule_contains`,
`outcome_vertices`), which alone tells matrix rules from point rules.
Random instance generation keeps weight denominators bounded so every
comparison stays exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    Agenda,
    LinearOrder,
    Lottery,
    Profile,
    compose_lottery_sets,
    compose_profiles,
    is_component,
    make_profile,
    mix,
    permute,
    permute_lottery,
    restrict,
    to_json,
)
from .polytope import extreme_points
from .prng import SplitMix64, derive_seed
from .rules import RuleId, apply_rule, outcome_vertices, rule_contains
from .solver import condorcet_winners

AXIOMS = (
    "population",
    "composition",
    "cloning",
    "condorcet",
    "neutrality",
    "unanimity",
    "agenda",
    "strong-population",
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    rule: RuleId
    passed: bool
    witness: dict | None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("a failed verdict must carry a witness")

    def as_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "rule": self.rule.value,
            "passed": self.passed,
            "witness": to_json(self.witness),
        }


def outcome_intersection(rule: RuleId, left: Profile, right: Profile) -> list[Lottery]:
    """Vertices of f(left) intersected with f(right); empty list when disjoint."""
    if left.agenda != right.agenda:
        raise ValueError("profiles must share an agenda")
    return [Lottery(left.agenda, v) for v in outcome_vertices(rule, [left, right], left.agenda.ids)]


def check_population_consistency(
    rule: RuleId, left: Profile, right: Profile, coefficient: Fraction | int
) -> AxiomVerdict:
    """Whatever both electorates choose, their mixture must keep choosing."""
    lam = Fraction(coefficient)
    shared = outcome_intersection(rule, left, right)
    mixture = mix([(left, lam), (right, 1 - lam)])
    lost = [v for v in shared if not rule_contains(rule, mixture, v)]
    witness = None
    if lost:
        witness = {
            "left": left,
            "right": right,
            "coefficient": lam,
            "mixture": mixture,
            "lottery": lost[0],
        }
    return AxiomVerdict("population", rule, not lost, witness)


def check_strong_population_consistency(
    rule: RuleId, left: Profile, right: Profile, coefficient: Fraction | int
) -> AxiomVerdict:
    """Equality variant: with agreement, the mixture chooses exactly that set."""
    lam = Fraction(coefficient)
    shared = outcome_intersection(rule, left, right)
    mixture = mix([(left, lam), (right, 1 - lam)])
    witness = None
    if shared:
        lost = [v for v in shared if not rule_contains(rule, mixture, v)]
        extra = [
            v
            for v in apply_rule(rule, mixture).vertices
            if not (rule_contains(rule, left, v) and rule_contains(rule, right, v))
        ]
        if lost or extra:
            witness = {
                "left": left,
                "right": right,
                "coefficient": lam,
                "mixture": mixture,
                "lottery": (lost or extra)[0],
                "direction": "dropped" if lost else "added",
            }
    return AxiomVerdict("strong-population", rule, witness is None, witness)


def _component(profile: Profile, component: Iterable[str], pivot: str) -> tuple[tuple[str, ...], list[str]]:
    """The validated component around `pivot`, and the ids outside it."""
    members = profile.agenda.subset(component)
    if pivot not in members:
        raise ValueError("pivot must belong to the component")
    if not is_component(profile, members):
        raise ValueError("subset is not a component of the profile")
    return members, [x for x in profile.agenda if x not in members]


def check_composition_consistency(
    rule: RuleId, profile: Profile, component: Iterable[str], pivot: str
) -> AxiomVerdict:
    """Outcomes must factor exactly through the cloned-down and inner profiles.

    Composing a vertex p of the outer outcome with a vertex q of the inner
    one gives an extreme point: the coordinates outside the component fix p
    (and with it p's pivot share), and a positive pivot share then fixes q.
    So the sorted, duplicate-free compositions are already the vertex set.
    """
    members, outside = _component(profile, component, pivot)
    outer = apply_rule(rule, restrict(profile, outside + [pivot]))
    inner = apply_rule(rule, restrict(profile, members))
    composed = compose_lottery_sets(outer.vertices, inner.vertices, pivot)
    whole = apply_rule(rule, profile)
    passed = composed == list(whole.vertices)
    witness = None
    if not passed:
        witness = {
            "profile": profile,
            "component": members,
            "pivot": pivot,
            "composed": composed,
            "returned": list(whole.vertices),
        }
    return AxiomVerdict("composition", rule, passed, witness)


def check_cloning_consistency(
    rule: RuleId, profile: Profile, component: Iterable[str], pivot: str
) -> AxiomVerdict:
    """Probabilities outside a component ignore the component's inner structure."""
    members, outside = _component(profile, component, pivot)
    whole = apply_rule(rule, profile)
    reduced = apply_rule(rule, restrict(profile, outside + [pivot]))
    proj_whole = extreme_points([tuple(v.prob(x) for x in outside) for v in whole.vertices])
    proj_reduced = extreme_points([tuple(v.prob(x) for x in outside) for v in reduced.vertices])
    passed = proj_whole == proj_reduced
    witness = None
    if not passed:
        witness = {
            "profile": profile,
            "component": members,
            "pivot": pivot,
            "outside": tuple(outside),
            "projection_full": proj_whole,
            "projection_reduced": proj_reduced,
        }
    return AxiomVerdict("cloning", rule, passed, witness)


def check_condorcet_consistency(rule: RuleId, profile: Profile) -> AxiomVerdict:
    """Every weak Condorcet winner's degenerate lottery must be chosen."""
    report = condorcet_winners(profile)
    missing = [
        x
        for x in report.weak
        if not rule_contains(rule, profile, Lottery.degenerate(profile.agenda, x))
    ]
    witness = None
    if missing:
        witness = {
            "profile": profile,
            "winner": missing[0],
            "lottery": Lottery.degenerate(profile.agenda, missing[0]),
            "returned": list(apply_rule(rule, profile).vertices),
        }
    return AxiomVerdict("condorcet", rule, not missing, witness)


def check_neutrality(rule: RuleId, profile: Profile, mapping: Mapping[str, str]) -> AxiomVerdict:
    """Relabeling alternatives must relabel the outcome set and nothing else."""
    image = apply_rule(rule, permute(profile, mapping))
    relabeled = sorted(permute_lottery(v, mapping) for v in apply_rule(rule, profile).vertices)
    passed = relabeled == list(image.vertices)
    witness = None
    if not passed:
        witness = {
            "profile": profile,
            "mapping": dict(mapping),
            "relabeled_outcomes": relabeled,
            "image_outcomes": list(image.vertices),
        }
    return AxiomVerdict("neutrality", rule, passed, witness)


def check_unanimity(rule: RuleId) -> AxiomVerdict:
    """On two alternatives with a unanimous electorate, the top is certain."""
    agenda = Agenda(("a", "b"))
    for ranking in (("a", "b"), ("b", "a")):
        profile = make_profile(agenda, [(LinearOrder(ranking), 1)])
        expected = Lottery.degenerate(agenda, ranking[0])
        outcome = apply_rule(rule, profile)
        if outcome.vertices != (expected,):
            witness = {
                "profile": profile,
                "expected": expected,
                "returned": list(outcome.vertices),
            }
            return AxiomVerdict("unanimity", rule, False, witness)
    return AxiomVerdict("unanimity", rule, True, None)


def check_agenda_consistency(
    rule: RuleId, profile: Profile, agenda_one: Iterable[str], agenda_two: Iterable[str]
) -> AxiomVerdict:
    """Choices supported on the overlap of two covering agendas must agree.

    The outcomes of the whole profile whose support lies in the overlap must
    equal the intersection of the outcomes of the two restricted profiles.
    """
    a1 = profile.agenda.subset(agenda_one)
    a2 = profile.agenda.subset(agenda_two)
    if set(a1) | set(a2) != set(profile.agenda.ids):
        raise ValueError("the two agendas must cover the whole agenda")
    common = tuple(sorted(set(a1) & set(a2)))
    if not common:
        raise ValueError("the two agendas must overlap")
    whole = apply_rule(rule, profile)
    lhs = sorted(
        tuple(v.prob(x) for x in common) for v in whole.vertices if set(v.support()) <= set(common)
    )
    rhs = outcome_vertices(rule, [restrict(profile, a1), restrict(profile, a2)], common)
    passed = lhs == rhs
    witness = None
    if not passed:
        witness = {
            "profile": profile,
            "agenda_one": a1,
            "agenda_two": a2,
            "common": common,
            "whole_side": lhs,
            "restricted_side": rhs,
        }
    return AxiomVerdict("agenda", rule, passed, witness)


# --- random instances -------------------------------------------------------


def random_profile(gen: SplitMix64, agenda: Agenda, max_ballots: int = 6) -> Profile:
    """Random profile with weight denominators bounded by the ballot count."""
    count = 1 + gen.below(max_ballots)
    entries = [(LinearOrder(gen.permutation(agenda.ids)), 1) for _ in range(count)]
    return make_profile(agenda, entries)


def _random_agenda(gen: SplitMix64, max_alternatives: int) -> Agenda:
    n = 2 + gen.below(max_alternatives - 1)
    return Agenda(tuple(_LETTERS[:n]))


def _random_coefficient(gen: SplitMix64) -> Fraction:
    den = 2 + gen.below(3)
    return Fraction(gen.below(den + 1), den)


def random_component_instance(
    gen: SplitMix64, max_alternatives: int = 5, max_ballots: int = 6
) -> tuple[Profile, tuple[str, ...], str]:
    """Profile with a guaranteed component, built by splicing two random profiles."""
    inner_size = 2 + gen.below(min(2, max_alternatives - 2))
    outer_size = 2 + gen.below(max(1, max_alternatives - inner_size))
    pivot = "p0"
    outer_ids = (pivot,) + tuple(f"o{i}" for i in range(outer_size - 1))
    inner_ids = (pivot,) + tuple(f"i{i}" for i in range(inner_size - 1))
    outer = random_profile(gen, Agenda(outer_ids), max_ballots)
    inner = random_profile(gen, Agenda(inner_ids), max_ballots)
    return compose_profiles(outer, inner, pivot), tuple(sorted(inner_ids)), pivot


def _random_bijection(gen: SplitMix64, agenda: Agenda) -> dict[str, str]:
    if gen.below(2):
        targets = gen.permutation(agenda.ids)
    else:
        targets = gen.permutation(tuple(x + "x" for x in agenda.ids))
    return dict(zip(agenda.ids, targets))


def _random_agenda_split(gen: SplitMix64, agenda: Agenda) -> tuple[tuple[str, ...], tuple[str, ...]]:
    ids = agenda.ids
    shared = set(gen.permutation(ids)[: 1 + gen.below(len(ids))])
    a1, a2 = set(shared), set(shared)
    for x in ids:
        if x not in shared:
            (a1 if gen.below(2) else a2).add(x)
    return tuple(sorted(a1)), tuple(sorted(a2))


def random_check(
    axiom: str,
    rule: RuleId,
    gen: SplitMix64,
    max_alternatives: int = 5,
    max_ballots: int = 6,
) -> AxiomVerdict:
    """One randomly generated admissible instance of the named axiom."""
    if axiom in ("population", "strong-population"):
        agenda = _random_agenda(gen, max_alternatives)
        check = check_population_consistency if axiom == "population" else check_strong_population_consistency
        return check(
            rule,
            random_profile(gen, agenda, max_ballots),
            random_profile(gen, agenda, max_ballots),
            _random_coefficient(gen),
        )
    if axiom in ("composition", "cloning"):
        profile, component, pivot = random_component_instance(gen, max_alternatives, max_ballots)
        check = check_composition_consistency if axiom == "composition" else check_cloning_consistency
        return check(rule, profile, component, pivot)
    if axiom == "condorcet":
        agenda = _random_agenda(gen, max_alternatives)
        return check_condorcet_consistency(rule, random_profile(gen, agenda, max_ballots))
    if axiom == "neutrality":
        agenda = _random_agenda(gen, max_alternatives)
        profile = random_profile(gen, agenda, max_ballots)
        return check_neutrality(rule, profile, _random_bijection(gen, agenda))
    if axiom == "unanimity":
        return check_unanimity(rule)
    if axiom == "agenda":
        agenda = _random_agenda(gen, max_alternatives)
        profile = random_profile(gen, agenda, max_ballots)
        a1, a2 = _random_agenda_split(gen, agenda)
        return check_agenda_consistency(rule, profile, a1, a2)
    raise ValueError(f"unknown axiom {axiom!r}; choose from {', '.join(AXIOMS)}")


def run_random_suite(
    axiom: str,
    rule: RuleId,
    trials: int,
    seed: int,
    max_alternatives: int = 5,
    max_ballots: int = 6,
) -> list[AxiomVerdict]:
    """Independent random instances, one verdict each; seed-stable."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 2 <= max_alternatives <= len(_LETTERS):
        raise ValueError(
            f"max_alternatives must be between 2 and {len(_LETTERS)}, got {max_alternatives}"
        )
    if axiom in ("composition", "cloning") and max_alternatives < 3:
        raise ValueError(f"max_alternatives must be at least 3 for {axiom}, got {max_alternatives}")
    if max_ballots < 1:
        raise ValueError(f"max_ballots must be at least 1, got {max_ballots}")
    out = []
    for t in range(trials):
        gen = SplitMix64(derive_seed(seed, t))
        out.append(random_check(axiom, rule, gen, max_alternatives, max_ballots))
    return out


def search_population_inconsistency(
    rule: RuleId,
    trials: int,
    seed: int,
    n_alternatives: int = 4,
    max_ballots: int = 6,
) -> AxiomVerdict | None:
    """Randomized hunt for a population-consistency violation.

    Alternates fully random profile pairs with pairs related by a relabeling
    of one profile; relabeled pairs share symmetric outcomes, which is where
    nonlinear rules tend to break.  Returns the first failed verdict.
    """
    gen = SplitMix64(seed)
    agenda = Agenda(tuple(_LETTERS[:n_alternatives]))
    for _ in range(trials):
        left = random_profile(gen, agenda, max_ballots)
        if gen.below(2):
            mapping = dict(zip(agenda.ids, gen.permutation(agenda.ids)))
            right = permute(left, mapping)
        else:
            right = random_profile(gen, agenda, max_ballots)
        lam = Fraction(1, 2) if gen.below(2) else Fraction(1 + gen.below(3), 4)
        verdict = check_population_consistency(rule, left, right, lam)
        if not verdict.passed:
            return verdict
    return None
