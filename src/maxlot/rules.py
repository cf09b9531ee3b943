"""Comparison rules: random dictatorship, Borda scoring, and the cubed-margin
variant of maximal lotteries, and the one place that tells the two kinds of
rule apart.

A matrix rule (ML, ML3) chooses the lotteries that never lose against one
payoff matrix per profile, a polytope; a point rule (RD, Borda) chooses one
lottery.  `apply_rule` evaluates a rule, `rule_contains` tests membership in
its outcome, and `outcome_vertices` intersects its outcomes at several
profiles, so the axiom checkers never ask which kind a rule is.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence

from .core import Lottery, Profile
from .margins import MarginMatrix, margins
from .solver import LotteryPolytope, maximin_polytope, maximin_vertices, never_loses


class RuleId(enum.Enum):
    ML = "ml"
    RD = "rd"
    BORDA = "borda"
    ML3 = "ml3"

    @classmethod
    def from_string(cls, name: str) -> "RuleId":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown rule {name!r}; choose from "
                             f"{', '.join(r.value for r in cls)}") from None


def random_dictatorship(profile: Profile) -> Lottery:
    """Each alternative gets the total weight of the ballots ranking it first."""
    probs: dict[str, Fraction] = {}
    for order, w in profile.weights.items():
        top = order.top()
        probs[top] = probs.get(top, Fraction(0)) + w
    return Lottery.from_mapping(profile.agenda, probs)


def borda(profile: Profile) -> tuple[dict[str, Fraction], tuple[str, ...]]:
    """Weighted positional scores and the argmax winner set (ties kept)."""
    scores = {x: Fraction(0) for x in profile.agenda}
    n = len(profile.agenda)
    for order, w in profile.weights.items():
        for position, x in enumerate(order.ranking):
            scores[x] += w * (n - 1 - position)
    best = max(scores.values())
    winners = tuple(x for x in profile.agenda if scores[x] == best)
    return scores, winners


def cubed_margins(profile: Profile) -> MarginMatrix:
    base = margins(profile)
    return MarginMatrix(base.agenda, tuple(tuple(v**3 for v in row) for row in base.num), base.scale**3)


def ml_cubed(profile: Profile) -> LotteryPolytope:
    """Maximin vertices of the game whose payoffs are the cubed margins."""
    return maximin_polytope(cubed_margins(profile))


def _point(rule: RuleId, profile: Profile) -> Lottery:
    """The single outcome lottery of a point rule; Borda randomizes uniformly
    over its winner set."""
    if rule is RuleId.RD:
        return random_dictatorship(profile)
    if rule is RuleId.BORDA:
        _, winners = borda(profile)
        return Lottery.uniform(profile.agenda, winners)
    raise ValueError(f"unhandled rule {rule!r}")


def apply_rule(rule: RuleId, profile: Profile) -> LotteryPolytope:
    """Evaluate a rule; point rules come back as one-vertex polytopes."""
    matrix = rule_payoff_matrix(rule, profile)
    if matrix is not None:
        return maximin_polytope(matrix)
    return LotteryPolytope(profile.agenda, (_point(rule, profile),))


def rule_payoff_matrix(rule: RuleId, profile: Profile) -> MarginMatrix | None:
    """Halfspace description for the matrix rules, None for point rules.

    When present, a lottery belongs to the rule's polytope exactly when it
    never loses in expectation against this matrix.
    """
    if rule is RuleId.ML:
        return margins(profile)
    if rule is RuleId.ML3:
        return cubed_margins(profile)
    return None


def rule_contains(rule: RuleId, profile: Profile, lottery: Lottery) -> bool:
    """Exact membership of a lottery in the rule's outcome set."""
    if lottery.agenda != profile.agenda:
        raise ValueError("lottery and profile must share an agenda")
    matrix = rule_payoff_matrix(rule, profile)
    if matrix is not None:
        return never_loses(lottery.probs, matrix.num)
    return lottery == _point(rule, profile)


def outcome_vertices(
    rule: RuleId, profiles: Sequence[Profile], over: Sequence[str]
) -> list[tuple[Fraction, ...]]:
    """Sorted vertices, as tuples over `over`, of the lotteries that are 0 off
    `over` and lie in the rule's outcome at every profile; every profile's
    agenda contains `over`."""
    matrices = [rule_payoff_matrix(rule, p) for p in profiles]
    if matrices[0] is not None:
        return maximin_vertices(matrices, over)
    keep = set(over)
    points = set()
    for profile in profiles:
        point = _point(rule, profile)
        if not keep.issuperset(point.support()):
            return []
        points.add(tuple(point.prob(x) for x in over))
    return list(points) if len(points) == 1 else []
