"""Comparison rules: random dictatorship, Borda scoring, and the cubed-margin
variant of maximal lotteries, plus a single dispatch surface for checkers."""

from __future__ import annotations

import enum
from fractions import Fraction

from .core import Lottery, Profile
from .margins import MarginMatrix, margins
from .solver import LotteryPolytope, maximin_polytope


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
    return MarginMatrix(base.agenda, tuple(tuple(v**3 for v in row) for row in base.rows))


def ml_cubed(profile: Profile) -> LotteryPolytope:
    """Maximin vertices of the game whose payoffs are the cubed margins."""
    return maximin_polytope(cubed_margins(profile))


def apply_rule(rule: RuleId, profile: Profile) -> LotteryPolytope:
    """Evaluate a rule; single-valued rules come back as one-vertex polytopes.

    Borda is lifted to a lottery by uniform randomization over its winner set.
    """
    matrix = rule_payoff_matrix(rule, profile)
    if matrix is not None:
        return maximin_polytope(matrix)
    if rule is RuleId.RD:
        return LotteryPolytope(profile.agenda, (random_dictatorship(profile),))
    if rule is RuleId.BORDA:
        _, winners = borda(profile)
        return LotteryPolytope(profile.agenda, (Lottery.uniform(profile.agenda, winners),))
    raise ValueError(f"unhandled rule {rule!r}")


def rule_payoff_matrix(rule: RuleId, profile: Profile) -> MarginMatrix | None:
    """Halfspace description for the set-valued rules, None for point rules.

    When present, a lottery belongs to the rule's polytope exactly when it
    never loses in expectation against this matrix.
    """
    if rule is RuleId.ML:
        return margins(profile)
    if rule is RuleId.ML3:
        return cubed_margins(profile)
    return None
