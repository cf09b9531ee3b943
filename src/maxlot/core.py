"""Agendas, linear orders, fractional preference profiles, and lotteries.

Weights and probabilities are exact `fractions.Fraction` values throughout,
and every type is immutable after construction, so equality is exact value
equality and everything can be shared freely across threads.  Profiles are
canonical: duplicate orders merged, zero weights dropped, total weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction | int


def _valid_id(token) -> str:
    if not isinstance(token, str) or not token or any(ch.isspace() for ch in token):
        raise ValueError(f"bad alternative id {token!r}: need a nonempty token without whitespace")
    return token


@dataclass(frozen=True, order=True)
class Agenda:
    """Finite nonempty set of alternatives; iteration follows sorted id order."""

    ids: tuple[str, ...]

    def __init__(self, ids: Iterable[str]):
        if isinstance(ids, str):
            raise TypeError("pass an iterable of id strings, not one string")
        ordered = tuple(sorted(_valid_id(x) for x in ids))
        if not ordered:
            raise ValueError("agenda must be nonempty")
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate ids in agenda")
        object.__setattr__(self, "ids", ordered)
        object.__setattr__(self, "_pos", {x: i for i, x in enumerate(ordered)})

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, x) -> bool:
        return x in self._pos

    def index(self, x: str) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise ValueError(f"{x!r} is not in the agenda") from None

    def subset(self, ids: Iterable[str]) -> tuple[str, ...]:
        """Validated, sorted, duplicate-free subset of this agenda."""
        out = tuple(sorted(set(ids)))
        if not out:
            raise ValueError("subset must be nonempty")
        for x in out:
            if x not in self:
                raise ValueError(f"{x!r} is not in the agenda")
        return out


@dataclass(frozen=True, order=True)
class LinearOrder:
    """A strict ranking of alternatives, best first."""

    ranking: tuple[str, ...]

    def __init__(self, ranking: Iterable[str]):
        r = tuple(_valid_id(x) for x in ranking)
        if not r:
            raise ValueError("empty ranking")
        if len(set(r)) != len(r):
            raise ValueError("ranking repeats an alternative")
        object.__setattr__(self, "ranking", r)
        object.__setattr__(self, "_pos", {x: i for i, x in enumerate(r)})

    def top(self) -> str:
        return self.ranking[0]

    def position(self, x: str) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise ValueError(f"{x!r} is not ranked") from None

    def prefers(self, x: str, y: str) -> bool:
        return self.position(x) < self.position(y)

    def restricted(self, keep: Iterable[str]) -> "LinearOrder":
        keepset = set(keep)
        return LinearOrder(x for x in self.ranking if x in keepset)

    def relabeled(self, mapping: Mapping[str, str]) -> "LinearOrder":
        return LinearOrder(mapping[x] for x in self.ranking)

    def reverse(self) -> "LinearOrder":
        return LinearOrder(self.ranking[::-1])

    def alternatives(self) -> frozenset[str]:
        return frozenset(self.ranking)


@dataclass(frozen=True)
class Profile:
    """Fractional profile: positive rational weight per order, summing to 1.

    Construct through `make_profile`, which canonicalizes arbitrary weighted
    ballots; the constructor itself insists on already-canonical input.
    """

    agenda: Agenda
    weights: dict[LinearOrder, Fraction]

    def __post_init__(self):
        ids = set(self.agenda.ids)
        clean: dict[LinearOrder, Fraction] = {}
        total = Fraction(0)
        for order, w in self.weights.items():
            if set(order.ranking) != ids or len(order.ranking) != len(ids):
                raise ValueError(f"order {order.ranking} does not rank exactly the agenda")
            w = Fraction(w)
            if w <= 0:
                raise ValueError("canonical profiles carry strictly positive weights")
            clean[order] = w
            total += w
        if total != 1:
            raise ValueError(f"profile weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", clean)

    def orders(self) -> list[LinearOrder]:
        return sorted(self.weights)

    def weight(self, order: LinearOrder) -> Fraction:
        return self.weights.get(order, Fraction(0))

    def pairwise(self, x: str, y: str) -> Fraction:
        return pairwise_fraction(self, x, y)


@dataclass(frozen=True, order=True)
class Lottery:
    """Probability distribution over an agenda, exact and canonically ordered."""

    agenda: Agenda
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        if len(probs) != len(self.agenda):
            raise ValueError("one probability per alternative required")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, agenda: Agenda, mapping: Mapping[str, Rational]) -> "Lottery":
        for x in mapping:
            if x not in agenda:
                raise ValueError(f"{x!r} is not in the agenda")
        return cls(agenda, tuple(Fraction(mapping.get(x, 0)) for x in agenda))

    @classmethod
    def degenerate(cls, agenda: Agenda, x: str) -> "Lottery":
        i = agenda.index(x)
        return cls(agenda, tuple(Fraction(1 if j == i else 0) for j in range(len(agenda))))

    @classmethod
    def uniform(cls, agenda: Agenda, over: Iterable[str] | None = None) -> "Lottery":
        chosen = agenda.subset(over) if over is not None else agenda.ids
        share = Fraction(1, len(chosen))
        return cls(agenda, tuple(share if x in chosen else Fraction(0) for x in agenda))

    def prob(self, x: str) -> Fraction:
        return self.probs[self.agenda.index(x)]

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, p in zip(self.agenda, self.probs) if p > 0)

    def as_mapping(self) -> dict[str, Fraction]:
        return dict(zip(self.agenda.ids, self.probs))


def make_profile(agenda: Agenda, entries: Iterable[tuple[LinearOrder, Rational]]) -> Profile:
    """Canonical profile from weighted ballots.

    Duplicate orders are merged, zero weights dropped, and the total is
    normalized to exactly 1, so integer counts work as well as fractions.
    """
    ids = set(agenda.ids)
    tally: dict[LinearOrder, Fraction] = {}
    total = Fraction(0)
    for order, raw in entries:
        w = Fraction(raw)
        if w < 0:
            raise ValueError(f"negative weight {w} for {order.ranking}")
        if set(order.ranking) != ids or len(order.ranking) != len(ids):
            raise ValueError(f"order {order.ranking} does not rank exactly the agenda")
        if w == 0:
            continue
        tally[order] = tally.get(order, Fraction(0)) + w
        total += w
    if total == 0:
        raise ValueError("all weights are zero")
    return Profile(agenda, {o: w / total for o, w in tally.items()})


def pairwise_fraction(profile: Profile, x: str, y: str) -> Fraction:
    """Fraction of the electorate ranking x above y."""
    if x == y:
        raise ValueError("pairwise fraction needs two distinct alternatives")
    profile.agenda.index(x)
    profile.agenda.index(y)
    total = Fraction(0)
    for order, w in profile.weights.items():
        if order.prefers(x, y):
            total += w
    return total


def restrict(profile: Profile, subset: Iterable[str]) -> Profile:
    """Marginal profile over a nonempty subset of the agenda.

    The weight of each sub-order is the combined weight of the full orders
    extending it, so pairwise fractions inside the subset are preserved.
    """
    keep = profile.agenda.subset(subset)
    tally: dict[LinearOrder, Fraction] = {}
    for order, w in profile.weights.items():
        key = order.restricted(keep)
        tally[key] = tally.get(key, Fraction(0)) + w
    return Profile(Agenda(keep), tally)


def mix(parts: Sequence[tuple[Profile, Rational]]) -> Profile:
    """Convex combination of profiles over one shared agenda."""
    if not parts:
        raise ValueError("nothing to mix")
    agenda = parts[0][0].agenda
    coeffs = [Fraction(c) for _, c in parts]
    if any(c < 0 for c in coeffs):
        raise ValueError("mixing coefficients must be nonnegative")
    if sum(coeffs) != 1:
        raise ValueError("mixing coefficients must sum to exactly 1")
    tally: dict[LinearOrder, Fraction] = {}
    for (profile, _), c in zip(parts, coeffs):
        if profile.agenda != agenda:
            raise ValueError("profiles must share one agenda")
        if c == 0:
            continue
        for order, w in profile.weights.items():
            tally[order] = tally.get(order, Fraction(0)) + c * w
    return Profile(agenda, tally)


def permute(profile: Profile, mapping: Mapping[str, str]) -> Profile:
    """Relabel alternatives through a bijection onto an equal-size agenda."""
    keys = set(mapping)
    if keys != set(profile.agenda.ids):
        raise ValueError("mapping keys must be exactly the agenda")
    values = [mapping[x] for x in profile.agenda]
    if len(set(values)) != len(values):
        raise ValueError("mapping is not a bijection")
    target = Agenda(values)
    return Profile(target, {order.relabeled(mapping): w for order, w in profile.weights.items()})


def permute_lottery(lottery: Lottery, mapping: Mapping[str, str]) -> Lottery:
    if set(mapping) != set(lottery.agenda.ids):
        raise ValueError("mapping keys must be exactly the agenda")
    values = [mapping[x] for x in lottery.agenda]
    if len(set(values)) != len(values):
        raise ValueError("mapping is not a bijection")
    target = Agenda(values)
    return Lottery.from_mapping(target, {mapping[x]: p for x, p in zip(lottery.agenda, lottery.probs)})


def is_component(profile: Profile, subset: Iterable[str]) -> bool:
    """True when the subset sits contiguously in every positive-weight order."""
    members = set(profile.agenda.subset(subset))
    size = len(members)
    for order in profile.weights:
        positions = [order.position(x) for x in members]
        if max(positions) - min(positions) != size - 1:
            return False
    return True


def find_components(profile: Profile) -> list[tuple[str, ...]]:
    """All proper components of size >= 2, canonically sorted.

    A component occupies a contiguous block of every positive-weight order,
    so the intervals of one reference order exhaust the candidates; each is
    then verified against the whole profile.
    """
    n = len(profile.agenda)
    if n < 3:
        return []
    reference = min(profile.weights).ranking
    out = []
    for size in range(2, n):
        for start in range(0, n - size + 1):
            block = reference[start : start + size]
            if is_component(profile, block):
                out.append(tuple(sorted(block)))
    out.sort(key=lambda b: (len(b), b))
    return out


def compose_profiles(outer: Profile, inner: Profile, b: str) -> Profile:
    """Profile over the union agenda with the inner profile spliced in at b.

    The result restricts back to `outer` on the outer agenda and to `inner`
    on the inner agenda, and the inner agenda forms a component of it.
    """
    outer_ids = set(outer.agenda.ids)
    inner_ids = set(inner.agenda.ids)
    if outer_ids & inner_ids != {b}:
        raise ValueError("agendas must overlap in exactly the splice alternative")
    union = Agenda(outer_ids | inner_ids)
    tally: dict[LinearOrder, Fraction] = {}
    for o_order, ow in outer.weights.items():
        i = o_order.position(b)
        head, tail = o_order.ranking[:i], o_order.ranking[i + 1 :]
        for i_order, iw in inner.weights.items():
            spliced = LinearOrder(head + i_order.ranking + tail)
            tally[spliced] = tally.get(spliced, Fraction(0)) + ow * iw
    return Profile(union, tally)


def compose_lottery(p: Lottery, q: Lottery, b: str) -> Lottery:
    """Splice lottery q over a component into lottery p at alternative b."""
    p_ids = set(p.agenda.ids)
    q_ids = set(q.agenda.ids)
    if p_ids & q_ids != {b}:
        raise ValueError("agendas must overlap in exactly the splice alternative")
    union = Agenda(p_ids | q_ids)
    pb = p.prob(b)
    probs = {}
    for x in union:
        probs[x] = pb * q.prob(x) if x in q_ids else p.prob(x)
    return Lottery.from_mapping(union, probs)


def compose_lottery_sets(xs: Iterable[Lottery], ys: Iterable[Lottery], b: str) -> list[Lottery]:
    """All pairwise compositions, duplicates removed, canonically sorted."""
    out = {compose_lottery(p, q, b) for p in xs for q in ys}
    return sorted(out)


def to_json(value):
    """JSON-ready form of a core value: every rational becomes an exact string.

    Lotteries map ids to probabilities, profiles give their agenda and
    ballots, tuples and lists become lists, and sets become lists in a
    stable order.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Lottery):
        return {x: str(p) for x, p in zip(value.agenda, value.probs)}
    if isinstance(value, Profile):
        return {
            "agenda": list(value.agenda.ids),
            "ballots": {">".join(o.ranking): str(w) for o, w in sorted(value.weights.items())},
        }
    if isinstance(value, Agenda):
        return list(value.ids)
    if isinstance(value, LinearOrder):
        return ">".join(value.ranking)
    if isinstance(value, Mapping):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [to_json(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    raise TypeError(f"cannot serialize {type(value).__name__}")
