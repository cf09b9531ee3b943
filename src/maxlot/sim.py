"""Random-profile generators and Monte Carlo election statistics.

Two generators: impartial culture (every linear order equally likely per
voter) and a spatial stand-in (alternatives and voters drawn as integer
points of the 2^32 grid in [0, 2^32)^dim, voters ranking by squared
Euclidean distance, compared exactly as ints).  Both are deterministic in
their seed, and batch runs derive one seed per trial so aggregation is
independent of execution order.  A batch run tallies each trial's rankings
straight into the integer margins, without building a `Profile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Agenda, LinearOrder, Profile, make_profile
from .prng import SplitMix64, derive_seed
from .margins import tally
from .solver import _condorcet_report, maximin_polytope

_GENERATORS = ("impartial_culture", "spatial")
_MAX_ALTERNATIVES = 99  # ids are a00 ... a98


def _agenda(n_alternatives: int) -> Agenda:
    if n_alternatives > _MAX_ALTERNATIVES:
        raise ValueError(f"at most {_MAX_ALTERNATIVES} alternatives supported")
    return Agenda(tuple(f"a{i:02d}" for i in range(n_alternatives)))


@dataclass(frozen=True)
class SimConfig:
    generator: str
    n_alternatives: int
    n_voters: int
    trials: int
    seed: int
    dim: int = 2

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ValueError(f"generator must be one of {_GENERATORS}")
        if self.n_alternatives < 2:
            raise ValueError("need at least 2 alternatives")
        if self.n_alternatives > _MAX_ALTERNATIVES:
            raise ValueError(f"at most {_MAX_ALTERNATIVES} alternatives supported")
        if self.n_voters < 1:
            raise ValueError("need at least 1 voter")
        if self.trials < 1:
            raise ValueError("need at least 1 trial")
        if self.generator == "spatial" and self.dim < 1:
            raise ValueError("spatial dimension must be at least 1")


@dataclass
class SimStats:
    """Aggregated trial outcomes; all frequencies are exact rationals."""

    trials: int
    weak_condorcet_trials: int = 0
    strict_condorcet_trials: int = 0
    support_size_histogram: dict[int, int] = field(default_factory=dict)
    tied_trials: int = 0

    @property
    def condorcet_weak_freq(self) -> Fraction:
        return Fraction(self.weak_condorcet_trials, self.trials)

    @property
    def condorcet_strict_freq(self) -> Fraction:
        return Fraction(self.strict_condorcet_trials, self.trials)

    @property
    def mean_support_size(self) -> Fraction | None:
        """Mean over trials with a unique maximal lottery; None when all tied."""
        unique_trials = sum(self.support_size_histogram.values())
        if unique_trials == 0:
            return None
        weighted = sum(size * count for size, count in self.support_size_histogram.items())
        return Fraction(weighted, unique_trials)

    def as_json(self) -> dict:
        mean = self.mean_support_size
        return {
            "trials": self.trials,
            "condorcet_weak_freq": str(self.condorcet_weak_freq),
            "condorcet_strict_freq": str(self.condorcet_strict_freq),
            "support_size_histogram": {str(k): v for k, v in sorted(self.support_size_histogram.items())},
            "tied_trials": self.tied_trials,
            "mean_support_size": None if mean is None else str(mean),
        }


def gen_impartial_culture(n_alternatives: int, n_voters: int, seed: int) -> Profile:
    """Each voter's order drawn uniformly and independently from all n! orders."""
    agenda = _agenda(n_alternatives)
    rankings = _impartial_rankings(agenda, n_voters, seed)
    return make_profile(agenda, ((LinearOrder(r), 1) for r in rankings))


def gen_spatial(n_alternatives: int, n_voters: int, dim: int, seed: int) -> Profile:
    """Voters rank alternatives by increasing squared distance in [0,1]^dim.

    Coordinates are the ints `next_u64() >> 32` on the 2^32 grid, that is
    2^32 times a point of the unit cube, so every squared distance is an
    exact int, 2^64 times the one in the cube, and distances are compared
    as ints; the (measure-zero) distance ties break by canonical id order.
    """
    agenda = _agenda(n_alternatives)
    rankings = _spatial_rankings(agenda, n_voters, dim, seed)
    return make_profile(agenda, ((LinearOrder(r), 1) for r in rankings))


def _impartial_rankings(agenda: Agenda, n_voters: int, seed: int) -> list[tuple[str, ...]]:
    gen = SplitMix64(seed)
    return [gen.permutation(agenda.ids) for _ in range(n_voters)]


def _spatial_rankings(agenda: Agenda, n_voters: int, dim: int, seed: int) -> list[tuple[str, ...]]:
    """Draws the alternatives' points in id order, then one point per voter."""
    if dim < 1:
        raise ValueError("spatial dimension must be at least 1")
    gen = SplitMix64(seed)
    ids = agenda.ids

    def point() -> tuple[int, ...]:
        return tuple(gen.next_u64() >> 32 for _ in range(dim))

    spots = [point() for _ in ids]
    rankings = []
    for _ in range(n_voters):
        here = point()
        distance = [sum((a - b) ** 2 for a, b in zip(spot, here)) for spot in spots]
        # a stable sort of id positions breaks distance ties by id
        rankings.append(tuple(ids[k] for k in sorted(range(len(ids)), key=distance.__getitem__)))
    return rankings


def run_sim(cfg: SimConfig) -> SimStats:
    """Per trial: draw the voters' rankings, record Condorcet winners and the
    support size of the maximal lottery (multi-vertex trials land in the tied
    bucket).  Each trial's rankings are tallied once, as one vote each over
    the electorate size, into the margins that both records share."""
    agenda = _agenda(cfg.n_alternatives)
    stats = SimStats(trials=cfg.trials)
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, trial)
        if cfg.generator == "impartial_culture":
            rankings = _impartial_rankings(agenda, cfg.n_voters, seed)
        else:
            rankings = _spatial_rankings(agenda, cfg.n_voters, cfg.dim, seed)
        matrix = tally(agenda, ((r, 1) for r in rankings), cfg.n_voters)
        report = _condorcet_report(matrix)
        if report.weak:
            stats.weak_condorcet_trials += 1
        if report.strict is not None:
            stats.strict_condorcet_trials += 1
        winner = maximin_polytope(matrix).unique()
        if winner is None:
            stats.tied_trials += 1
        else:
            size = len(winner.support())
            stats.support_size_histogram[size] = stats.support_size_histogram.get(size, 0) + 1
    return stats
