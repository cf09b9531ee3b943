"""Random-profile generators and Monte Carlo election statistics.

Two generators: impartial culture (every linear order equally likely per
voter) and a spatial stand-in (alternatives and voters drawn on an exact
2^-32 rational grid in the unit cube, voters ranking by squared Euclidean
distance).  Both are deterministic in their seed, and batch runs derive one
seed per trial so aggregation is independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Agenda, LinearOrder, Profile, make_profile
from .prng import SplitMix64, derive_seed
from .margins import margins
from .solver import _condorcet_report, maximin_polytope

_GENERATORS = ("impartial_culture", "spatial")


def _agenda(n_alternatives: int) -> Agenda:
    if n_alternatives > 99:
        raise ValueError("at most 99 alternatives supported")
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
    gen = SplitMix64(seed)
    entries = [(LinearOrder(gen.permutation(agenda.ids)), 1) for _ in range(n_voters)]
    return make_profile(agenda, entries)


def gen_spatial(n_alternatives: int, n_voters: int, dim: int, seed: int) -> Profile:
    """Voters rank alternatives by increasing squared distance in [0,1]^dim.

    Coordinates live on the 2^-32 rational grid so distances are exact; the
    (measure-zero) distance ties break by canonical id order.
    """
    agenda = _agenda(n_alternatives)
    gen = SplitMix64(seed)
    grid = 1 << 32

    def point() -> tuple[Fraction, ...]:
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


def _trial_profile(cfg: SimConfig, trial: int) -> Profile:
    trial_seed = derive_seed(cfg.seed, trial)
    if cfg.generator == "impartial_culture":
        return gen_impartial_culture(cfg.n_alternatives, cfg.n_voters, trial_seed)
    return gen_spatial(cfg.n_alternatives, cfg.n_voters, cfg.dim, trial_seed)


def run_sim(cfg: SimConfig) -> SimStats:
    """Per trial: generate a profile, record Condorcet winners and the support
    size of the maximal lottery (multi-vertex trials land in the tied bucket).
    The margins are tallied once per trial and shared by both."""
    stats = SimStats(trials=cfg.trials)
    for trial in range(cfg.trials):
        matrix = margins(_trial_profile(cfg, trial))
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
