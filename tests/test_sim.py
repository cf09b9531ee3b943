import hashlib
import json
from fractions import Fraction

import pytest

import maxlot.sim
from maxlot import (
    SimConfig,
    SimStats,
    condorcet_winners,
    gen_impartial_culture,
    gen_spatial,
    maximal_lotteries,
    run_sim,
)
from maxlot.cli import main
from maxlot.prng import derive_seed

from bruteforce import spatial_oracle

F = Fraction


class TestImpartialCulture:
    def test_single_voter_is_unanimous(self):
        p = gen_impartial_culture(2, 1, seed=31)
        assert len(p.weights) == 1
        assert next(iter(p.weights.values())) == 1

    def test_deterministic_in_seed(self):
        assert gen_impartial_culture(3, 3, 12) == gen_impartial_culture(3, 3, 12)
        assert gen_impartial_culture(3, 3, 12) != gen_impartial_culture(3, 3, 13)

    def test_weights_are_ballot_counts(self):
        p = gen_impartial_culture(4, 5, seed=9)
        for w in p.weights.values():
            assert (w * 5).denominator == 1
        assert sum(p.weights.values()) == 1

    def test_orders_vary_across_voters(self):
        p = gen_impartial_culture(4, 40, seed=1)
        assert len(p.weights) > 1


class TestSpatial:
    def test_single_voter_prefers_nearer(self):
        p = gen_spatial(2, 1, dim=1, seed=5)
        order = next(iter(p.weights))
        x, y = order.ranking[0], order.ranking[1]
        # reconstruct the draw: alternatives then the voter, one coordinate each
        from maxlot.prng import SplitMix64

        gen = SplitMix64(5)
        grid = 1 << 32
        spots = {a: F(gen.next_u64() >> 32, grid) for a in sorted(p.agenda.ids)}
        voter = F(gen.next_u64() >> 32, grid)
        assert abs(spots[x] - voter) <= abs(spots[y] - voter)

    def test_deterministic_in_seed(self):
        assert gen_spatial(3, 15, 2, 77) == gen_spatial(3, 15, 2, 77)

    def test_profile_is_valid(self):
        p = gen_spatial(4, 7, dim=3, seed=123)
        assert sum(p.weights.values()) == 1
        assert len(p.agenda) == 4

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("voters", [1, 25])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_int_distances_match_fraction_oracle(self, n, voters, dim):
        for seed in range(30):
            assert gen_spatial(n, voters, dim, seed) == spatial_oracle(n, voters, dim, seed)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            gen_spatial(3, 5, 0, seed=1)


class TestRunSim:
    def test_single_trial_single_bucket(self):
        stats = run_sim(SimConfig("impartial_culture", 3, 3, 1, seed=0))
        assert stats.trials == 1
        assert sum(stats.support_size_histogram.values()) + stats.tied_trials == 1

    def test_repeat_runs_agree(self):
        cfg = SimConfig("impartial_culture", 4, 6, 40, seed=3)
        assert run_sim(cfg).as_json() == run_sim(cfg).as_json()

    def test_strict_never_exceeds_weak(self):
        stats = run_sim(SimConfig("impartial_culture", 4, 6, 120, seed=8))
        assert stats.condorcet_strict_freq <= stats.condorcet_weak_freq

    def test_odd_electorates_never_tie(self):
        stats = run_sim(SimConfig("impartial_culture", 5, 5, 150, seed=21))
        assert stats.tied_trials == 0
        assert all(size % 2 == 1 for size in stats.support_size_histogram)
        assert sum(stats.support_size_histogram.values()) == 150

    def test_even_electorates_can_tie(self):
        stats = run_sim(SimConfig("impartial_culture", 2, 2, 60, seed=2))
        assert stats.tied_trials > 0
        assert sum(stats.support_size_histogram.values()) + stats.tied_trials == 60

    def test_spatial_three_alternatives_mostly_decisive(self):
        stats = run_sim(SimConfig("spatial", 3, 15, 2000, seed=6, dim=2))
        assert stats.condorcet_strict_freq >= F(9, 10)

    def test_counts_are_exact_rationals(self):
        stats = run_sim(SimConfig("impartial_culture", 3, 4, 50, seed=17))
        assert isinstance(stats.condorcet_weak_freq, F)
        mean = stats.mean_support_size
        assert mean is None or isinstance(mean, F)


def _per_trial_stats(cfg: SimConfig) -> SimStats:
    """The statistics of run_sim, rebuilt from the profile-level API."""
    stats = SimStats(trials=cfg.trials)
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, trial)
        if cfg.generator == "impartial_culture":
            profile = gen_impartial_culture(cfg.n_alternatives, cfg.n_voters, seed)
        else:
            profile = gen_spatial(cfg.n_alternatives, cfg.n_voters, cfg.dim, seed)
        report = condorcet_winners(profile)
        stats.weak_condorcet_trials += bool(report.weak)
        stats.strict_condorcet_trials += report.strict is not None
        winner = maximal_lotteries(profile).unique()
        if winner is None:
            stats.tied_trials += 1
        else:
            size = len(winner.support())
            stats.support_size_histogram[size] = stats.support_size_histogram.get(size, 0) + 1
    return stats


@pytest.mark.parametrize("generator", ["impartial_culture", "spatial"])
@pytest.mark.parametrize("seed", [4, 11])
def test_one_tally_per_trial(monkeypatch, generator, seed):
    cfg = SimConfig(generator, 5, 6, 30, seed=seed)
    calls = []
    tally = maxlot.sim.tally

    def counted(agenda, counts, scale):
        calls.append(scale)
        return tally(agenda, counts, scale)

    monkeypatch.setattr(maxlot.sim, "tally", counted)
    stats = run_sim(cfg)
    assert len(calls) == cfg.trials
    assert stats == _per_trial_stats(cfg)


# sha256 of the sorted-key JSON `results` of `maxlot simulate`, recorded with
# the Fraction-coordinate generators; any change to the seeded draws, the
# distance order or the statistics changes a digest.  The even electorates
# (6 voters) cover tied trials.
GOLDEN_SIMULATE = [
    ("impartial", 7, 25, 40, 20260808, 2, "23bd83d89d9f7a21d4bd58de73c0b1874113a6a5d7753cf38884629c58bdbaae"),
    ("spatial", 7, 25, 20, 20260808, 1, "4a7ce68dd4b849e3561e5d495b1abdd08f8d517dc1d7bb21f2da521abd1cc7ee"),
    ("spatial", 7, 25, 20, 4, 2, "d4913db78750e4bf2df1d66b23897f22b1444a095e971934ea3ed747e978391b"),
    ("spatial", 7, 25, 20, 11, 3, "da9028bb1770e54aeda1034e9706038c5d30e282777018e4afc6df5e48c91567"),
    ("impartial", 5, 6, 60, 4, 2, "62796427164cbe6b1477fdb6095b347daa07fe336bc87655c5099da4ba663c90"),
    ("spatial", 5, 6, 60, 20260808, 2, "ec5d0b928106a50645888de93fe3600571abe9066d8dd0b3c91cea8f7bb90b89"),
]


@pytest.mark.parametrize(
    "generator, alts, voters, trials, seed, dim, digest",
    GOLDEN_SIMULATE,
    ids=[f"{g}-{a}x{v}-dim{d}-seed{s}" for g, a, v, _, s, d, _ in GOLDEN_SIMULATE],
)
def test_simulate_results_are_golden(capsys, generator, alts, voters, trials, seed, dim, digest):
    argv = [
        "simulate", "--generator", generator, "--alts", str(alts), "--voters", str(voters),
        "--trials", str(trials), "--seed", str(seed), "--dim", str(dim),
    ]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest


class TestConfigAndStats:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig("urn", 3, 3, 10, 0)
        with pytest.raises(ValueError):
            SimConfig("impartial_culture", 1, 3, 10, 0)
        with pytest.raises(ValueError):
            SimConfig("impartial_culture", 3, 0, 10, 0)
        with pytest.raises(ValueError):
            SimConfig("impartial_culture", 3, 3, 0, 0)
        with pytest.raises(ValueError):
            SimConfig("spatial", 3, 3, 10, 0, dim=0)

    def test_too_many_alternatives_rejected_at_construction(self):
        with pytest.raises(ValueError, match="at most 99"):
            SimConfig("impartial_culture", 100, 3, 10, 0)
        SimConfig("impartial_culture", 99, 3, 10, 0)

    def test_stats_json_shape(self):
        stats = SimStats(trials=4)
        stats.weak_condorcet_trials = 2
        stats.support_size_histogram = {1: 3}
        stats.tied_trials = 1
        blob = stats.as_json()
        assert blob["condorcet_weak_freq"] == "1/2"
        assert blob["support_size_histogram"] == {"1": 3}
        assert blob["mean_support_size"] == "1"

    def test_mean_undefined_when_all_tied(self):
        stats = SimStats(trials=2)
        stats.tied_trials = 2
        assert stats.mean_support_size is None
        assert stats.as_json()["mean_support_size"] is None
