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
from maxlot.prng import derive_seed

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
    tally = maxlot.sim.margins

    def counted(profile):
        calls.append(profile)
        return tally(profile)

    monkeypatch.setattr(maxlot.sim, "margins", counted)
    stats = run_sim(cfg)
    assert len(calls) == cfg.trials
    assert stats == _per_trial_stats(cfg)


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
