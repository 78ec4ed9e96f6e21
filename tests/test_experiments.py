"""Experiment harness: structure, reproducibility, trivial verdicts, and the
neighborhood KL check."""
import numpy as np
import pytest

from dphmm import (DiscreteDpSpec, DiscreteEmission, GibbsConfig, HmmParams,
                   StarvationError, TransitionMatrix, TruncatedDirichletSpec,
                   experiments, sample_dp_discrete)
from dphmm.experiments import (ExperimentConfig, consistency_experiment,
                               dp_gamma_moment_check, golden_experiment,
                               kl_lemma_experiment, smoothing_consistency_experiment,
                               smoothing_max_deviation, trend_verdict)
from dphmm.hmm import smoothing_exact, simulate
from dphmm.metrics import align_labels
from tests.conftest import relabel


def _tiny_config(truth, **kw):
    gibbs = GibbsConfig(n_iter=120, burn_in=40, thin=2, seed=1,
                        transition_prior=TruncatedDirichletSpec(np.ones(truth.k),
                                                                truth.q_floor),
                        emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])))
    defaults = dict(truth=truth, gibbs=gibbs, n_grid=(40, 80), replications=2,
                    seed=3, epsilons={"block_l1": 0.2, "aligned_q": 0.15,
                                      "aligned_emission": 0.15,
                                      "smoothing_aligned": 0.15})
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation(golden_truth):
    with pytest.raises(Exception):
        _tiny_config(golden_truth, n_grid=(80, 40))
    with pytest.raises(Exception):
        _tiny_config(golden_truth, replications=0)
    with pytest.raises(Exception):
        _tiny_config(golden_truth, epsilons={"block_l1": -1.0})


def test_trend_verdict():
    assert trend_verdict([0.5, 0.7, 0.9])
    assert trend_verdict([0.9, 0.86, 0.92])      # within slack
    assert not trend_verdict([0.9, 0.5, 0.95])   # big dip
    assert not trend_verdict([0.2, 0.4, 0.6])    # final below floor


def test_consistency_report_structure(golden_truth):
    report = consistency_experiment(_tiny_config(golden_truth))
    assert len(report.cells) == 4
    for cell in report.cells:
        assert cell.n_samples == 40
        for mass in cell.masses.values():
            assert 0.0 <= mass <= 1.0
    assert set(report.curves) == {"block_l1", "aligned_q", "aligned_emission"}
    recs = report.to_records()
    assert any(r.get("aggregate") for r in recs)


def test_reports_reproducible_bitwise(golden_truth):
    cfg = _tiny_config(golden_truth)
    a = consistency_experiment(cfg)
    b = consistency_experiment(cfg)
    assert a == b


def test_mass_monotone_in_radius(golden_truth):
    cfg = _tiny_config(golden_truth)
    report = consistency_experiment(cfg)
    for cell in report.cells:
        vals = np.asarray(cell.values["block_l1"])
        assert np.mean(vals < 0.1) <= np.mean(vals < 0.3)


def test_whole_space_radius_gives_mass_one(golden_truth):
    cfg = _tiny_config(golden_truth,
                       epsilons={"block_l1": 2.5, "aligned_q": 2.5,
                                 "aligned_emission": 2.5, "smoothing_aligned": 2.5})
    report = golden_experiment(cfg)
    for cell in report.cells:
        assert all(m == 1.0 for m in cell.masses.values())
    assert report.verdict == "PASS"


def test_degenerate_single_state_truth_concentrates_trivially():
    truth = HmmParams(TransitionMatrix(np.array([[1.0]]), 1.0), np.array([1.0]),
                      (DiscreteEmission(np.array([0.3, 0.7])),))
    gibbs = GibbsConfig(n_iter=60, burn_in=20, thin=2, seed=2,
                        transition_prior=TruncatedDirichletSpec(np.ones(1), 1.0),
                        emission_prior=DiscreteDpSpec(1e9, np.array([0.3, 0.7])))
    cfg = ExperimentConfig(truth=truth, gibbs=gibbs, n_grid=(20, 40),
                           replications=2, seed=5,
                           epsilons={"block_l1": 0.2, "aligned_q": 0.15,
                                     "aligned_emission": 0.15,
                                     "smoothing_aligned": 0.15})
    report = golden_experiment(cfg)
    assert report.verdict == "PASS"
    for cell in report.cells:
        assert all(m == 1.0 for m in cell.masses.values())


def test_smoothing_deviation_zero_on_same_table(golden_truth):
    _, y = simulate(golden_truth, 12, 0)
    table = smoothing_exact(golden_truth, y, 1)
    assert smoothing_max_deviation(table, table, [0, 5, 11]) == 0.0


def test_smoothing_deviation_alignment_cancels_relabeling(golden_truth):
    _, y = simulate(golden_truth, 12, 1)
    table = smoothing_exact(golden_truth, y, 1)
    moved = smoothing_exact(relabel(golden_truth, (1, 0)), y, 1)
    raw = smoothing_max_deviation(moved, table, [0, 11])
    aligned = smoothing_max_deviation(moved, table, [0, 11], sigma=(1, 0))
    assert aligned <= 1e-12
    assert raw > 0.1


def test_smoothing_experiment_runs(golden_truth, monkeypatch):
    # the alignment gets a seeded generator, so a Monte Carlo alignment of
    # continuous emissions would be reproducible too
    seeds = []

    def spy(theta, theta_ref, n_samples=None, seed=None):
        seeds.append(seed)
        return align_labels(theta, theta_ref, n_samples, seed)

    monkeypatch.setattr(experiments, "align_labels", spy)
    report = smoothing_consistency_experiment(_tiny_config(golden_truth))
    assert set(report.curves) == {"smoothing_aligned", "smoothing_unaligned"}
    assert report.tracked == ("smoothing_aligned",)
    assert seeds and all(seed is not None for seed in seeds)


# ---------------------------------------------------------------------------
# KL neighborhood check


def test_kl_lemma_zero_violations(golden_truth):
    report = kl_lemma_experiment(
        golden_truth, epsilon=0.05, n_grid=(2, 3, 4), n_draws=5,
        trans_prior=TruncatedDirichletSpec(np.ones(2), 0.15),
        emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])),
        seed=6)
    assert report.bound_violations == 0
    assert len(report.rows) == 15
    for row in report.rows:
        assert row["exact"] <= row["bound"] + 1e-12


def test_kl_lemma_starves_on_impossible_neighborhood(golden_truth):
    with pytest.raises(StarvationError):
        kl_lemma_experiment(
            golden_truth, epsilon=1e-6, n_grid=(2,), n_draws=1,
            trans_prior=TruncatedDirichletSpec(np.ones(2), 0.15),
            emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])),
            seed=7, budget=300)


# ---------------------------------------------------------------------------
# DP moment validation


def test_dp_moment_check_passes():
    spec = DiscreteDpSpec(2.0, np.array([0.4, 0.3, 0.2, 0.1]))
    report = dp_gamma_moment_check(
        spec, n_draws=4000,
        partitions=[[[0], [1], [2], [3]], [[0, 1], [2, 3]]],
        significance=0.0027, seed=8)
    assert report.passed, f"max |z| = {report.max_abs_z}"
    assert report.z_threshold == pytest.approx(3.0, abs=0.01)


def test_dp_moment_check_rejects_bad_partition():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    with pytest.raises(Exception):
        dp_gamma_moment_check(spec, 100, [[[0], [0, 1]]], seed=9)


def test_dp_moment_check_whole_support_block(monkeypatch):
    # a block holding all the base mass has DP mass 1 in every draw: it is
    # checked exactly, not by a z-score over a zero target variance
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    partitions = [[[0], [1]], [[0, 1]]]
    report = dp_gamma_moment_check(spec, 3000, partitions, seed=0)
    assert report.passed, f"max |z| = {report.max_abs_z}"
    exact = [r for r in report.partition_z if r["moment"] == "exact_mass"]
    assert [(r["partition"], r["target"]) for r in exact] == [(1, 1.0)]

    # draws from the wrong base still fail, by z-score and by exact mass
    def draws_from(base):
        def sample(_spec, rng, with_normalizer=False):
            return sample_dp_discrete(DiscreteDpSpec(2.0, base), rng,
                                      with_normalizer=with_normalizer)
        return sample

    monkeypatch.setattr(experiments, "sample_dp_discrete", draws_from(np.array([0.3, 0.7])))
    assert not dp_gamma_moment_check(spec, 3000, partitions, seed=0).passed

    padded = DiscreteDpSpec(2.0, np.array([0.5, 0.5, 0.0]))
    monkeypatch.setattr(experiments, "sample_dp_discrete",
                        draws_from(np.array([0.5, 0.49, 0.01])))
    report = dp_gamma_moment_check(padded, 3000, [[[0], [1], [2]]], seed=0)
    assert not report.passed
    assert report.max_abs_z <= report.z_threshold


def test_dp_moment_check_detects_wrong_alpha():
    # draws from alpha = 8 checked against alpha = 2 moments must blow past 3 sigma
    draws_spec = DiscreteDpSpec(8.0, np.array([0.5, 0.5]))
    rng = np.random.default_rng(10)
    from dphmm import sample_dp_discrete

    masses = np.array([sample_dp_discrete(draws_spec, rng).pmf[0]
                       for _ in range(4000)])
    target_var = 0.5 * 0.5 / (2.0 + 1.0)   # claimed alpha = 2
    z = (masses.var(ddof=1) - target_var) / (target_var / np.sqrt(len(masses)))
    assert abs(z) > 3
