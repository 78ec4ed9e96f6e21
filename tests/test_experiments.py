"""Experiment harness: structure, reproducibility, trivial verdicts, the
neighborhood KL check, and the moment check of discrete DP draws."""
from dataclasses import replace

import numpy as np
import pytest

from dphmm import (DataError, DiscreteDpSpec, DiscreteEmission, GaussianDpSpec, GibbsConfig,
                   HmmParams, NormalInvGammaBase, StarvationError, TransitionMatrix,
                   TruncatedDirichletSpec, experiments, sample_dp_discrete)
from dphmm.emissions import PMF_TOL
from dphmm.errors import ConfigError
from dphmm.experiments import (ExperimentConfig, golden_experiment, kl_lemma_experiment,
                               smoothing_max_deviation, trend_verdict)
from dphmm.gibbs import run_chain
from dphmm.hmm import simulate, smoothing_exact, stationary_distribution
from dphmm.metrics import align_labels, parameter_metrics
from tests.conftest import random_gaussian_params, relabel
from tests.dp_oracles import Z_THRESHOLD, dp_moment_check

PARAMETER = ("block_l1", "aligned_q", "aligned_emission")
SMOOTHING = ("smoothing_aligned", "smoothing_unaligned")


def _tiny_config(truth, **kw):
    gibbs = GibbsConfig(n_iter=120, burn_in=40, thin=2, seed=1,
                        transition_prior=TruncatedDirichletSpec(np.ones(truth.k),
                                                                truth.q_floor),
                        emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])))
    defaults = dict(truth=truth, gibbs=gibbs, n_grid=(40, 80), replications=2,
                    seed=3, epsilons={"block_l1": 0.2, "aligned_q": 0.15,
                                      "aligned_emission": 0.15,
                                      "smoothing_aligned": 0.15,
                                      "smoothing_unaligned": 0.15},
                    metrics=PARAMETER + SMOOTHING)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation(golden_truth):
    with pytest.raises(Exception):
        _tiny_config(golden_truth, n_grid=(80, 40))
    with pytest.raises(Exception):
        _tiny_config(golden_truth, replications=0)
    with pytest.raises(Exception):
        _tiny_config(golden_truth, epsilons={"block_l1": -1.0})
    with pytest.raises(ConfigError, match="no radius configured for metric 'aligned_q'"):
        _tiny_config(golden_truth, metrics=PARAMETER, epsilons={"block_l1": 0.2})
    with pytest.raises(ConfigError, match="unknown metric 'kl'"):
        _tiny_config(golden_truth, metrics=("kl",))
    # smoothing_unaligned needs a radius of its own
    with pytest.raises(ConfigError,
                       match="no radius configured for metric 'smoothing_unaligned'"):
        _tiny_config(golden_truth, metrics=SMOOTHING,
                     epsilons={"smoothing_aligned": 0.15})
    assert _tiny_config(golden_truth, metrics=("weak_gap:ind_0_1",),
                        epsilons={"weak_gap:ind_0_1": 0.1}).metrics == ("weak_gap:ind_0_1",)


def _dpm_gibbs(truth):
    return GibbsConfig(n_iter=12, burn_in=4, thin=2, seed=1,
                       transition_prior=TruncatedDirichletSpec(np.ones(truth.k),
                                                               truth.q_floor),
                       emission_prior=GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 0.1, 2.0, 1.0),
                                                     5))


def test_exact_metrics_on_continuous_emissions_fail_in_the_config(golden_truth):
    gaussian = random_gaussian_params(np.random.default_rng(4), k=2, q_floor=0.15)
    # (truth, emission prior): both continuous, then each alone
    continuous = [dict(truth=gaussian, gibbs=_dpm_gibbs(gaussian)),
                  dict(truth=gaussian),
                  dict(truth=golden_truth, gibbs=_dpm_gibbs(golden_truth))]
    for changes in continuous:
        for names in (PARAMETER + SMOOTHING, ("smoothing_aligned", "weak_gap:ind_0_1")):
            with pytest.raises(DataError, match="exact metrics need discrete emissions"):
                _tiny_config(metrics=names, epsilons=dict.fromkeys(names, 0.1), **changes)
        # the smoothing metrics are scored from smoothing tables, not in exact mode
        assert _tiny_config(metrics=SMOOTHING, **changes).metrics == SMOOTHING


def test_trend_verdict():
    assert trend_verdict([0.5, 0.7, 0.9])
    assert trend_verdict([0.9, 0.86, 0.92])      # within slack
    assert not trend_verdict([0.9, 0.5, 0.95])   # big dip
    assert not trend_verdict([0.2, 0.4, 0.6])    # final below floor


def test_consistency_report_structure(golden_truth):
    report = golden_experiment(_tiny_config(golden_truth, metrics=PARAMETER))
    assert len(report.cells) == 4
    for cell in report.cells:
        assert cell.n_samples == 40
        for mass in cell.masses.values():
            assert 0.0 <= mass <= 1.0
    assert set(report.curves) == {"block_l1", "aligned_q", "aligned_emission"}
    recs = report.to_records()
    assert any(r.get("aggregate") for r in recs)


def test_reports_reproducible_bitwise(golden_truth):
    cfg = _tiny_config(golden_truth, metrics=PARAMETER)
    a = golden_experiment(cfg)
    b = golden_experiment(cfg)
    assert a == b


def test_mass_monotone_in_radius(golden_truth):
    cfg = _tiny_config(golden_truth, metrics=PARAMETER)
    report = golden_experiment(cfg)
    for cell in report.cells:
        vals = np.asarray(cell.values["block_l1"])
        assert np.mean(vals < 0.1) <= np.mean(vals < 0.3)


def test_whole_space_radius_gives_mass_one(golden_truth):
    cfg = _tiny_config(golden_truth,
                       epsilons={"block_l1": 2.5, "aligned_q": 2.5,
                                 "aligned_emission": 2.5, "smoothing_aligned": 2.5,
                                 "smoothing_unaligned": 2.5})
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
                                     "smoothing_aligned": 0.15,
                                     "smoothing_unaligned": 0.15},
                           metrics=PARAMETER + SMOOTHING)
    report = golden_experiment(cfg)
    assert report.verdict == "PASS"
    for cell in report.cells:
        assert all(m == 1.0 for m in cell.masses.values())


def test_smoothing_deviation_zero_on_same_table(golden_truth):
    _, y = simulate(golden_truth, 12, 0)
    laws = smoothing_exact(golden_truth, y, 1)
    assert smoothing_max_deviation(laws, laws, [0, 5, 11]) == 0.0


@pytest.mark.parametrize("block_len", [1, 2, 3])
def test_smoothing_deviation_alignment_cancels_relabeling(golden_truth, block_len):
    # the block table is relabeled on every axis: one relabeled axis leaves a
    # gap of about 0.35 at block lengths 2 and 3
    _, y = simulate(golden_truth, 12, 1)
    laws = smoothing_exact(golden_truth, y, block_len)
    moved = smoothing_exact(relabel(golden_truth, (1, 0)), y, block_len)
    raw = smoothing_max_deviation(moved, laws, [0, 11])
    aligned = smoothing_max_deviation(moved, laws, [0, 11], sigma=(1, 0))
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
    report = golden_experiment(_tiny_config(golden_truth, metrics=SMOOTHING))
    assert set(report.curves) == {"smoothing_aligned", "smoothing_unaligned"}
    assert report.tracked == ("smoothing_aligned",)
    assert seeds and all(seed is not None for seed in seeds)


def test_name_lists_restrict_the_golden_run(golden_truth):
    # each name list records the golden run's masses for its own metrics, in
    # the same cells and order, and its verdict reads its own tracked metrics:
    # every radius but the smoothing ones covers the whole space
    eps = {"block_l1": 2.5, "aligned_q": 2.5, "aligned_emission": 2.5,
           "smoothing_aligned": 1e-12, "smoothing_unaligned": 1e-12}
    golden = golden_experiment(_tiny_config(golden_truth, epsilons=eps))
    assert (golden.verdict, golden.failures) == ("FAIL", ("smoothing_aligned",))
    verdicts = {}
    for names in (PARAMETER, SMOOTHING):
        report = golden_experiment(_tiny_config(golden_truth, epsilons=eps, metrics=names))
        assert report.to_records() == [r for r in golden.to_records()
                                       if r["metric"] in names]
        for cell, whole in zip(report.cells, golden.cells, strict=True):
            assert cell.masses == {m: whole.masses[m] for m in names}
            assert cell.values == {m: whole.values[m] for m in names}
        assert report.tracked == tuple(m for m in names if m != "smoothing_unaligned")
        verdicts[names] = (report.verdict, report.failures)
    assert verdicts == {PARAMETER: ("PASS", ()),
                        SMOOTHING: ("FAIL", ("smoothing_aligned",))}


def test_weak_gap_mass_is_the_fraction_of_its_values_under_the_radius(golden_truth):
    name, radius = "weak_gap:ind_0_1", 0.05
    cfg = _tiny_config(golden_truth, metrics=("block_l1", name),
                       epsilons={"block_l1": 0.2, name: radius})
    report = golden_experiment(cfg)
    assert report.tracked == ("block_l1", name)
    stationary = golden_truth.with_mu(stationary_distribution(golden_truth.trans))
    masses = set()
    for cell in report.cells:
        _, y = simulate(stationary, cell.n, cell.sim_seed)
        samples = run_chain(y, replace(cfg.gibbs, seed=cell.chain_seed))
        values = [parameter_metrics(s.params, golden_truth, [name], 3)[0].value
                  for s in samples]
        assert cell.values[name] == values
        assert cell.masses[name] == float(np.mean(np.asarray(values) < radius))
        masses.add(cell.masses[name])
    assert masses - {0.0, 1.0}      # the radius cuts through the posterior


# ---------------------------------------------------------------------------
# KL neighborhood check


def test_kl_lemma_zero_violations(golden_truth):
    # the truth's pmfs have 2 symbols; a 3-symbol base draws pmfs of 3
    for base in ([0.5, 0.5], [0.4, 0.4, 0.2]):
        report = kl_lemma_experiment(
            golden_truth, epsilon=0.05, n_grid=(2, 3, 4), n_draws=5,
            trans_prior=TruncatedDirichletSpec(np.ones(2), 0.15),
            emission_prior=DiscreteDpSpec(2.0, np.array(base)),
            seed=6)
        assert report.bound_violations == 0 and report.conclusion_violations == 0
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
# DP moment validation: the Gamma-normalization draws against the oracle


def _draws(spec, n, seed):
    """n draws (pmfs, normalizers) of sample_dp_discrete on one stream."""
    rng = np.random.default_rng(seed)
    pmfs, totals = zip(*(sample_dp_discrete(spec, rng) for _ in range(n)))
    return np.array(pmfs), np.array(totals)


def _passes(max_z, exact):
    return max_z <= Z_THRESHOLD and all(dev <= PMF_TOL for dev in exact.values())


def test_dp_moment_check_passes():
    spec = DiscreteDpSpec(2.0, np.array([0.4, 0.3, 0.2, 0.1]))
    max_z, exact = dp_moment_check(*_draws(spec, 4000, seed=8), spec,
                                   [[[0], [1], [2], [3]], [[0, 1], [2, 3]]])
    assert _passes(max_z, exact), f"max |z| = {max_z}"
    assert Z_THRESHOLD == pytest.approx(3.0, abs=0.01)


def test_dp_moment_check_rejects_bad_partition():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    with pytest.raises(Exception):
        dp_moment_check(*_draws(spec, 100, seed=9), spec, [[[0], [0, 1]]])


def test_dp_moment_check_whole_support_block():
    # a block holding all the base mass has DP mass 1 in every draw: it is
    # checked exactly, not by a z-score over a zero target variance
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    partitions = [[[0], [1]], [[0, 1]]]
    max_z, exact = dp_moment_check(*_draws(spec, 3000, seed=0), spec, partitions)
    assert _passes(max_z, exact), f"max |z| = {max_z}"
    assert [(p, target) for p, _, target in exact] == [(1, 1.0)]

    # draws from the wrong base still fail, by z-score and by exact mass
    wrong = _draws(DiscreteDpSpec(2.0, np.array([0.3, 0.7])), 3000, seed=0)
    assert not _passes(*dp_moment_check(*wrong, spec, partitions))

    padded = DiscreteDpSpec(2.0, np.array([0.5, 0.5, 0.0]))
    wrong = _draws(DiscreteDpSpec(2.0, np.array([0.5, 0.49, 0.01])), 3000, seed=0)
    max_z, exact = dp_moment_check(*wrong, padded, [[[0], [1], [2]]])
    assert not _passes(max_z, exact)
    assert max_z <= Z_THRESHOLD


def test_dp_moment_check_detects_wrong_alpha():
    # draws from alpha = 8 checked against alpha = 2 moments must blow past 3 sigma
    draws = _draws(DiscreteDpSpec(8.0, np.array([0.5, 0.5])), 4000, seed=10)
    max_z, exact = dp_moment_check(*draws, DiscreteDpSpec(2.0, np.array([0.5, 0.5])),
                                   [[[0], [1]]])
    assert not _passes(max_z, exact)
    assert max_z > Z_THRESHOLD
