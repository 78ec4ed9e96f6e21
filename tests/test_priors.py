"""Priors: floor-restricted Dirichlet rows, DP constructions, checkers."""
import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from dphmm import (DiscreteDpSpec, GaussianDpSpec, GaussianMixtureEmission,
                   NormalInvGammaBase, SamplerBudgetError, TruncatedDirichletSpec,
                   check_entropy_finite, check_inverse_scale_integrable,
                   check_ratio_summable, sample_dp_discrete, sample_transition_row)
from dphmm.emissions import DiscreteEmission
from dphmm.priors import dp_mixture_arrays, stick_breaking_weights


# ---------------------------------------------------------------------------
# truncated Dirichlet rows


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncatedDirichletSpec(np.array([1.0, -1.0]), 0.1)
    with pytest.raises(ValueError):
        TruncatedDirichletSpec(np.array([1.0, 1.0]), 0.6)  # q k > 1
    spec = TruncatedDirichletSpec(np.array([1.0, 1.0]), 0.5)
    assert spec.degenerate


def test_degenerate_row_is_the_single_point():
    spec = TruncatedDirichletSpec(np.array([2.0, 3.0]), 0.5)
    draw = sample_transition_row(spec, 0)
    assert draw.method == "degenerate"
    assert np.array_equal(draw.row, [0.5, 0.5])


def test_flat_alpha_uniform_mean():
    k = 3
    spec = TruncatedDirichletSpec(np.ones(k), 0.0)
    rng = np.random.default_rng(1)
    draws = np.stack([sample_transition_row(spec, rng).row for _ in range(20_000)])
    # Dirichlet(1,..,1) mean 1/k, var (k-1)/(k^2 (k+1))
    var = (k - 1) / (k ** 2 * (k + 1))
    se = np.sqrt(var / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - 1 / k) <= 3 * se)


def test_floor_always_satisfied_exactly():
    rng = np.random.default_rng(2)
    for q, alpha in ((0.2, np.ones(3)), (0.15, np.array([2.0, 1.0, 3.0])),
                     (0.3, np.array([0.5, 4.0]))):
        spec = TruncatedDirichletSpec(alpha, q)
        for _ in range(500):
            draw = sample_transition_row(spec, rng)
            assert draw.row.min() >= q
            assert abs(draw.row.sum() - 1.0) <= 1e-12


def test_rejection_matches_truncated_beta_oracle():
    # k = 2: the first coordinate of the restricted law is a Beta(3, 2)
    # conditioned to [q, 1-q]; sample that directly by inverse cdf.
    q = 0.2
    spec = TruncatedDirichletSpec(np.array([3.0, 2.0]), q)
    rng = np.random.default_rng(3)
    draws = np.array([sample_transition_row(spec, rng).row[0] for _ in range(20_000)])
    lo, hi = beta_dist.cdf(q, 3, 2), beta_dist.cdf(1 - q, 3, 2)
    oracle = beta_dist.ppf(lo + (hi - lo) * rng.random(100_000), 3, 2)
    se = np.sqrt(draws.var() / draws.size + oracle.var() / oracle.size)
    assert abs(draws.mean() - oracle.mean()) <= 3 * se


def test_budget_exhaustion_near_degenerate_corner():
    spec = TruncatedDirichletSpec(np.array([200.0, 1.0]), 0.49)
    with pytest.raises(SamplerBudgetError):
        sample_transition_row(spec, 0)


def test_fallback_away_from_corner():
    spec = TruncatedDirichletSpec(np.array([80.0, 1.0]), 0.4)
    draw = sample_transition_row(spec, 0)
    assert draw.method == "affine_fallback"
    assert draw.row.min() >= 0.4


# ---------------------------------------------------------------------------
# discrete DP via Gamma normalization


def test_dp_two_symbols_is_flat_beta():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))  # Dirichlet(1, 1)
    rng = np.random.default_rng(4)
    draws = np.array([sample_dp_discrete(spec, rng).pmf[0] for _ in range(20_000)])
    assert abs(draws.mean() - 0.5) <= 3 * np.sqrt(1 / 12 / draws.size)
    assert abs(draws.var() - 1 / 12) <= 3 * np.sqrt((1 / 80.0 - 1 / 144.0) / draws.size)


def test_dp_normalizer_gamma_moments():
    spec = DiscreteDpSpec(3.0, np.array([0.25, 0.25, 0.25, 0.25]))
    rng = np.random.default_rng(5)
    totals = np.array([sample_dp_discrete(spec, rng, with_normalizer=True)[1]
                       for _ in range(20_000)])
    assert abs(totals.mean() - 3.0) <= 3 * np.sqrt(3.0 / totals.size)
    var_se = np.sqrt((np.mean((totals - totals.mean()) ** 4) - totals.var() ** 2)
                     / totals.size)
    assert abs(totals.var() - 3.0) <= 3 * var_se


def test_dp_draw_sums_to_one_exactly():
    spec = DiscreteDpSpec(1.5, np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(6)
    for _ in range(100):
        pmf = sample_dp_discrete(spec, rng).pmf
        assert abs(pmf.sum() - 1.0) <= 1e-15


def test_dp_zero_base_entries_stay_zero():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.0, 0.5]))
    pmf = sample_dp_discrete(spec, 7).pmf
    assert pmf[1] == 0.0


def test_dp_all_zero_draws_fail_loudly():
    spec = DiscreteDpSpec(1e-300, np.array([0.5, 0.5]))
    with pytest.raises(SamplerBudgetError):
        sample_dp_discrete(spec, 8)


# ---------------------------------------------------------------------------
# stick breaking


def test_stick_breaking_basics():
    rng = np.random.default_rng(9)
    w = stick_breaking_weights(1.5, 30, rng)
    assert np.all(w >= 0)
    assert w.sum() == 1.0
    assert stick_breaking_weights(2.0, 1, rng)[0] == 1.0


def test_stick_breaking_expected_weights():
    alpha, depth, R = 1.5, 6, 20_000
    rng = np.random.default_rng(10)
    draws = np.stack([stick_breaking_weights(alpha, depth, rng) for _ in range(R)])
    for r in range(depth - 1):
        expect = alpha ** r / (1 + alpha) ** (r + 1)
        se = draws[:, r].std(ddof=1) / np.sqrt(R)
        assert abs(draws[:, r].mean() - expect) <= 3 * se


def test_stick_breaking_tiny_alpha_front_loads():
    rng = np.random.default_rng(11)
    R = 5000
    firsts = np.array([stick_breaking_weights(1e-6, 10, rng)[0] for _ in range(R)])
    frac = np.mean(firsts > 0.999)
    assert frac >= 0.999 - 3 * np.sqrt(0.001 * 0.999 / R)


def test_dp_mixture_draw_shape():
    spec = GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 3.0, 2.0), truncation=12)
    mix = GaussianMixtureEmission(*dp_mixture_arrays(spec, 12))
    assert mix.n_atoms == 12
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mix.scales > 0)
    single = GaussianMixtureEmission(
        *dp_mixture_arrays(GaussianDpSpec(1.0, spec.base, truncation=1), 13))
    assert single.n_atoms == 1 and single.weights[0] == 1.0


# ---------------------------------------------------------------------------
# condition checkers: unit behavior


def test_ratio_summable_exact_when_truth_matches_base():
    base = np.full(10, 0.1)
    truth = DiscreteEmission(base)
    rep = check_ratio_summable(truth, base)
    assert rep.holds
    # sum of f/G0 with f = G0 on 10 symbols is the support size, not 1
    assert rep.value == pytest.approx(10.0, abs=1e-9)


def test_ratio_summable_support_violation_fails():
    truth = DiscreteEmission(np.array([0.5, 0.5]))
    rep = check_ratio_summable(truth, np.array([1.0, 0.0]))
    assert rep.verdict == "fails"
    # a base shorter than the truth's support counts as zero past its end
    wider = DiscreteEmission(np.array([0.5, 0.3, 0.2]))
    rep = check_ratio_summable(wider, np.array([0.5, 0.5]))
    assert (rep.verdict, rep.value) == ("fails", None)
    assert rep.detail == "base has zero mass at supported symbol 2"


def test_entropy_uniform_closed_form():
    M = 8
    rep = check_entropy_finite(DiscreteEmission(np.full(M, 1.0 / M)))
    assert rep.holds and rep.value == pytest.approx(np.log(M), abs=1e-12)


def test_inverse_scale_values():
    # E[1/sigma] = Gamma(shape + 1/2) / Gamma(shape) / sqrt(scale)
    one = check_inverse_scale_integrable(NormalInvGammaBase(0.0, 1.0, 1.0, 1.0))
    assert one.holds and one.value == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)
    three = check_inverse_scale_integrable(NormalInvGammaBase(5.0, 2.0, 3.0, 4.0))
    assert three.value == pytest.approx(15 * np.sqrt(np.pi) / 32, abs=1e-12)
    assert three.detail == "inverse-gamma variance: closed-form moment"


def test_inverse_scale_nig_moment_matches_monte_carlo():
    base = NormalInvGammaBase(0.0, 1.0, 3.0, 2.0)
    rep = check_inverse_scale_integrable(base)
    rng = np.random.default_rng(14)
    _, sigma = base.sample(rng, 200_000)
    inv = 1.0 / sigma
    se = inv.std(ddof=1) / np.sqrt(inv.size)
    assert abs(inv.mean() - rep.value) <= 3 * se
