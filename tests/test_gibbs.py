"""Gibbs machinery: FFBS, conjugate updates, the chain runner, and a
detailed-balance check against a brute-force grid posterior."""
import numpy as np
import pytest

from dphmm import (DiscreteDpSpec, DiscreteEmission, GaussianDpSpec,
                   GibbsConfig, HmmParams, NormalInvGammaBase, PosteriorSample,
                   TransitionMatrix, TruncatedDirichletSpec,
                   ZeroLikelihoodError, ffbs_states, geweke_check, kernels,
                   run_chain, simulate, smoothing_exact)
from dphmm.emissions import SQRT_2PI, gaussian_kernels, mixture_density
from dphmm import gibbs
from dphmm.gibbs import (_allocations, _log_components,
                         _mixture_emission_matrix, transition_counts, symbol_counts,
                         update_transitions, update_discrete_emissions,
                         update_mixture_emissions)
from dphmm.hmm import emission_matrix
from dphmm.modelio import sample_to_record
from dphmm.priors import dp_mixture_arrays
from tests import kernel_oracles as oracles
from tests import mixture_oracles
from tests.conftest import (brute_force_path_probs, random_discrete_params,
                            random_gaussian_params)


@pytest.fixture
def flat_binary() -> HmmParams:
    return HmmParams(
        TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.5),
        np.array([0.5, 0.5]),
        (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8]))))


# ---------------------------------------------------------------------------
# FFBS


def test_ffbs_single_step_bayes(flat_binary):
    rng = np.random.default_rng(0)
    R = 20_000
    B = emission_matrix(flat_binary, [0])
    hits = sum(ffbs_states(flat_binary.mu, flat_binary.trans.rows, B, rng)[0] == 0
               for _ in range(R))
    p = 9.0 / 11.0
    assert abs(hits / R - p) <= 3 * np.sqrt(p * (1 - p) / R)


def test_ffbs_identical_emissions_prior_marginal():
    pmf = np.array([0.5, 0.5])
    params = HmmParams(TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]), 0.1),
                       np.array([0.9, 0.1]),
                       (DiscreteEmission(pmf), DiscreteEmission(pmf)))
    rng = np.random.default_rng(1)
    R = 20_000
    B = emission_matrix(params, [0, 1, 0])
    draws = np.stack([ffbs_states(params.mu, params.trans.rows, B, rng) for _ in range(R)])
    prior = params.mu.copy()
    for t in range(3):
        emp = np.mean(draws[:, t] == 0)
        se = np.sqrt(prior[0] * (1 - prior[0]) / R)
        assert abs(emp - prior[0]) <= 3 * se
        prior = prior @ params.trans.rows


def test_ffbs_path_frequencies_match_enumeration():
    rng = np.random.default_rng(2)
    params = random_discrete_params(rng, k=2, support=2, q_floor=0.1)
    _, y = simulate(params, 3, rng)
    paths, probs = brute_force_path_probs(params, y)
    post = probs / probs.sum()
    R = 50_000
    counts = {}
    B = emission_matrix(params, y)
    for _ in range(R):
        key = tuple(ffbs_states(params.mu, params.trans.rows, B, rng))
        counts[key] = counts.get(key, 0) + 1
    for path, p in zip(map(tuple, paths), post):
        se = np.sqrt(p * (1 - p) / R)
        assert abs(counts.get(path, 0) / R - p) <= 3 * se + 1e-12


def test_ffbs_marginals_match_smoothing():
    rng = np.random.default_rng(3)
    params = random_discrete_params(rng, k=3, support=3, q_floor=0.05)
    _, y = simulate(params, 6, rng)
    table = smoothing_exact(params, y, 1)
    R = 30_000
    B = emission_matrix(params, y)
    draws = np.stack([ffbs_states(params.mu, params.trans.rows, B, rng) for _ in range(R)])
    for t in range(6):
        for i in range(3):
            p = table.marginals[t, i]
            se = np.sqrt(p * (1 - p) / R)
            assert abs(np.mean(draws[:, t] == i) - p) <= 3.5 * se + 1e-12


def test_ffbs_rejects_zero_likelihood(flat_binary):
    with pytest.raises(ZeroLikelihoodError):
        ffbs_states(flat_binary.mu, flat_binary.trans.rows,
                    emission_matrix(flat_binary, [0, 7]), 0)


# ---------------------------------------------------------------------------
# conditional updates


def test_transition_counts():
    states = np.array([0, 0, 1, 0, 1, 1])
    counts = transition_counts(states, 2)
    assert np.array_equal(counts, [[1, 2], [1, 1]])
    assert np.array_equal(transition_counts(np.array([1]), 2), np.zeros((2, 2)))


def test_update_transitions_prior_mean_with_zero_counts():
    spec = TruncatedDirichletSpec(np.ones(2), 0.15)
    rng = np.random.default_rng(4)
    draws = np.stack([update_transitions(np.zeros((2, 2), dtype=np.int64), spec, rng)
                      for _ in range(5000)])
    # affine image of a flat Dirichlet: mean 0.5, var scaled by (1-2q)^2
    var = (1 - 2 * 0.15) ** 2 / 12.0
    se = np.sqrt(var / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - 0.5) <= 3 * se)


def test_update_transitions_boundary_concentration():
    spec = TruncatedDirichletSpec(np.ones(2), 0.1)
    counts = np.array([[10 ** 6, 0], [0, 10 ** 6]], dtype=np.int64)
    rng = np.random.default_rng(5)
    draws = np.array([update_transitions(counts, spec, rng)[0, 0]
                      for _ in range(1000)])
    assert 0.88 <= draws.mean() <= 0.90
    assert draws.max() <= 0.9 + 1e-12  # floor on the complementary entry


def test_update_transitions_no_floor_is_plain_dirichlet():
    spec = TruncatedDirichletSpec(np.array([2.0, 3.0]), 0.0)
    counts = np.array([[5, 10], [0, 0]], dtype=np.int64)
    rng = np.random.default_rng(6)
    draws = np.array([update_transitions(counts, spec, rng)[0, 0]
                      for _ in range(20_000)])
    a, b = 2.0 + 5, 3.0 + 10
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    assert abs(draws.mean() - mean) <= 3 * np.sqrt(var / draws.size)


def test_update_discrete_emissions_moments():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    rng = np.random.default_rng(7)
    counts = np.array([[30, 10], [0, 0]], dtype=np.int64)
    R = 10_000
    draws = np.empty((R, 2, 2))
    for r in range(R):
        f0, f1 = update_discrete_emissions(counts, spec, rng)
        draws[r, 0], draws[r, 1] = f0, f1
    total = 2.0 + 40
    mean = (2.0 * 0.5 + 30) / total
    var = mean * (1 - mean) / (total + 1)
    assert abs(draws[:, 0, 0].mean() - mean) <= 3 * np.sqrt(var / R)
    # zero-count state reproduces the prior mean
    assert abs(draws[:, 1, 0].mean() - 0.5) <= 3 * np.sqrt((1 / 12) / R)


def test_update_discrete_emissions_dominating_symbol():
    alpha = 1.0
    spec = DiscreteDpSpec(alpha, np.array([0.5, 0.5]))
    counts = np.array([[10_000, 0]], dtype=np.int64)
    rng = np.random.default_rng(8)
    draws = np.array([update_discrete_emissions(counts, spec, rng)[0, 0]
                      for _ in range(2000)])
    assert draws.mean() >= 0.99


def test_update_discrete_emissions_extends_support():
    spec = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    counts = np.array([[3, 2, 7]], dtype=np.int64)  # symbol 2 beyond the base
    rng = np.random.default_rng(9)
    pmf = update_discrete_emissions(counts, spec, rng)[0]
    assert pmf.size == 3 and pmf[2] > 0


def test_update_mixture_empty_state_draws_from_prior():
    spec = GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 3.0, 2.0), truncation=8)
    out = update_mixture_emissions([np.array([])], None, spec, 10)  # no current needed
    weights = out[0, 0]
    assert weights.size == 8 and weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_mixture_concentrates_on_constant_data():
    spec = GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 4.0, 0.5), truncation=6)
    rng = np.random.default_rng(11)
    c = 3.0
    ys = np.full(1000, c)
    start = dp_mixture_arrays(spec, rng)[None]
    means = []
    mix = start
    for _ in range(200):
        mix = update_mixture_emissions([ys], mix, spec, rng)
        means.append(float(mix[0, 0] @ mix[0, 1]))
    assert abs(np.mean(means[50:]) - c) <= 0.05


def _mixture_arrays(seed, depth=12):
    rng = np.random.default_rng(seed)
    return (rng.dirichlet(np.ones(depth)), rng.normal(0.0, 2.0, depth),
            rng.uniform(0.2, 2.0, depth))


def _responsibilities_in_order(ys, weights, locations, scales, swapped=False):
    kern = gaussian_kernels(ys, locations, scales)
    resp = (kern / (SQRT_2PI * scales) * weights if swapped
            else kern * weights / (SQRT_2PI * scales))
    return np.cumsum(resp / resp.sum(axis=1, keepdims=True), axis=1)


def _uniforms_on_running_sums(running):
    """For each of the first R - 1 columns of the running sums (the last
    one moves no allocation), uniforms exactly on that column, one ulp
    above and one ulp below. A last-bit change of any of those sums moves
    the count of sums below u, that is, an allocation, for one of them."""
    for on in running[:, :-1].T:
        yield from (on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf))


def _count_below(u, running):
    return (u[:, None] > running[:, :-1]).sum(axis=1)


def test_cumulative_responsibilities_keep_their_order_bit_for_bit():
    # An allocation compares a uniform with these running sums, so a last-bit
    # change almost never moves a draw and no chain output shows it. These
    # inputs are ones where dividing by sqrt(2 pi) * scales before
    # multiplying by the weights changes last bits; the uniforms sit on the
    # running sums and one ulp either side, where such a change flips an
    # allocation.
    ys = np.random.default_rng(21).normal(0.0, 3.0, 500)
    weights, locations, scales = _mixture_arrays(22)
    expected = _responsibilities_in_order(ys, weights, locations, scales)
    swapped = _responsibilities_in_order(ys, weights, locations, scales, swapped=True)
    assert not np.array_equal(expected, swapped)
    flips = 0
    for u in _uniforms_on_running_sums(expected):
        got = _allocations(ys, weights, locations, scales, u)
        assert np.array_equal(got, _count_below(u, expected))
        flips += np.count_nonzero(_count_below(u, swapped) != got)
    assert flips > 0


def _softmax_cumsum(logs):
    p = np.exp(logs - logs.max(axis=1, keepdims=True))
    return np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)


def test_underflowed_responsibility_rows_are_recomputed_in_log_space():
    weights, locations, scales = _mixture_arrays(23)
    weights[3] = 0.0                    # a zero weight stays at zero mass
    weights /= weights.sum()
    ys = np.array([0.3, 200.0, -1.0, -1e5, 2.5])
    near, far = [0, 2, 4], [1, 3]
    expected = np.empty((ys.size, weights.size))
    expected[near] = _responsibilities_in_order(ys[near], weights, locations, scales)
    expected[far] = _softmax_cumsum(_log_components(ys[far], weights, locations, scales))
    assert np.all(np.isfinite(expected)) and np.all(expected[far, 3] == expected[far, 2])
    for u in _uniforms_on_running_sums(expected):
        got = _allocations(ys, weights, locations, scales, u)
        assert np.array_equal(got, _count_below(u, expected))
    # one ulp above the running sum through component 2 passes component 3 too
    u = np.nextafter(expected[:, 2], np.inf)
    assert np.all(_allocations(ys, weights, locations, scales, u) >= 4)


def test_allocations_raise_when_every_component_has_zero_density():
    # z * z overflows at 1e200, so even the log-space row has no finite
    # maximum; the per-atom update raised the same error
    weights, locations, scales = _mixture_arrays(24)
    ys = np.array([0.5, 1e200, -0.2])
    with np.errstate(over="ignore"):
        with pytest.raises(ZeroLikelihoodError, match="zero density under every component"):
            _allocations(ys, weights, locations, scales, np.full(3, 0.5))
        with pytest.raises(ZeroLikelihoodError, match="zero density under every component"):
            mixture_oracles.allocations(ys, weights, locations, scales, np.full(3, 0.5))
        spec = GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 3.0, 2.0), truncation=12)
        current = np.stack([weights, locations, scales])[None]
        with pytest.raises(ZeroLikelihoodError):
            update_mixture_emissions([ys], current, spec, 0)


def _random_mixture_case(rng):
    """A random block-sweep input: truncation 1 to 25, k 1 to 3, states with
    no observation or one, atoms left empty, and far outliers that take the
    log-space path."""
    depth = int(rng.integers(1, 26))
    base = NormalInvGammaBase(float(rng.normal()), float(rng.uniform(0.05, 2.0)),
                              float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 3.0)))
    spec = GaussianDpSpec(float(rng.uniform(0.3, 3.0)), base, truncation=depth)
    k = int(rng.integers(1, 4))
    current = np.stack([dp_mixture_arrays(spec, rng) for _ in range(k)])
    groups = []
    for _ in range(k):
        ys = rng.normal(0.0, 3.0, int(rng.choice([0, 1, 2, 7, 60, 300])))
        if ys.size and rng.random() < 0.3:
            ys[rng.integers(ys.size)] = rng.choice([200.0, -1e5, 60.0])
        groups.append(ys)
    return groups, current, spec


def test_update_mixture_emissions_matches_the_per_atom_oracle():
    rng = np.random.default_rng(41)
    depths = set()
    for case in range(300):
        groups, current, spec = _random_mixture_case(rng)
        depths.add(spec.truncation)
        got_rng, want_rng = np.random.default_rng(case), np.random.default_rng(case)
        got = update_mixture_emissions(groups, current, spec, got_rng)
        want = mixture_oracles.update_mixture_emissions_masks(groups, current, spec, want_rng)
        assert np.array_equal(got, want), case
        # the same draws from the same stream, and no more
        assert got_rng.random() == want_rng.random(), case
    assert min(depths) < 8 < max(depths)


def test_update_mixture_emissions_matches_the_oracle_on_edge_cases():
    base = NormalInvGammaBase(0.5, 0.3, 2.0, 1.0)
    for depth in (1, 2, 7, 8, 9, 20):
        spec = GaussianDpSpec(1.0, base, truncation=depth)
        rng = np.random.default_rng(depth)
        current = np.stack([dp_mixture_arrays(spec, rng) for _ in range(3)])
        current[2, 0] = 0.0
        current[2, 0, 0] = 1.0          # one atom holds the whole state
        groups = [np.array([]), np.array([0.25]),
                  np.array([1e5, -3.0, 0.1, 0.1, -1e5, 250.0])]
        for seed in range(20):
            got = update_mixture_emissions(groups, current, spec, seed)
            want = mixture_oracles.update_mixture_emissions_masks(groups, current, spec, seed)
            assert np.array_equal(got, want), (depth, seed)


def test_mixture_emission_rows_zero_under_every_state_are_rescaled():
    emissions = np.stack([np.stack(_mixture_arrays(seed, depth=5)) for seed in (31, 32)])
    y = np.array([0.1, 200.0, -0.7, 1e5, 3.0])
    B = _mixture_emission_matrix(y, emissions)
    linear = np.stack([mixture_density(y, *e) for e in emissions], axis=1)
    assert np.all(linear[[1, 3]] == 0.0)
    assert np.array_equal(B[[0, 2, 4]], linear[[0, 2, 4]])
    # each far row is the states' densities divided by the largest of them
    logs = np.stack([np.logaddexp.reduce(_log_components(y[[1, 3]], *e), axis=1)
                     for e in emissions], axis=1)
    assert np.array_equal(B[[1, 3]], np.exp(logs - logs.max(axis=1, keepdims=True)))
    assert np.all(B[[1, 3]].max(axis=1) == 1.0)


def test_update_mixture_single_atom_is_conjugate_posterior():
    base = NormalInvGammaBase(1.0, 2.0, 5.0, 3.0)
    spec = GaussianDpSpec(1.0, base, truncation=1)
    rng = np.random.default_rng(12)
    ys = np.random.default_rng(0).normal(2.0, 0.5, size=40)
    n, ybar = ys.size, ys.mean()
    count = base.loc_count + n
    loc = (base.loc_count * base.loc + n * ybar) / count
    shape = base.shape + n / 2
    scale = (base.scale + 0.5 * np.sum((ys - ybar) ** 2)
             + 0.5 * base.loc_count * n * (ybar - base.loc) ** 2 / count)
    mix = dp_mixture_arrays(spec, rng)[None]
    locs = []
    vars_ = []
    for _ in range(5000):
        mix = update_mixture_emissions([ys], mix, spec, rng)
        locs.append(mix[0, 1, 0])
        vars_.append(mix[0, 2, 0] ** 2)
    locs, vars_ = np.asarray(locs), np.asarray(vars_)
    assert abs(locs.mean() - loc) <= 3 * locs.std(ddof=1) / np.sqrt(locs.size)
    expect_var = scale / (shape - 1)
    assert abs(vars_.mean() - expect_var) <= 3 * vars_.std(ddof=1) / np.sqrt(vars_.size)


# ---------------------------------------------------------------------------
# chain runner


def _binary_config(**kw):
    defaults = dict(n_iter=12, burn_in=10, thin=1, seed=5,
                    transition_prior=TruncatedDirichletSpec(np.ones(2), 0.1),
                    emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])))
    defaults.update(kw)
    return GibbsConfig(**defaults)


def test_run_chain_sample_arithmetic(flat_binary):
    _, y = simulate(flat_binary, 30, 0)
    assert len(run_chain(y, _binary_config(n_iter=11, burn_in=10, thin=1))) == 1
    assert len(run_chain(y, _binary_config(n_iter=13, burn_in=10, thin=3))) == 1
    assert len(run_chain(y, _binary_config(n_iter=20, burn_in=10, thin=2))) == 5


def test_run_chain_with_the_per_atom_oracle_writes_the_same_samples(monkeypatch):
    truth = random_gaussian_params(np.random.default_rng(51), k=2, q_floor=0.1)
    _, y = simulate(truth, 150, 52)
    y[40] = 200.0                       # one observation on the log-space path
    cfg = _binary_config(n_iter=14, burn_in=4, thin=2, seed=53, emission_prior=GaussianDpSpec(
        1.0, NormalInvGammaBase(0.0, 0.1, 2.0, 1.0), truncation=6))
    fast = [sample_to_record(s) for s in run_chain(y, cfg)]
    monkeypatch.setattr(gibbs, "update_mixture_emissions",
                        mixture_oracles.update_mixture_emissions_masks)
    assert [sample_to_record(s) for s in run_chain(y, cfg)] == fast
    assert len(fast) == 5


def test_run_chain_deterministic(flat_binary):
    _, y = simulate(flat_binary, 40, 1)
    cfg = _binary_config(n_iter=30, burn_in=20, thin=2, seed=9)
    a = [sample_to_record(s) for s in run_chain(y, cfg)]
    b = [sample_to_record(s) for s in run_chain(y, cfg)]
    assert a == b
    c = [sample_to_record(s) for s in run_chain(y, cfg, chain_id=1)]
    assert a != c


def test_geweke_joint_distribution_check():
    # prior simulation and the successive-conditional chain target the same
    # joint law of (theta, path, data); six summaries must agree. The model is
    # the default binary one: floor 0.1, DP(2, [0.5, 0.5]) emissions.
    cfg = _binary_config()
    report = geweke_check(cfg, n_obs=5, n_forward=2000, n_chain=4000, seed=0)
    assert len(report.z_scores) == 6
    assert report.max_abs_z() <= 4.5, dict(zip(report.stats, report.z_scores))


def test_geweke_joint_distribution_check_dp_gaussian_mixture():
    # the same check through the truncated stick-breaking block sweep:
    # allocations, sticks and normal-inverse-gamma atoms, with empty atoms
    # at truncation 4 and five observations. Each state's mixture mean
    # w @ z replaces the discrete mass of symbol 0.
    cfg = _binary_config(emission_prior=GaussianDpSpec(
        1.0, NormalInvGammaBase(0.0, 1.0, 4.0, 3.0), truncation=4))
    report = geweke_check(cfg, n_obs=5, n_forward=2000, n_chain=4000, seed=0)
    assert report.stats == ("Q[0,0]", "Q[1,1]", "mean0", "mean1", "frac_state0", "mean_y")
    assert report.max_abs_z() <= 4.5, dict(zip(report.stats, report.z_scores))


def test_run_chain_samples_satisfy_invariants(flat_binary):
    _, y = simulate(flat_binary, 50, 2)
    cfg = _binary_config(n_iter=40, burn_in=20, thin=2)
    for s in run_chain(y, cfg):
        Q = s.params.trans.rows
        assert Q.min() >= cfg.transition_prior.q_floor
        assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-12)
        for e in s.params.emissions:
            assert abs(e.pmf.sum() - 1.0) <= 1e-12
        assert s.states.size == y.size


def test_run_chain_config_validation():
    spec = TruncatedDirichletSpec(np.ones(2), 0.1)
    dp = DiscreteDpSpec(2.0, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        GibbsConfig(10, 10, 1, 0, spec, dp)      # burn_in == n_iter
    with pytest.raises(ValueError):
        GibbsConfig(10, 2, 0, 0, spec, dp)       # thin < 1
    with pytest.raises(ValueError):
        GibbsConfig(10, 2, 1, 0, spec, None)     # nothing to update


def _family_chain(family):
    """Data of 101 steps and a 6-sweep chain config retaining 2 samples."""
    rng = np.random.default_rng(21)
    n = 101
    if family == "discrete":
        _, y = simulate(random_discrete_params(rng, k=3, support=3, q_floor=0.05), n, rng)
        return y, GibbsConfig(n_iter=6, burn_in=2, thin=2, seed=4,
                              transition_prior=TruncatedDirichletSpec(np.ones(3), 0.05),
                              emission_prior=DiscreteDpSpec(2.0, np.full(3, 1.0 / 3.0)))
    _, y = simulate(random_gaussian_params(rng, k=2, q_floor=0.1), n, rng)
    return y, GibbsConfig(n_iter=6, burn_in=2, thin=2, seed=4,
                          transition_prior=TruncatedDirichletSpec(np.ones(2), 0.1),
                          emission_prior=GaussianDpSpec(
                              1.0, NormalInvGammaBase(0.0, 0.5, 2.0, 1.0), truncation=5))


@pytest.mark.parametrize("family", ["discrete", "dpm_gaussian"])
def test_run_chain_validates_only_retained_samples(family, monkeypatch):
    # between sweeps the chain carries plain arrays: one validated parameter
    # object per retained sample, none per sweep
    y, cfg = _family_chain(family)
    built = {"HmmParams": 0, "TransitionMatrix": 0}
    for cls in (HmmParams, TransitionMatrix):
        def counting(self, _check=cls.__post_init__):
            built[type(self).__name__] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    samples = run_chain(y, cfg)
    assert len(samples) == 2
    assert built == {"HmmParams": 2, "TransitionMatrix": 2}


@pytest.mark.parametrize("family", ["discrete", "dpm_gaussian"])
def test_run_chain_same_samples_with_oracle_kernels(family, monkeypatch):
    # a small table budget puts 32-step blocks, and so the block edges of the
    # scan and the table, in every sweep
    y, cfg = _family_chain(family)
    monkeypatch.setattr(kernels, "TABLE_FLOATS", 32 * cfg.k ** 2)
    assert kernels.block_len(cfg.k) == 32
    fast = run_chain(y, cfg)
    monkeypatch.setattr(kernels, "forward_filter", oracles.forward_filter_loops)
    monkeypatch.setattr(kernels, "backward_messages", oracles.backward_messages_loops)
    monkeypatch.setattr(kernels, "ffbs", oracles.ffbs_loops)
    slow = run_chain(y, cfg)
    assert len(fast) == 2 and fast == slow


def test_samples_laws_tables_and_specs_compare_and_hash_by_value(golden_truth):
    _, y = simulate(golden_truth, 20, 5)
    pairs = [
        (lambda: PosteriorSample(golden_truth, np.arange(4) % 2, 3, 0),
         PosteriorSample(golden_truth, np.array([0, 1, 0, 0]), 3, 0)),
        (lambda: smoothing_exact(golden_truth, y, 2), smoothing_exact(golden_truth, y, 1)),
        (lambda: TruncatedDirichletSpec(np.ones(2), 0.1), TruncatedDirichletSpec(np.ones(2), 0.2)),
        (lambda: DiscreteDpSpec(2.0, np.array([0.5, 0.5])),
         DiscreteDpSpec(2.0, np.array([0.4, 0.6]))),
        (lambda: GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 2.0, 1.0), 5),
         GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 1.0, 2.0, 2.0), 5)),
    ]
    for make, other in pairs:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and other != a
        assert len({a, b, other}) == 2


# ---------------------------------------------------------------------------
# detailed balance against a grid posterior


def test_gibbs_matches_grid_posterior():
    """Empirical law of (Q00, f0(0)) under long Gibbs runs versus the exact
    posterior integrated on a parameter grid, for tiny binary data."""
    q = 0.2
    y = np.array([0, 1, 0, 0, 1])
    mu = np.array([0.5, 0.5])

    # exact posterior on a midpoint grid; flat priors on the support boxes
    G = 30
    q_grid = q + (1 - 2 * q) * (np.arange(G) + 0.5) / G
    p_grid = (np.arange(G) + 0.5) / G
    Q00, Q10, P0, P1 = np.meshgrid(q_grid, q_grid, p_grid, p_grid, indexing="ij")
    like = np.zeros_like(Q00)
    import itertools
    for path in itertools.product(range(2), repeat=y.size):
        term = np.full_like(Q00, 0.5)
        for t, (prev, cur) in enumerate(zip((None,) + path, path)):
            if t > 0:
                trans = np.where(np.equal(prev, 0),
                                 np.where(np.equal(cur, 0), Q00, 1 - Q00),
                                 np.where(np.equal(cur, 0), Q10, 1 - Q10))
                term = term * trans
            emit = np.where(np.equal(cur, 0), P0, P1)
            term = term * (emit if y[t] == 0 else 1 - emit)
        like += term
    post = like / like.sum()
    bins = 6
    fold = G // bins
    marg = post.sum(axis=(1, 3))                     # (Q00, P0)
    exact_cells = marg.reshape(bins, fold, bins, fold).sum(axis=(1, 3))

    cfg = GibbsConfig(n_iter=40_000, burn_in=2000, thin=1, seed=17,
                      transition_prior=TruncatedDirichletSpec(np.ones(2), q),
                      emission_prior=DiscreteDpSpec(2.0, np.array([0.5, 0.5])),
                      mu=mu)
    samples = run_chain(y, cfg)
    q00 = np.array([s.params.trans.rows[0, 0] for s in samples])
    f00 = np.array([s.params.emissions[0].pmf[0] for s in samples])
    qi = np.clip(((q00 - q) / (1 - 2 * q) * bins).astype(int), 0, bins - 1)
    pi = np.clip((f00 * bins).astype(int), 0, bins - 1)
    emp_cells = np.zeros((bins, bins))
    np.add.at(emp_cells, (qi, pi), 1.0)
    emp_cells /= emp_cells.sum()

    tv = 0.5 * np.abs(emp_cells - exact_cells).sum()
    assert tv <= 0.05, f"TV between Gibbs and grid posterior is {tv:.4f}"
