"""Core HMM objects: construction invariants, likelihood, stationary block
densities, smoothing and its forgetting under window truncation, and
simulation."""
from types import SimpleNamespace

import numpy as np
import pytest

from dphmm import (DataError, DiscreteEmission, GaussianMixtureEmission, HmmParams,
                   NumericalError, StationarySolveError, TransitionMatrix,
                   TranslatedEmission, ZeroLikelihoodError, log_likelihood_forward,
                   simulate, smoothing_exact, stationary_distribution)
from dphmm.metrics import _block_densities
from tests import kernel_oracles as oracles
from tests.conftest import (brute_force_loglik, brute_force_smoothing,
                            random_discrete_params, random_gaussian_params)


# ---------------------------------------------------------------------------
# construction


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.6, 0.5], [0.4, 0.6]]))       # row sum
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.35)  # below floor
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.6)   # q > 1/k
    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.3)
    assert tm.k == 2
    with pytest.raises(ValueError):
        tm.rows[0, 0] = 0.9  # immutable


def test_hmm_params_validation():
    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.2)
    f = (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8])))
    with pytest.raises(ValueError):
        HmmParams(tm, np.array([0.9, 0.2]), f)          # mu sum
    with pytest.raises(ValueError):
        HmmParams(tm, np.array([0.9, 0.1]), f)          # mu below floor
    with pytest.raises(ValueError):
        HmmParams(tm, np.array([0.5, 0.5]), f[:1])      # emission count
    params = HmmParams(tm, np.array([0.5, 0.5]), f)
    assert params.k == 2 and params.discrete


def test_translated_shift_ordering():
    from dphmm import GaussianMixtureEmission, TranslatedEmission

    base = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    tm = TransitionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), 0.1)
    good = (TranslatedEmission(base, 0.0), TranslatedEmission(base, 1.5))
    HmmParams(tm, np.array([0.5, 0.5]), good)
    bad = (TranslatedEmission(base, 0.5), TranslatedEmission(base, 1.5))
    with pytest.raises(ValueError):
        HmmParams(tm, np.array([0.5, 0.5]), bad)


def test_params_compare_and_hash_by_value():
    rows = np.array([[0.7, 0.3], [0.4, 0.6]])
    tm, tm2 = TransitionMatrix(rows, 0.3), TransitionMatrix(rows.copy(), 0.3)
    assert tm == tm2 and hash(tm) == hash(tm2)
    assert tm != TransitionMatrix(rows, 0.2)                     # q_floor
    assert tm != TransitionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), 0.3)
    assert tm != TransitionMatrix(np.full((3, 3), 1.0 / 3.0), 0.3)

    f = (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8])))
    f2 = tuple(DiscreteEmission(e.pmf.copy()) for e in f)
    params = HmmParams(tm, np.array([0.5, 0.5]), f)
    same = HmmParams(tm2, np.array([0.5, 0.5]), f2)
    assert params == same and hash(params) == hash(same)
    assert params != params.with_mu([0.6, 0.4])
    assert params != HmmParams(tm, np.array([0.5, 0.5]), f[::-1])
    assert params != HmmParams(TransitionMatrix(rows, 0.2), np.array([0.5, 0.5]), f)
    assert params != tm


# ---------------------------------------------------------------------------
# stationary law


def test_stationary_two_state():
    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.2)
    law = stationary_distribution(tm)
    assert np.allclose(law.probs, [4.0 / 7.0, 3.0 / 7.0], atol=1e-12)
    assert np.max(np.abs(law.probs @ tm.rows - law.probs)) <= 1e-10


def test_stationary_symmetric_and_doubly_stochastic():
    uniform3 = TransitionMatrix(np.full((3, 3), 1.0 / 3.0), 1.0 / 3.0)
    assert np.allclose(stationary_distribution(uniform3).probs, 1.0 / 3.0, atol=1e-12)
    flat2 = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.5)
    assert np.allclose(stationary_distribution(flat2).probs, 0.5, atol=1e-12)


def test_stationary_rejects_oscillating_power_iteration():
    # Bipartite chain above the direct-solve cutoff: power iteration from the
    # uniform start oscillates with period 2 and never meets the residual.
    k = 65
    rows = np.zeros((k, k))
    rows[0, 1:] = 1.0 / (k - 1)
    rows[1:, 0] = 1.0
    perm = TransitionMatrix(rows, 0.0)
    with pytest.raises(StationarySolveError):
        stationary_distribution(perm)


def test_stationary_bounds_hold_randomly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = random_discrete_params(rng)
        law = stationary_distribution(params.trans)
        q, k = params.q_floor, params.k
        assert np.all(law.probs >= q - 1e-10)
        assert np.all(law.probs <= 1 - (k - 1) * q + 1e-10)


# ---------------------------------------------------------------------------
# likelihood


@pytest.fixture
def flat_binary() -> HmmParams:
    return HmmParams(
        TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.5),
        np.array([0.5, 0.5]),
        (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8]))))


def test_loglik_hand_values(flat_binary):
    assert log_likelihood_forward(flat_binary, [0]) == pytest.approx(np.log(0.55), abs=1e-12)
    assert log_likelihood_forward(flat_binary, [0, 1]) == pytest.approx(np.log(0.2475), abs=1e-12)


def test_loglik_single_state():
    params = HmmParams(TransitionMatrix(np.array([[1.0]]), 1.0), np.array([1.0]),
                       (DiscreteEmission(np.array([0.3, 0.7])),))
    y = [1, 0, 1, 1]
    expect = 3 * np.log(0.7) + np.log(0.3)
    assert log_likelihood_forward(params, y) == pytest.approx(expect, abs=1e-12)


def test_loglik_matches_enumeration_randomly():
    rng = np.random.default_rng(1)
    for _ in range(30):
        params = random_discrete_params(rng)
        _, y = simulate(params, int(rng.integers(1, 8)), rng)
        assert log_likelihood_forward(params, y) == pytest.approx(
            brute_force_loglik(params, y), abs=1e-10)


def test_loglik_zero_mass_is_minus_inf(flat_binary):
    assert log_likelihood_forward(flat_binary, [0, 5]) == float("-inf")


def test_loglik_rejects_empty(flat_binary):
    with pytest.raises(DataError):
        log_likelihood_forward(flat_binary, [])


def test_loglik_chain_rule():
    # prefix density times forward-continued conditional equals the joint
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = random_discrete_params(rng, k=2)
        _, y = simulate(params, 9, rng)
        l = 4
        full = log_likelihood_forward(params, y)
        prefix = log_likelihood_forward(params, y[:l])
        from dphmm.hmm import emission_matrix
        from dphmm import kernels

        B = emission_matrix(params, y)
        alpha, c = kernels.forward_filter(params.mu, params.trans.rows, B)
        conditional = float(np.log(c[l:]).sum())
        assert prefix + conditional == pytest.approx(full, abs=1e-10)


# ---------------------------------------------------------------------------
# stationary block densities


def block_density(params, y_block) -> float:
    """Density of a block under the stationary start, read off the block law
    that the block metrics enumerate (big-endian block index)."""
    support = max(e.support_size for e in params.emissions)
    law = stationary_distribution(params.trans).probs
    dens = _block_densities(params, len(y_block), support, law)
    return float(dens[np.ravel_multi_index(y_block, (support,) * len(y_block))])


def test_marginal_density_hand_values(flat_binary):
    assert block_density(flat_binary, [0]) == pytest.approx(0.55, abs=1e-12)


def test_marginal_density_one_step_mixture():
    rng = np.random.default_rng(7)
    params = random_discrete_params(rng, k=3, support=3)
    law = stationary_distribution(params.trans).probs
    for s in range(3):
        expect = sum(law[i] * params.emissions[i].pmf[s] for i in range(3))
        assert block_density(params, [s]) == pytest.approx(expect, abs=1e-12)


def test_marginal_density_identical_emissions_factorizes():
    pmf = np.array([0.6, 0.4])
    params = HmmParams(TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]), 0.2),
                       np.array([0.5, 0.5]),
                       (DiscreteEmission(pmf), DiscreteEmission(pmf)))
    y = [0, 1, 1, 0]
    expect = float(np.prod(pmf[y]))
    assert block_density(params, y) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_bayes_rule(flat_binary):
    table = smoothing_exact(flat_binary, [0], 1)
    assert np.allclose(table.marginals[0], [9.0 / 11.0, 2.0 / 11.0], atol=1e-12)
    assert np.allclose(table.blocks, [9.0 / 11.0, 2.0 / 11.0], atol=1e-12)


def test_smoothing_identical_emissions_gives_prior_marginal():
    pmf = np.array([0.5, 0.5])
    Q = np.array([[0.8, 0.2], [0.3, 0.7]])
    params = HmmParams(TransitionMatrix(Q, 0.1), np.array([0.9, 0.1]),
                       (DiscreteEmission(pmf), DiscreteEmission(pmf)))
    table = smoothing_exact(params, [0, 1, 0], 1)
    prior = params.mu.copy()
    for t in range(3):
        assert np.allclose(table.marginals[t], prior, atol=1e-12)
        prior = prior @ Q


def test_smoothing_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(25):
        params = random_discrete_params(rng, k=2)
        _, y = simulate(params, 3, rng)
        m = int(rng.integers(1, 4))
        table = smoothing_exact(params, y, m)
        marg, blocks = brute_force_smoothing(params, y, m)
        assert np.allclose(table.marginals, marg, atol=1e-12)
        assert np.allclose(table.blocks, blocks, atol=1e-12)


def test_smoothing_rejects_zero_likelihood(flat_binary):
    with pytest.raises(ZeroLikelihoodError):
        smoothing_exact(flat_binary, [0, 9], 1)


def test_smoothing_rejects_overflowing_backward_messages():
    # State 1 is never entered (Q = I, mu = e_0) but every 0 favours it 9:1,
    # so its scaled backward message grows by 9 a step and overflows past
    # n of about 320; the marginals would be inf * 0 = NaN.
    params = HmmParams(TransitionMatrix(np.eye(2), 0.0), np.array([1.0, 0.0]),
                       (DiscreteEmission(np.array([0.1, 0.9])),
                        DiscreteEmission(np.array([0.9, 0.1]))))
    table = smoothing_exact(params, np.zeros(300, dtype=np.int64), 2)
    assert np.isfinite(table.marginals).all() and np.isfinite(table.blocks).all()
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        smoothing_exact(params, np.zeros(400, dtype=np.int64), 2)


# ---------------------------------------------------------------------------
# forgetting: smoothing on a window of the record


def test_windowed_deviation_within_bound_randomly():
    # smoothing on the first N observations moves the marginal at j < N by at
    # most 2 r / (q_floor + r), r = (1 - q_floor)^(N - j)
    rng = np.random.default_rng(8)
    for _ in range(40):
        q = float(rng.uniform(0.05, 0.3))
        params = random_discrete_params(rng, q_floor=q)
        n = int(rng.integers(4, 25))
        _, y = simulate(params, n, rng)
        N = int(rng.integers(2, n + 1))
        j = int(rng.integers(0, N))
        windowed = smoothing_exact(params, y[:N], 1).marginals[j]
        exact = smoothing_exact(params, y, 1).marginals[j]
        r = (1.0 - q) ** (N - j)
        assert np.max(np.abs(windowed - exact)) <= 2.0 * r / (q + r) + 1e-12


# ---------------------------------------------------------------------------
# simulation


def test_simulate_single_state_constant():
    params = HmmParams(TransitionMatrix(np.array([[1.0]]), 1.0), np.array([1.0]),
                       (DiscreteEmission(np.array([0.3, 0.7])),))
    x, y = simulate(params, 50, 0)
    assert np.all(x == 0)


def test_simulate_point_mass_reproduces_states():
    params = HmmParams(
        TransitionMatrix(np.array([[0.6, 0.4], [0.2, 0.8]]), 0.2),
        np.array([0.5, 0.5]),
        (DiscreteEmission(np.array([1.0, 0.0])), DiscreteEmission(np.array([0.0, 1.0]))))
    x, y = simulate(params, 200, 3)
    assert np.array_equal(x, y)


def test_simulate_deterministic_under_seed(golden_truth):
    x1, y1 = simulate(golden_truth, 100, 11)
    x2, y2 = simulate(golden_truth, 100, 11)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_simulate_transition_frequencies(golden_truth):
    x, _ = simulate(golden_truth, 100_000, 9)
    Q = golden_truth.trans.rows
    for i in range(2):
        visits = np.nonzero(x[:-1] == i)[0]
        emp = np.mean(x[visits + 1] == 1)
        se = np.sqrt(Q[i, 1] * (1 - Q[i, 1]) / visits.size)
        assert abs(emp - Q[i, 1]) <= 3 * se


def test_simulate_stationary_marginals(golden_truth):
    law = stationary_distribution(golden_truth.trans).probs
    params = golden_truth.with_mu(law)
    rng = np.random.default_rng(12)
    R, n = 4000, 3
    counts = np.zeros((n, 2))
    for _ in range(R):
        x, _ = simulate(params, n, rng)
        for t in range(n):
            counts[t, x[t]] += 1
    for t in range(n):
        emp = counts[t, 0] / R
        se = np.sqrt(law[0] * (1 - law[0]) / R)
        assert abs(emp - law[0]) <= 3 * se


# ---------------------------------------------------------------------------
# simulation against the step-loop oracle: the same bytes out and the same
# uniforms consumed


SIM_SIZES = (1, 2, 3, 1023, 1025, 5000)


def family_params(family, rng):
    if family == "discrete":
        return random_discrete_params(rng, k=3, support=4)
    params = random_gaussian_params(rng, k=3)
    if family == "gaussian":
        return params
    return HmmParams(params.trans, params.mu,
                     tuple(TranslatedEmission(params.emissions[0], m) for m in (0.0, 1.0, 2.5)))


def zero_entry_params(family):
    """Zero transition, initial and emission masses, so cumulative sums tie."""
    tm = TransitionMatrix(np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]))
    if family == "discrete":
        f = tuple(DiscreteEmission(np.array(p)) for p in
                  ([0.3, 0.0, 0.7, 0.0], [0.0, 0.0, 1.0, 0.0], [0.5, 0.5, 0.0, 0.0]))
    else:
        f = tuple(GaussianMixtureEmission(np.array(w), np.array([-1.0, 0.0, 2.0]),
                                          np.array([0.5, 1.0, 0.7]))
                  for w in ([0.4, 0.0, 0.6], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]))
    return HmmParams(tm, np.array([0.5, 0.0, 0.5]), f)


def assert_simulate_matches_loops(params, sizes, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in sizes:
        x, y = simulate(params, n, rng)
        x_ref, y_ref = oracles.simulate_loops(params, n, ref_rng)
        assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("family", ["discrete", "gaussian", "translated"])
def test_simulate_matches_step_loop(family):
    params = family_params(family, np.random.default_rng(40))
    assert_simulate_matches_loops(params, SIM_SIZES, 41)


@pytest.mark.parametrize("family", ["discrete", "gaussian", "translated"])
def test_simulate_matches_step_loop_on_many_short_calls(family):
    params = family_params(family, np.random.default_rng(42))
    assert_simulate_matches_loops(params, [3] * 300, 43)


@pytest.mark.parametrize("family", ["discrete", "gaussian"])
def test_simulate_matches_step_loop_on_tied_cumulative_sums(family):
    assert_simulate_matches_loops(zero_entry_params(family), SIM_SIZES, 44)


@pytest.mark.parametrize("family", ["discrete", "gaussian", "translated"])
def test_simulate_matches_step_loop_at_the_last_state_cap(family):
    # a validated row sums to within 1e-12 of 1, so a uniform above its
    # cumulative sum is too rare to draw; a stand-in scales mu and the rows
    # to sum to 0.8, and about a fifth of the uniforms hit the cap at k - 1
    params = family_params(family, np.random.default_rng(45))
    short = SimpleNamespace(k=params.k, mu=params.mu * 0.8,
                            trans=SimpleNamespace(rows=params.trans.rows * 0.8),
                            discrete=params.discrete, emissions=params.emissions)
    assert_simulate_matches_loops(short, SIM_SIZES, 46)
