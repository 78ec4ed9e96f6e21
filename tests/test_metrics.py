"""Block-marginal L1 pseudometric, alignment, KL rate, weak functionals."""
import itertools

import numpy as np
import pytest

from dphmm import (AlignmentResult, ConfigError, DataError, DiscreteEmission,
                   HmmParams, TransitionMatrix, align_labels, block_l1_distance,
                   kl_rate_bound, kl_rate_exact, metrics, simulate,
                   stationary_distribution, weak_functional_gap)
from dphmm.metrics import emission_log_ratio_term, parameter_metrics
from tests.conftest import (all_paths, brute_force_path_probs,
                            random_discrete_params, random_gaussian_params, relabel)


# ---------------------------------------------------------------------------
# block L1 pseudometric


def test_block_l1_zero_on_self(golden_truth):
    assert block_l1_distance(golden_truth, golden_truth, 3).value == 0.0


def test_block_metrics_pad_a_smaller_support(golden_truth):
    wider = HmmParams(golden_truth.trans, golden_truth.mu,
                      tuple(DiscreteEmission(np.append(e.pmf, 0.0))
                            for e in golden_truth.emissions))
    assert block_l1_distance(wider, golden_truth, 3).value == 0.0
    assert weak_functional_gap(golden_truth, wider, 2, "ind_1_0").value == 0.0
    assert kl_rate_exact(wider, golden_truth, 3) == pytest.approx(0.0, abs=1e-15)


def test_block_l1_nonidentifiable_pair_is_exactly_zero():
    flat_q = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.5)
    a = HmmParams(flat_q, np.array([0.5, 0.5]),
                  (DiscreteEmission(np.array([1.0, 0.0])),
                   DiscreteEmission(np.array([0.0, 1.0]))))
    b = HmmParams(flat_q, np.array([0.5, 0.5]),
                  (DiscreteEmission(np.array([0.5, 0.5])),
                   DiscreteEmission(np.array([0.5, 0.5]))))
    assert block_l1_distance(a, b, 1).value == 0.0


def test_block_l1_matches_direct_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_discrete_params(rng, k=2, support=2)
        b = random_discrete_params(rng, k=2, support=2)
        got = block_l1_distance(a, b, 3).value
        # independent path-based enumeration of both block laws
        total = 0.0
        sa = stationary_distribution(a.trans).probs
        sb = stationary_distribution(b.trans).probs
        for block in itertools.product(range(2), repeat=3):
            y = np.array(block)
            _, pa = brute_force_path_probs(a.with_mu(sa), y)
            _, pb = brute_force_path_probs(b.with_mu(sb), y)
            total += abs(pa.sum() - pb.sum())
        assert got == pytest.approx(total, abs=1e-12)


def test_block_l1_invariant_under_relabeling(golden_truth):
    swapped = relabel(golden_truth, (1, 0))
    assert block_l1_distance(swapped, golden_truth, 3).value <= 1e-12


def test_block_l1_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a, b, c = (random_discrete_params(rng, k=2, support=3) for _ in range(3))
        ab = block_l1_distance(a, b, 3).value
        ba = block_l1_distance(b, a, 3).value
        assert ab == pytest.approx(ba, abs=1e-12)
        ac = block_l1_distance(a, c, 3).value
        bc = block_l1_distance(b, c, 3).value
        assert ac <= ab + bc + 1e-10


def test_block_l1_decomposition_bound():
    # |stationary gap|_1 + k (l - 1) |Q gap|_max + l * max-state emission L1
    # majorizes the block L1 distance (here k = 2, l = 3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = float(rng.uniform(0.02, 0.25))
        a = random_discrete_params(rng, k=2, support=3, q_floor=q)
        b = random_discrete_params(rng, k=2, support=3, q_floor=q)
        d = block_l1_distance(a, b, 3).value
        law_gap = np.abs(stationary_distribution(a.trans).probs
                         - stationary_distribution(b.trans).probs).sum()
        q_gap = np.abs(a.trans.rows - b.trans.rows).max()
        emission_gap = max(np.abs(f.pmf - g.pmf).sum()
                           for f, g in zip(a.emissions, b.emissions))
        assert d <= law_gap + 2 * 2 * q_gap + 3 * emission_gap + 1e-10


def test_block_l1_montecarlo_agrees_with_exact():
    rng = np.random.default_rng(3)
    a = random_discrete_params(rng, k=2, support=2, q_floor=0.1)
    b = random_discrete_params(rng, k=2, support=2, q_floor=0.1)
    exact = block_l1_distance(a, b, 3).value
    mc = block_l1_distance(a, b, 3, mode="montecarlo", n_samples=20_000, seed=4)
    assert abs(mc.value - exact) <= 4 * mc.stderr + 1e-3


def test_block_l1_budget_and_modes(golden_truth):
    with pytest.raises(ValueError):
        block_l1_distance(golden_truth, golden_truth, 40)  # 2^40 blocks
    with pytest.raises(ValueError):
        block_l1_distance(golden_truth, golden_truth, 3, mode="nope")
    from dphmm import GaussianMixtureEmission

    cont = HmmParams(golden_truth.trans, golden_truth.mu,
                     (GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0])),
                      GaussianMixtureEmission(np.array([1.0]), np.array([2.0]), np.array([1.0]))))
    with pytest.raises(DataError):
        block_l1_distance(cont, cont, 2)  # exact mode needs discrete emissions


# ---------------------------------------------------------------------------
# alignment


def test_alignment_identity(golden_truth):
    res = align_labels(golden_truth, golden_truth)
    assert res.sigma == (0, 1)
    assert res.q_distance == 0.0
    assert np.all(res.emission_distances == 0.0)


def test_alignment_recovers_relabeling(golden_truth):
    for sigma in itertools.permutations(range(2)):
        moved = relabel(golden_truth, sigma)
        res = align_labels(moved, golden_truth)
        assert res.q_distance == 0.0
        assert np.all(res.emission_distances == 0.0)


def test_alignment_relabel_invariance_all_k():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        params = random_discrete_params(rng, k=k, support=3)
        for sigma in itertools.permutations(range(k)):
            moved = relabel(params, sigma)
            res = align_labels(moved, params)
            assert res.score == 0.0


def test_alignment_prefers_smaller_score():
    # identity gives a worse combined score than the swap
    a = HmmParams(TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.1),
                  np.array([0.5, 0.5]),
                  (DiscreteEmission(np.array([0.18, 0.82])),
                   DiscreteEmission(np.array([0.88, 0.12]))))
    b = HmmParams(TransitionMatrix(np.array([[0.6, 0.4], [0.32, 0.68]]), 0.1),
                  np.array([0.5, 0.5]),
                  (DiscreteEmission(np.array([0.9, 0.1])),
                   DiscreteEmission(np.array([0.2, 0.8]))))
    res = align_labels(a, b)
    assert res.sigma == (1, 0)


def test_alignment_tie_breaks_lexicographically():
    pmf = np.array([0.5, 0.5])
    flat = HmmParams(TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.2),
                     np.array([0.5, 0.5]),
                     (DiscreteEmission(pmf), DiscreteEmission(pmf)))
    assert align_labels(flat, flat).sigma == (0, 1)


def test_alignment_caps_k():
    rng = np.random.default_rng(6)
    big = random_discrete_params(rng, k=3)
    with pytest.raises(DataError):
        align_labels(big, random_discrete_params(rng, k=2))
    nine = random_discrete_params(rng, k=9)
    with pytest.raises(ConfigError, match="capped at k = 8"):
        align_labels(nine, nine)


# ---------------------------------------------------------------------------
# KL rate


def test_kl_bound_zero_on_truth(golden_truth):
    theta = golden_truth.with_mu(stationary_distribution(golden_truth.trans).probs)
    b = kl_rate_bound(theta, golden_truth, 10)
    assert b.total == 0.0


def test_kl_bound_transition_term_limit():
    q_star = np.array([[0.7, 0.3], [0.4, 0.6]])
    ref = HmmParams(TransitionMatrix(q_star, 0.2), np.array([0.5, 0.5]),
                    (DiscreteEmission(np.array([0.9, 0.1])),
                     DiscreteEmission(np.array([0.2, 0.8]))))
    moved = HmmParams(TransitionMatrix(np.array([[0.65, 0.35], [0.45, 0.55]]), 0.2),
                      stationary_distribution(ref.trans).probs, ref.emissions)
    n = 10 ** 7
    b = kl_rate_bound(moved, ref, n)
    assert b.total == pytest.approx(0.25, abs=1e-6)


def test_kl_bound_requires_shared_floor(golden_truth):
    other = HmmParams(TransitionMatrix(golden_truth.trans.rows, 0.1),
                      golden_truth.mu, golden_truth.emissions)
    with pytest.raises(DataError):
        kl_rate_bound(other, golden_truth, 5)


def test_kl_bound_infinite_on_support_mismatch():
    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.2)
    ref = HmmParams(tm, np.array([0.5, 0.5]),
                    (DiscreteEmission(np.array([0.5, 0.5])),
                     DiscreteEmission(np.array([0.5, 0.5]))))
    hole = HmmParams(tm, np.array([0.5, 0.5]),
                     (DiscreteEmission(np.array([1.0, 0.0])),
                      DiscreteEmission(np.array([0.5, 0.5]))))
    # one covering state keeps every block possible: exact stays finite,
    # the bound's worst-state log ratio does not
    assert kl_rate_bound(hole, ref, 4).total == float("inf")
    assert np.isfinite(kl_rate_exact(hole, ref, 3))
    both = HmmParams(tm, np.array([0.5, 0.5]),
                     (DiscreteEmission(np.array([1.0, 0.0])),
                      DiscreteEmission(np.array([1.0, 0.0]))))
    assert kl_rate_exact(both, ref, 3) == float("inf")


def test_kl_exact_zero_on_truth(golden_truth):
    theta = golden_truth.with_mu(stationary_distribution(golden_truth.trans).probs)
    assert kl_rate_exact(theta, golden_truth, 5) == pytest.approx(0.0, abs=1e-14)


def test_kl_exact_single_step_is_mixture_kl(golden_truth):
    rng = np.random.default_rng(7)
    theta = random_discrete_params(rng, k=2, support=2, q_floor=0.15)
    theta = theta.with_mu(stationary_distribution(theta.trans).probs)
    got = kl_rate_exact(theta, golden_truth, 1)
    ref_mix = np.zeros(2)
    mix = np.zeros(2)
    s_ref = stationary_distribution(golden_truth.trans).probs
    for i in range(2):
        ref_mix += s_ref[i] * golden_truth.emissions[i].pmf
        mix += theta.mu[i] * theta.emissions[i].pmf
    expect = float(np.sum(ref_mix * (np.log(ref_mix) - np.log(mix))))
    assert got == pytest.approx(expect, abs=1e-12)


def test_kl_exact_matches_independent_enumeration(golden_truth):
    rng = np.random.default_rng(8)
    theta = random_discrete_params(rng, k=2, support=2, q_floor=0.15)
    n = 4
    got = kl_rate_exact(theta, golden_truth, n)
    s_ref = stationary_distribution(golden_truth.trans).probs
    total = 0.0
    for block in itertools.product(range(2), repeat=n):
        y = np.array(block)
        _, p_ref = brute_force_path_probs(golden_truth.with_mu(s_ref), y)
        _, p = brute_force_path_probs(theta, y)
        pr, pp = p_ref.sum(), p.sum()
        total += pr * (np.log(pr) - np.log(pp))
    assert got == pytest.approx(total / n, abs=1e-12)


def test_kl_exact_below_bound_randomly():
    rng = np.random.default_rng(9)
    for _ in range(25):
        q = float(rng.uniform(0.05, 0.3))
        ref = random_discrete_params(rng, k=2, support=2, q_floor=q)
        theta = random_discrete_params(rng, k=2, support=2, q_floor=q)
        n = int(rng.integers(1, 6))
        assert kl_rate_exact(theta, ref, n) <= kl_rate_bound(theta, ref, n).total + 1e-12


def test_emission_log_ratio_term_plugin():
    f_ref = (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8])))
    got = emission_log_ratio_term(f_ref, f_ref)
    assert got == 0.0
    f = (DiscreteEmission(np.array([0.8, 0.2])), DiscreteEmission(np.array([0.3, 0.7])))
    worst0 = max(np.log(0.9 / 0.8), np.log(0.2 / 0.3))
    worst1 = max(np.log(0.1 / 0.2), np.log(0.8 / 0.7))
    expect = max(0.9 * worst0 + 0.1 * worst1, 0.2 * worst0 + 0.8 * worst1)
    assert got == 0.0
    assert emission_log_ratio_term(f, f_ref) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# weak functionals


def test_weak_gap_zero_cases(golden_truth):
    assert weak_functional_gap(golden_truth, golden_truth, 3, "ind_0_1").value == 0.0
    other = relabel(golden_truth, (1, 0))
    assert weak_functional_gap(other, golden_truth, 2, "const").value == 0.0


def test_weak_gap_bounded_by_block_l1():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_discrete_params(rng, k=2, support=2)
        b = random_discrete_params(rng, k=2, support=2)
        d = block_l1_distance(a, b, 2).value
        for h_id in ("const", "ind_0_0", "ind_0_1", "ind_1_0", "ind_1_1"):
            gap = weak_functional_gap(a, b, 2, h_id).value
            assert gap <= d + 1e-12


@pytest.mark.parametrize("h_id, mode", [
    ("mystery_3", "exact"),
    ("sigmoid_5_0.0", "montecarlo"),
    ("sigmoid_-1_0.0", "montecarlo"),
    ("gauss_x_0.0", "montecarlo"),
    ("gauss_0_x", "montecarlo"),
])
def test_weak_gap_unknown_id(golden_truth, h_id, mode):
    with pytest.raises(ConfigError, match=repr(h_id)):
        weak_functional_gap(golden_truth, golden_truth, 2, h_id, mode=mode,
                            n_samples=100, seed=0)


@pytest.mark.parametrize("h_id", ["gauss_0_x", "sigmoid_5_0.0", "mystery_3"])
def test_weak_gap_checks_the_id_before_drawing_blocks(golden_truth, monkeypatch, h_id):
    def no_draws(*args, **kwargs):
        raise AssertionError("a block was drawn before the id was checked")

    monkeypatch.setattr(metrics, "simulate", no_draws)
    with pytest.raises(ConfigError, match=repr(h_id)):
        weak_functional_gap(golden_truth, golden_truth, 2, h_id, mode="montecarlo",
                            n_samples=20_000, seed=0)


@pytest.mark.parametrize("n_samples", [0, 1, 3])
@pytest.mark.parametrize("metric", ["block_l1", "weak_gap"])
def test_montecarlo_block_metrics_reject_budgets_below_two_per_side(golden_truth,
                                                                   metric, n_samples):
    with pytest.raises(ValueError, match="n_samples >= 4"):
        if metric == "block_l1":
            block_l1_distance(golden_truth, golden_truth, 2, mode="montecarlo",
                              n_samples=n_samples, seed=0)
        else:
            weak_functional_gap(golden_truth, golden_truth, 2, "ind_0_1",
                                mode="montecarlo", n_samples=n_samples, seed=0)


def test_weak_gap_montecarlo_continuous():
    from dphmm import GaussianMixtureEmission

    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.2)
    a = HmmParams(tm, np.array([0.5, 0.5]),
                  (GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0])),
                   GaussianMixtureEmission(np.array([1.0]), np.array([2.0]), np.array([1.0]))))
    gap = weak_functional_gap(a, a, 2, "sigmoid_0_0.0", mode="montecarlo",
                              n_samples=4000, seed=11)
    assert gap.value <= 4 * gap.stderr + 0.05


@pytest.mark.parametrize("discrete", [True, False])
@pytest.mark.parametrize("n_samples", [4, 9, 200])
def test_montecarlo_block_metrics_simulate_one_block_per_call(monkeypatch, discrete,
                                                              n_samples):
    # perfbench's traced ``hmm.simulate.calls`` counts one call per block
    from dphmm import metrics

    rng = np.random.default_rng(47)
    make = random_discrete_params if discrete else random_gaussian_params
    a, b = make(rng, k=2), make(rng, k=2)
    lengths = []

    def counting_simulate(params, n, seed):
        lengths.append(n)
        return simulate(params, n, seed)

    monkeypatch.setattr(metrics, "simulate", counting_simulate)
    block_l1_distance(a, b, 3, mode="montecarlo", n_samples=n_samples, seed=0)
    assert lengths == [3] * n_samples
    lengths.clear()
    h_id = "ind_0_1" if discrete else "sigmoid_0_0.0"
    weak_functional_gap(a, b, 3, h_id, mode="montecarlo", n_samples=n_samples, seed=0)
    assert lengths == [3] * n_samples


# ---------------------------------------------------------------------------
# name dispatch


def test_parameter_metrics_match_direct_calls_in_name_order(golden_truth):
    theta = random_discrete_params(np.random.default_rng(12), k=2, support=2)
    names = ["weak_gap:ind_1_0", "aligned_emission", "block_l1", "aligned_q"]
    align = align_labels(theta, golden_truth)
    expect = [weak_functional_gap(theta, golden_truth, 2, "ind_1_0").value,
              float(align.emission_distances.max()),
              block_l1_distance(theta, golden_truth, 2).value,
              align.q_distance]
    got = parameter_metrics(theta, golden_truth, names, 2)
    assert [est.value for est in got] == expect
    assert all(est.stderr == 0.0 for est in got)


def test_parameter_metrics_use_a_given_alignment(golden_truth):
    given = AlignmentResult((1, 0), 0.5, np.array([0.25, 0.125]))
    got = parameter_metrics(golden_truth, golden_truth,
                            ["aligned_q", "aligned_emission"], 3, align=given)
    assert [est.value for est in got] == [0.5, 0.25]


@pytest.mark.parametrize("names", [["block_l1", "mystery"],
                                   ["aligned_q", "block_l1", "aligned_q"]])
def test_parameter_metrics_reject_unknown_and_repeated_names(golden_truth, names):
    with pytest.raises(ConfigError):
        parameter_metrics(golden_truth, golden_truth, names, 3)
