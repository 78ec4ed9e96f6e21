"""Block-marginal L1 pseudometric, block-law MMD, alignment, KL rate."""
import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from dphmm import (AlignmentResult, ConfigError, DataError, DiscreteEmission,
                   GaussianMixtureEmission, HmmParams, TransitionMatrix, TranslatedEmission,
                   align_labels, block_l1_distance, block_mmd, kl_rate_bound, kl_rate_exact,
                   metrics, simulate, stationary_distribution)
from dphmm.emissions import l1_distance, pad_pmfs
from dphmm.metrics import emission_log_ratio_term, parameter_metrics
from dphmm.modelio import params_to_payload
from tests.conftest import (all_paths, brute_force_path_probs,
                            random_discrete_params, random_gaussian_params, relabel)
from tests.metric_oracles import align_labels_loop, alignment_scores, block_mmd_enumerated


# ---------------------------------------------------------------------------
# block L1 pseudometric


def test_block_l1_zero_on_self(golden_truth):
    assert block_l1_distance(golden_truth, golden_truth, 3).value == 0.0


def test_block_metrics_pad_a_smaller_support(golden_truth):
    wider = HmmParams(golden_truth.trans, golden_truth.mu,
                      tuple(DiscreteEmission(np.append(e.pmf, 0.0))
                            for e in golden_truth.emissions))
    assert block_l1_distance(wider, golden_truth, 3).value == 0.0
    assert block_mmd(golden_truth, wider, 2).value <= 1e-7
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


def _fresh(params):
    """An equal parameter object that has kept nothing yet."""
    return HmmParams(params.trans, params.mu, params.emissions)


def test_reference_block_law_is_kept_read_only_per_length_and_support(golden_truth):
    truth = _fresh(golden_truth)
    theta = random_discrete_params(np.random.default_rng(8), k=2, support=2)
    block_l1_distance(theta, truth, 3)
    laws = truth.__dict__["_block_laws"]
    assert list(laws) == [(3, 2)]
    law = laws[(3, 2)]
    assert not law.flags.writeable
    direct = metrics._block_densities(truth, 3, 2, stationary_distribution(truth.trans))
    assert law.tobytes() == direct.tobytes()
    # a second candidate at the same length and support reads the kept law
    block_l1_distance(relabel(theta, (1, 0)), truth, 3)
    assert truth.__dict__["_block_laws"][(3, 2)] is law
    wider = random_discrete_params(np.random.default_rng(9), k=2, support=3)
    block_l1_distance(wider, truth, 3)
    assert list(laws) == [(3, 2), (3, 3)]
    assert laws[(3, 2)] is law


def test_kept_block_law_leaves_value_identity_alone(golden_truth):
    truth = _fresh(golden_truth)
    payload, key = params_to_payload(truth), hash(truth)
    theta = random_discrete_params(np.random.default_rng(10), k=2, support=3)
    first = block_l1_distance(theta, truth, 3)
    assert "_block_laws" in truth.__dict__
    assert truth == _fresh(golden_truth) and _fresh(golden_truth) == truth
    assert hash(truth) == key and params_to_payload(truth) == payload
    # the kept law gives the value a fresh reference gives
    assert block_l1_distance(theta, truth, 3) == first
    assert block_l1_distance(theta, _fresh(golden_truth), 3) == first
    # nothing is kept on the candidate
    assert "_block_laws" not in theta.__dict__
    block_l1_distance(theta, truth, 2)
    assert "_block_laws" not in theta.__dict__


def test_block_l1_matches_direct_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_discrete_params(rng, k=2, support=2)
        b = random_discrete_params(rng, k=2, support=2)
        got = block_l1_distance(a, b, 3).value
        # independent path-based enumeration of both block laws
        total = 0.0
        sa = stationary_distribution(a.trans)
        sb = stationary_distribution(b.trans)
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
        law_gap = np.abs(stationary_distribution(a.trans)
                         - stationary_distribution(b.trans)).sum()
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


def _dyadic_params(rng, k, support, pmf_choices):
    """Rows permute one dyadic vector and each state's pmf is one of
    ``pmf_choices``, so many relabelings score exactly alike."""
    v = np.array([2.0 ** -min(i + 1, k - 1) for i in range(k)])
    rows = np.array([rng.permutation(v) for _ in range(k)])
    pmfs = [pmf_choices[int(rng.integers(len(pmf_choices)))] for _ in range(k)]
    return HmmParams(TransitionMatrix(rows, 0.0), np.full(k, 1.0 / k),
                     tuple(DiscreteEmission(np.pad(p, (0, support - p.size))) for p in pmfs))


def _same_alignment(got, want):
    assert got.sigma == want.sigma
    assert float(got.q_distance).hex() == float(want.q_distance).hex()
    assert got.emission_distances.tobytes() == want.emission_distances.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_alignment_equals_the_permutation_loop_discrete(k):
    rng = np.random.default_rng(100 + k)
    choices = [np.array([0.5, 0.25, 0.25]), np.array([0.25, 0.75])]
    ties = 0
    for trial in range(4):
        # candidate and reference on supports 2..4, unequal among states and sides
        theta = random_discrete_params(rng, k=k, support=int(rng.integers(2, 5)))
        theta = HmmParams(theta.trans, theta.mu, tuple(
            DiscreteEmission(np.pad(e.pmf, (0, int(rng.integers(0, 2)))))
            for e in theta.emissions))
        ref = random_discrete_params(rng, k=k, support=int(rng.integers(2, 5)))
        tied = _dyadic_params(rng, k, 3 + trial % 2, choices)
        tied_ref = _dyadic_params(rng, k, 3, choices)
        moved = relabel(theta, rng.permutation(k))
        for a, b in ((theta, ref), (tied, tied_ref), (tied, tied), (theta, moved)):
            _same_alignment(align_labels(a, b), align_labels_loop(a, b))
            scores = [score for score, *_ in alignment_scores(a, b)]
            ties += scores.count(min(scores)) > 1
    assert k == 1 or ties > 0


def test_alignment_equals_the_permutation_loop_montecarlo():
    # Gaussian-mixture emissions: their distances come from the grid
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        a, b = random_gaussian_params(rng, k=k), random_gaussian_params(rng, k=k)
        moved = relabel(a, rng.permutation(k))
        for other in (b, moved):
            _same_alignment(align_labels(a, other), align_labels_loop(a, other))


def test_alignment_ignores_the_former_monte_carlo_keywords():
    # the benchmark's scoring still passes a draw budget and a seed; the
    # alignment reads neither, and draws nothing
    rng = np.random.default_rng(13)
    for _ in range(3):
        a, b = random_gaussian_params(rng, k=2), random_gaussian_params(rng, k=2)
        _same_alignment(align_labels(a, b, n_samples=20000, seed=[1, 0]), align_labels(a, b))
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    align_labels(a, b, seed=gen)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_alignment_makes_one_l1_call_per_state_and_permutation(monkeypatch, k):
    # perfbench's traced ``emissions.l1_distance.calls`` counts k! * k per alignment
    calls = []

    def counting_l1(f, g, **kwargs):
        calls.append((f, g))
        return l1_distance(f, g, **kwargs)

    monkeypatch.setattr(metrics, "l1_distance", counting_l1)
    params = random_discrete_params(np.random.default_rng(k), k=k)
    align_labels(params, params)
    assert len(calls) == math.factorial(k) * k


# ---------------------------------------------------------------------------
# KL rate


def test_kl_bound_zero_on_truth(golden_truth):
    theta = golden_truth.with_mu(stationary_distribution(golden_truth.trans))
    b = kl_rate_bound(theta, golden_truth, 10)
    assert b.total == 0.0


def test_kl_bound_transition_term_limit():
    q_star = np.array([[0.7, 0.3], [0.4, 0.6]])
    ref = HmmParams(TransitionMatrix(q_star, 0.2), np.array([0.5, 0.5]),
                    (DiscreteEmission(np.array([0.9, 0.1])),
                     DiscreteEmission(np.array([0.2, 0.8]))))
    moved = HmmParams(TransitionMatrix(np.array([[0.65, 0.35], [0.45, 0.55]]), 0.2),
                      stationary_distribution(ref.trans), ref.emissions)
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
    theta = golden_truth.with_mu(stationary_distribution(golden_truth.trans))
    assert kl_rate_exact(theta, golden_truth, 5) == pytest.approx(0.0, abs=1e-14)


def test_kl_exact_single_step_is_mixture_kl(golden_truth):
    rng = np.random.default_rng(7)
    theta = random_discrete_params(rng, k=2, support=2, q_floor=0.15)
    theta = theta.with_mu(stationary_distribution(theta.trans))
    got = kl_rate_exact(theta, golden_truth, 1)
    ref_mix = np.zeros(2)
    mix = np.zeros(2)
    s_ref = stationary_distribution(golden_truth.trans)
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
    s_ref = stationary_distribution(golden_truth.trans)
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


@pytest.mark.parametrize("tail", [0.0, 0.2])
@pytest.mark.parametrize("long_side", ["candidate", "reference"])
def test_kl_bound_on_pmfs_of_two_lengths_equals_the_zero_padded_bound(long_side, tail):
    # pmfs of 2 and 3 symbols meet on one zero-padded alphabet; a reference
    # tail the candidate lacks makes the emission term infinite
    short = (DiscreteEmission(np.array([0.9, 0.1])), DiscreteEmission(np.array([0.2, 0.8])))
    long = (DiscreteEmission(np.array([0.6, 0.4 - tail, tail])),
            DiscreteEmission(np.array([0.3, 0.7 - tail, tail])))
    padded = tuple(DiscreteEmission(np.append(e.pmf, 0.0)) for e in short)
    ref_tm = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.15)
    tm = TransitionMatrix(np.array([[0.65, 0.35], [0.45, 0.55]]), 0.15)
    mu = stationary_distribution(tm)
    pairs = {"candidate": ((long, short), (long, padded)),
             "reference": ((short, long), (padded, long))}[long_side]
    got, want = ([emission_log_ratio_term(f, g)]
                 + list(astuple(kl_rate_bound(HmmParams(tm, mu, f), HmmParams(ref_tm, mu, g), 5)))
                 for f, g in pairs)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert np.isfinite(got[0]) == (tail == 0.0 or long_side == "candidate")


# ---------------------------------------------------------------------------
# block-law maximum mean discrepancy


def _iid_twin(params):
    """The i.i.d. parameter with the same emissions and stationary law: every
    transition row is that law."""
    pi = stationary_distribution(params.trans)
    return HmmParams(TransitionMatrix(np.tile(pi, (params.k, 1)), params.q_floor), pi,
                     params.emissions)


@pytest.mark.parametrize("block_len", [1, 2, 3, 4])
def test_block_mmd_matches_the_enumeration_oracle(golden_truth, block_len):
    rng = np.random.default_rng(40 + block_len)
    # pmfs of 2 symbols against pmfs of 3, and 2 states against 3
    pairs = [(golden_truth, _iid_twin(golden_truth))]
    pairs += [(random_discrete_params(rng, k=2, support=2),
               random_discrete_params(rng, k=3, support=3)) for _ in range(3)]
    for a, b in pairs:
        brute = block_mmd_enumerated(a, b, block_len)
        got = block_mmd(a, b, block_len)
        assert got.stderr == 0.0
        assert got.value ** 2 == pytest.approx(brute, rel=0.0, abs=1e-12)
        if brute > 1e-6:
            assert got.value == pytest.approx(math.sqrt(brute), rel=0.0, abs=1e-12)


def test_block_mmd_is_symmetric_and_exactly_zero_on_equal_parameters():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_discrete_params(rng, k=2, support=3)
        b = random_discrete_params(rng, k=3, support=2)
        for block_len in (1, 3):
            assert block_mmd(a, b, block_len).value == pytest.approx(
                block_mmd(b, a, block_len).value, rel=0.0, abs=1e-12)
            assert block_mmd(a, a, block_len) == (0.0, 0.0)
            assert block_mmd(a, _fresh(a), block_len).value == 0.0
    g = random_gaussian_params(rng, k=2)
    assert block_mmd(g, _fresh(g), 3).value == 0.0


def test_block_mmd_is_blind_to_relabeling(golden_truth):
    rng = np.random.default_rng(15)
    for params in (golden_truth, random_discrete_params(rng, k=3, support=3),
                   random_gaussian_params(rng, k=3)):
        for sigma in itertools.permutations(range(params.k)):
            for block_len in (1, 2, 3, 4):
                assert block_mmd(relabel(params, sigma), params, block_len).value <= 1e-7


def test_block_mmd_separates_the_iid_twin_from_two_blocks_on(golden_truth):
    # the twin shares every one-step marginal with the truth, so it differs
    # from the truth only in the law of consecutive observations
    twin = _iid_twin(golden_truth)
    assert block_mmd(twin, golden_truth, 1).value <= 1e-7
    for block_len in (2, 3, 4):
        assert block_mmd(twin, golden_truth, block_len).value > 0.02


def test_block_mmd_bounded_by_block_l1():
    # MMD^2 = d^T G d <= |d|_1^2, for entries of G in [0, 1]
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_discrete_params(rng, k=2, support=2)
        b = random_discrete_params(rng, k=2, support=3)
        for block_len in (1, 2, 3):
            assert (block_mmd(a, b, block_len).value
                    <= block_l1_distance(a, b, block_len).value + 1e-12)


def test_block_mmd_bounds_every_retired_gauss_gap_at_one_position():
    # h(y) = exp(-(y - c)^2 / 2) is the section K(., c) of the s = 1 kernel,
    # of unit norm, so its gap between the stationary marginals is at most the MMD
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = random_discrete_params(rng, k=2, support=3)
        b = random_discrete_params(rng, k=3, support=2)
        mmd = block_mmd(a, b, 1).value
        marginals = [stationary_distribution(p.trans)
                     @ pad_pmfs(*(e.pmf for e in p.emissions), support=3) for p in (a, b)]
        for c in (-1.0, 0.0, 0.5, 1.0, 2.5):
            h = np.exp(-0.5 * (np.arange(3) - c) ** 2)
            assert abs(h @ marginals[0] - h @ marginals[1]) <= mmd + 1e-12


def _stationary_blocks(params, m, block_len, rng):
    """m independent blocks of the stationary chain, drawn state by state."""
    x = rng.choice(params.k, size=m, p=stationary_distribution(params.trans))
    cdf = params.trans.rows.cumsum(axis=1)
    y = np.empty((m, block_len))
    for t in range(block_len):
        if t:
            x = np.minimum((rng.random(m)[:, None] >= cdf[x]).sum(axis=1), params.k - 1)
        for i, e in enumerate(params.emissions):
            at = x == i
            y[at, t] = e.sample(rng, int(at.sum()))
    return y


def test_block_mmd_gaussian_cross_term_matches_montecarlo():
    rng = np.random.default_rng(31)
    a = random_gaussian_params(rng, k=2)
    base = GaussianMixtureEmission(np.array([0.3, 0.7]), np.array([-0.5, 0.8]),
                                   np.array([0.6, 1.1]))
    b = HmmParams(TransitionMatrix(np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1],
                                             [0.3, 0.3, 0.4]]), 0.1), np.full(3, 1.0 / 3.0),
                  tuple(TranslatedEmission(base, shift) for shift in (0.0, 1.2, 2.5)))
    ya, yb = (_stationary_blocks(p, 20_000, 3, rng) for p in (a, b))
    kernel = np.exp(-0.5 * ((ya - yb) ** 2).sum(axis=1))
    stderr = kernel.std(ddof=1) / math.sqrt(kernel.size)
    assert abs(kernel.mean() - metrics._block_inner(a, b, 3)) <= 4 * stderr
    # a translated emission scores as the mixture of its moved atoms
    moved = HmmParams(b.trans, b.mu, tuple(
        GaussianMixtureEmission(base.weights, base.locations + e.shift, base.scales)
        for e in b.emissions))
    assert block_mmd(b, moved, 3).value == 0.0


def test_block_mmd_rejects_mixed_domains(golden_truth):
    gaussian = random_gaussian_params(np.random.default_rng(16), k=2)
    for a, b in ((golden_truth, gaussian), (gaussian, golden_truth)):
        with pytest.raises(DataError, match="discrete emission with a continuous one"):
            block_mmd(a, b, 2)


# valid ids of the retired test-function grammar: each name is refused now
@pytest.mark.parametrize("name", [f"weak_gap:{h_id}" for h_id in (
    "const", "ind_0_1", "gauss_0_1.0", "sigmoid_1_2.5")])
def test_weak_gap_names_are_retired(name):
    with pytest.raises(ConfigError, match="retired.*one-step marginal only.*block_mmd"):
        metrics.check_metric_names(["block_l1", name])


# ids the retired grammar rejected, with the mode each was tried in. No mode reads
# a weak_gap name any more, so both refuse it alike, and the refusal still names the id
@pytest.mark.parametrize("h_id, mode", [
    ("mystery_3", "exact"),
    ("sigmoid_5_0.0", "montecarlo"),
    ("sigmoid_-1_0.0", "montecarlo"),
    ("gauss_x_0.0", "montecarlo"),
    ("gauss_0_x", "montecarlo"),
])
def test_weak_gap_unknown_id(golden_truth, h_id, mode):
    with pytest.raises(ConfigError, match=re.escape(f"'weak_gap:{h_id}' is retired")):
        parameter_metrics(golden_truth, golden_truth, ["block_l1", f"weak_gap:{h_id}"], 2)


@pytest.mark.parametrize("h_id", ["gauss_0_x", "sigmoid_5_0.0", "mystery_3"])
def test_weak_gap_checks_the_id_before_drawing_blocks(golden_truth, monkeypatch, h_id):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a block was scored before the names were checked")

    # block_l1 comes first in the list: the retired name after it is refused before it runs
    monkeypatch.setattr(metrics, "simulate", no_blocks)
    monkeypatch.setattr(metrics, "block_l1_distance", no_blocks)
    with pytest.raises(ConfigError, match=re.escape(f"'weak_gap:{h_id}'")):
        parameter_metrics(golden_truth, golden_truth, ["block_l1", f"weak_gap:{h_id}"], 2)


@pytest.mark.parametrize("n_samples", [0, 1, 3])
@pytest.mark.parametrize("metric", ["block_l1"])
def test_montecarlo_block_metrics_reject_budgets_below_two_per_side(golden_truth,
                                                                   metric, n_samples):
    with pytest.raises(ValueError, match="n_samples >= 4"):
        block_l1_distance(golden_truth, golden_truth, 2, mode="montecarlo",
                          n_samples=n_samples, seed=0)


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


def test_montecarlo_values_are_pinned_bit_for_bit():
    # a k = 2 Gaussian-mixture truth against a 20-atom DP posterior-like
    # sample, at the scoring budgets of the dpm-gaussian benchmark workload;
    # the expected values are exact, so a change to simulate, sample or
    # mixture_density that moves a rounding or a random draw fails here
    # (recorded with numpy 2.4 on x86-64 with AVX-512; a numpy build whose
    # vectorised exp or BLAS dot rounds differently reads other last bits)
    from dphmm import GaussianMixtureEmission
    from dphmm.priors import GaussianDpSpec, NormalInvGammaBase, dp_mixture_arrays

    truth = HmmParams(
        TransitionMatrix(np.array([[0.7, 0.3], [0.3, 0.7]]), 0.15), np.array([0.5, 0.5]),
        (GaussianMixtureEmission(np.array([0.4, 0.6]), np.array([-2.2, -0.9]),
                                 np.array([0.6, 0.8])),
         GaussianMixtureEmission(np.array([0.55, 0.45]), np.array([1.3, 2.6]),
                                 np.array([0.7, 0.5]))))
    spec = GaussianDpSpec(1.0, NormalInvGammaBase(0.0, 0.1, 2.0, 1.0), 20)
    rng = np.random.default_rng(2024)
    sample = HmmParams(
        TransitionMatrix(np.array([[0.65, 0.35], [0.2, 0.8]]), 0.15), np.array([0.5, 0.5]),
        tuple(GaussianMixtureEmission(*dp_mixture_arrays(spec, rng)) for _ in range(2)))

    def hexes(*values):
        return [float(v).hex() for v in values]

    b = block_l1_distance(sample, truth, 3, mode="montecarlo", n_samples=2000, seed=[3, 0])
    assert hexes(*b) == ["0x1.27930884db8bbp+0", "0x1.cb16d23688ff2p-7"]
    a = align_labels(sample, truth, n_samples=20000, seed=[3, 0])
    assert a.sigma == (0, 1)
    assert hexes(a.q_distance, *a.emission_distances) == [
        "0x1.99999999999a0p-4", "0x1.3455ebb1c42ecp+0", "0x1.4508329d5dfaep+0"]


# ---------------------------------------------------------------------------
# name dispatch


def test_parameter_metrics_match_direct_calls_in_name_order(golden_truth):
    theta = random_discrete_params(np.random.default_rng(12), k=2, support=2)
    names = ["block_mmd", "aligned_emission", "block_l1", "aligned_q"]
    align = align_labels(theta, golden_truth)
    expect = [block_mmd(theta, golden_truth, 2).value,
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
                                   ["aligned_q", "block_l1", "aligned_q"],
                                   ["weak_gap:ind_3_0"], ["weak_gap:sigmoid_0_x"]])
def test_parameter_metrics_reject_unknown_and_repeated_names(golden_truth, names):
    with pytest.raises(ConfigError):
        parameter_metrics(golden_truth, golden_truth, names, 3)


@pytest.mark.parametrize("name", ["smoothing_aligned", "smoothing_unaligned"])
def test_smoothing_names_are_metric_names_parameter_metrics_cannot_score(golden_truth, name):
    # the grammar accepts them; only a chain experiment, which holds the
    # observations, scores them
    metrics.check_metric_names(["block_l1", name])
    with pytest.raises(ConfigError, match="need the observations"):
        parameter_metrics(golden_truth, golden_truth, ["block_l1", name], 3)
