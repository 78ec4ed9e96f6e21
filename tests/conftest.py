"""Shared fixtures: random model generators and brute-force oracles.

The oracles enumerate hidden paths outright and never touch the forward or
backward recursions they are used to check.
"""
import itertools

import numpy as np
import pytest

from dphmm import (DiscreteEmission, GaussianMixtureEmission, HmmParams,
                   TransitionMatrix)
from dphmm.hmm import emission_matrix


def floor_simplex(rng, k, q_floor, size=None):
    """Dirichlet draws squeezed into {x: x_i >= q_floor}."""
    w = rng.dirichlet(np.ones(k), size=size)
    return q_floor + (1.0 - k * q_floor) * w


def random_discrete_params(rng, k=None, support=None, q_floor=None) -> HmmParams:
    k = int(k if k is not None else rng.integers(1, 4))
    support = int(support if support is not None else rng.integers(2, 4))
    if q_floor is None:
        q_floor = float(rng.uniform(0.02, 0.9 / k)) if k > 1 else 1.0
    rows = floor_simplex(rng, k, q_floor, size=k)
    mu = floor_simplex(rng, k, q_floor)
    emissions = tuple(DiscreteEmission(rng.dirichlet(np.ones(support)))
                      for _ in range(k))
    return HmmParams(TransitionMatrix(rows, q_floor), mu, emissions)


def random_gaussian_params(rng, k=None, q_floor=None) -> HmmParams:
    k = int(k if k is not None else rng.integers(1, 4))
    if q_floor is None:
        q_floor = float(rng.uniform(0.02, 0.9 / k)) if k > 1 else 1.0
    rows = floor_simplex(rng, k, q_floor, size=k)
    mu = floor_simplex(rng, k, q_floor)
    emissions = []
    for _ in range(k):
        m = int(rng.integers(1, 4))
        emissions.append(GaussianMixtureEmission(rng.dirichlet(np.ones(m)),
                                                 rng.uniform(-2.0, 2.0, m),
                                                 rng.uniform(0.3, 1.5, m)))
    return HmmParams(TransitionMatrix(rows, q_floor), mu, tuple(emissions))


def relabel(params: HmmParams, sigma) -> HmmParams:
    """Apply a state relabeling: row/column-permuted transitions, permuted
    initial law and emissions. The observed process is unchanged."""
    sigma = np.asarray(sigma, dtype=np.int64)
    Q = params.trans.rows[np.ix_(sigma, sigma)]
    return HmmParams(TransitionMatrix(Q, params.q_floor),
                     params.mu[sigma],
                     tuple(params.emissions[s] for s in sigma))


def all_paths(k, n):
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)


def brute_force_path_probs(params: HmmParams, y):
    """Joint probabilities of (path, observations) over every hidden path."""
    y = np.asarray(y)
    B = emission_matrix(params, y)
    paths = all_paths(params.k, y.size)
    probs = params.mu[paths[:, 0]] * B[0, paths[:, 0]]
    for t in range(1, y.size):
        probs = probs * params.trans.rows[paths[:, t - 1], paths[:, t]] * B[t, paths[:, t]]
    return paths, probs


def brute_force_loglik(params: HmmParams, y) -> float:
    _, probs = brute_force_path_probs(params, y)
    total = probs.sum()
    return float(np.log(total)) if total > 0 else float("-inf")


def brute_force_smoothing(params: HmmParams, y, block_len=1):
    """Posterior state marginals and leading-block joint law by enumeration."""
    y = np.asarray(y)
    paths, probs = brute_force_path_probs(params, y)
    post = probs / probs.sum()
    k, n = params.k, y.size
    marginals = np.zeros((n, k))
    for t in range(n):
        for i in range(k):
            marginals[t, i] = post[paths[:, t] == i].sum()
    blocks = np.zeros((k,) * block_len)
    for p, w in zip(paths, post):
        blocks[tuple(p[:block_len])] += w
    return marginals, blocks


@pytest.fixture(scope="session")
def golden_truth() -> HmmParams:
    return HmmParams(
        TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), 0.15),
        np.array([4.0 / 7.0, 3.0 / 7.0]),
        (DiscreteEmission(np.array([0.9, 0.1])),
         DiscreteEmission(np.array([0.2, 0.8]))),
    )


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger kernel compilation once so timed tests measure algorithms."""
    from dphmm import kernels

    mu = np.array([0.5, 0.5])
    Q = np.array([[0.6, 0.4], [0.3, 0.7]])
    B = np.array([[0.9, 0.2], [0.1, 0.8], [0.9, 0.2]])
    alpha, c = kernels.forward_filter(mu, Q, B)
    kernels.backward_messages(Q, B, c)
    kernels.ffbs(Q, alpha, np.array([0.3, 0.6, 0.9]))
