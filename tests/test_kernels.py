"""Kernels: parity with the scalar-loop oracles, enumeration, edge cases."""
import numpy as np
import pytest

from dphmm import kernels
from tests import kernel_oracles as oracles
from tests.conftest import brute_force_loglik, random_discrete_params


def _problem(seed, n=40, k=3):
    rng = np.random.default_rng(seed)
    Q = rng.dirichlet(np.ones(k), size=k)
    mu = rng.dirichlet(np.ones(k))
    B = rng.random((n, k)) + 0.01
    u = rng.random(n)
    return mu, Q, B, u


@pytest.mark.parametrize("seed", range(5))
def test_backend_parity(seed):
    mu, Q, B, u = _problem(seed)

    a1, c1 = kernels.forward_filter(mu, Q, B)
    a2, c2 = oracles.forward_filter_loops(mu, Q, B)
    assert np.allclose(a1, a2, atol=1e-13)
    assert np.allclose(c1, c2, atol=1e-13)

    b1 = kernels.backward_messages(Q, B, c1)
    b2 = oracles.backward_messages_loops(Q, B, c2)
    assert np.allclose(b1, b2, atol=1e-12)

    s1 = kernels.ffbs(Q, a1, u)
    s2 = oracles.ffbs_loops(Q, a2, u)
    assert np.array_equal(s1, s2)


def test_forward_matches_enumeration():
    from dphmm import log_likelihood_forward, simulate

    rng = np.random.default_rng(3)
    for _ in range(20):
        params = random_discrete_params(rng, k=2, support=2)
        _, y = simulate(params, 6, rng)
        assert log_likelihood_forward(params, y) == pytest.approx(
            brute_force_loglik(params, y), abs=1e-10)


def test_zero_likelihood_zeroes_tail():
    mu = np.array([0.5, 0.5])
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    B = np.array([[0.9, 0.2], [0.0, 0.0], [0.9, 0.2]])
    for forward_filter in (kernels.forward_filter, oracles.forward_filter_loops):
        alpha, c = forward_filter(mu, Q, B)
        assert c[0] > 0 and c[1] == 0.0 and c[2] == 0.0
        assert np.all(alpha[1:] == 0.0)


def test_gamma_normalization_of_smoothing():
    mu, Q, B, _ = _problem(11, n=25, k=2)
    alpha, c = kernels.forward_filter(mu, Q, B)
    beta = kernels.backward_messages(Q, B, c)
    gamma = alpha * beta
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-10)
