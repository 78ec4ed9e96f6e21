"""Reference versions of two ``dphmm.metrics`` functions.

``align_labels_loop`` is the permutation-loop version of
``dphmm.metrics.align_labels``. For each state permutation in lexicographic
order it builds the relabeled transition matrix with ``np.ix_``, takes its
largest entrywise gap to the reference, and collects the k per-state
emission L1 distances into an array. A permutation replaces the best one only when its score is strictly
smaller. This is the search as the library ran it before the gathered
rewrite, so it serves as an oracle for that rewrite in the parity tests:
same ``l1_distance`` calls in the same order, same bits.

``block_mmd_enumerated`` writes the square of ``dphmm.metrics.block_mmd``
out as a sum over every pair of symbol blocks, each block's probability a
sum over every hidden path: no recursion of the library is used.
"""
from functools import reduce
from itertools import permutations, product

import numpy as np

from dphmm.emissions import l1_distance
from dphmm.hmm import stationary_distribution
from dphmm.metrics import AlignmentResult
from tests.conftest import brute_force_path_probs


def alignment_scores(theta, theta_ref):
    """(score, sigma, q_distance, emission_distances) of every permutation,
    in lexicographic order."""
    k = theta.k
    for sigma in permutations(range(k)):
        perm = np.array(sigma)
        moved = theta.trans.rows[np.ix_(perm, perm)]
        qd = float(np.max(np.abs(moved - theta_ref.trans.rows)))
        dists = np.array([
            l1_distance(theta.emissions[sigma[i]], theta_ref.emissions[i]).value
            for i in range(k)
        ])
        yield qd + float(dists.max()), sigma, qd, dists


def align_labels_loop(theta, theta_ref) -> AlignmentResult:
    best = None
    for scored in alignment_scores(theta, theta_ref):
        if best is None or scored[0] < best[0]:
            best = scored
    _, sigma, qd, dists = best
    return AlignmentResult(sigma, qd, dists)


def block_mmd_enumerated(theta, theta_ref, block_len) -> float:
    """MMD^2 between the stationary block laws of two discrete-emission
    parameters as (p - q)^T G^(x l) (p - q), G_uv = exp(-(u - v)^2 / 2) on
    the longest pmf's symbols: p and q hold the probability of every symbol
    block, big-endian, each a sum over every hidden path."""
    support = max(e.pmf.size for e in theta.emissions + theta_ref.emissions)
    blocks = list(product(range(support), repeat=block_len))
    p, q = (np.array([brute_force_path_probs(start, np.array(block))[1].sum()
                      for block in blocks])
            for start in (params.with_mu(stationary_distribution(params.trans))
                          for params in (theta, theta_ref)))
    u = np.arange(support)
    G = reduce(np.kron, [np.exp(-0.5 * (u[:, None] - u[None, :]) ** 2)] * block_len)
    return float((p - q) @ G @ (p - q))
