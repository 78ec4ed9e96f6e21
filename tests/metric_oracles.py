"""Permutation-loop reference version of ``dphmm.metrics.align_labels``.

For each state permutation in lexicographic order it builds the relabeled
transition matrix with ``np.ix_``, takes its largest entrywise gap to the
reference, and collects the k per-state emission L1 distances into an
array. A permutation replaces the best one only when its score is strictly
smaller. This is the search as the library ran it before the gathered
rewrite, so it serves as an oracle for that rewrite in the parity tests:
same ``l1_distance`` calls in the same order, same bits.
"""
from itertools import permutations

import numpy as np

from dphmm.emissions import l1_distance
from dphmm.metrics import AlignmentResult


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
