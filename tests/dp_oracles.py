"""Moment check of the Gamma-normalization construction of discrete
Dirichlet process draws (Ferguson, Annals of Statistics 1973).

Under DP(alpha, base) on a finite support, the block masses of a partition
of the support are Dirichlet with the blocks' base masses times alpha as
concentrations, and the common normalizer of the construction is
Gamma(alpha, 1). The check compares draws with these laws by z-scores: block
masses in mean, variance and pairwise covariance, the normalizer in mean and
variance.

A block whose base mass is 0 or 1 (no positive base entry inside it, or none
outside it) has a DP mass fixed at 0 or 1, so its target variance is 0 and a
z-score has no scale. Such a block is checked as an exact mass instead, and
takes no z-score.
"""
from statistics import NormalDist

import numpy as np

# the two-sided normal quantile at significance 0.0027, about 3
Z_THRESHOLD = NormalDist().inv_cdf(1.0 - 0.0027 / 2.0)


def _variance_z(samples, target_var):
    s2 = samples.var(ddof=1)
    m4 = np.mean((samples - samples.mean()) ** 4)
    return (s2 - target_var) / np.sqrt(max(m4 - s2 ** 2, 1e-300) / samples.size)


def dp_moment_check(pmfs, totals, spec, partitions):
    """(largest |z|, exact-mass deviations) of the draws (pmfs, normalizers),
    (n, S) and (n,), against the law of ``spec`` on each partition of its
    support. The deviations map (partition, block, target mass) to the
    largest |block mass - target| over the draws."""
    n, support = pmfs.shape
    if any(sorted(s for b in blocks for s in b) != list(range(support))
           for blocks in partitions):
        raise ValueError("partition must cover the support exactly once")
    a = spec.alpha
    zs = [(totals.mean() - a) / np.sqrt(a / n), _variance_z(totals, a)]
    exact = {}
    for p, blocks in enumerate(partitions):
        masses = np.stack([pmfs[:, b].sum(axis=1) for b in blocks], axis=1)
        gmass = np.array([spec.base[b].sum() for b in blocks])
        inside = np.array([np.count_nonzero(spec.base[b]) for b in blocks])
        fixed = (inside == 0) | (inside == np.count_nonzero(spec.base))
        variances = gmass * (1.0 - gmass) / (a + 1.0)
        centered = masses - masses.mean(axis=0)
        for m in range(len(blocks)):
            if fixed[m]:
                target = float(inside[m] > 0)
                exact[p, m, target] = float(np.max(np.abs(masses[:, m] - target)))
                continue
            zs.append((masses[:, m].mean() - gmass[m]) / np.sqrt(variances[m] / n))
            zs.append(_variance_z(masses[:, m], variances[m]))
            for mm in range(m + 1, len(blocks)):
                if not fixed[mm]:
                    prods = centered[:, m] * centered[:, mm]
                    target = -gmass[m] * gmass[mm] / (a + 1.0)
                    zs.append((prods.mean() - target) / (prods.std(ddof=1) / np.sqrt(n)))
    return float(np.max(np.abs(zs))), exact
