"""Per-atom reference version of ``dphmm.gibbs.update_mixture_emissions``.

The allocation takes the running sums of each observation's allocation
probabilities with ``np.cumsum`` along the row and counts the sums below its
uniform over all R components, capped at R - 1. The atoms are redrawn one
at a time from a boolean mask of the observations allocated to them, an
empty atom by ``NormalInvGammaBase.sample``. This is the update as the
library ran it before the whole-array rewrite, so it serves as an oracle
for that rewrite in the parity tests: same draws, same stream, same bits.
"""
import numpy as np

from dphmm.emissions import SQRT_2PI, gaussian_kernels
from dphmm.errors import ZeroLikelihoodError
from dphmm.gibbs import _log_components, _shifted_exp
from dphmm.priors import dp_mixture_arrays, sticks_to_weights
from dphmm.util import as_generator


def cumulative_responsibilities(ys, weights, locations, scales):
    """The running sums over the components of each observation's allocation
    probabilities, shaped (n, R): kernels times weights, divided by
    sqrt(2 pi) * scales, divided by the row totals, then ``cumsum``. Rows
    whose total underflows to 0 are recomputed in log space."""
    resp = gaussian_kernels(ys, locations, scales)
    resp *= weights
    resp /= SQRT_2PI * scales
    totals = resp.sum(axis=1, keepdims=True)
    under = np.flatnonzero(totals[:, 0] <= 0.0)
    if under.size:
        resp[under] = _shifted_exp(_log_components(ys[under], weights, locations, scales))
        totals[under] = resp[under].sum(axis=1, keepdims=True)
        if not np.all(totals[under] > 0.0):
            raise ZeroLikelihoodError("an observation has zero density under every component")
    resp /= totals
    return np.cumsum(resp, axis=1, out=resp)


def allocations(ys, weights, locations, scales, u):
    cum = cumulative_responsibilities(ys, weights, locations, scales)
    return np.minimum((u[:, None] > cum).sum(axis=1), cum.shape[1] - 1)


def conjugate_atom(ys, base, rng):
    """Normal-inverse-gamma posterior draw of one (location, scale) atom."""
    n = ys.size
    if n == 0:
        z, s = base.sample(rng, 1)
        return float(z[0]), float(s[0])
    ybar = ys.mean()
    count = base.loc_count + n
    loc = (base.loc_count * base.loc + n * ybar) / count
    shape = base.shape + 0.5 * n
    scale = (base.scale + 0.5 * np.sum((ys - ybar) ** 2)
             + 0.5 * base.loc_count * n * (ybar - base.loc) ** 2 / count)
    var = scale / rng.gamma(shape)
    z = rng.normal(loc, np.sqrt(var / count))
    return float(z), float(np.sqrt(var))


def update_mixture_emissions_masks(groups, current, spec, seed):
    rng = as_generator(seed)
    depth = spec.truncation
    out = np.empty((len(groups), 3, depth))
    for i, ys in enumerate(groups):
        ys = np.asarray(ys, dtype=np.float64)
        if ys.size == 0:
            out[i] = dp_mixture_arrays(spec, rng)
            continue
        alloc = allocations(ys, *current[i], rng.random(ys.size))
        occup = np.bincount(alloc, minlength=depth)
        tail = occup[::-1].cumsum()[::-1]
        out[i, 0] = sticks_to_weights(rng.beta(1.0 + occup[:-1], spec.alpha + tail[1:]))
        for r in range(depth):
            out[i, 1, r], out[i, 2, r] = conjugate_atom(ys[alloc == r], spec.base, rng)
    return out
