"""Per-atom reference version of ``dphmm.gibbs.update_mixture_emissions``.

The allocation takes the running sums of each observation's allocation
probabilities with ``np.cumsum`` along the row and counts the sums below its
uniform over all R components, capped at R - 1. Each atom's statistics come
from a boolean mask of the observations allocated to it, summed one at a
time in observation order. The draws then follow in this order: the sticks,
every atom's inverse-gamma variance, every atom's location, each atom in
turn from its own scalar call; an empty atom, and so every atom of a state
with no observations, draws from the base. It serves as the oracle of the
whole-array update in the parity tests: same draws, same stream, same bits.
"""
import numpy as np

from dphmm.emissions import SQRT_2PI, gaussian_kernels
from dphmm.errors import ZeroLikelihoodError
from dphmm.gibbs import _log_components, _shifted_exp
from dphmm.priors import sticks_to_weights
from dphmm.util import as_generator


def cumulative_responsibilities(ys, weights, locations, scales):
    """The running sums over the components of each observation's allocation
    probabilities, shaped (n, R): kernels times weights, divided by
    sqrt(2 pi) * scales, divided by the row totals, then ``cumsum``, on the
    point-major transpose of the component-major kernel table. Rows whose
    total underflows to 0 are recomputed in log space."""
    resp = np.ascontiguousarray(gaussian_kernels(ys, locations, scales).T)
    resp *= weights
    resp /= SQRT_2PI * scales
    totals = resp.sum(axis=1, keepdims=True)
    under = np.flatnonzero(totals[:, 0] <= 0.0)
    if under.size:
        resp[under] = _shifted_exp(_log_components(ys[under], weights, locations, scales)).T
        totals[under] = resp[under].sum(axis=1, keepdims=True)
        if not np.all(totals[under] > 0.0):
            raise ZeroLikelihoodError("an observation has zero density under every component")
    resp /= totals
    return np.cumsum(resp, axis=1, out=resp)


def allocations(ys, weights, locations, scales, u):
    cum = cumulative_responsibilities(ys, weights, locations, scales)
    return np.minimum((u[:, None] > cum).sum(axis=1), cum.shape[1] - 1)


def atom_posterior(ys, base):
    """Normal-inverse-gamma posterior parameters (location, location count,
    shape, scale) of one atom given its observations, summed one at a time
    in observation order; the base's own for an empty atom."""
    n = ys.size
    if n == 0:
        return base.loc, base.loc_count, base.shape, base.scale
    total = 0.0
    for v in ys.tolist():
        total += v
    ybar = total / n
    squares = 0.0
    for v in ys.tolist():
        d = v - ybar
        squares += d * d
    count = base.loc_count + n
    loc = (base.loc_count * base.loc + n * ybar) / count
    shift = ybar - base.loc
    scale = base.scale + 0.5 * squares + 0.5 * base.loc_count * n * (shift * shift) / count
    return loc, count, base.shape + 0.5 * n, scale


def update_mixture_emissions_masks(groups, current, spec, seed):
    rng = as_generator(seed)
    depth = spec.truncation
    out = np.empty((len(groups), 3, depth))
    for i, ys in enumerate(groups):
        ys = np.asarray(ys, dtype=np.float64)
        alloc = np.zeros(0, dtype=np.int64)
        if ys.size:
            alloc = allocations(ys, *current[i], rng.random(ys.size))
        occup = np.bincount(alloc, minlength=depth)
        tail = occup[::-1].cumsum()[::-1]
        out[i, 0] = sticks_to_weights(rng.beta(1.0 + occup[:-1], spec.alpha + tail[1:]))
        atoms = [atom_posterior(ys[alloc == r], spec.base) for r in range(depth)]
        var = [np.float64(scale) / rng.gamma(shape) for _, _, shape, scale in atoms]
        for r, (loc, count, _, _) in enumerate(atoms):
            out[i, 1, r] = rng.normal(loc, np.sqrt(var[r] / count))
        out[i, 2] = np.sqrt(var)
    return out
