"""Gibbs posterior sampler.

One sweep alternates an exact conditional draw of the hidden path
(forward-filtering, backward-sampling), a truncated-Dirichlet update of
each transition row from its counts, and a conjugate emission update:
Gamma-normalized Dirichlet-process draws in the discrete case, one
truncated stick-breaking block sweep (allocations, sticks, conjugate
normal-inverse-gamma atoms; Ishwaran & James, JASA 2001) in the mixture
case.

The block sweep works in whole-array passes. A state's allocation
probabilities are one component-major (truncation, n) buffer; the running
sums of the first truncation - 1 components are formed in place by
whole-row adds, in the order ``cumsum`` adds them, and an observation's
component is the count of running sums below its uniform. Three
``bincount`` passes then give each component's occupancy, mean and summed
squared deviation, summed in observation order, and the sticks and atoms
are drawn from their conditional given those (``priors.dp_mixture_posterior``,
which with no observations is the prior draw). Draws and random stream are
those of a per-atom loop over boolean masks that sums in observation order
and draws the sticks, then every atom's variance, then every location.

Between sweeps a chain carries plain arrays, valid by construction and not
re-checked: the k x k transition rows and an emission array whose row i is
state i's pmf (shape (k, S)) or its mixture weights, locations and scales
(shape (k, 3, truncation)). The observations are checked once per chain,
before the first draw; a validated ``HmmParams`` is built only for a
retained sample.

The initial law is a fixed constant of the model; it is never resampled.
Labels are left free to switch; alignment happens post hoc in the metrics.
Chains are strictly sequential and deterministic under their seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .emissions import (SQRT_2PI, DiscreteEmission, GaussianMixtureEmission, component_axis,
                        gaussian_kernels, mixture_density)
from .errors import ConfigError, DataError, NumericalError, ZeroLikelihoodError
from .hmm import CONSTRUCTION_TOL, HmmParams, TransitionMatrix, simulate
from .priors import (DiscreteDpSpec, GaussianDpSpec, TruncatedDirichletSpec,
                     dp_mixture_arrays, dp_mixture_posterior, gamma_normalize,
                     sample_dp_discrete, sample_transition_row)
from .util import ValueEquality, as_generator, colsum


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length plus the prior bundle; mu is the fixed initial law
    (uniform when omitted)."""

    n_iter: int
    burn_in: int
    thin: int
    seed: int
    transition_prior: TruncatedDirichletSpec
    emission_prior: DiscreteDpSpec | GaussianDpSpec
    mu: np.ndarray | None = None

    def __post_init__(self):
        if self.thin < 1:
            raise ConfigError("thin must be at least 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ConfigError("need 0 <= burn_in < n_iter")
        if not isinstance(self.emission_prior, (DiscreteDpSpec, GaussianDpSpec)):
            raise ConfigError("the sampler needs a discrete or dpm_gaussian emission prior")
        mu = self.model_mu()
        if (mu.shape != (self.k,) or not abs(mu.sum() - 1.0) <= CONSTRUCTION_TOL
                or np.any(mu < self.transition_prior.q_floor - CONSTRUCTION_TOL)):
            raise ConfigError("mu must be a length-k law with every entry >= q_floor")

    @property
    def k(self) -> int:
        return self.transition_prior.k

    @property
    def discrete(self) -> bool:
        return isinstance(self.emission_prior, DiscreteDpSpec)

    def model_mu(self) -> np.ndarray:
        if self.mu is None:
            return np.full(self.k, 1.0 / self.k)
        return np.asarray(self.mu, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class PosteriorSample(ValueEquality):
    """One retained draw: parameters, hidden path, sweep number and chain."""

    params: HmmParams
    states: np.ndarray
    iteration: int
    chain_id: int

    def __post_init__(self):
        # locked but not copied: a path is as long as the data
        states = np.asarray(self.states, dtype=np.int64).view()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)


def ffbs_states(mu, rows, B, seed) -> np.ndarray:
    """Exact draw of the hidden path given the initial law, the transition
    rows and the per-step likelihoods ``B[t, i]``."""
    alpha, c = kernels.forward_filter(mu, rows, B)
    if np.any(c <= 0.0):
        raise ZeroLikelihoodError("cannot sample states: zero-likelihood observations")
    rng = as_generator(seed)
    states = kernels.ffbs(rows, alpha, rng.random(B.shape[0]))
    if states[0] < 0:
        raise NumericalError("backward sampling underflowed")
    return states


def transition_counts(states: np.ndarray, k: int) -> np.ndarray:
    """k x k matrix of observed one-step transitions in the path."""
    if states.size < 2:
        return np.zeros((k, k), dtype=np.int64)
    pairs = states[:-1] * k + states[1:]
    return np.bincount(pairs, minlength=k * k).reshape(k, k)


def update_transitions(counts: np.ndarray, spec: TruncatedDirichletSpec,
                       seed) -> np.ndarray:
    """k x k rows drawn independently from the floor-restricted Dirichlet
    with concentrations alpha + row counts."""
    rng = as_generator(seed)
    specs = [TruncatedDirichletSpec(spec.alpha + row, spec.q_floor) for row in counts]
    return np.stack([sample_transition_row(row_spec, rng).row for row_spec in specs])


def symbol_counts(states: np.ndarray, y: np.ndarray, k: int, support: int) -> np.ndarray:
    """Per-state symbol counts, shaped (k, support)."""
    return np.bincount(states * support + y, minlength=k * support).reshape(k, support)


def update_discrete_emissions(counts: np.ndarray, spec: DiscreteDpSpec,
                              seed) -> np.ndarray:
    """Per-state posterior pmfs, one row per row of ``counts``: draws from the
    DP with concentration alpha + n_i and base pmf proportional to
    alpha * base + counts_i, as the base gains one atom per observed symbol."""
    rng = as_generator(seed)
    base = np.zeros(counts.shape[1])
    base[:spec.base.size] = spec.base
    pmfs = np.empty(counts.shape)
    for i, row in enumerate(counts):
        shapes = spec.alpha * base + row
        pmfs[i] = gamma_normalize((spec.alpha + row.sum()) * (shapes / shapes.sum()), rng)[0]
    return pmfs


def _log_components(y, weights, locations, scales):
    """log(w_r N(y; z_r, sigma_r^2)) shaped (R,) + y.shape, component-major
    like ``gaussian_kernels``; a zero weight gives -inf."""
    z = (y - component_axis(locations, y.ndim)) / component_axis(scales, y.ndim)
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - np.log(SQRT_2PI * scales)
    return component_axis(logw, y.ndim) - 0.5 * z * z


def _shifted_exp(logs):
    """exp(logs) shifted by each column's maximum over the leading axis, so
    the largest entry of a column is 1; a column with no finite maximum gives
    NaN."""
    with np.errstate(invalid="ignore"):
        return np.exp(logs - logs.max(axis=0))


def _allocations(ys, weights, locations, scales, u):
    """Each observation's component given its uniform ``u``.

    The allocation probabilities are formed in the component-major (R, n)
    table of ``gaussian_kernels`` in this order: kernels times weights,
    divided by sqrt(2 pi) * scales, divided by the totals over the
    components. The totals follow the 8-entry rule (``util.colsum``), so
    they equal the point-major row sums ``sum(axis=1)`` bit for bit. A
    column whose total underflows to 0 is recomputed in log space, shifted by
    its maximum; the other columns keep their bits. Only the first R - 1
    rows are divided, and whole-row adds turn them in place into the running
    sums with the additions ``cumsum`` makes. The component is the count of
    those R - 1 running sums below u: they never decrease, so that is the
    count over all R capped at R - 1."""
    resp = gaussian_kernels(ys, locations, scales)
    resp *= weights[:, None]
    resp /= (SQRT_2PI * scales)[:, None]
    totals = colsum(resp, np.empty(ys.size))
    under = np.flatnonzero(totals <= 0.0)
    if under.size:
        resp[:, under] = _shifted_exp(_log_components(ys[under], weights, locations, scales))
        totals[under] = colsum(resp[:, under], np.empty(under.size))
        if not np.all(totals[under] > 0.0):
            raise ZeroLikelihoodError("an observation has zero density under every component")
    running = resp[:-1]
    running /= totals
    for r in range(1, running.shape[0]):
        running[r] += running[r - 1]
    return (u > running).sum(axis=0)


def update_mixture_emissions(groups: Sequence[np.ndarray], current: np.ndarray,
                             spec: GaussianDpSpec, seed) -> np.ndarray:
    """One block sweep per state: allocate each observation to a component
    (``_allocations``), then draw the sticks and atoms from their
    conditional given each component's occupancy, mean and summed squared
    deviation (``priors.dp_mixture_posterior``). ``current`` and the result
    are emission arrays of shape (k, 3, truncation); a state with no
    observations reads none of ``current`` and draws from the prior."""
    rng = as_generator(seed)
    depth = spec.truncation
    out = np.empty((len(groups), 3, depth))
    for i, ys in enumerate(groups):
        ys = np.asarray(ys, dtype=np.float64)
        alloc = (_allocations(ys, *current[i], rng.random(ys.size)) if ys.size
                 else np.zeros(0, dtype=np.int64))
        occup = np.bincount(alloc, minlength=depth)
        means = np.bincount(alloc, ys, minlength=depth) / np.maximum(occup, 1)
        sqdev = np.bincount(alloc, (ys - means[alloc]) ** 2, minlength=depth)
        out[i] = dp_mixture_posterior(spec, occup, means, sqdev, rng)
    return out


def _update_emissions(states, y, emissions, cfg: GibbsConfig, rng) -> np.ndarray:
    """Emission draws given the path; ``emissions`` is the current array,
    which the mixture block sweep starts its allocations from."""
    if cfg.discrete:
        support = max(cfg.emission_prior.truncation, int(np.max(y)) + 1)
        counts = symbol_counts(states, y, cfg.k, support)
        return update_discrete_emissions(counts, cfg.emission_prior, rng)
    groups = [y[states == i] for i in range(cfg.k)]
    return update_mixture_emissions(groups, emissions, cfg.emission_prior, rng)


def _mixture_emission_matrix(y, emissions) -> np.ndarray:
    """``B[t, i] = f_i(y_t)`` for mixture emission arrays. A row that is 0
    under every state is recomputed in log space, shifted by its maximum:
    the filter and the draw do not depend on a row's scale. A row that has
    no finite maximum even so stays 0."""
    B = np.stack([mixture_density(y, *e) for e in emissions], axis=1)
    under = np.flatnonzero(np.einsum("ti->t", B) <= 0.0)
    if under.size:
        logs = np.stack([np.logaddexp.reduce(_log_components(y[under], *e), axis=0)
                         for e in emissions])
        B[under] = np.nan_to_num(_shifted_exp(logs), nan=0.0).T
    return B


def gibbs_sweep(rows: np.ndarray, emissions: np.ndarray, y, cfg: GibbsConfig, rng):
    """One full sweep on observations as ``run_chain`` checks them; returns
    the new transition rows, the new emission array and the sampled path."""
    rng = as_generator(rng)
    B = (np.take(np.ascontiguousarray(emissions.T), y, axis=0) if cfg.discrete
         else _mixture_emission_matrix(y, emissions))
    states = ffbs_states(cfg.model_mu(), rows, B, rng)
    rows = update_transitions(transition_counts(states, cfg.k),
                              cfg.transition_prior, rng)
    return rows, _update_emissions(states, y, emissions, cfg, rng), states


def _prior_emissions(cfg: GibbsConfig, rng) -> np.ndarray:
    """An emission array of k independent prior draws."""
    prior = cfg.emission_prior
    if cfg.discrete:
        return np.stack([sample_dp_discrete(prior, rng)[0] for _ in range(cfg.k)])
    return np.stack([dp_mixture_arrays(prior, rng) for _ in range(cfg.k)])


def init_from_prior(cfg: GibbsConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """Transition rows and an emission array drawn from the prior bundle."""
    rng = as_generator(seed)
    rows = np.stack([sample_transition_row(cfg.transition_prior, rng).row
                     for _ in range(cfg.k)])
    return rows, _prior_emissions(cfg, rng)


def to_params(rows: np.ndarray, emissions: np.ndarray, cfg: GibbsConfig) -> HmmParams:
    """The validated parameter object of a chain's arrays."""
    make = DiscreteEmission if cfg.discrete else lambda e: GaussianMixtureEmission(*e)
    return HmmParams(TransitionMatrix(rows, cfg.transition_prior.q_floor),
                     cfg.model_mu(), tuple(map(make, emissions)))


def _observations(y, cfg: GibbsConfig) -> np.ndarray:
    """The data as the sweeps read them: a nonempty sequence of finite
    numbers, and nonnegative integers within the int64 range under a
    discrete prior."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0 or y.dtype.kind not in "iuf" or not np.all(np.isfinite(y)):
        raise DataError("observations must form a nonempty sequence of finite numbers")
    if not cfg.discrete:
        return y
    if (np.any(y < 0) or np.any(y != np.floor(y))
            or (y.dtype.kind != "i" and np.any(y >= 2.0 ** 63))):
        raise DataError("a discrete emission prior needs nonnegative integer observations"
                        " within the int64 range")
    return y.astype(np.int64, copy=False)


def run_chain(y, cfg: GibbsConfig, chain_id: int = 0) -> list[PosteriorSample]:
    """Run one chain and return the thinned post-burn-in samples.

    It starts from random state labels and parameter draws given them,
    which keeps every observed symbol at positive mass, so the first
    filtering pass cannot hit zero likelihood. Step failures surface with
    their iteration number attached. Identical configs produce identical
    sample streams.
    """
    y = _observations(y, cfg)
    children = np.random.SeedSequence(entropy=cfg.seed).spawn(chain_id + 1)
    rng = np.random.default_rng(children[chain_id])
    states = rng.integers(0, cfg.k, size=y.size)
    rows = update_transitions(transition_counts(states, cfg.k),
                              cfg.transition_prior, rng)
    start = None if cfg.discrete else _prior_emissions(cfg, rng)
    emissions = _update_emissions(states, y, start, cfg, rng)
    samples: list[PosteriorSample] = []
    for it in range(1, cfg.n_iter + 1):
        try:
            rows, emissions, states = gibbs_sweep(rows, emissions, y, cfg, rng)
        except NumericalError as exc:
            raise NumericalError(f"chain {chain_id}, iteration {it}: {exc}") from exc
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            samples.append(PosteriorSample(to_params(rows, emissions, cfg), states, it, chain_id))
    return samples


# ---------------------------------------------------------------------------
# joint-distribution (successive-conditional) sampler check


@dataclass(frozen=True)
class GewekeReport:
    stats: tuple[str, ...]
    forward_mean: np.ndarray
    forward_se: np.ndarray
    chain_mean: np.ndarray
    chain_se: np.ndarray
    z_scores: np.ndarray

    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))


def _geweke_names(cfg: GibbsConfig) -> tuple[str, ...]:
    """Per state, the mass of symbol 0 (discrete) or the mixture mean."""
    per_state = ("f0(0)", "f1(0)") if cfg.discrete else ("mean0", "mean1")
    return ("Q[0,0]", "Q[1,1]", *per_state, "frac_state0", "mean_y")


def _geweke_stats(params: HmmParams, states: np.ndarray, y: np.ndarray) -> np.ndarray:
    e0, e1 = params.emissions
    per_state = ((e0.pmf[0], e1.pmf[0]) if params.discrete
                 else (e0.weights @ e0.locations, e1.weights @ e1.locations))
    return np.array([
        params.trans.rows[0, 0],
        params.trans.rows[1, 1],
        *per_state,
        float(np.mean(states == 0)),
        float(np.mean(y)),
    ])


def _batch_se(draws: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the column means of an autocorrelated
    sample matrix, over 50 batches."""
    n_batches = 50
    usable = (draws.shape[0] // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1, draws.shape[1]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def geweke_check(cfg: GibbsConfig, n_obs: int, n_forward: int, n_chain: int,
                 seed) -> GewekeReport:
    """Compare prior-simulation moments with the sampler's joint chain.

    Forward side: independent (theta, path, data) draws straight from the
    prior and the model. Chain side: alternate a fresh data simulation given
    the current parameters with one full Gibbs sweep on that data; at
    stationarity both sides target the same joint law, so every summary
    statistic must agree up to Monte Carlo error. Works for both emission
    priors, discrete and ``dpm_gaussian``.
    """
    if cfg.k != 2:
        raise ValueError("the joint check is wired for two-state models")
    rng = as_generator(seed)
    names = _geweke_names(cfg)

    fwd = np.empty((n_forward, len(names)))
    for r in range(n_forward):
        theta = to_params(*init_from_prior(cfg, rng), cfg)
        states, y = simulate(theta, n_obs, rng)
        fwd[r] = _geweke_stats(theta, states, y)

    chain = np.empty((n_chain, len(names)))
    rows, emissions = init_from_prior(cfg, rng)
    for r in range(n_chain):
        theta = to_params(rows, emissions, cfg)
        states, y = simulate(theta, n_obs, rng)
        chain[r] = _geweke_stats(theta, states, y)
        rows, emissions, _ = gibbs_sweep(rows, emissions, y, cfg, rng)

    f_mean = fwd.mean(axis=0)
    f_se = fwd.std(axis=0, ddof=1) / np.sqrt(n_forward)
    c_mean = chain.mean(axis=0)
    c_se = _batch_se(chain)
    z = (f_mean - c_mean) / np.sqrt(f_se ** 2 + c_se ** 2)
    return GewekeReport(names, f_mean, f_se, c_mean, c_se, z)
