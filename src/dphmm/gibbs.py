"""Gibbs posterior sampler.

One sweep alternates an exact conditional draw of the hidden path
(forward-filtering, backward-sampling), a truncated-Dirichlet update of
each transition row from its counts, and a conjugate emission update:
Gamma-normalized Dirichlet-process draws in the discrete case, one
truncated stick-breaking block sweep (allocations, sticks, conjugate
normal-inverse-gamma atoms) in the mixture case.

The initial law is a fixed constant of the model; it is never resampled.
Labels are left free to switch; alignment happens post hoc in the metrics.
Chains are strictly sequential and deterministic under their seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .emissions import DiscreteEmission, GaussianMixtureEmission, EmissionModel
from .errors import ConfigError, NumericalError, ZeroLikelihoodError
from .hmm import CONSTRUCTION_TOL, HmmParams, TransitionMatrix, emission_matrix, simulate
from .priors import (DiscreteDpSpec, GaussianDpSpec, TruncatedDirichletSpec,
                     sample_dp_discrete, sample_dp_mixture,
                     sample_transition_row, sticks_to_weights)
from .util import ValueEquality, as_generator

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length plus the prior bundle; mu is the fixed initial law
    (uniform when omitted)."""

    n_iter: int
    burn_in: int
    thin: int
    seed: int
    transition_prior: TruncatedDirichletSpec
    emission_prior: DiscreteDpSpec | GaussianDpSpec | None
    mu: np.ndarray | None = None
    fixed_emissions: tuple[EmissionModel, ...] | None = None

    def __post_init__(self):
        if self.thin < 1:
            raise ConfigError("thin must be at least 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ConfigError("need 0 <= burn_in < n_iter")
        if self.emission_prior is None and self.fixed_emissions is None:
            raise ConfigError("provide an emission prior or fixed emissions")
        mu = self.model_mu()
        if (mu.shape != (self.k,) or not abs(mu.sum() - 1.0) <= CONSTRUCTION_TOL
                or np.any(mu < self.transition_prior.q_floor - CONSTRUCTION_TOL)):
            raise ConfigError("mu must be a length-k law with every entry >= q_floor")

    @property
    def k(self) -> int:
        return self.transition_prior.k

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


def ffbs_states(params: HmmParams, y, seed) -> np.ndarray:
    """Exact draw of the hidden path given parameters and observations."""
    y = np.asarray(y)
    B = emission_matrix(params, y)
    alpha, c = kernels.forward_filter(params.mu, params.trans.rows, B)
    if np.any(c <= 0.0):
        raise ZeroLikelihoodError("cannot sample states: zero-likelihood observations")
    rng = as_generator(seed)
    states = kernels.ffbs(params.trans.rows, alpha, rng.random(y.size))
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
                       seed) -> TransitionMatrix:
    """Rows drawn independently from the floor-restricted Dirichlet with
    concentrations alpha + row counts."""
    rng = as_generator(seed)
    rows = np.empty((spec.k, spec.k))
    for i in range(spec.k):
        row_spec = TruncatedDirichletSpec(spec.alpha + counts[i], spec.q_floor)
        rows[i] = sample_transition_row(row_spec, rng).row
    return TransitionMatrix(rows, spec.q_floor)


def symbol_counts(states: np.ndarray, y: np.ndarray, k: int, support: int) -> np.ndarray:
    """Per-state symbol counts, shaped (k, support)."""
    counts = np.zeros((k, support), dtype=np.int64)
    flat = states * support + y
    binned = np.bincount(flat, minlength=k * support)
    return counts + binned.reshape(k, support)


def update_discrete_emissions(counts: np.ndarray, spec: DiscreteDpSpec,
                              seed) -> tuple[DiscreteEmission, ...]:
    """Per-state posterior draws: the DP base gains one atom per observed
    symbol, so shapes become alpha * base + counts under the Gamma
    representation."""
    rng = as_generator(seed)
    support = counts.shape[1]
    base = spec.base
    if support > base.size:
        base = np.concatenate([base, np.zeros(support - base.size)])
    out = []
    for i in range(counts.shape[0]):
        shapes = spec.alpha * base + counts[i]
        post = DiscreteDpSpec(spec.alpha + counts[i].sum(),
                              shapes / shapes.sum())
        out.append(sample_dp_discrete(post, rng))
    return tuple(out)


def _conjugate_atom(ys: np.ndarray, base, rng):
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


def update_mixture_emissions(groups: Sequence[np.ndarray],
                             current: Sequence[GaussianMixtureEmission],
                             spec: GaussianDpSpec, seed) -> tuple[GaussianMixtureEmission, ...]:
    """One block sweep per state: allocate each observation to a component,
    refresh the stick weights from the allocation counts, then redraw every
    atom from its conjugate posterior (the base itself for empty ones)."""
    rng = as_generator(seed)
    depth = spec.truncation
    out = []
    for ys, mix in zip(groups, current):
        ys = np.asarray(ys, dtype=np.float64)
        if ys.size == 0:
            out.append(sample_dp_mixture(spec, rng))
            continue
        z = (ys[:, None] - mix.locations) / mix.scales
        resp = mix.weights * np.exp(-0.5 * z * z) / (_SQRT_2PI * mix.scales)
        totals = resp.sum(axis=1, keepdims=True)
        if np.any(totals <= 0.0):
            raise ZeroLikelihoodError("an observation has zero density under every component")
        cum = np.cumsum(resp / totals, axis=1)
        u = rng.random(ys.size)
        alloc = np.minimum((u[:, None] > cum).sum(axis=1), depth - 1)
        occup = np.bincount(alloc, minlength=depth)

        if depth == 1:
            weights = np.ones(1)
        else:
            tail = occup[::-1].cumsum()[::-1]
            weights = sticks_to_weights(rng.beta(1.0 + occup[:-1], spec.alpha + tail[1:]))

        locs = np.empty(depth)
        scales = np.empty(depth)
        for r in range(depth):
            locs[r], scales[r] = _conjugate_atom(ys[alloc == r], spec.base, rng)
        out.append(GaussianMixtureEmission(weights, locs, scales))
    return tuple(out)


def _update_emissions(states, y, emissions, cfg: GibbsConfig, rng):
    """Emission draws given the path; ``emissions`` are the current ones,
    which the mixture block sweep starts its allocations from."""
    if cfg.fixed_emissions is not None:
        return cfg.fixed_emissions
    if isinstance(cfg.emission_prior, DiscreteDpSpec):
        support = max(cfg.emission_prior.truncation, int(np.max(y)) + 1)
        counts = symbol_counts(states, y, cfg.k, support)
        return update_discrete_emissions(counts, cfg.emission_prior, rng)
    groups = [y[states == i] for i in range(cfg.k)]
    return update_mixture_emissions(groups, emissions, cfg.emission_prior, rng)


def gibbs_sweep(params: HmmParams, y, cfg: GibbsConfig, rng):
    """One full sweep; returns the new parameters and the sampled path."""
    rng = as_generator(rng)
    states = ffbs_states(params, y, rng)
    trans = update_transitions(transition_counts(states, cfg.k),
                               cfg.transition_prior, rng)
    emissions = _update_emissions(states, y, params.emissions, cfg, rng)
    return HmmParams(trans, params.mu, emissions), states


def init_from_prior(cfg: GibbsConfig, seed) -> HmmParams:
    """A draw of the full parameter from the prior bundle."""
    rng = as_generator(seed)
    rows = np.stack([sample_transition_row(cfg.transition_prior, rng).row
                     for _ in range(cfg.k)])
    trans = TransitionMatrix(rows, cfg.transition_prior.q_floor)
    if cfg.fixed_emissions is not None:
        emissions = cfg.fixed_emissions
    elif isinstance(cfg.emission_prior, DiscreteDpSpec):
        emissions = tuple(sample_dp_discrete(cfg.emission_prior, rng)
                          for _ in range(cfg.k))
    else:
        emissions = tuple(sample_dp_mixture(cfg.emission_prior, rng)
                          for _ in range(cfg.k))
    return HmmParams(trans, cfg.model_mu(), emissions)


def _init_from_states(y, cfg: GibbsConfig, rng) -> HmmParams:
    """Data-driven start: random state labels, then parameter draws from the
    conditionals given them. Keeps every observed symbol at positive mass,
    so the first filtering pass cannot hit zero likelihood."""
    rng = as_generator(rng)
    states = rng.integers(0, cfg.k, size=y.size)
    trans = update_transitions(transition_counts(states, cfg.k),
                               cfg.transition_prior, rng)
    start = None
    if cfg.fixed_emissions is None and isinstance(cfg.emission_prior, GaussianDpSpec):
        start = tuple(sample_dp_mixture(cfg.emission_prior, rng) for _ in range(cfg.k))
    emissions = _update_emissions(states, y, start, cfg, rng)
    return HmmParams(trans, cfg.model_mu(), emissions)


def run_chain(y, cfg: GibbsConfig, chain_id: int = 0) -> list[PosteriorSample]:
    """Run one chain and return the thinned post-burn-in samples.

    Step failures surface with their iteration number attached. Identical
    configs produce identical sample streams.
    """
    y = np.asarray(y)
    children = np.random.SeedSequence(entropy=cfg.seed).spawn(chain_id + 1)
    rng = np.random.default_rng(children[chain_id])
    params = _init_from_states(y, cfg, rng)
    samples: list[PosteriorSample] = []
    for it in range(1, cfg.n_iter + 1):
        try:
            params, states = gibbs_sweep(params, y, cfg, rng)
        except NumericalError as exc:
            raise NumericalError(f"chain {chain_id}, iteration {it}: {exc}") from exc
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            samples.append(PosteriorSample(params, states, it, chain_id))
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


_GEWEKE_STATS = ("Q[0,0]", "Q[1,1]", "f0(0)", "f1(0)", "frac_state0", "mean_y")


def _geweke_stats(params: HmmParams, states: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array([
        params.trans.rows[0, 0],
        params.trans.rows[1, 1],
        params.emissions[0].pmf[0],
        params.emissions[1].pmf[0],
        float(np.mean(states == 0)),
        float(np.mean(y)),
    ])


def _batch_se(draws: np.ndarray, n_batches: int = 50) -> np.ndarray:
    """Batch-means standard error of the column means of an autocorrelated
    sample matrix."""
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
    statistic must agree up to Monte Carlo error.
    """
    if cfg.k != 2 or not isinstance(cfg.emission_prior, DiscreteDpSpec):
        raise ValueError("the joint check is wired for the discrete two-state model")
    rng = as_generator(seed)
    mu = cfg.model_mu()

    fwd = np.empty((n_forward, len(_GEWEKE_STATS)))
    for r in range(n_forward):
        theta = init_from_prior(cfg, rng)
        states, y = simulate(theta, n_obs, rng)
        fwd[r] = _geweke_stats(theta, states, y)

    chain = np.empty((n_chain, len(_GEWEKE_STATS)))
    theta = init_from_prior(cfg, rng)
    for r in range(n_chain):
        states, y = simulate(theta, n_obs, rng)
        chain[r] = _geweke_stats(theta, states, y)
        theta, _ = gibbs_sweep(theta, y, cfg, rng)

    f_mean = fwd.mean(axis=0)
    f_se = fwd.std(axis=0, ddof=1) / np.sqrt(n_forward)
    c_mean = chain.mean(axis=0)
    c_se = _batch_se(chain)
    z = (f_mean - c_mean) / np.sqrt(f_se ** 2 + c_se ** 2)
    return GewekeReport(_GEWEKE_STATS, f_mean, f_se, c_mean, c_se, z)
