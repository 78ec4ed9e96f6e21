"""Distances and bounds on HMM parameters.

The central object is the L1 distance between the stationary laws of
``block_len`` consecutive observations under two parameters. It is a
pseudometric (different parameters can share every block law; relabeled
parameters always do), computed exactly for discrete emissions by block
enumeration and otherwise by importance sampling against the equal mixture
of the two block laws.

``parameter_metrics`` is the one dispatch from metric names to these.

Label switching is resolved by exhaustive search over state permutations,
scoring each by the relabeled transition gap plus the worst per-state
emission L1 distance. The KL-rate functions give the exact per-observation
Kullback-Leibler divergence between two chains (discrete, by enumeration)
and its closed-form upper bound in terms of the initial-law gap, the
transition gap and the emission log-ratio integral, each scaled by the
entrywise transition floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .emissions import (DEFAULT_MC_SAMPLES, DiscreteEmission, l1_distance, mc_half,
                        mixture_l1_estimate, pad_pmfs)
from .errors import ConfigError, DataError
from .hmm import HmmParams, simulate, stationary_distribution
from .util import Estimate, as_generator, readonly

BLOCK_BUDGET = 10_000_000
ALIGN_MAX_K = 8


def matrix_gap(A, B) -> float:
    """Largest entrywise absolute difference."""
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B))))


# ---------------------------------------------------------------------------
# block marginal laws


def _common_support(theta: HmmParams, theta_ref: HmmParams, block_len: int) -> int:
    """Symbol support of two discrete-emission parameters, with its blocks
    checked against the enumeration budget."""
    emissions = theta.emissions + theta_ref.emissions
    if not all(isinstance(e, DiscreteEmission) for e in emissions):
        raise DataError("exact block enumeration needs discrete emissions")
    support = max(e.support_size for e in emissions)
    if support ** block_len > BLOCK_BUDGET:
        raise ConfigError(f"{support}**{block_len} blocks exceed the enumeration "
                          f"budget of {BLOCK_BUDGET}")
    return support


def _block_densities(params: HmmParams, block_len: int, support: int,
                     mu: np.ndarray) -> np.ndarray:
    """Densities of every symbol block, indexed big-endian (first symbol is
    the most significant digit). Shape (support ** block_len,)."""
    F = pad_pmfs(*(e.pmf for e in params.emissions), support=support)
    Q = params.trans.rows
    A = (F * mu[:, None]).T                    # (support, k)
    for _ in range(1, block_len):
        AQ = A @ Q
        A = (AQ[:, None, :] * F.T[None, :, :]).reshape(-1, Q.shape[0])
    return A.sum(axis=1)


def _stationary_block_law(params: HmmParams, block_len: int, support: int) -> np.ndarray:
    return _block_densities(params, block_len, support,
                            stationary_distribution(params.trans))


def _exact_block_laws(theta: HmmParams, theta_ref: HmmParams, block_len: int):
    """Both stationary block laws on the common support, and that support.

    The reference's law is kept, read-only, per (block_len, support) in its
    ``__dict__``, as ``hmm._walk_table`` keeps its table, so one truth scored
    against many samples is solved once; equality, hashing and payloads
    ignore it. The candidate's law is not kept: a list of samples would
    otherwise hold one law per sample."""
    support = _common_support(theta, theta_ref, block_len)
    laws = theta_ref.__dict__.setdefault("_block_laws", {})
    q = laws.get((block_len, support))
    if q is None:
        q = _stationary_block_law(theta_ref, block_len, support)
        q.flags.writeable = False
        laws[(block_len, support)] = q
    return _stationary_block_law(theta, block_len, support), q, support


def _simulated_blocks(theta: HmmParams, theta_ref: HmmParams, block_len: int,
                      n_samples: int, seed):
    """(stationary-started parameter, its blocks) for theta, which draws
    ``n_samples // 2`` blocks first, then for theta_ref, which draws the rest;
    one ``simulate`` call per block."""
    half = mc_half(n_samples)
    rng = as_generator(seed)
    out = []
    for source, count in ((theta, half), (theta_ref, n_samples - half)):
        start = source.with_mu(stationary_distribution(source.trans))
        blocks = np.empty((count, block_len))
        for r in range(count):
            blocks[r] = simulate(start, block_len, rng)[1]
        out.append((start, blocks))
    return out


def block_l1_distance(theta: HmmParams, theta_ref: HmmParams, block_len: int = 3,
                      mode: str = "exact", n_samples: int = DEFAULT_MC_SAMPLES,
                      seed=None) -> Estimate:
    """L1 distance between the stationary block laws of two parameters.

    Exact mode enumerates all support**block_len symbol blocks (discrete
    emissions, budget-capped). Monte Carlo mode simulates half its blocks
    from each parameter and importance-weights against their equal mixture,
    reporting a standard error; it works for continuous emissions too.
    """
    if block_len < 1:
        raise ValueError("block_len must be at least 1")
    if mode == "exact":
        p, q, _ = _exact_block_laws(theta, theta_ref, block_len)
        return Estimate(float(np.abs(p - q).sum()), 0.0)
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    (start, own), (start_ref, ref) = _simulated_blocks(theta, theta_ref, block_len,
                                                       n_samples, seed)
    blocks = np.vstack([own, ref])
    return mixture_l1_estimate(_batch_block_density(start, blocks),
                               _batch_block_density(start_ref, blocks), len(own))


def _batch_block_density(params: HmmParams, blocks: np.ndarray) -> np.ndarray:
    """Forward-filter a batch of blocks at once; returns their densities."""
    m, l = blocks.shape
    k = params.k
    dens = np.ones(m)
    B = np.empty((m, k))
    for i, e in enumerate(params.emissions):
        B[:, i] = e.density(blocks[:, 0])
    a = params.mu * B
    c = a.sum(axis=1)
    dens *= c
    a /= np.where(c > 0.0, c, 1.0)[:, None]
    for t in range(1, l):
        for i, e in enumerate(params.emissions):
            B[:, i] = e.density(blocks[:, t])
        a = (a @ params.trans.rows) * B
        c = a.sum(axis=1)
        dens *= c
        a /= np.where(c > 0.0, c, 1.0)[:, None]
    return dens


# ---------------------------------------------------------------------------
# label alignment


@dataclass(frozen=True)
class AlignmentResult:
    """Best relabeling of ``theta`` against a reference: the permutation, the
    relabeled transition gap, and the per-state emission L1 distances."""

    sigma: tuple[int, ...]
    q_distance: float
    emission_distances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "emission_distances",
                           readonly(self.emission_distances))
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError("sigma must be a permutation")

    @property
    def score(self) -> float:
        return self.q_distance + float(self.emission_distances.max())


def align_labels(theta: HmmParams, theta_ref: HmmParams,
                 n_samples: int | None = None, seed=None) -> AlignmentResult:
    """Exhaustive search over state permutations for the one minimizing
    relabeled-transition gap plus worst emission L1 distance.

    Ties keep the lexicographically smallest permutation (strict improvement
    required to switch). Factorial search, capped at k = 8.
    """
    k = theta.k
    if k != theta_ref.k:
        raise DataError("parameters disagree on the number of states")
    if k > ALIGN_MAX_K:
        raise ConfigError(f"alignment search is capped at k = {ALIGN_MAX_K}")
    rng = as_generator(seed)
    sigmas = list(permutations(range(k)))
    P = np.array(sigmas)
    # every relabeled transition matrix from one gather, (k!, k, k)
    moved = theta.trans.rows[P[:, :, None], P[:, None, :]]
    q_gaps = np.abs(moved - theta_ref.trans.rows).max(axis=(1, 2)).tolist()
    best = None
    for sigma, qd in zip(sigmas, q_gaps):
        dists = [l1_distance(theta.emissions[s], e, n_samples=n_samples, seed=rng).value
                 for s, e in zip(sigma, theta_ref.emissions)]
        score = qd + max(dists)
        if best is None or score < best[0]:
            best = (score, sigma, qd, dists)
    _, sigma, qd, dists = best
    return AlignmentResult(sigma, qd, np.array(dists))


# ---------------------------------------------------------------------------
# Kullback-Leibler rate


@dataclass(frozen=True)
class KlRateBound:
    """Three-term upper bound on the per-observation KL divergence."""

    initial_term: float
    transition_term: float
    emission_term: float

    @property
    def total(self) -> float:
        return self.initial_term + self.transition_term + self.emission_term


def emission_log_ratio_term(emissions, emissions_ref) -> float:
    """max over states i of sum_y f_ref_i(y) * max_j log(f_ref_j(y) / f_j(y)).

    +inf as soon as some f_j vanishes where f_ref_j does not (on the
    reference support). Discrete emissions only, of any lengths: each pmf
    is zero past its last index.
    """
    F, G = np.split(pad_pmfs(*(e.pmf for e in (*emissions, *emissions_ref))),
                    [len(emissions)])
    safe_f = np.where(F > 0.0, F, 1.0)
    safe_g = np.where(G > 0.0, G, 1.0)
    per_state_log = np.where(G > 0.0, np.log(safe_g) - np.log(safe_f), -np.inf)
    per_state_log = np.where((G > 0.0) & (F == 0.0), np.inf, per_state_log)
    worst = per_state_log.max(axis=0)             # per symbol; -inf off support
    best = -np.inf
    for i in range(G.shape[0]):
        sel = G[i] > 0.0
        if np.any(np.isposinf(worst[sel])):
            return float("inf")
        best = max(best, float(np.sum(G[i, sel] * worst[sel])))
    return best


def kl_rate_bound(theta: HmmParams, theta_ref: HmmParams, n: int) -> KlRateBound:
    """Closed-form bound on (1/n) KL(reference chain, candidate chain).

    The reference chain starts from its stationary law; the candidate from
    its own initial law. Both transition matrices must share a positive
    floor, which scales the initial and transition gaps.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = theta.q_floor
    if q != theta_ref.q_floor:
        raise DataError("the bound requires one shared transition floor")
    if q <= 0.0:
        raise DataError("the bound requires a positive transition floor")
    mu_ref = stationary_distribution(theta_ref.trans)
    init = float(np.max(np.abs(theta.mu - mu_ref))) / (n * q)
    trans = (n - 1) / (n * q) * matrix_gap(theta.trans.rows, theta_ref.trans.rows)
    emis = emission_log_ratio_term(theta.emissions, theta_ref.emissions)
    return KlRateBound(init, trans, emis)


def kl_rate_exact(theta: HmmParams, theta_ref: HmmParams, n: int) -> float:
    """Exact per-observation KL divergence between the stationary reference
    chain and the candidate chain, by summation over all observation blocks.

    Discrete emissions only; support**n is budget-capped. +inf when the
    candidate assigns zero mass to a positive-reference block.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    support = _common_support(theta, theta_ref, n)
    mu_ref = stationary_distribution(theta_ref.trans)
    p_ref = _block_densities(theta_ref, n, support, mu_ref)
    p = _block_densities(theta, n, support, np.asarray(theta.mu))
    mask = p_ref > 0.0
    if np.any(mask & (p <= 0.0)):
        return float("inf")
    val = float(np.sum(p_ref[mask] * (np.log(p_ref[mask]) - np.log(p[mask]))))
    return val / n


# ---------------------------------------------------------------------------
# weak-topology functionals


def _h_on_blocks(h_id: str, block_len: int):
    """The test function ``h_id`` as (t, h): the block position it reads and
    a map from an array of values at that position to the function's values.
    An unknown id, a non-numeric constant or a t not below ``block_len``
    raises ``ConfigError``."""
    if h_id == "const":
        return 0, lambda col: np.ones(col.shape[0])
    parts = h_id.split("_")
    if (len(parts) == 3 and parts[0] in ("sigmoid", "gauss", "ind")
            and parts[1].isdecimal() and int(parts[1]) < block_len):
        t = int(parts[1])
        try:
            c = float(parts[2])
        except ValueError:
            raise ConfigError(f"test-function id {h_id!r} has a non-numeric constant") from None
        if parts[0] == "sigmoid":
            return t, lambda col: 1.0 / (1.0 + np.exp(-(col - c)))
        if parts[0] == "gauss":
            return t, lambda col: np.exp(-0.5 * (col - c) ** 2)
        return t, lambda col: (col == c).astype(np.float64)
    raise ConfigError(f"unknown test-function id {h_id!r}")


def weak_functional_gap(theta: HmmParams, theta_ref: HmmParams, block_len: int,
                        h_id: str, mode: str = "exact",
                        n_samples: int = DEFAULT_MC_SAMPLES, seed=None) -> Estimate:
    """|E_theta h - E_ref h| for one dictionary test function on block laws.

    Exact sums in the discrete case, with h applied to the symbols at its
    block position; Monte Carlo with a standard error otherwise (each
    expectation estimated from its own simulated blocks).
    """
    t, h = _h_on_blocks(h_id, block_len)
    if mode == "exact":
        p, q, support = _exact_block_laws(theta, theta_ref, block_len)
        symbols = np.arange(support ** block_len) // support ** (block_len - 1 - t) % support
        hv = h(symbols)
        return Estimate(float(abs(hv @ p - hv @ q)), 0.0)
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    hvs = [h(blocks[:, t])
           for _, blocks in _simulated_blocks(theta, theta_ref, block_len, n_samples, seed)]
    ses = [hv.std(ddof=1) / np.sqrt(hv.size) for hv in hvs]
    return Estimate(float(abs(hvs[0].mean() - hvs[1].mean())),
                    float(np.sqrt(ses[0] ** 2 + ses[1] ** 2)))


# ---------------------------------------------------------------------------
# one dispatch from metric names to parameter metrics


CONSISTENCY_METRICS = ("block_l1", "aligned_q", "aligned_emission")
# scored by the chain experiments alone: they need the observations a chain was fitted to
SMOOTHING_METRICS = ("smoothing_aligned", "smoothing_unaligned")


def check_metric_names(names, block_len: int) -> None:
    """Raise ``ConfigError`` unless ``names`` are distinct metric names at this
    block length: ``block_l1``, ``aligned_q``, ``aligned_emission``,
    ``weak_gap:<h_id>`` with a test-function id of ``_h_on_blocks``, or one
    of ``SMOOTHING_METRICS``."""
    if len(set(names)) != len(names):
        raise ConfigError(f"metric names must be unique: {list(names)}")
    for name in names:
        if name.startswith("weak_gap:"):
            _h_on_blocks(name.split(":", 1)[1], block_len)
        elif name not in CONSISTENCY_METRICS + SMOOTHING_METRICS:
            raise ConfigError(f"unknown metric {name!r}")


def parameter_metrics(theta: HmmParams, truth: HmmParams, names, block_len: int,
                      align: AlignmentResult | None = None) -> list[Estimate]:
    """One estimate per name, in order: ``block_l1``, ``aligned_q``,
    ``aligned_emission`` or ``weak_gap:<h_id>``, all in exact mode, so both
    parameters need discrete emissions (``DataError`` otherwise). Aligns at
    most once, not at all given ``align``. Names that ``check_metric_names``
    rejects, and the ``SMOOTHING_METRICS``, raise ``ConfigError``."""
    check_metric_names(names, block_len)
    if set(names) & set(SMOOTHING_METRICS):
        raise ConfigError(f"{list(SMOOTHING_METRICS)} need the observations a chain was "
                          "fitted to; only a chain experiment scores them")
    if names and not (theta.discrete and truth.discrete):
        raise DataError("exact metrics need discrete emissions")
    out = []
    for name in names:
        if name == "block_l1":
            out.append(block_l1_distance(theta, truth, block_len))
        elif name in ("aligned_q", "aligned_emission"):
            if align is None:
                align = align_labels(theta, truth)
            out.append(Estimate(align.q_distance if name == "aligned_q"
                                else float(align.emission_distances.max()), 0.0))
        else:
            out.append(weak_functional_gap(theta, truth, block_len,
                                           name.split(":", 1)[1]))
    return out
