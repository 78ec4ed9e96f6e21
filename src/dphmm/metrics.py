"""Distances and bounds on HMM parameters.

The central object is the L1 distance between the stationary laws of
``block_len`` consecutive observations under two parameters. It is a
pseudometric (different parameters can share every block law; relabeled
parameters always do), computed exactly for discrete emissions by block
enumeration and otherwise by importance sampling against the equal mixture
of the two block laws.

The weak metric is ``block_mmd``, the maximum mean discrepancy between the
same block laws under a Gaussian product kernel of width ``MMD_SCALE``. It
metrizes weak convergence of laws on R^l and is exact for both emission
families, by a forward recursion on the product chain of the two
parameters.

``parameter_metrics`` is the one dispatch from metric names to these.

Label switching is resolved by exhaustive search over state permutations,
scoring each by the relabeled transition gap plus the worst per-state
emission L1 distance, which is deterministic for both emission families.
The KL-rate functions give the exact per-observation Kullback-Leibler
divergence between two chains (discrete, by enumeration) and its
closed-form upper bound in terms of the initial-law gap, the transition
gap and the emission log-ratio integral, each scaled by the entrywise
transition floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .emissions import DiscreteEmission, _atoms, l1_distance, pad_pmfs
from .errors import ConfigError, DataError
from .hmm import HmmParams, simulate, stationary_distribution
from .util import Estimate, as_generator, readonly

BLOCK_BUDGET = 10_000_000
ALIGN_MAX_K = 8
DEFAULT_MC_SAMPLES = 200_000
MIN_MC_SAMPLES = 4
# the width s of block_mmd's kernel exp(-(y - y')^2 / (2 s^2)) on each block position
MMD_SCALE = 1.0


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


def mixture_l1_estimate(p: np.ndarray, q: np.ndarray, half: int) -> Estimate:
    """Importance-sampled L1 distance between two densities against their
    equal mixture, from their values ``p`` and ``q`` at points of which the
    first ``half`` were drawn from the first law and the rest from the second."""
    mix = 0.5 * (p + q)
    h = np.abs(p - q) / mix
    est = 0.5 * h[:half].mean() + 0.5 * h[half:].mean()
    var = 0.25 * (h[:half].var() / half + h[half:].var() / (p.size - half))
    return Estimate(float(est), float(np.sqrt(var)))


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
    if n_samples < MIN_MC_SAMPLES:     # two draws per side for a mean and a standard error
        raise ValueError(f"Monte Carlo mode needs n_samples >= {MIN_MC_SAMPLES} "
                         f"(2 draws per side), got {n_samples}")
    # the first half of the blocks from theta, the rest from theta_ref, one simulate call each
    half, rng = n_samples // 2, as_generator(seed)
    starts, blocks = [], np.empty((n_samples, block_len))
    for source, rows in ((theta, range(half)), (theta_ref, range(half, n_samples))):
        starts.append(source.with_mu(stationary_distribution(source.trans)))
        for r in rows:
            blocks[r] = simulate(starts[-1], block_len, rng)[1]
    return mixture_l1_estimate(*(_batch_block_density(start, blocks) for start in starts), half)


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


def _kernel_atoms(e):
    """(weights, locations, scales) of an emission's atoms: a pmf's are point
    masses, of scale 0, at its symbols."""
    if e.discrete:
        return e.pmf, np.arange(e.pmf.size, dtype=np.float64), np.zeros(e.pmf.size)
    return _atoms(e)


def _kernel_means(emissions, emissions_ref) -> np.ndarray:
    """kappa_ij = E exp(-(Y - Y')^2 / (2 s^2)) for Y ~ f_i and Y' ~ f'_j.

    Each pair of atoms adds w w' s / sqrt(v) exp(-(m - m')^2 / (2 v)), with
    v = s^2 + sigma^2 + sigma'^2; for two pmfs F and F' this is F G F'^T,
    with G_uv = exp(-(u - v)^2 / (2 s^2)) on their symbols."""
    if emissions[0].discrete != emissions_ref[0].discrete:
        raise DataError("cannot compare a discrete emission with a continuous one")

    def kernel_mean(f, g):
        (w, m, sd), (w_ref, m_ref, sd_ref) = f, g
        v = MMD_SCALE ** 2 + sd[:, None] ** 2 + sd_ref ** 2
        pairs = MMD_SCALE / np.sqrt(v) * np.exp(-(m[:, None] - m_ref) ** 2 / (2.0 * v))
        return w @ pairs @ w_ref

    atoms, atoms_ref = ([_kernel_atoms(e) for e in es] for es in (emissions, emissions_ref))
    return np.array([[kernel_mean(f, g) for g in atoms_ref] for f in atoms])


def _block_inner(theta: HmmParams, theta_ref: HmmParams, block_len: int) -> float:
    """<P, P'> = E K(Y, Y') for independent blocks Y and Y' from the two
    stationary block laws, by the forward recursion on the product chain:
    v_1 = (pi pi'^T) * kappa, v_{t+1} = (Q^T v_t Q') * kappa, summed at l."""
    kappa = _kernel_means(theta.emissions, theta_ref.emissions)
    v = np.outer(stationary_distribution(theta.trans),
                 stationary_distribution(theta_ref.trans)) * kappa
    for _ in range(1, block_len):
        v = (theta.trans.rows.T @ v @ theta_ref.trans.rows) * kappa
    return float(v.sum())


def block_mmd(theta: HmmParams, theta_ref: HmmParams, block_len: int = 3) -> Estimate:
    """Maximum mean discrepancy between the stationary block laws of two
    parameters, with stderr 0.

    The kernel is the Gaussian product K(y, y') = prod_t exp(-(y_t - y'_t)^2
    / (2 s^2)) with s = ``MMD_SCALE``, and MMD^2 = <P, P> - 2 <P, P'> +
    <P', P'>, each term exact for both emission families; the value is the
    square root of MMD^2 clipped at 0. Equal parameters read exactly 0. A
    discrete parameter against a continuous one raises ``DataError``.
    """
    if block_len < 1:
        raise ValueError("block_len must be at least 1")
    sq = (_block_inner(theta, theta, block_len) - 2.0 * _block_inner(theta, theta_ref, block_len)
          + _block_inner(theta_ref, theta_ref, block_len))
    return Estimate(math.sqrt(max(sq, 0.0)), 0.0)


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
                 n_samples=None, seed=None) -> AlignmentResult:
    """Exhaustive search over state permutations for the one minimizing
    relabeled-transition gap plus worst emission L1 distance.

    Ties keep the lexicographically smallest permutation (strict improvement
    required to switch). Factorial search, capped at k = 8. Every emission
    distance is deterministic, so the result depends on the parameters
    alone: ``n_samples`` and ``seed`` are ignored, kept only for callers that
    still pass them.
    """
    k = theta.k
    if k != theta_ref.k:
        raise DataError("parameters disagree on the number of states")
    if k > ALIGN_MAX_K:
        raise ConfigError(f"alignment search is capped at k = {ALIGN_MAX_K}")
    sigmas = list(permutations(range(k)))
    P = np.array(sigmas)
    # every relabeled transition matrix from one gather, (k!, k, k)
    moved = theta.trans.rows[P[:, :, None], P[:, None, :]]
    q_gaps = np.abs(moved - theta_ref.trans.rows).max(axis=(1, 2)).tolist()
    best = None
    for sigma, qd in zip(sigmas, q_gaps):
        dists = [l1_distance(theta.emissions[s], e).value
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
# one dispatch from metric names to parameter metrics


CONSISTENCY_METRICS = ("block_l1", "aligned_q", "aligned_emission")
# scored by the chain experiments alone: they need the observations a chain was fitted to
SMOOTHING_METRICS = ("smoothing_aligned", "smoothing_unaligned")


def check_metric_names(names) -> None:
    """Raise ``ConfigError`` unless ``names`` are distinct metric names:
    ``block_l1``, ``block_mmd``, ``aligned_q``, ``aligned_emission``, or one
    of ``SMOOTHING_METRICS``."""
    if len(set(names)) != len(names):
        raise ConfigError(f"metric names must be unique: {list(names)}")
    for name in names:
        if name.startswith("weak_gap"):
            raise ConfigError(f"metric {name!r} is retired: the weak_gap names read the "
                              "one-step marginal only; block_mmd is the weak metric of "
                              "the block law")
        if name not in (*CONSISTENCY_METRICS, "block_mmd", *SMOOTHING_METRICS):
            raise ConfigError(f"unknown metric {name!r}")


def parameter_metrics(theta: HmmParams, truth: HmmParams, names, block_len: int,
                      align: AlignmentResult | None = None) -> list[Estimate]:
    """One estimate per name, in order: ``block_l1``, ``block_mmd``,
    ``aligned_q`` or ``aligned_emission``, all exact, and here only for
    discrete emissions in both parameters (``DataError`` otherwise). Aligns
    at most once, not at all given ``align``. Names that
    ``check_metric_names`` rejects, and the ``SMOOTHING_METRICS``, raise
    ``ConfigError``."""
    check_metric_names(names)
    if set(names) & set(SMOOTHING_METRICS):
        raise ConfigError(f"{list(SMOOTHING_METRICS)} need the observations a chain was "
                          "fitted to; only a chain experiment scores them")
    if names and not (theta.discrete and truth.discrete):
        raise DataError("exact metrics need discrete emissions")
    out = []
    for name in names:
        if name == "block_l1":
            out.append(block_l1_distance(theta, truth, block_len))
        elif name == "block_mmd":
            out.append(block_mmd(theta, truth, block_len))
        else:
            if align is None:
                align = align_labels(theta, truth)
            out.append(Estimate(align.q_distance if name == "aligned_q"
                                else float(align.emission_distances.max()), 0.0))
    return out
