"""End-to-end empirical checks of the library's asymptotic claims.

The consistency engine simulates data of growing length from a fixed truth,
runs the Gibbs sampler on each dataset, and estimates the posterior mass of
shrinking neighborhoods of the truth by the fraction of retained samples
falling inside. The neighborhoods are those of the listed metric names:
block-marginal L1, block-law maximum mean discrepancy (the weak topology),
relabeled transition, relabeled emission and smoothing-table deviation
balls. A PASS verdict requires every tracked mass curve to be
non-decreasing in the sample size up to a fixed slack, ending above a
floor.

Because the prior is exchangeable over state labels, the posterior splits
its mass over all relabelings of the truth; smoothing tables are therefore
compared after applying the alignment permutation (the raw deviation,
``smoothing_unaligned``, is recorded for reference only).

Also here: the per-instance check that the exact KL rate never exceeds its
closed-form bound on a realized neighborhood of the truth.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .emissions import DiscreteEmission
from .errors import ConfigError, DataError, StarvationError
from .gibbs import GibbsConfig, run_chain
from .hmm import HmmParams, TransitionMatrix, simulate, smoothing_exact, stationary_distribution
from .metrics import (ALIGN_MAX_K, SMOOTHING_METRICS, align_labels, check_metric_names,
                      emission_log_ratio_term, kl_rate_bound, kl_rate_exact,
                      parameter_metrics)
from .priors import DiscreteDpSpec, TruncatedDirichletSpec, sample_dp_discrete, sample_transition_row
from .util import as_generator

TREND_SLACK = 0.05
FINAL_MASS_FLOOR = 0.8

# the metrics read off a sample's label alignment, and the one the verdict ignores
_ALIGNED = ("aligned_q", "aligned_emission", "smoothing_aligned")
_UNTRACKED = "smoothing_unaligned"

# fractions of the path whose smoothing marginals the smoothing metrics compare
SMOOTHING_POSITIONS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Truth, sampler template and grid for a posterior-concentration run.

    ``metrics`` names the recorded neighborhoods in record order, each with
    its radius in ``epsilons``. Here, before any chain, bad names, a missing
    radius, no tracked name or an aligned name on a truth with more than
    ``ALIGN_MAX_K`` states raise ``ConfigError``, and an exact-mode name
    (any but the smoothing ones) on continuous emissions ``DataError``."""

    truth: HmmParams
    gibbs: GibbsConfig
    n_grid: tuple[int, ...]
    replications: int
    seed: int
    epsilons: dict
    metrics: Sequence[str]
    block_len: int = 3
    smoothing_block_len: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.truth.q_floor <= 0.0:
            raise ConfigError("the truth must carry a positive transition floor")
        if (not self.n_grid or self.n_grid[0] < 1
                or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:]))):
            raise ConfigError("n_grid must be nonempty, positive and strictly increasing")
        if not 1 <= self.smoothing_block_len <= self.n_grid[0]:
            raise ConfigError("smoothing_block_len must lie in [1, min(n_grid)]")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if any(e <= 0.0 for e in self.epsilons.values()):
            raise ConfigError("neighborhood radii must be positive")
        if self.truth.k ** self.smoothing_block_len > 64:
            raise ConfigError("smoothing block table capped at 64 entries")
        check_metric_names(self.metrics)
        for name in self.metrics:
            if self.epsilons.get(name) is None:
                raise ConfigError(f"no radius configured for metric {name!r}")
        if all(name == _UNTRACKED for name in self.metrics):
            raise ConfigError(f"the experiment tracks no metric: {list(self.metrics)}; "
                              f"{_UNTRACKED} is for reference only")
        aligned = [name for name in self.metrics if name in _ALIGNED]
        if aligned and self.truth.k > ALIGN_MAX_K:
            raise ConfigError(f"alignment search is capped at k = {ALIGN_MAX_K}: {aligned}")
        exact = [name for name in self.metrics if name not in SMOOTHING_METRICS]
        if exact and not (self.truth.discrete and self.gibbs.discrete):
            raise DataError(f"exact metrics need discrete emissions in the truth and "
                            f"the emission prior: {exact}")


@dataclass(frozen=True)
class CellResult:
    n: int
    replication: int
    sim_seed: int
    chain_seed: int
    n_samples: int
    masses: dict
    values: dict


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple[CellResult, ...]
    curves: dict
    tracked: tuple[str, ...]
    verdict: str
    failures: tuple[str, ...]

    def to_records(self):
        recs = []
        for c in self.cells:
            for name, mass in c.masses.items():
                recs.append({"n": c.n, "replication": c.replication,
                             "metric": name, "mass": mass,
                             "n_samples": c.n_samples})
        for name, curve in self.curves.items():
            for n, mass in curve.items():
                recs.append({"n": n, "replication": None, "metric": name,
                             "mass": mass, "aggregate": True})
        return recs


def trend_verdict(curve: Sequence[float]) -> bool:
    """Non-decreasing across the grid up to ``TREND_SLACK``, ending at or
    above ``FINAL_MASS_FLOOR``."""
    curve = list(curve)
    monotone = all(b >= a - TREND_SLACK for a, b in zip(curve, curve[1:]))
    return monotone and curve[-1] >= FINAL_MASS_FLOOR


def smoothing_max_deviation(laws, ref_laws, j_indices: Sequence[int], sigma=None) -> float:
    """Largest absolute gap between two ``(marginals, blocks)`` pairs of
    ``smoothing_exact`` over the block joint law and the requested
    marginals, after relabeling ``laws`` by sigma."""
    (marginals, blocks), (ref_marginals, ref_blocks) = laws, ref_laws
    if sigma is None:
        sigma = tuple(range(ref_marginals.shape[1]))
    perm = np.asarray(sigma, dtype=np.int64)
    dev = float(np.max(np.abs(blocks[np.ix_(*([perm] * ref_blocks.ndim))] - ref_blocks)))
    for j in j_indices:
        dev = max(dev, float(np.max(np.abs(marginals[j][perm] - ref_marginals[j]))))
    return dev


def run_cell(config: ExperimentConfig, n: int, replication: int,
             sim_seed: int, chain_seed: int) -> CellResult:
    """One grid cell, a function of its arguments alone: n observations
    simulated from the stationary truth with ``sim_seed``, one chain run with
    ``chain_seed``, and each listed metric's value on every retained sample
    with the fraction of them inside its radius. A sample is aligned once
    when a listed metric reads the alignment, which draws nothing."""
    truth = config.truth
    names = config.metrics
    stationary_truth = truth.with_mu(stationary_distribution(truth.trans))
    _, y = simulate(stationary_truth, n, sim_seed)
    samples = run_chain(y, replace(config.gibbs, seed=chain_seed))
    scored = tuple(m for m in names if m not in SMOOTHING_METRICS)
    smoothing = tuple(m for m in names if m in SMOOTHING_METRICS)
    aligned = any(m in _ALIGNED for m in names)
    j_idx = sorted({min(int(round(f * (n - 1))), n - 1) for f in SMOOTHING_POSITIONS})
    ref_laws = smoothing_exact(truth, y, config.smoothing_block_len) if smoothing else None
    values: dict[str, list[float]] = {m: [] for m in names}
    for s in samples:
        align = align_labels(s.params, truth) if aligned else None
        estimates = parameter_metrics(s.params, truth, scored, config.block_len, align)
        for name, est in zip(scored, estimates):
            values[name].append(est.value)
        if smoothing:
            laws = smoothing_exact(s.params, y, config.smoothing_block_len)
            for name in smoothing:
                sigma = align.sigma if name == "smoothing_aligned" else None
                values[name].append(smoothing_max_deviation(laws, ref_laws, j_idx, sigma))
    masses = {name: float(np.mean(np.asarray(values[name]) < config.epsilons[name]))
              for name in names}
    return CellResult(n=n, replication=replication, sim_seed=sim_seed,
                      chain_seed=chain_seed, n_samples=len(samples),
                      masses=masses, values=values)


def golden_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Posterior mass of the neighborhoods of ``config.metrics`` in every
    cell of the grid, and their mean over replications at each n.

    The cell seeds are drawn here, all at once, from ``config.seed``. The
    verdict tracks every recorded metric except ``smoothing_unaligned``,
    which is reported for reference only: it cannot concentrate, since the
    posterior is exchangeable over labels.
    """
    master = np.random.default_rng(config.seed)
    cell_seeds = master.integers(0, 2 ** 62,
                                 size=(len(config.n_grid), config.replications, 2))
    cells = tuple(run_cell(config, n, rep, *(int(s) for s in cell_seeds[gi, rep]))
                  for gi, n in enumerate(config.n_grid)
                  for rep in range(config.replications))
    curves = {name: {n: float(np.mean([c.masses[name] for c in cells if c.n == n]))
                     for n in config.n_grid}
              for name in config.metrics}
    tracked = tuple(name for name in config.metrics if name != _UNTRACKED)
    failures = tuple(name for name in tracked
                     if not trend_verdict(curves[name].values()))
    return ExperimentReport(cells=cells, curves=curves, tracked=tracked,
                            verdict="PASS" if not failures else "FAIL",
                            failures=failures)


# ---------------------------------------------------------------------------
# KL-rate neighborhood check


@dataclass(frozen=True)
class KlLemmaReport:
    epsilon: float
    q_floor: float
    n_grid: tuple[int, ...]
    n_draws: int
    draws_attempted: int
    bound_violations: int
    conclusion_violations: int
    rows: tuple[dict, ...]

    @property
    def conclusion_threshold(self) -> float:
        return 3.0 * self.epsilon / self.q_floor


def draw_near_truth(theta_star: HmmParams, epsilon: float,
                    trans_prior: TruncatedDirichletSpec,
                    emission_prior: DiscreteDpSpec, rng,
                    budget: int = 200_000) -> tuple[HmmParams, int]:
    """One prior draw restricted to the epsilon-neighborhood of the truth:
    every transition row within epsilon of its counterpart (sup norm, rows
    rejected independently) and emission log-ratio term below epsilon
    (vector rejected jointly), started from the stationary law of the truth.
    Returns the draw and the number of prior
    draws consumed; starves loudly when the neighborhood has no prior mass
    within the budget."""
    rng = as_generator(rng)
    k = theta_star.k
    star_rows = theta_star.trans.rows
    used = 0
    rows = np.empty((k, k))
    for i in range(k):
        for attempt in range(budget):
            used += 1
            cand = sample_transition_row(trans_prior, rng).row
            if np.max(np.abs(cand - star_rows[i])) < epsilon:
                rows[i] = cand
                break
        else:
            raise StarvationError("no transition row landed in the neighborhood")
    for attempt in range(budget):
        used += 1
        emissions = tuple(DiscreteEmission(sample_dp_discrete(emission_prior, rng)[0])
                          for _ in range(k))
        if emission_log_ratio_term(emissions, theta_star.emissions) < epsilon:
            break
    else:
        raise StarvationError("no emission vector landed in the neighborhood")
    init = stationary_distribution(theta_star.trans)
    return HmmParams(TransitionMatrix(rows, trans_prior.q_floor), init, emissions), used


def kl_lemma_experiment(theta_star: HmmParams, epsilon: float,
                        n_grid: Sequence[int], n_draws: int,
                        trans_prior: TruncatedDirichletSpec,
                        emission_prior: DiscreteDpSpec,
                        seed, budget: int = 200_000) -> KlLemmaReport:
    """Exact KL rate versus its closed-form bound on neighborhood draws.

    For each draw and each n, records the exact rate, the bound, and whether
    either inequality (exact <= bound, exact <= 3 epsilon / q_floor) failed.
    Both counters must stay at zero for a correct implementation.
    """
    rng = as_generator(seed)
    q = theta_star.q_floor
    threshold = 3.0 * epsilon / q
    rows = []
    bound_viol = 0
    concl_viol = 0
    attempted = 0
    for d in range(n_draws):
        theta, used = draw_near_truth(theta_star, epsilon, trans_prior,
                                      emission_prior, rng, budget=budget)
        attempted += used
        for n in n_grid:
            exact = kl_rate_exact(theta, theta_star, int(n))
            bound = kl_rate_bound(theta, theta_star, int(n))
            over_bound = exact > bound.total
            over_threshold = exact > threshold
            bound_viol += int(over_bound)
            concl_viol += int(over_threshold)
            rows.append({"draw": d, "n": int(n), "exact": exact,
                         "bound": bound.total, "threshold": threshold,
                         "over_bound": over_bound,
                         "over_threshold": over_threshold})
    return KlLemmaReport(epsilon=epsilon, q_floor=q, n_grid=tuple(int(n) for n in n_grid),
                         n_draws=n_draws, draws_attempted=attempted,
                         bound_violations=bound_viol, conclusion_violations=concl_viol,
                         rows=tuple(rows))
