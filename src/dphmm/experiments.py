"""End-to-end empirical checks of the library's asymptotic claims.

The consistency engine simulates data of growing length from a fixed truth,
runs the Gibbs sampler on each dataset, and estimates the posterior mass of
shrinking neighborhoods of the truth by the fraction of retained samples
falling inside. Tracked neighborhoods: block-marginal L1 balls, relabeled
transition balls, relabeled emission balls, and smoothing-table deviation
balls. A PASS verdict requires every tracked mass curve to be non-decreasing
in the sample size up to a fixed slack, ending above a floor.

Because the prior is exchangeable over state labels, the posterior splits
its mass over all relabelings of the truth; smoothing tables are therefore
compared after applying the alignment permutation (the raw deviation is
recorded alongside).

Also here: the per-instance check that the exact KL rate never exceeds its
closed-form bound on a realized neighborhood of the truth, and moment
validation of the Gamma-normalization construction of discrete Dirichlet
process draws.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .emissions import PMF_TOL
from .errors import ConfigError, StarvationError
from .gibbs import GibbsConfig, run_chain
from .hmm import (HmmParams, SmoothingTable, TransitionMatrix, simulate, smoothing_exact,
                  stationary_distribution)
from .metrics import (CONSISTENCY_METRICS, align_labels, emission_log_ratio_term,
                      kl_rate_bound, kl_rate_exact, parameter_metrics)
from .priors import DiscreteDpSpec, TruncatedDirichletSpec, sample_dp_discrete, sample_transition_row
from .util import as_generator

TREND_SLACK = 0.05
FINAL_MASS_FLOOR = 0.8

METRIC_SMOOTHING = "smoothing_aligned"
METRIC_SMOOTHING_RAW = "smoothing_unaligned"

SMOOTHING_METRICS = (METRIC_SMOOTHING, METRIC_SMOOTHING_RAW)
ALL_METRICS = CONSISTENCY_METRICS + SMOOTHING_METRICS

# fractions of the path whose smoothing marginals the smoothing metrics compare
SMOOTHING_POSITIONS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Truth, sampler template and grid for a posterior-concentration run."""

    truth: HmmParams
    gibbs: GibbsConfig
    n_grid: tuple[int, ...]
    replications: int
    seed: int
    epsilons: dict
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


def trend_verdict(curve: Sequence[float], slack: float = TREND_SLACK,
                  final_floor: float = FINAL_MASS_FLOOR) -> bool:
    """Non-decreasing across the grid up to ``slack``, ending at or above the floor."""
    curve = list(curve)
    monotone = all(b >= a - slack for a, b in zip(curve, curve[1:]))
    return monotone and curve[-1] >= final_floor


def smoothing_max_deviation(table: SmoothingTable, ref_table: SmoothingTable,
                            j_indices: Sequence[int], sigma=None) -> float:
    """Largest absolute gap between two smoothing tables over the block joint
    law and the requested marginals, after relabeling ``table`` by sigma."""
    m = ref_table.block_len
    if sigma is None:
        sigma = tuple(range(ref_table.marginals.shape[1]))
    perm = np.asarray(sigma, dtype=np.int64)
    blocks = table.blocks[np.ix_(*([perm] * m))]
    dev = float(np.max(np.abs(blocks - ref_table.blocks)))
    for j in j_indices:
        dev = max(dev, float(np.max(np.abs(table.marginals[j][perm]
                                           - ref_table.marginals[j]))))
    return dev


def _run_cells(config: ExperimentConfig, metrics: tuple[str, ...]) -> tuple[CellResult, ...]:
    truth = config.truth
    stationary_truth = truth.with_mu(stationary_distribution(truth.trans).probs)
    master = np.random.default_rng(config.seed)
    cell_seeds = master.integers(0, 2 ** 62,
                                 size=(len(config.n_grid), config.replications, 2))
    scored = tuple(m for m in metrics if m not in SMOOTHING_METRICS)
    want_smoothing = len(scored) < len(metrics)
    cells = []
    for gi, n in enumerate(config.n_grid):
        for rep in range(config.replications):
            sim_seed, chain_seed = (int(s) for s in cell_seeds[gi, rep])
            _, y = simulate(stationary_truth, n, sim_seed)
            cfg = replace(config.gibbs, seed=chain_seed)
            samples = run_chain(y, cfg)
            align_rng = np.random.default_rng([sim_seed, chain_seed])
            j_idx = sorted({min(int(round(f * (n - 1))), n - 1) for f in SMOOTHING_POSITIONS})
            ref_table = (smoothing_exact(truth, y, config.smoothing_block_len)
                         if want_smoothing else None)
            values: dict[str, list[float]] = {m: [] for m in metrics}
            for s in samples:
                align = (align_labels(s.params, truth, seed=align_rng)
                         if want_smoothing else None)
                estimates = parameter_metrics(s.params, truth, scored,
                                              config.block_len, align)
                for name, est in zip(scored, estimates):
                    values[name].append(est.value)
                if want_smoothing:
                    table = smoothing_exact(s.params, y, config.smoothing_block_len)
                    if METRIC_SMOOTHING in metrics:
                        values[METRIC_SMOOTHING].append(
                            smoothing_max_deviation(table, ref_table, j_idx, align.sigma))
                    if METRIC_SMOOTHING_RAW in metrics:
                        values[METRIC_SMOOTHING_RAW].append(
                            smoothing_max_deviation(table, ref_table, j_idx))
            masses = {}
            for name in metrics:
                eps = config.epsilons.get(name)
                if eps is None and name == METRIC_SMOOTHING_RAW:
                    eps = config.epsilons.get(METRIC_SMOOTHING)
                if eps is None:
                    raise ConfigError(f"no radius configured for metric {name!r}")
                vals = np.asarray(values[name])
                masses[name] = float(np.mean(vals < eps))
            cells.append(CellResult(n=n, replication=rep, sim_seed=sim_seed,
                                    chain_seed=chain_seed, n_samples=len(samples),
                                    masses=masses, values=values))
    return tuple(cells)


def _assemble(config: ExperimentConfig, cells, metrics, tracked) -> ExperimentReport:
    curves = {}
    for name in metrics:
        curves[name] = {
            n: float(np.mean([c.masses[name] for c in cells if c.n == n]))
            for n in config.n_grid
        }
    failures = tuple(
        name for name in tracked
        if not trend_verdict([curves[name][n] for n in config.n_grid])
    )
    return ExperimentReport(cells=tuple(cells), curves=curves, tracked=tuple(tracked),
                            verdict="PASS" if not failures else "FAIL",
                            failures=failures)


def consistency_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Posterior mass of block-L1 and relabeled component neighborhoods
    across the sample-size grid."""
    cells = _run_cells(config, CONSISTENCY_METRICS)
    return _assemble(config, cells, CONSISTENCY_METRICS, CONSISTENCY_METRICS)


def smoothing_consistency_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Posterior mass of small worst-case smoothing-table deviations.

    The verdict tracks the relabeling-aligned deviation; the raw one is
    reported for reference (it cannot concentrate, since the posterior is
    exchangeable over labels).
    """
    cells = _run_cells(config, SMOOTHING_METRICS)
    return _assemble(config, cells, SMOOTHING_METRICS, (METRIC_SMOOTHING,))


def golden_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All tracked neighborhoods on one shared set of chains."""
    cells = _run_cells(config, ALL_METRICS)
    tracked = CONSISTENCY_METRICS + (METRIC_SMOOTHING,)
    return _assemble(config, cells, ALL_METRICS, tracked)


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
                    mu=None, budget: int = 200_000) -> tuple[HmmParams, int]:
    """One prior draw restricted to the epsilon-neighborhood of the truth:
    every transition row within epsilon of its counterpart (sup norm, rows
    rejected independently) and emission log-ratio term below epsilon
    (vector rejected jointly). Returns the draw and the number of prior
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
        emissions = tuple(sample_dp_discrete(emission_prior, rng) for _ in range(k))
        if emission_log_ratio_term(emissions, theta_star.emissions) < epsilon:
            break
    else:
        raise StarvationError("no emission vector landed in the neighborhood")
    init = stationary_distribution(theta_star.trans).probs if mu is None else mu
    return HmmParams(TransitionMatrix(rows, trans_prior.q_floor), init, emissions), used


def kl_lemma_experiment(theta_star: HmmParams, epsilon: float,
                        n_grid: Sequence[int], n_draws: int,
                        trans_prior: TruncatedDirichletSpec,
                        emission_prior: DiscreteDpSpec,
                        seed, mu=None, budget: int = 200_000) -> KlLemmaReport:
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
                                      emission_prior, rng, mu=mu, budget=budget)
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


# ---------------------------------------------------------------------------
# Gamma-normalization moment validation


@dataclass(frozen=True)
class DpMomentReport:
    n_draws: int
    z_threshold: float
    partition_z: tuple[dict, ...]
    normalizer_z: dict
    max_abs_z: float
    passed: bool

    def to_records(self):
        recs = [dict(r) for r in self.partition_z]
        recs.append(dict(self.normalizer_z))
        return recs


def _variance_z(samples: np.ndarray, target_var: float) -> float:
    s2 = samples.var(ddof=1)
    centered = samples - samples.mean()
    m4 = np.mean(centered ** 4)
    se = np.sqrt(max(m4 - s2 ** 2, 1e-300) / samples.size)
    return float((s2 - target_var) / se)


def dp_gamma_moment_check(spec: DiscreteDpSpec, n_draws: int,
                          partitions: Sequence[Sequence[Sequence[int]]],
                          significance: float = 0.0027,
                          seed=None) -> DpMomentReport:
    """Moment checks of the Gamma-normalization DP construction.

    For each partition of the support, block masses of the draws must match
    the corresponding Dirichlet law in mean, variance and pairwise
    covariance; the common normalizer must match a Gamma(alpha, 1) in mean
    and variance. Each comparison is a z-score at the normal quantile of the
    given two-sided significance.

    A block whose base mass is 0 or 1 (no positive base entry inside it, or
    none outside it) has a DP mass fixed at 0 or 1, so its target variance is
    0 and a z-score has no scale. Such a block instead gets one "exact_mass"
    record: every draw's block mass must lie within ``PMF_TOL`` of 0 or 1. It
    takes no mean, variance or covariance z-score.
    """
    support = spec.truncation
    if any(sorted(s for b in blocks for s in b) != list(range(support))
           for blocks in partitions):
        raise ConfigError("partition must cover the support exactly once")
    rng = as_generator(seed)
    z_threshold = NormalDist().inv_cdf(1.0 - significance / 2.0)
    pmfs = np.empty((n_draws, support))
    totals = np.empty(n_draws)
    for r in range(n_draws):
        emission, total = sample_dp_discrete(spec, rng, with_normalizer=True)
        pmfs[r] = emission.pmf
        totals[r] = total

    records = []
    for pi, blocks in enumerate(partitions):
        idx_list = [np.asarray(b, dtype=np.int64) for b in blocks]
        masses = np.stack([pmfs[:, b].sum(axis=1) for b in idx_list], axis=1)
        gmass = np.array([spec.base[b].sum() for b in idx_list])
        inside = np.array([np.count_nonzero(spec.base[b]) for b in idx_list])
        fixed = (inside == 0) | (inside == np.count_nonzero(spec.base))
        a = spec.alpha
        means = gmass
        variances = gmass * (1.0 - gmass) / (a + 1.0)
        for m in range(len(idx_list)):
            if fixed[m]:
                target = float(inside[m] > 0)
                dev = float(np.max(np.abs(masses[:, m] - target)))
                records.append({"partition": pi, "block": m, "moment": "exact_mass",
                                "target": target, "max_abs_dev": dev,
                                "passed": dev <= PMF_TOL})
                continue
            z_mean = float((masses[:, m].mean() - means[m])
                           / np.sqrt(max(variances[m], 1e-300) / n_draws))
            records.append({"partition": pi, "block": m, "moment": "mean",
                            "z": z_mean})
            records.append({"partition": pi, "block": m, "moment": "variance",
                            "z": _variance_z(masses[:, m], variances[m])})
        for m in range(len(idx_list)):
            for mm in range(m + 1, len(idx_list)):
                if fixed[m] or fixed[mm]:
                    continue
                target = -gmass[m] * gmass[mm] / (a + 1.0)
                prods = ((masses[:, m] - masses[:, m].mean())
                         * (masses[:, mm] - masses[:, mm].mean()))
                se = prods.std(ddof=1) / np.sqrt(n_draws)
                records.append({"partition": pi, "block": (m, mm),
                                "moment": "covariance",
                                "z": float((prods.mean() - target) / se)})

    norm_z = {
        "moment": "normalizer",
        "z_mean": float((totals.mean() - spec.alpha)
                        / np.sqrt(spec.alpha / n_draws)),
        "z_var": _variance_z(totals, spec.alpha),
    }
    zs = [abs(r["z"]) for r in records if "z" in r]
    max_abs = float(max(zs + [abs(norm_z["z_mean"]), abs(norm_z["z_var"])]))
    exact_ok = all(r["passed"] for r in records if "z" not in r)
    return DpMomentReport(n_draws=n_draws, z_threshold=z_threshold,
                          partition_z=tuple(records), normalizer_z=norm_z,
                          max_abs_z=max_abs, passed=max_abs <= z_threshold and exact_ok)
