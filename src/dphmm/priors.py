"""Prior constructions and prior-adequacy checkers.

Transition rows carry a truncated Dirichlet prior: density proportional to
prod_j x_j^(alpha_j - 1) restricted to {min_j x_j >= q_floor}. Emission
priors are Dirichlet processes, represented finitely: a discrete DP drawn by
normalizing independent Gamma(alpha * G0(l), 1) variables, and a DP mixture
of Gaussians drawn by truncated stick-breaking over a normal-inverse-gamma
base.

The checkers decide whether a base measure is adequate for a given truth,
exactly, on what a config can name: a finitely supported truth pmf against
a base pmf (summability of the truth/base mass ratios, which fails where the
base misses a supported symbol, and the finite entropy sum), and the
normal-inverse-gamma mixture base (its closed-form mean inverse scale).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .emissions import DiscreteEmission, PMF_TOL
from .errors import SamplerBudgetError
from .util import ValueEquality, as_generator, readonly

HOLDS = "holds"
FAILS = "fails"

REJECTION_BUDGET = 1000
RESAMPLE_BUDGET = 10
# Below this much room between the floor and 1/k, the affine fallback is a
# poor stand-in for the truncated law with non-flat alpha, so we fail loudly.
NEAR_DEGENERATE_SLACK = 0.05


# ---------------------------------------------------------------------------
# truncated Dirichlet rows


@dataclass(frozen=True, eq=False)
class TruncatedDirichletSpec(ValueEquality):
    """Concentrations plus the entrywise floor of the support restriction."""

    alpha: np.ndarray
    q_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", readonly(self.alpha))
        object.__setattr__(self, "q_floor", float(self.q_floor))
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("alpha must be a nonempty vector")
        if np.any(self.alpha <= 0.0):
            raise ValueError("all concentrations must be positive")
        if self.q_floor < 0.0 or self.q_floor * self.k > 1.0 + PMF_TOL:
            raise ValueError("q_floor * k must not exceed 1 (empty constraint set)")

    @property
    def k(self) -> int:
        return int(self.alpha.size)

    @property
    def degenerate(self) -> bool:
        """True when the constraint set is the single point (1/k, ..., 1/k)."""
        return self.q_floor * self.k >= 1.0 - PMF_TOL

    @property
    def flat(self) -> bool:
        return bool(np.all(self.alpha == 1.0))


class RowDraw(NamedTuple):
    row: np.ndarray
    method: str  # degenerate | affine_exact | rejection | affine_fallback


def sample_transition_row(spec: TruncatedDirichletSpec, seed,
                          budget: int = REJECTION_BUDGET) -> RowDraw:
    """One draw from the floor-restricted Dirichlet row law.

    Flat concentrations map exactly through the affine reparameterization
    x = q_floor + (1 - k q_floor) w with w standard Dirichlet. Otherwise
    draws are rejected from the unrestricted Dirichlet until they satisfy
    the floor; if the budget runs out the affine map is used as a documented
    fallback, except very close to the degenerate corner where it would
    misrepresent the law and we fail instead. The method that produced the
    draw is always reported.
    """
    rng = as_generator(seed)
    k = spec.k
    q = spec.q_floor
    if spec.degenerate:
        return RowDraw(np.full(k, q), "degenerate")
    if spec.flat:
        w = rng.dirichlet(spec.alpha)
        return RowDraw(q + (1.0 - k * q) * w, "affine_exact")
    x = rng.dirichlet(spec.alpha)
    if x.min() >= q:
        return RowDraw(x, "rejection")
    used = 1
    while used < budget:
        m = min(64, budget - used)
        cand = rng.dirichlet(spec.alpha, size=m)
        ok = np.nonzero(cand.min(axis=1) >= q)[0]
        if ok.size:
            return RowDraw(cand[ok[0]].copy(), "rejection")
        used += m
    if 1.0 - k * q < NEAR_DEGENERATE_SLACK:
        raise SamplerBudgetError(
            "rejection budget exhausted near the degenerate corner; "
            "the affine fallback would misrepresent the truncated law")
    w = rng.dirichlet(spec.alpha)
    return RowDraw(q + (1.0 - k * q) * w, "affine_fallback")


# ---------------------------------------------------------------------------
# Dirichlet-process emission priors


@dataclass(frozen=True)
class NormalInvGammaBase:
    """Conjugate base over (location, scale): variance ~ InvGamma(shape, scale),
    location | variance ~ N(loc, variance / loc_count)."""

    loc: float
    loc_count: float
    shape: float
    scale: float

    def __post_init__(self):
        for name in ("loc_count", "shape", "scale"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def sample(self, rng, size: int):
        rng = as_generator(rng)
        var = self.scale / rng.gamma(self.shape, size=size)
        z = rng.normal(self.loc, np.sqrt(var / self.loc_count))
        return z, np.sqrt(var)

    def mean_inverse_scale(self) -> float:
        """E[1/sigma] with sigma^2 inverse-gamma: Gamma(shape+1/2)/Gamma(shape)/sqrt(scale)."""
        return math.exp(math.lgamma(self.shape + 0.5) - math.lgamma(self.shape)) / math.sqrt(self.scale)


@dataclass(frozen=True, eq=False)
class DiscreteDpSpec(ValueEquality):
    """Dirichlet process on symbols with a truncated base pmf.

    ``base`` must be a full probability vector.
    """

    alpha: float
    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", readonly(self.base))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if np.any(self.base < 0.0) or abs(float(self.base.sum()) - 1.0) > PMF_TOL:
            raise ValueError(f"base must be a probability vector within {PMF_TOL}")

    @property
    def truncation(self) -> int:
        return int(self.base.size)


@dataclass(frozen=True)
class GaussianDpSpec:
    """DP mixture of Gaussians: stick-breaking depth plus a conjugate base."""

    alpha: float
    base: NormalInvGammaBase
    truncation: int = 50

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.truncation < 1:
            raise ValueError("truncation depth must be at least 1")


def gamma_normalize(shapes: np.ndarray, seed, budget: int = RESAMPLE_BUDGET):
    """(pmf, normalizer) of independent Gamma(shapes_l, 1) draws, zero for zero
    shapes; an all-zero draw is redrawn, up to ``budget`` draws in all."""
    rng = as_generator(seed)
    for _ in range(budget):
        z = rng.gamma(np.maximum(shapes, 0.0))
        z[shapes == 0.0] = 0.0
        total = z.sum()
        if total > 0.0:
            return z / total, float(total)
    raise SamplerBudgetError("gamma normalization produced only zero draws")


def sample_dp_discrete(spec: DiscreteDpSpec, seed, budget: int = RESAMPLE_BUDGET,
                       with_normalizer: bool = False):
    """Draw a pmf from the discrete DP by Gamma normalization.

    Independent Z_l ~ Gamma(alpha * base_l, 1) are normalized by their sum;
    block masses over any partition of the support are then jointly
    Dirichlet with the partition's base masses as concentrations, and the
    normalizer itself is Gamma(alpha, 1). An all-zero draw (possible when
    every shape parameter is tiny) is resampled a few times before failing.
    With ``with_normalizer`` the (emission, normalizer) pair is returned.
    """
    pmf, total = gamma_normalize(spec.alpha * spec.base, seed, budget)
    return (DiscreteEmission(pmf), total) if with_normalizer else DiscreteEmission(pmf)


def sticks_to_weights(v) -> np.ndarray:
    """Truncated stick-breaking: depth - 1 stick fractions to depth weights.

    The fractions are clipped to [0, 1]; the last weight absorbs the
    remaining mass so the vector sums to one, and the vector is renormalised
    when rounding drives that remainder negative.
    """
    v = np.clip(v, 0.0, 1.0)
    w = np.empty(v.size + 1)
    rem = np.concatenate([[1.0], np.cumprod(1.0 - v)])
    w[:-1] = v * rem[:-1]
    last = 1.0 - float(w[:-1].sum())
    if last < 0.0:
        w[-1] = 0.0
        w /= w.sum()
    else:
        w[-1] = last
    return w


def stick_breaking_weights(alpha: float, depth: int, rng) -> np.ndarray:
    """Beta(1, alpha) stick fractions truncated at ``depth``; the last weight
    absorbs the remaining mass so the vector sums to one."""
    rng = as_generator(rng)
    return sticks_to_weights(rng.beta(1.0, alpha, size=depth - 1))


def dp_mixture_arrays(spec: GaussianDpSpec, seed) -> np.ndarray:
    """Truncated stick-breaking draw as rows (weights, locations, scales):
    weights from Beta(1, alpha) sticks, atoms i.i.d. from the conjugate base."""
    rng = as_generator(seed)
    w = stick_breaking_weights(spec.alpha, spec.truncation, rng)
    z, s = spec.base.sample(rng, spec.truncation)
    return np.stack([w, z, s])


# ---------------------------------------------------------------------------
# prior-adequacy checkers


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str
    value: float | None
    detail: str

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def check_ratio_summable(truth: DiscreteEmission, base) -> ConditionReport:
    """Decide whether sum_l truth(l) / base(l) is finite: an exact sum over
    the truth's finite support, which fails at the first supported symbol
    where the base pmf, zero-padded to that support, has no mass."""
    cond = "ratio_summable"
    f = truth.pmf
    g = np.zeros(f.size)
    head = np.asarray(base, dtype=np.float64)[:f.size]
    g[:head.size] = head
    bad = np.nonzero((f > 0.0) & (g == 0.0))[0]
    if bad.size:
        return ConditionReport(cond, FAILS, None,
                               f"base has zero mass at supported symbol {int(bad[0])}")
    sel = f > 0.0
    return ConditionReport(cond, HOLDS, float(np.sum(f[sel] / g[sel])),
                           "finite support: exact sum")


def check_entropy_finite(truth: DiscreteEmission) -> ConditionReport:
    """The truth's entropy sum_l truth(l) * (-log truth(l)), exact over its
    finite support."""
    p = truth.pmf[truth.pmf > 0.0]
    return ConditionReport("entropy_finite", HOLDS, float(-np.sum(p * np.log(p))),
                           "finite support: exact entropy sum")


def check_inverse_scale_integrable(base: NormalInvGammaBase) -> ConditionReport:
    """E[1/sigma] under the mixture base, in closed form."""
    return ConditionReport("inverse_scale_integrable", HOLDS, base.mean_inverse_scale(),
                           "inverse-gamma variance: closed-form moment")
