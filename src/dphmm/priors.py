"""Prior constructions and prior-adequacy checkers.

Transition rows carry a truncated Dirichlet prior: density proportional to
prod_j x_j^(alpha_j - 1) restricted to {min_j x_j >= q_floor}. Emission
priors are Dirichlet processes, represented finitely: a discrete DP drawn by
normalizing independent Gamma(alpha * G0(l), 1) variables, and a DP mixture
of Gaussians drawn by truncated stick-breaking over a normal-inverse-gamma
base.

The checkers decide, where a number can decide it, whether a candidate base
measure is adequate for a given truth: summability of truth/base mass
ratios, finiteness of the truth's entropy series, and integrability of the
inverse scale under the mixture base. Convergence of an infinite series is
not generally decidable numerically, so verdicts are three-valued; the
partial-sum heuristic only ever claims divergence, never convergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .emissions import DiscreteEmission, GaussianMixtureEmission, PMF_TOL
from .errors import SamplerBudgetError
from .util import ValueEquality, as_generator, readonly

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

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


class LogDensity(NamedTuple):
    value: float
    normalized: bool


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


def truncated_dirichlet_logpdf(spec: TruncatedDirichletSpec, x) -> LogDensity:
    """Unnormalized log density: sum (alpha_j - 1) log x_j on the restricted
    simplex, -inf off it. The normalizing constant is unknown; the flag says so."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != spec.k or abs(float(x.sum()) - 1.0) > 1e-9 or np.any(x < 0.0):
        raise ValueError("x must lie on the probability simplex")
    if x.min() < spec.q_floor:
        return LogDensity(float("-inf"), False)
    with np.errstate(divide="ignore"):
        val = float(np.sum((spec.alpha - 1.0) * np.log(x)))
    return LogDensity(val, False)


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

    ``base`` must be a full probability vector; callers folding an infinite
    base into a finite one should reserve the last index for the tail block
    (see ``truncate_base``).
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


def truncate_base(pmf_values, tail_mass: float | None = None) -> np.ndarray:
    """Fold residual mass of an infinite base into one final tail symbol."""
    head = np.asarray(pmf_values, dtype=np.float64)
    tail = 1.0 - float(head.sum()) if tail_mass is None else float(tail_mass)
    if tail < -PMF_TOL:
        raise ValueError("head mass already exceeds 1")
    if tail <= PMF_TOL:
        return head
    return np.concatenate([head, [tail]])


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


def sample_dp_mixture(spec: GaussianDpSpec, seed) -> GaussianMixtureEmission:
    """``dp_mixture_arrays`` as a validated emission."""
    return GaussianMixtureEmission(*dp_mixture_arrays(spec, seed))


# ---------------------------------------------------------------------------
# pmf descriptors for the condition checkers


@dataclass(frozen=True)
class GeometricTailPmf:
    """Pmf with explicit head values and a geometric continuation:
    p(H-1+j) = head[-1] * ratio^j for j >= 1, H = len(head)."""

    head: np.ndarray
    ratio: float

    def __post_init__(self):
        object.__setattr__(self, "head", readonly(self.head))
        object.__setattr__(self, "ratio", float(self.ratio))
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        h = self.head
        if h.ndim != 1 or h.size == 0 or np.any(h < 0.0) or h[-1] <= 0.0:
            raise ValueError("head must be nonnegative with a positive last value")
        total = float(h.sum()) + float(h[-1]) * self.ratio / (1.0 - self.ratio)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("head plus geometric tail must total mass 1")

    def terms(self, upto: int) -> np.ndarray:
        h = self.head
        if upto <= h.size:
            return h[:upto].copy()
        j = np.arange(1, upto - h.size + 1)
        return np.concatenate([h, h[-1] * self.ratio ** j])


def geometric_pmf(ratio: float) -> GeometricTailPmf:
    """Fully geometric pmf p(l) = (1 - ratio) * ratio^l."""
    return GeometricTailPmf(np.array([1.0 - ratio]), ratio)


@dataclass(frozen=True)
class SequencePmf:
    """Pmf given only through a term callable; no analytic tail is known,
    so checkers can at most apply the partial-sum heuristic to it."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "sequence"

    def terms(self, upto: int) -> np.ndarray:
        return np.asarray(self.fn(np.arange(upto)), dtype=np.float64)


def _tail_info(obj):
    """Normalize a pmf-like object to (kind, terms(upto), extra).

    kind is 'finite' (extra = support size), 'geometric' (extra = (tail start,
    ratio)) or 'unknown'.
    """
    if isinstance(obj, DiscreteEmission):
        pmf = obj.pmf
        return "finite", (lambda upto: pmf[:upto] if upto <= pmf.size
                          else np.concatenate([pmf, np.zeros(upto - pmf.size)])), pmf.size
    if isinstance(obj, GeometricTailPmf):
        return "geometric", obj.terms, (obj.head.size, obj.ratio)
    if isinstance(obj, SequencePmf):
        return "unknown", obj.terms, None
    arr = np.asarray(obj, dtype=np.float64)
    return "finite", (lambda upto: arr[:upto] if upto <= arr.size
                      else np.concatenate([arr, np.zeros(upto - arr.size)])), arr.size


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str
    value: float | None
    partial_sums: np.ndarray
    detail: str

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _partial_heuristic(terms: np.ndarray) -> tuple[str, str]:
    """Divergence heuristic on raw series terms: monotone unbounded growth of
    the partial sums (non-decreasing block sums) reads as divergence;
    anything else stays inconclusive."""
    n = terms.size
    if n < 8:
        return INCONCLUSIVE, "budget too small for the heuristic"
    quarters = np.array_split(np.asarray(terms, dtype=np.float64), 4)
    block_sums = np.array([b.sum() for b in quarters])
    if block_sums[-1] > 0.0 and np.all(np.diff(block_sums) >= -1e-300):
        return FAILS, "partial sums grow without slowing (block sums non-decreasing)"
    return INCONCLUSIVE, "partial sums neither clearly diverge nor admit an analytic tail"


def check_ratio_summable(truth, base, tail_budget: int = 10_000) -> ConditionReport:
    """Decide whether sum_l truth(l) / base(l) is finite.

    Exact for finitely supported truths (the base must be positive on the
    truth's support, else an immediate fail). Geometric tails on both sides
    reduce to a ratio test. Otherwise partial sums up to the budget feed the
    divergence heuristic; inconclusive is a first-class outcome.
    """
    cond = "ratio_summable"
    t_kind, t_terms, t_extra = _tail_info(truth)
    b_kind, b_terms, b_extra = _tail_info(base)

    span = t_extra if t_kind == "finite" else tail_budget
    if b_kind == "finite" and t_kind != "finite":
        span = max(span, b_extra + 1)
    span = min(max(span, 8), tail_budget)
    f = t_terms(span)
    g = b_terms(span)
    bad = (f > 0.0) & (g == 0.0)
    if np.any(bad):
        where = int(np.nonzero(bad)[0][0])
        return ConditionReport(cond, FAILS, None, np.array([np.inf]),
                               f"base has zero mass at supported symbol {where}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(f > 0.0, f / np.where(g > 0.0, g, 1.0), 0.0)
    partial = np.cumsum(terms)

    if t_kind == "finite":
        return ConditionReport(cond, HOLDS, float(partial[-1]), partial,
                               "finite support: exact sum")
    if t_kind == "geometric" and b_kind == "geometric":
        (t_start, rf), (b_start, rg) = t_extra, b_extra
        if rf < rg:
            start = max(t_start, b_start)
            head = float(np.cumsum(terms[:start])[-1]) if start else 0.0
            q = rf / rg
            tail_exact = float(terms[start]) / (1.0 - q) if start < terms.size else 0.0
            return ConditionReport(cond, HOLDS, head + tail_exact, partial,
                                   f"ratio test: truth tail {rf} < base tail {rg}")
        return ConditionReport(cond, FAILS, None, partial,
                               f"ratio test: truth tail {rf} >= base tail {rg}, terms do not vanish")
    verdict, why = _partial_heuristic(terms)
    return ConditionReport(cond, verdict, None, partial, why)


def check_entropy_finite(truth, tail_budget: int = 10_000) -> ConditionReport:
    """Decide whether sum_l truth(l) * (-log truth(l)) is finite.

    Exact for finite supports; closed form for geometric tails (always
    finite); heuristic otherwise.
    """
    cond = "entropy_finite"
    kind, term_fn, extra = _tail_info(truth)
    span = extra if kind == "finite" else tail_budget
    span = min(max(span, 8), tail_budget)
    p = term_fn(span)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    partial = np.cumsum(terms)
    if kind == "finite":
        return ConditionReport(cond, HOLDS, float(partial[-1]), partial,
                               "finite support: exact entropy sum")
    if kind == "geometric":
        start, r = extra
        q = float(truth.head[-1])
        head = float(partial[start - 1]) if start >= 1 else 0.0
        # sum_{j>=1} q r^j (-log(q r^j)) = -q log q * r/(1-r) - q log r * r/(1-r)^2
        tail = (-q * np.log(q)) * r / (1.0 - r) + (-q * np.log(r)) * r / (1.0 - r) ** 2
        return ConditionReport(cond, HOLDS, head + float(tail), partial,
                               "geometric tail: closed-form entropy")
    verdict, why = _partial_heuristic(terms)
    return ConditionReport(cond, verdict, None, partial, why)


# descriptors for the scale marginal of a mixture base


@dataclass(frozen=True)
class AtomicScaleBase:
    weights: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", readonly(self.weights))
        object.__setattr__(self, "scales", readonly(self.scales))
        if np.any(self.scales <= 0.0) or np.any(self.weights < 0.0):
            raise ValueError("need positive scales and nonnegative weights")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class InvGammaScale:
    """sigma itself inverse-gamma: E[1/sigma] = shape / scale."""
    shape: float
    scale: float


@dataclass(frozen=True)
class LogNormalScale:
    """log sigma ~ N(mean, sd^2): E[1/sigma] = exp(-mean + sd^2 / 2)."""
    mean: float
    sd: float


@dataclass(frozen=True)
class GammaScale:
    """sigma ~ Gamma(shape, scale): E[1/sigma] finite only for shape > 1."""
    shape: float
    scale: float


def check_inverse_scale_integrable(base) -> ConditionReport:
    """Evaluate the mean inverse scale of a mixture base, or flag divergence.

    Exact weighted sums for atomic bases; closed-form moments for the
    supported parametric scale marginals. Unsupported descriptors come back
    inconclusive.
    """
    cond = "inverse_scale_integrable"
    empty = np.array([])
    if isinstance(base, AtomicScaleBase):
        val = float(np.sum(base.weights / base.scales))
        return ConditionReport(cond, HOLDS, val, empty, "atomic base: exact sum")
    if isinstance(base, InvGammaScale):
        if base.shape <= 0.0 or base.scale <= 0.0:
            raise ValueError("inverse-gamma parameters must be positive")
        return ConditionReport(cond, HOLDS, base.shape / base.scale, empty,
                               "inverse-gamma scale: mean inverse is shape/scale")
    if isinstance(base, LogNormalScale):
        val = float(np.exp(-base.mean + 0.5 * base.sd ** 2))
        return ConditionReport(cond, HOLDS, val, empty, "lognormal scale: closed-form moment")
    if isinstance(base, GammaScale):
        if base.shape > 1.0:
            return ConditionReport(cond, HOLDS, 1.0 / (base.scale * (base.shape - 1.0)),
                                   empty, "gamma scale with shape > 1")
        return ConditionReport(cond, FAILS, None, empty,
                               "gamma scale with shape <= 1 has no mean inverse")
    if isinstance(base, NormalInvGammaBase):
        return ConditionReport(cond, HOLDS, base.mean_inverse_scale(), empty,
                               "inverse-gamma variance: closed-form moment")
    return ConditionReport(cond, INCONCLUSIVE, None, empty,
                           f"unsupported base descriptor {type(base).__name__}")
