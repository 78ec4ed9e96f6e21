"""Per-state emission families and the L1 machinery used on them.

Three families share a duck-typed interface (``density``, ``sample``,
``discrete`` flag):

* ``DiscreteEmission``      pmf on {0, ..., S-1} (counting measure); the last
  index may act as a folded tail symbol for truncated infinite supports.
* ``GaussianMixtureEmission``  finite location-scale mixture of normals
  (Lebesgue measure on the line).
* ``TranslatedEmission``    a shared continuous density shifted by a
  state-specific offset.

L1 distances are exact sums for discrete pairs and importance-sampled for
continuous ones, with the equal mixture of the two densities as proposal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import Estimate, ValueEquality, as_generator, readonly

PMF_TOL = 1e-12
DEFAULT_MC_SAMPLES = 200_000
MIN_MC_SAMPLES = 4

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _draw_index(rng, p, size):
    """Indices drawn from the pmf ``p`` by inverse CDF: the steps
    ``Generator.choice(p.size, size, p=p)`` takes, without its re-check of
    ``p`` (the emission constructors check it), so it consumes the same
    uniforms and returns the same indices."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def mixture_density(y, weights, locations, scales):
    """Density of the normal mixture sum_r w_r N(z_r, sigma_r^2) at y, shaped like y."""
    z = (np.asarray(y, dtype=np.float64)[..., None] - locations) / scales
    comp = np.exp(-0.5 * z * z) / (SQRT_2PI * scales)
    return comp @ weights


@dataclass(frozen=True, eq=False)
class DiscreteEmission(ValueEquality):
    """Probability mass function on {0, ..., support_size - 1}."""

    pmf: np.ndarray

    discrete = True

    def __post_init__(self):
        object.__setattr__(self, "pmf", readonly(self.pmf))
        p = self.pmf
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf must be a nonempty vector")
        if np.any(p < 0.0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(float(p.sum()) - 1.0) > PMF_TOL:
            raise ValueError(f"pmf must sum to 1 within {PMF_TOL}")

    @property
    def support_size(self) -> int:
        return int(self.pmf.size)

    def density(self, y):
        """Mass at integer symbol(s) y; 0 beyond the truncated support."""
        arr = np.asarray(y)
        if arr.dtype.kind == "f":
            if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
                raise DataError("discrete emission evaluated at a non-integer observation")
            arr = arr.astype(np.int64)
        elif arr.dtype.kind not in "iu":
            raise DataError("discrete emission expects integer observations")
        if np.any(arr < 0):
            raise DataError("discrete symbols must be nonnegative")
        out = np.zeros(arr.shape, dtype=np.float64)
        inside = arr < self.pmf.size
        out[inside] = self.pmf[arr[inside]]
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size=None):
        return _draw_index(as_generator(rng), self.pmf, size)


@dataclass(frozen=True, eq=False)
class GaussianMixtureEmission(ValueEquality):
    """Finite mixture sum_r w_r N(z_r, sigma_r^2)."""

    weights: np.ndarray
    locations: np.ndarray
    scales: np.ndarray

    discrete = False

    def __post_init__(self):
        object.__setattr__(self, "weights", readonly(self.weights))
        object.__setattr__(self, "locations", readonly(self.locations))
        object.__setattr__(self, "scales", readonly(self.scales))
        w, z, s = self.weights, self.locations, self.scales
        if not (w.ndim == z.ndim == s.ndim == 1) or not (w.size == z.size == s.size > 0):
            raise ValueError("weights, locations and scales must be equal-length vectors")
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > PMF_TOL:
            raise ValueError(f"mixture weights must sum to 1 within {PMF_TOL}")
        if np.any(s <= 0.0):
            raise ValueError("mixture scales must be positive")

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    def density(self, y):
        out = mixture_density(y, self.weights, self.locations, self.scales)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size=None):
        rng = as_generator(rng)
        comp = _draw_index(rng, self.weights, size)
        return self.locations[comp] + self.scales[comp] * rng.standard_normal(size)


@dataclass(frozen=True, eq=False)
class TranslatedEmission(ValueEquality):
    """A shared base density evaluated at y - shift."""

    base: GaussianMixtureEmission
    shift: float

    discrete = False

    def __post_init__(self):
        if not isinstance(self.base, GaussianMixtureEmission):
            raise ValueError("translated emission needs a Gaussian-mixture base")
        object.__setattr__(self, "shift", float(self.shift))

    def density(self, y):
        return self.base.density(np.asarray(y, dtype=np.float64) - self.shift)

    def sample(self, rng, size=None):
        draws = self.base.sample(rng, size=size)
        return draws + self.shift


EmissionModel = DiscreteEmission | GaussianMixtureEmission | TranslatedEmission


def pad_pmfs(*emissions: DiscreteEmission) -> np.ndarray:
    """Stack discrete pmfs into one (n, S) array, zero-padding to a common S."""
    size = max(e.support_size for e in emissions)
    out = np.zeros((len(emissions), size))
    for i, e in enumerate(emissions):
        out[i, : e.support_size] = e.pmf
    return out


def l1_distance(f: EmissionModel, g: EmissionModel, n_samples: int | None = None,
                seed=None) -> Estimate:
    """L1 distance between two densities of the same domain.

    Discrete pairs are summed exactly (stderr 0). Continuous pairs are
    estimated by importance sampling from the equal mixture (f + g) / 2,
    drawing half the budget from each side.
    """
    if f.discrete != g.discrete:
        raise DataError("cannot compare a discrete emission with a continuous one")
    if f.discrete:
        pmfs = pad_pmfs(f, g)
        return Estimate(float(np.abs(pmfs[0] - pmfs[1]).sum()), 0.0)
    n = DEFAULT_MC_SAMPLES if n_samples is None else int(n_samples)
    half = mc_half(n)
    rng = as_generator(seed)
    ys = np.concatenate([np.atleast_1d(f.sample(rng, size=half)),
                         np.atleast_1d(g.sample(rng, size=n - half))])
    return mixture_l1_estimate(f.density(ys), g.density(ys), half)


def mc_half(n_samples: int) -> int:
    """Draws for the first side of a two-sided Monte Carlo estimate, which
    the second side tops up to ``n_samples``. Each side needs two draws for
    a mean and a standard error, so ``n_samples`` must be at least 4."""
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"Monte Carlo mode needs n_samples >= {MIN_MC_SAMPLES} "
                         f"(2 draws per side), got {n_samples}")
    return n_samples // 2


def mixture_l1_estimate(p: np.ndarray, q: np.ndarray, half: int) -> Estimate:
    """Importance-sampled L1 distance between two densities against their
    equal mixture, from their values ``p`` and ``q`` at points of which the
    first ``half`` were drawn from the first law and the rest from the second."""
    mix = 0.5 * (p + q)
    h = np.abs(p - q) / mix
    est = 0.5 * h[:half].mean() + 0.5 * h[half:].mean()
    var = 0.25 * (h[:half].var() / half + h[half:].var() / (p.size - half))
    return Estimate(float(est), float(np.sqrt(var)))
