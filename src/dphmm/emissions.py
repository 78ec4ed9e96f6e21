"""Per-state emission families and the L1 machinery used on them.

Three families share a duck-typed interface (``density``, ``sample``,
``discrete`` flag):

* ``DiscreteEmission``      pmf on {0, ..., S-1} (counting measure), zero past
  its last index; pmfs of different lengths meet on one zero-padded alphabet.
* ``GaussianMixtureEmission``  finite location-scale mixture of normals
  (Lebesgue measure on the line).
* ``TranslatedEmission``    a shared continuous density shifted by a
  state-specific offset.

Gaussian kernel tables are component-major: ``gaussian_kernels`` returns
the (R,) + y.shape table, so each elementwise pass runs over one contiguous
row per component, and per-component scalars broadcast along the leading
axis (``component_axis``). ``mixture_density`` reduces the table over the
components by ``weights @ table``; up to two components that keeps the bits
of the point-major ``table @ weights``, and from three on the dot may round
its last bits differently. The sampler's allocations and log-space
fallbacks (``gibbs``) use the same layout.

L1 distances are exact sums for discrete pairs and importance-sampled for
continuous ones, with the equal mixture of the two densities as proposal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .util import Estimate, ValueEquality, as_generator, readonly

PMF_TOL = 1e-12
DEFAULT_MC_SAMPLES = 200_000
MIN_MC_SAMPLES = 4

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _inverse_cdf(p):
    """The read-only table for drawing indices from the pmf ``p`` by inverse
    CDF, as ``cdf.searchsorted(rng.random(size), side="right")``: the steps
    ``Generator.choice(p.size, size, p=p)`` takes, without its re-check of
    ``p`` (the emission constructors check it), so a draw consumes the same
    uniforms and returns the same indices."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def component_axis(v, ndim):
    """The per-component vector ``v`` shaped (R,) + (1,) * ndim, to broadcast
    along the leading axis of a component-major table."""
    return v.reshape((-1,) + (1,) * ndim)


def gaussian_kernels(y, locations, scales):
    """exp(-z * z / 2) for z = (y - z_r) / sigma_r, shaped (R,) + y.shape:
    component-major, so every pass runs over one contiguous row per
    component.

    Computed in one fresh buffer, in place, in the order subtract, divide,
    square, scale by -1/2, exp; ``y`` is left as it is. Each entry is that of
    the point-major y.shape + (R,) table, bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    buf = np.subtract(y, component_axis(locations, y.ndim))
    buf /= component_axis(scales, y.ndim)
    buf *= buf
    buf *= -0.5
    return np.exp(buf, out=buf)


def mixture_density(y, weights, locations, scales):
    """Density of the normal mixture sum_r w_r N(z_r, sigma_r^2) at y, shaped like y.

    The kernel table is divided by sqrt(2 pi) * sigma_r and reduced over the
    components by ``weights @ table`` on its (R, y.size) form. Up to two
    components this equals the point-major ``table.T @ weights`` bit for bit;
    from three on the dot runs in the other BLAS orientation and may differ
    in the last bits."""
    y = np.asarray(y, dtype=np.float64)
    comp = gaussian_kernels(y, locations, scales)
    comp /= component_axis(SQRT_2PI * scales, y.ndim)
    return (weights @ comp.reshape(weights.size, -1)).reshape(y.shape)


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

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _inverse_cdf(self.pmf)

    def sample(self, rng, size=None):
        return self._cdf.searchsorted(as_generator(rng).random(size), side="right")


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

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _inverse_cdf(self.weights)

    def sample(self, rng, size=None):
        rng = as_generator(rng)
        comp = self._cdf.searchsorted(rng.random(size), side="right")
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


def pad_pmfs(*pmfs, support: int = 0) -> np.ndarray:
    """Stack pmf vectors into one (n, S) array, S the longest length or
    ``support`` if larger: a pmf is zero past its last index."""
    out = np.zeros((len(pmfs), max(support, *map(len, pmfs))))
    for row, p in zip(out, pmfs):
        row[:len(p)] = p
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
        a, b = (f.pmf, g.pmf) if f.pmf.size == g.pmf.size else pad_pmfs(f.pmf, g.pmf)
        return Estimate(float(np.abs(a - b).sum()), 0.0)
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
