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

L1 distances are exact sums for discrete pairs. For continuous pairs,
Gaussian mixtures whose atoms a translated emission moves by its shift, the
distance is deterministic: d = f - g is scanned on a uniform grid for its
sign changes, and the integral of |d| between consecutive sign changes is a
difference of the two mixture CDFs there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError
from .util import Estimate, ValueEquality, as_generator, readonly

PMF_TOL = 1e-12

SQRT_2PI = np.sqrt(2.0 * np.pi)

# the continuous L1 grid: atoms' reach in scales, points per smallest scale,
# points per density pass and the most points one distance may take
GRID_REACH = 12.0
GRID_PER_SCALE = 8
GRID_CHUNK = 2 ** 14
GRID_MAX = 2 ** 20


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


def l1_distance(f: EmissionModel, g: EmissionModel) -> Estimate:
    """L1 distance between two densities of the same domain, with stderr 0.

    Discrete pairs are summed exactly. Continuous pairs are integrated
    between the sign changes of d = f - g: on a uniform grid from the
    lowest ``z - 12 sigma`` over both mixtures' atoms, at a spacing of the
    smallest sigma over 8, to the first point past the highest
    ``z + 12 sigma`` (so a common shift moves the grid with the atoms), a
    root is interpolated linearly between consecutive nonzero values of d
    of opposite sign. A grid value of exactly 0, as where both densities
    underflow, carries no sign, so both orders of a pair give the same bits.
    With r_0 = -inf and a last root +inf, the distance is the sum of
    |D(r_{j+1}) - D(r_j)| for D = F - G, the difference of the mixture
    CDFs, with D(+-inf) = 0. A root off by e moves the value by O(e^2).
    The densities are evaluated ``GRID_CHUNK`` points at a time, and a grid
    of more than ``GRID_MAX`` points raises ``NumericalError``.
    """
    if f.discrete != g.discrete:
        raise DataError("cannot compare a discrete emission with a continuous one")
    if f.discrete:
        a, b = (f.pmf, g.pmf) if f.pmf.size == g.pmf.size else pad_pmfs(f.pmf, g.pmf)
        return Estimate(float(np.abs(a - b).sum()), 0.0)
    fa, ga = _atoms(f), _atoms(g)
    z = np.concatenate([fa[1], ga[1]])
    s = np.concatenate([fa[2], ga[2]])
    lo = float((z - GRID_REACH * s).min())
    hi = float((z + GRID_REACH * s).max())
    h = float(s.min()) / GRID_PER_SCALE
    n = math.ceil((hi - lo) / h) + 1
    if n > GRID_MAX:
        raise NumericalError(f"the L1 grid of {n} points exceeds {GRID_MAX}: the "
                             "mixtures' range is too wide for their smallest scale")
    d = np.empty(n)
    for start in range(0, n, GRID_CHUNK):
        y = lo + h * np.arange(start, min(start + GRID_CHUNK, n))
        d[start:start + y.size] = mixture_density(y, *fa) - mixture_density(y, *ga)
    at = np.flatnonzero(d)
    x, d = lo + h * at, d[at]
    j = np.flatnonzero((d[1:] > 0.0) != (d[:-1] > 0.0))
    roots = x[j] + (x[j + 1] - x[j]) * d[j] / (d[j] - d[j + 1])
    return Estimate(_cdf_gap_sum(roots.tolist(), fa, ga), 0.0)


def _atoms(e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, locations, scales) of a continuous emission: a translated
    emission's are its base's, the locations moved by the shift."""
    if isinstance(e, TranslatedEmission):
        return e.base.weights, e.base.locations + e.shift, e.base.scales
    return e.weights, e.locations, e.scales


def _cdf_gap_sum(roots, fa, ga) -> float:
    """Sum of |D(r_{j+1}) - D(r_j)| over the sorted ``roots`` between -inf
    and +inf, where D(-inf) = D(+inf) = 0 and D = F - G is the difference of
    the CDFs of the mixtures with atoms ``fa`` and ``ga``, from ``math.erf``:
    F(x) - 1/2 = sum_r w_r erf((x - z_r) / (sqrt 2 sigma_r)) / 2. F and G are
    summed apart, so swapping the mixtures negates every D exactly."""
    ft, gt = (list(zip(w.tolist(), z.tolist(), (1.0 / (math.sqrt(2.0) * s)).tolist()))
              for w, z, s in (fa, ga))
    total = prev = 0.0
    for r in roots:
        cur = 0.5 * (sum(w * math.erf((r - z) * c) for w, z, c in ft)
                     - sum(w * math.erf((r - z) * c) for w, z, c in gt))
        total += abs(cur - prev)
        prev = cur
    return total + abs(prev)
