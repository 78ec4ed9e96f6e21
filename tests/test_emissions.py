"""Emission families and L1 distances."""
import numpy as np
import pytest

from dphmm import (DataError, DiscreteEmission, GaussianMixtureEmission,
                   TranslatedEmission, l1_distance)
from dphmm.emissions import SQRT_2PI, gaussian_kernels, mixture_density, pad_pmfs


def test_discrete_density_lookup():
    e = DiscreteEmission(np.array([0.9, 0.1]))
    assert e.density(0) == 0.9
    assert e.density(1) == 0.1
    assert e.density(7) == 0.0
    assert np.allclose(e.density(np.array([0, 1, 3])), [0.9, 0.1, 0.0])


def test_discrete_density_rejects_fractional():
    e = DiscreteEmission(np.array([0.9, 0.1]))
    with pytest.raises(DataError):
        e.density(0.5)
    with pytest.raises(DataError):
        e.density(-1)
    assert e.density(1.0) == 0.1  # integer-valued reals are fine


def test_discrete_pmf_validation():
    with pytest.raises(ValueError):
        DiscreteEmission(np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        DiscreteEmission(np.array([1.1, -0.1]))


def test_gaussian_density_standard_normal():
    e = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert e.density(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
    assert e.density(0.0) == pytest.approx(0.39894, abs=5e-6)


def test_gaussian_mixture_density_is_weighted_sum():
    e = GaussianMixtureEmission(np.array([0.3, 0.7]), np.array([-1.0, 2.0]),
                                np.array([0.5, 1.5]))
    y = np.linspace(-4, 6, 11)
    parts = [0.3 * np.exp(-0.5 * ((y + 1) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi)),
             0.7 * np.exp(-0.5 * ((y - 2) / 1.5) ** 2) / (1.5 * np.sqrt(2 * np.pi))]
    assert np.allclose(e.density(y), parts[0] + parts[1], atol=1e-12)


def _point_major_kernels(y, locations, scales):
    """The y.shape + (R,) kernel table, in gaussian_kernels' order of passes:
    subtract, divide, square, scale by -1/2, exp."""
    buf = np.subtract(np.asarray(y, dtype=np.float64)[..., None], locations)
    buf /= scales
    buf *= buf
    buf *= -0.5
    return np.exp(buf, out=buf)


def _density_arguments(locations):
    """0-d, 1-d and 2-d points: |z| from 0 (on a location) past 40, where
    exp(-z*z/2) underflows to 0, up to the overflow of z*z at a 1e200
    outlier."""
    y = np.concatenate([np.linspace(-25.0, 25.0, 4002), locations,
                        [1e200, -1e200, locations[-1] + 2.05]])
    return y, (np.stack([y, y[::-1]]), 0.7, 1e200, [-1, 0, 2])


@pytest.mark.parametrize("R", [1, 2, 3, 7, 8, 9, 20, 50])
def test_gaussian_kernels_are_the_point_major_table_transposed(R):
    rng = np.random.default_rng(60 + R)
    locations, scales = rng.normal(0.0, 3.0, R), rng.uniform(0.05, 2.0, R)
    y, others = _density_arguments(locations)
    with np.errstate(over="ignore"):                  # z * z overflows at the outlier
        for arg in (y, *others):
            got = gaussian_kernels(arg, locations, scales)
            want = _point_major_kernels(arg, locations, scales)
            assert got.shape == (R,) + np.shape(arg)
            assert np.array_equal(got, np.moveaxis(want, -1, 0))
        assert gaussian_kernels(y, locations, scales).min() == 0.0


@pytest.mark.parametrize("R", [1, 2])
def test_mixture_density_up_to_two_components_is_the_point_major_product(R):
    # the component-major reduction ``weights @ table`` keeps the bits of
    # the point-major ``table @ weights`` while there are at most two terms
    rng = np.random.default_rng(70 + R)
    weights = rng.dirichlet(np.ones(R))
    locations, scales = rng.normal(0.0, 3.0, R), rng.uniform(0.05, 2.0, R)
    y, others = _density_arguments(locations)
    y = np.concatenate([y, rng.normal(0.0, 5.0, 20000)])
    with np.errstate(over="ignore"):
        for arg in (y, *others):
            kern = _point_major_kernels(arg, locations, scales)
            want = (kern / (SQRT_2PI * scales)) @ weights
            got = mixture_density(arg, weights, locations, scales)
            assert got.shape == np.shape(want) and np.array_equal(got, want)


def test_mixture_density_matches_its_expression_bit_for_bit():
    weights, locations = np.array([0.2, 0.5, 0.3]), np.array([-1.0, 0.0, 3.0])
    scales = np.array([0.5, 1.0, 0.05])

    def expression(y):
        y = np.asarray(y, dtype=np.float64)
        z = (y.reshape(1, -1) - locations[:, None]) / scales[:, None]
        table = np.exp(-0.5 * z * z) / (SQRT_2PI * scales)[:, None]
        return (weights @ table).reshape(y.shape)

    y, others = _density_arguments(locations)
    kept = y.copy()
    with np.errstate(over="ignore"):                  # z * z overflows at the outlier
        for arg in (y, *others, 3.0):
            got, want = mixture_density(arg, weights, locations, scales), expression(arg)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert expression(y).min() == 0.0 and expression(y).max() > 0.0
    assert np.array_equal(y, kept)


def test_translated_density_shift_identity():
    base = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    e = TranslatedEmission(base, 1.0)
    assert e.density(1.0) == pytest.approx(0.39894, abs=5e-6)
    assert e.density(2.5) == pytest.approx(base.density(1.5), abs=1e-14)


def test_emissions_compare_and_hash_by_value():
    d = DiscreteEmission(np.array([0.25, 0.75]))
    d2 = DiscreteEmission(np.array([0.25, 0.75]))
    assert d.pmf is not d2.pmf
    assert d == d2 and hash(d) == hash(d2)
    assert d != DiscreteEmission(np.array([0.75, 0.25]))        # one entry
    assert d != DiscreteEmission(np.array([0.25, 0.75, 0.0]))   # length

    def mixture(locations, scales=(0.5, 1.5)):
        return GaussianMixtureEmission(np.array([0.4, 0.6]), np.array(locations),
                                       np.array(scales))

    gm, gm2 = mixture([-1.0, 0.0]), mixture([-1.0, -0.0])
    assert gm == gm2 and hash(gm) == hash(gm2)                  # 0.0 == -0.0
    assert gm != mixture([-1.0, 0.0], scales=(0.5, 1.25))
    assert TranslatedEmission(gm, 1.0) == TranslatedEmission(gm2, 1.0)
    assert hash(TranslatedEmission(gm, 1.0)) == hash(TranslatedEmission(gm2, 1.0))
    assert TranslatedEmission(gm, 1.0) != TranslatedEmission(gm2, 1.5)
    assert TranslatedEmission(gm, 1.0) != TranslatedEmission(mixture([-1.0, 0.5]), 1.0)

    one = DiscreteEmission(np.array([1.0]))
    atom = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert one != atom and atom != one                          # type
    assert atom != TranslatedEmission(atom, 0.0)
    assert len({d, d2, gm, gm2}) == 2


def test_continuous_density_integrates_to_one():
    rng = np.random.default_rng(0)
    e = GaussianMixtureEmission(np.array([0.4, 0.6]), np.array([-1.0, 1.5]),
                                np.array([0.7, 1.2]))
    # Monte Carlo against its own draws: E[1] = 1 trivially, so integrate on a grid
    grid = np.linspace(-12, 14, 20001)
    d = e.density(grid)
    total = np.sum((d[1:] + d[:-1]) * np.diff(grid)) / 2  # np.trapezoid needs numpy >= 2
    assert total == pytest.approx(1.0, abs=1e-6)


def test_l1_exact_values():
    f = DiscreteEmission(np.array([0.9, 0.1]))
    g = DiscreteEmission(np.array([0.2, 0.8]))
    assert l1_distance(f, f).value == 0.0
    assert l1_distance(f, g).value == pytest.approx(1.4, abs=1e-12)
    disjoint = l1_distance(DiscreteEmission(np.array([1.0, 0.0])),
                           DiscreteEmission(np.array([0.0, 1.0])))
    assert disjoint.value == 2.0
    assert disjoint.stderr == 0.0


def test_l1_pads_different_supports():
    f = DiscreteEmission(np.array([0.5, 0.5]))
    g = DiscreteEmission(np.array([0.5, 0.25, 0.25]))
    assert l1_distance(f, g).value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("sizes", [(5, 5), (3, 7), (7, 3), (1, 1), (40, 40)])
def test_discrete_l1_equals_the_padded_sum_bit_for_bit(sizes):
    # pmfs of one support are subtracted as they are, others padded first;
    # both give the sum over the zero-padded pair
    rng = np.random.default_rng(sizes)
    for _ in range(20):
        f, g = (DiscreteEmission(rng.dirichlet(np.ones(m))) for m in sizes)
        pmfs = pad_pmfs(f.pmf, g.pmf)
        want = float(np.abs(pmfs[0] - pmfs[1]).sum())
        assert l1_distance(f, g).value.hex() == want.hex()


def test_l1_domain_mismatch_rejected():
    f = DiscreteEmission(np.array([0.5, 0.5]))
    g = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(DataError):
        l1_distance(f, g)


def test_l1_montecarlo_rejects_zero_budget():
    g = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    h = GaussianMixtureEmission(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    for n_samples in (0, 1, 3):  # fewer than 2 draws on a side
        with pytest.raises(ValueError, match="n_samples >= 4"):
            l1_distance(g, h, n_samples=n_samples)


def test_l1_montecarlo_accuracy_on_known_gap():
    # L1 distance between N(0,1) and N(m,1) is 2(2 Phi(|m|/2) - 1)
    from scipy.stats import norm

    g = GaussianMixtureEmission(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    h = GaussianMixtureEmission(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    est = l1_distance(g, h, n_samples=200_000, seed=0)
    expect = 2 * (2 * norm.cdf(0.5) - 1)
    assert abs(est.value - expect) <= 4 * est.stderr + 1e-3
    assert est.stderr < 5e-3


def test_l1_pseudometric_properties():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f, g, h = (DiscreteEmission(rng.dirichlet(np.ones(4))) for _ in range(3))
        fg, gf = l1_distance(f, g).value, l1_distance(g, f).value
        assert fg == gf
        assert l1_distance(f, h).value <= fg + l1_distance(g, h).value + 1e-12


def test_l1_translation_invariance_paired_seed():
    base1 = GaussianMixtureEmission(np.array([0.5, 0.5]), np.array([-1.0, 1.0]),
                                    np.array([0.8, 1.1]))
    base2 = GaussianMixtureEmission(np.array([1.0]), np.array([0.3]), np.array([0.9]))
    shift = 2.7
    plain = l1_distance(base1, base2, n_samples=20_000, seed=42)
    moved = l1_distance(TranslatedEmission(base1, shift),
                        TranslatedEmission(base2, shift),
                        n_samples=20_000, seed=42)
    # identical generator stream shifts every draw by the same offset
    assert moved.value == pytest.approx(plain.value, abs=1e-12)


def test_sampling_moments():
    rng = np.random.default_rng(10)
    e = GaussianMixtureEmission(np.array([0.3, 0.7]), np.array([-2.0, 1.0]),
                                np.array([0.5, 1.0]))
    draws = e.sample(rng, size=100_000)
    expect_mean = 0.3 * -2.0 + 0.7 * 1.0
    assert abs(draws.mean() - expect_mean) <= 3 * draws.std() / np.sqrt(draws.size)
    d = DiscreteEmission(np.array([0.2, 0.3, 0.5]))
    symbols = d.sample(np.random.default_rng(11), size=100_000)
    freq = np.bincount(symbols, minlength=3) / symbols.size
    for s in range(3):
        se = np.sqrt(d.pmf[s] * (1 - d.pmf[s]) / symbols.size)
        assert abs(freq[s] - d.pmf[s]) <= 3 * se
