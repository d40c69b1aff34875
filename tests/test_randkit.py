"""Distribution primitives: exactness, determinism, stream independence."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from araprice.randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    ecdf,
    ecdf_eval,
    sample_categorical,
    sample_inverse_gamma,
    sample_power_prior,
    student_t_cdf,
)


def t_density(x, dof):
    c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    return c * (1 + x * x / dof) ** (-(dof + 1) / 2)


def ks_statistic(samples, cdf):
    s = np.sort(samples)
    n = s.size
    f = cdf(s)
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        assert student_t_cdf(0.0, 4.0) == 0.5

    def test_limits(self):
        assert student_t_cdf(math.inf, 4.0) == 1.0
        assert student_t_cdf(-math.inf, 4.0) == 0.0

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, -3.0)

    @pytest.mark.parametrize(
        "x,dof",
        [(1.0, 4.0), (-2.5, 1.0), (0.7, 2.6), (3.2, 0.8), (-0.3, 7.0)],
    )
    def test_against_adaptive_quadrature(self, x, dof):
        # integrate the density itself; fully independent of the beta route
        tail, _ = integrate.quad(
            t_density, -np.inf, x, args=(dof,), epsabs=1e-13, epsrel=1e-13
        )
        assert abs(student_t_cdf(x, dof) - tail) < 1e-10

    def test_monotone_and_bounded(self):
        xs = np.linspace(-30, 30, 2001)
        for dof in (0.5, 1.0, 2.0, 4.0, 25.0):
            values = student_t_cdf(xs, dof)
            assert np.all(np.diff(values) >= 0)
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_matches_scipy(self):
        xs = np.linspace(-12, 12, 97)
        for dof in (1.0, 4.0, 9.5):
            assert np.allclose(
                student_t_cdf(xs, dof), stats.t.cdf(xs, dof), atol=5e-14
            )


class TestInverseGamma:
    def test_analytic_mean(self):
        params = InverseGammaParams(shape=2.0, scale=2.0)
        draws = sample_inverse_gamma(params, RngStream(7), size=1_000_000)
        assert abs(draws.mean() - params.mean()) <= 0.01

    def test_support_positive(self):
        draws = sample_inverse_gamma(
            InverseGammaParams(0.5, 0.5), RngStream(11), size=10_000
        )
        assert np.all(draws > 0)

    def test_determinism(self):
        a = sample_inverse_gamma(InverseGammaParams(2, 3), RngStream(5, 9), size=100)
        b = sample_inverse_gamma(InverseGammaParams(2, 3), RngStream(5, 9), size=100)
        assert np.array_equal(a, b)

    def test_ks_against_analytic_cdf(self):
        params = InverseGammaParams(2.0, 2.0)
        draws = sample_inverse_gamma(params, RngStream(13), size=1_000_000)
        d = ks_statistic(draws, lambda x: stats.invgamma.cdf(x, 2.0, scale=2.0))
        assert d < 0.002

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InverseGammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            InverseGammaParams(1.0, -1.0)


class TestPowerPrior:
    def test_transform_endpoints(self):
        prior = PowerPricePrior(5.0, 50.0, 2.0)
        # u -> 0 and u -> 1 map to the interval ends
        lo = prior.lower + (prior.upper - prior.lower) * 0.0 ** (1 / 3)
        hi = prior.lower + (prior.upper - prior.lower) * 1.0 ** (1 / 3)
        assert lo == prior.lower and hi == prior.upper
        draws = sample_power_prior(prior, RngStream(3), size=10_000)
        assert draws.min() >= prior.lower and draws.max() <= prior.upper

    def test_exponent_zero_is_uniform(self):
        prior = PowerPricePrior(10.0, 20.0, 0.0)
        draws = sample_power_prior(prior, RngStream(17), size=1_000_000)
        se = (prior.upper - prior.lower) / math.sqrt(12) / math.sqrt(draws.size)
        assert abs(draws.mean() - 15.0) <= 3 * se

    def test_ks_against_analytic_cdf(self):
        prior = PowerPricePrior(5.0, 50.0, 2.0)
        draws = sample_power_prior(prior, RngStream(23), size=1_000_000)
        d = ks_statistic(draws, lambda x: ((x - 5.0) / 45.0) ** 3)
        assert d < 0.002

    def test_ppf_inverts_cdf(self):
        prior = PowerPricePrior(5.0, 50.0, 2.0)
        u = np.linspace(0.0, 1.0, 101)
        assert prior.ppf(0.0) == prior.lower and prior.ppf(1.0) == prior.upper
        np.testing.assert_allclose(prior.cdf(prior.ppf(u)), u, rtol=0, atol=1e-12)

    def test_density_integrates_to_one(self):
        prior = PowerPricePrior(2.0, 9.0, 1.7)
        total, _ = integrate.quad(prior.pdf, prior.lower, prior.upper)
        assert abs(total - 1.0) < 1e-10

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PowerPricePrior(5.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            PowerPricePrior(1.0, 2.0, -0.5)


class TestCategorical:
    def test_frequencies(self):
        pmf = CategoricalPMF((1.0, 2.0, 4.0), (0.2, 0.5, 0.3))
        draws = sample_categorical(pmf, RngStream(29), size=200_000)
        for v, p in zip(pmf.values, pmf.probs):
            freq = np.mean(draws == v)
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / draws.size)

    def test_prob_below(self):
        pmf = CategoricalPMF((0.025, 0.03, 0.035), (0.3, 0.3, 0.4))
        assert pmf.prob_below(0.025) == 0.0
        assert pmf.prob_below(0.031) == pytest.approx(0.6)
        assert pmf.cdf(0.03) == pytest.approx(0.6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CategoricalPMF((1.0, 2.0), (0.5, 0.4))  # mass 0.9
        with pytest.raises(ValueError):
            CategoricalPMF((2.0, 1.0), (0.5, 0.5))  # descending
        with pytest.raises(ValueError):
            CategoricalPMF((1.0, 2.0), (1.1, -0.1))  # negative


class TestEmpirical:
    def test_step_function(self):
        dist = ecdf([3.0, 1.0, 2.0, 2.0])
        assert dist.samples.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert ecdf_eval(dist, 0.5) == 0.0
        assert ecdf_eval(dist, 1.0) == 0.25  # right-continuous: includes the atom
        assert ecdf_eval(dist, 2.0) == 0.75
        assert ecdf_eval(dist, 99.0) == 1.0

    def test_monotone(self):
        dist = ecdf(np.random.default_rng(1).normal(size=500))
        xs = np.linspace(-4, 4, 200)
        values = ecdf_eval(dist, xs)
        assert np.all(np.diff(values) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([]))


class TestStreams:
    def test_repeatability(self):
        a = RngStream(123, 7).generator.random(50)
        b = RngStream(123, 7).generator.random(50)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.random(50)
        b = RngStream(123, 1).generator.random(50)
        assert not np.array_equal(a, b)

    def test_pairwise_independence(self):
        n = 1_000_000
        a = RngStream(5, 0).generator.standard_normal(n)
        b = RngStream(5, 1).generator.standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 3.0 / math.sqrt(n)

    def test_derive_gives_distinct_children(self):
        root = RngStream(99)
        ids = {root.derive(i).stream_id for i in range(1000)}
        assert len(ids) == 1000

    def test_derived_stream_independence(self):
        root = RngStream(42, 1234)
        a = root.derive(0).generator.standard_normal(200_000)
        b = root.derive(1).generator.standard_normal(200_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 3.0 / math.sqrt(200_000)
