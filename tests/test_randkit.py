"""Distribution primitives: exactness, determinism, stream independence."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from araprice.randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    _T_LOWER_TAILS,
    _t_cdf_betainc,
    sample_inverse_gamma,
    student_t_cdf,
)

ULP_HALF = 2.0**-53  # half the spacing of doubles at 1: one ulp at 0.5


def t_cdf_reference(x: float, dof: float) -> float:
    """The t CDF at 40 digits, with x taken exactly: near 0 through
    I_{x^2/(dof+x^2)}(1/2, dof/2), in the tails through
    I_{dof/(dof+x^2)}(dof/2, 1/2), so neither side loses digits."""
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    with mpmath.workdps(40):
        xm, nu = mpmath.mpf(x), mpmath.mpf(dof)
        x2 = xm * xm
        if x2 < nu:
            half = mpmath.betainc(0.5, nu / 2, 0, x2 / (nu + x2), regularized=True) / 2
            return float(0.5 + half if x > 0 else 0.5 - half)
        tail = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + x2), regularized=True) / 2
        return float(1 - tail if x > 0 else tail)


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
        grids = [np.linspace(-30, 30, 2001)] + [
            np.linspace(lo, hi, 200_001)
            for lo, hi in ((-1e-6, 1e-6), (-3.0, 3.0), (-60.0, 60.0), (-1e6, -1.0))
        ]
        for xs in grids:
            for dof in (0.5, 1.0, 2.0, 2.6, 3.0, 4.0, 25.0):
                values = student_t_cdf(xs, dof)
                assert np.all(np.diff(values) >= 0), (xs[0], dof)
                assert values.min() >= 0.0 and values.max() <= 1.0

    def test_matches_scipy(self):
        xs = np.linspace(-12, 12, 97)
        for dof in (1.0, 4.0, 9.5):
            assert np.allclose(
                student_t_cdf(xs, dof), stats.t.cdf(xs, dof), atol=5e-14
            )

    @pytest.mark.parametrize("dof", [2, 2.6, 6.0, 9.5])
    @pytest.mark.parametrize("x", [1e-8, -1e-8, 1e-5, -1e-5])
    def test_beta_route_keeps_the_distance_from_one_half(self, x, dof):
        # dof/(dof+x^2) rounds to 1 here; the route switches to x^2/(dof+x^2)
        assert abs(student_t_cdf(x, dof) - t_cdf_reference(x, dof)) <= 2 * ULP_HALF


SAMPLE_X = st.one_of(
    st.floats(-60.0, 60.0),
    st.floats(-1e-6, 1e-6),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestStudentTCdfClosedForms:
    """dof 1, 3 and 4 take closed forms, at least as accurate as the beta
    route."""

    @settings(max_examples=300, deadline=None)
    @given(x=SAMPLE_X, dof=st.sampled_from([1, 3, 4]))
    @example(x=-1e-8, dof=1)
    @example(x=-1e-8, dof=4)
    @example(x=0.0, dof=3)
    @example(x=-1e75, dof=4)
    @example(x=-1e99, dof=3)
    @example(x=-1e150, dof=1)
    def test_against_mpmath(self, x, dof):
        got = student_t_cdf(x, float(dof))
        ref = t_cdf_reference(x, dof)
        assert abs(got - ref) <= 4 * ULP_HALF
        if x <= 0 and ref >= 1e-300:
            assert abs(got - ref) <= 1e-13 * ref
        assert abs(got + student_t_cdf(-x, float(dof)) - 1.0) <= np.spacing(1.0)
        assert np.float64(student_t_cdf(x, dof)).tobytes() == np.float64(got).tobytes()

    @pytest.mark.parametrize("dof", [1, 3, 4, 1.0, 3.0, 4.0])
    def test_limits_nan_and_scalars_without_warnings(self, dof):
        xs = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = student_t_cdf(xs, dof)
            scalar = student_t_cdf(np.array(-2.0), dof)
        assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
        # atan(inf) rounds pi/2 down, so dof 3 gives 1/2 - 2^-54 at 0
        assert out[3] == out[4] and abs(out[3] - 0.5) <= ULP_HALF / 2
        assert out[5] == 1.0 and 0.0 <= out[6] < 1e-299
        assert type(scalar) is float and type(student_t_cdf(-2, dof)) is float
        assert scalar == student_t_cdf(np.array([-2.0]), dof)[0]
        # the beta route rounds F(-1e-8) to exactly 1/2; the closed forms do not
        assert student_t_cdf(-1e-8, dof) < 0.5

    @pytest.mark.parametrize("dof", [1.0, 3.0, 4.0])
    def test_upper_half_flips_the_lower_tail_bit_for_bit(self, dof):
        """F is the lower tail L = F(-|x|) for x <= 0 and 1 - L above, for
        any memory layout of x and for scalars; a 0 of F is +0.0."""
        rng = np.random.default_rng(int(dof))
        xs = np.concatenate([
            rng.normal(0.0, 3.0, 500) * 10.0 ** rng.uniform(-8, 8, 500),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, np.nan],
        ])
        with np.errstate(divide="ignore", over="ignore"):
            tail = _T_LOWER_TAILS[dof](np.abs(xs))
        ref = np.where(xs > 0, 1.0 - tail, tail)
        assert (ref == 0.0).any() and not np.signbit(ref[ref == 0.0]).any()

        def check(x, want):
            got = student_t_cdf(x, dof)
            assert np.shape(got) == np.shape(want)
            got = np.asarray(got, dtype=float)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
            assert not np.signbit(got[got == 0.0]).any()

        check(xs, ref)
        check(xs[::3], ref[::3])  # strided
        check(xs[::-1], ref[::-1])  # negative stride
        square = xs[:484].reshape(22, 22)
        check(np.asfortranarray(square), ref[:484].reshape(22, 22))
        check(square.T, ref[:484].reshape(22, 22).T)  # Fortran-ordered view
        for i in (0, 5, 17, *range(500, 509)):  # 0-d, Python and numpy scalars
            for scalar in (np.array(xs[i]), float(xs[i]), xs[i]):
                got = student_t_cdf(scalar, dof)
                assert type(got) is float
                assert np.float64(got).tobytes() == ref[i].tobytes() or np.isnan(ref[i])

    def test_closed_forms_no_less_accurate_than_the_beta_route(self):
        rng = np.random.default_rng(20)
        mags = np.concatenate([10.0 ** rng.uniform(-12, 75, 400), rng.uniform(0, 8, 400)])
        xs = np.concatenate([-mags, mags])
        for dof in (1.0, 3.0, 4.0):
            ref = np.array([t_cdf_reference(x, dof) for x in xs])
            lower = (xs <= 0) & (ref >= 1e-300)
            errors = {}
            for name, got in (
                ("closed", student_t_cdf(xs, dof)),
                ("beta", _t_cdf_betainc(xs, dof)),
            ):
                err = np.abs(got - ref)
                errors[name] = (err.max(), (err[lower] / ref[lower]).max())
            # the beta route is off by up to a few ulps; the relative test
            # allows the closed forms that much too
            assert errors["closed"][0] <= errors["beta"][0], dof
            assert errors["closed"][1] <= max(errors["beta"][1], 4 * ULP_HALF), dof

    def test_peak_memory_no_more_than_the_beta_route(self):
        # the shape of the market solve in the benchmark: 37 own prices
        # against 4,000 draws of two rivals' prices
        rng = np.random.default_rng(4)
        own = 11.0 + 0.5 * np.arange(37)
        gaps = own[:, None, None] - rng.uniform(10.0, 30.0, (4000, 2))

        def peak(dof: float) -> int:
            tracemalloc.start()
            try:
                student_t_cdf(gaps, dof)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        beta = peak(2.6)
        assert peak(3.0) <= beta and peak(4.0) <= beta


class TestInverseGamma:
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
        draws = prior.ppf(RngStream(3).generator.random(10_000))
        assert draws.min() >= prior.lower and draws.max() <= prior.upper

    def test_exponent_zero_is_uniform(self):
        prior = PowerPricePrior(10.0, 20.0, 0.0)
        draws = prior.ppf(RngStream(17).generator.random(1_000_000))
        se = (prior.upper - prior.lower) / math.sqrt(12) / math.sqrt(draws.size)
        assert abs(draws.mean() - 15.0) <= 3 * se

    def test_ks_against_analytic_cdf(self):
        prior = PowerPricePrior(5.0, 50.0, 2.0)
        draws = prior.ppf(RngStream(23).generator.random(1_000_000))
        d = ks_statistic(draws, lambda x: ((x - 5.0) / 45.0) ** 3)
        assert d < 0.002

    def test_ppf_inverts_cdf(self):
        prior = PowerPricePrior(5.0, 50.0, 2.0)
        u = np.linspace(0.0, 1.0, 101)
        assert prior.ppf(0.0) == prior.lower and prior.ppf(1.0) == prior.upper
        cdf = ((prior.ppf(u) - 5.0) / 45.0) ** 3  # closed form, exponent 2
        np.testing.assert_allclose(cdf, u, rtol=0, atol=1e-12)

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
    def test_prob_below(self):
        pmf = CategoricalPMF((0.025, 0.03, 0.035), (0.3, 0.3, 0.4))
        assert pmf.prob_below(0.025) == 0.0
        assert pmf.prob_below(0.031) == pytest.approx(0.6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CategoricalPMF((1.0, 2.0), (0.5, 0.4))  # mass 0.9
        with pytest.raises(ValueError):
            CategoricalPMF((2.0, 1.0), (0.5, 0.5))  # descending
        with pytest.raises(ValueError):
            CategoricalPMF((1.0, 2.0), (1.1, -0.1))  # negative


class TestEmpirical:
    def test_samples_are_sorted(self):
        dist = EmpiricalDistribution([3.0, 1.0, 2.0, 2.0])
        assert dist.samples.tolist() == [1.0, 2.0, 2.0, 3.0]

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
