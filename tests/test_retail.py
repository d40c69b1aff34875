"""Retail engine: choice probabilities, forecasting, optimization."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from araprice._parallel import BLOCK_ELEMENTS
from araprice.randkit import InverseGammaParams, RngStream
from araprice.core import EvaluationCurve, _distinct_states
from araprice.retail import (
    RetailScenario,
    _sum_draws,
    estimate_expected_utility,
    optimize_price,
    probit_choice_prob,
    sample_competitor_prices,
    t_choice_prob,
)
from araprice.oracle import quadrature_competitor_objective


def make_scenario(**overrides) -> RetailScenario:
    base = dict(
        cost=5.0,
        competitor_cost=5.0,
        max_price=50.0,
        competitor_max_price=40.0,
        customer_noise=InverseGammaParams(2.0, 2.0),
        competitor_noise=InverseGammaParams(0.5, 0.5),
        prior_exponent=2.0,
        grid_step=0.5,
        n1=100,
        n2=100,
    )
    base.update(overrides)
    return RetailScenario(**base)


CASE1 = make_scenario(fixed_sigma=0.01, known_competitor_price=30.0)
CASE2 = make_scenario(known_competitor_price=30.0)
CASE3 = make_scenario()


def t_density(x, dof):
    c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    return c * (1 + x * x / dof) ** (-(dof + 1) / 2)


class TestProbitChoice:
    def test_equal_prices(self):
        assert probit_choice_prob(30.0, 30.0, 2.7) == 0.5

    def test_sharp_preference(self):
        assert probit_choice_prob(29.5, 30.0, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_one_unit_gap_vs_erfc_oracle(self):
        expected = 0.5 * math.erfc(1.0 / math.sqrt(2.0))  # 1 - Phi(1)
        assert probit_choice_prob(31.0, 30.0, 1.0) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.158655, abs=1e-6)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            probit_choice_prob(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            probit_choice_prob(1.0, 2.0, -1.0)


class TestTChoice:
    def test_equal_prices(self):
        assert t_choice_prob(30.0, 30.0, InverseGammaParams(2.0, 2.0)) == 0.5

    def test_unit_gap_against_quadrature(self):
        # survival mass of a t with 4 dof beyond 1
        tail, _ = integrate.quad(t_density, 1.0, np.inf, args=(4.0,), epsabs=1e-13)
        value = t_choice_prob(31.0, 30.0, InverseGammaParams(2.0, 2.0))
        assert value == pytest.approx(tail, abs=1e-10)
        assert value == pytest.approx(0.1870, abs=2e-4)

    def test_marginalizes_probit_over_noise_prior(self):
        # the closed form equals the Monte Carlo average of the probit over
        # variance draws; light version of the full acceptance check
        noise = InverseGammaParams(2.0, 2.0)
        sigma = np.sqrt(
            1.0 / RngStream(41).generator.gamma(noise.shape, 1.0 / noise.scale, 300_000)
        )
        worst = 0.0
        for gap in np.arange(-5.0, 5.5, 1.0):
            mc = float(np.mean(1.0 - _phi(gap / sigma)))
            worst = max(worst, abs(mc - t_choice_prob(30.0 + gap, 30.0, noise)))
        assert worst <= 0.004


def _phi(x):
    from scipy.special import ndtr

    return ndtr(x)


class TestCompetitorForecast:
    def test_support_within_feasible_range(self):
        draws = sample_competitor_prices(CASE3, RngStream(7))
        assert draws.size == CASE3.n1
        assert draws.min() >= 5.0 and draws.max() <= 40.0

    def test_known_price_degenerate(self):
        draws = sample_competitor_prices(CASE1, RngStream(7))
        assert np.all(draws == 30.0)

    def test_sharp_limit_undercuts_our_price(self):
        # our price is (almost) surely 40 and choice noise is (almost) zero:
        # the rival's payoff is margin times 1{her price < 40}, so the best
        # response is the largest grid point strictly below 40
        scenario = make_scenario(
            cost=39.9999999,
            max_price=40.0000001,
            fixed_sigma=1e-9,
        )
        draws = sample_competitor_prices(scenario, RngStream(11))
        assert np.all(draws == 39.5)

    def test_single_forecast_matches_quadrature_argmax(self):
        scenario = make_scenario(n1=1, n2=10_000)
        draw = sample_competitor_prices(scenario, RngStream(13))[0]
        grid, objective = quadrature_competitor_objective(scenario, nodes=512)
        oracle_argmax = grid[int(np.argmax(objective))]
        assert abs(draw - oracle_argmax) <= scenario.grid_step + 1e-12


def single_array_forecast(scenario, rng):
    """The rival forecast with every draw in one (n1, n2, grid) array."""
    grid = scenario.competitor_grid.points()
    u = rng.generator.random((scenario.n1, scenario.n2))
    prior = scenario.our_price_prior
    ours = prior.lower + (prior.upper - prior.lower) * u ** (1.0 / (prior.exponent + 1.0))
    if scenario.fixed_sigma is not None:
        accept = probit_choice_prob(ours[:, :, None], grid[None, None, :], scenario.fixed_sigma)
    else:
        accept = t_choice_prob(ours[:, :, None], grid[None, None, :], scenario.competitor_noise)
    objective = (grid - scenario.competitor_cost)[None, :] * (1.0 - accept).mean(axis=1)
    return grid[np.argmax(objective, axis=1)]


class TestBlockedForecast:
    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.integers(0, 3),
        offset=st.integers(-1, 1),
        n2=st.integers(1, 400),
        top=st.integers(6, 40),
        step=st.sampled_from([0.25, 0.5, 1.0]),
        fixed_sigma=st.none() | st.floats(0.01, 5.0),
        shape=st.floats(0.3, 5.0),
        exponent=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_array_bit_for_bit(
        self, blocks, offset, n2, top, step, fixed_sigma, shape, exponent, seed
    ):
        """n1 lands on, one row below or one row above 0 to 3 whole row
        blocks of the forecast."""
        scenario = make_scenario(
            n2=n2,
            competitor_max_price=float(top),
            max_price=float(top) + 5.0,
            grid_step=step,
            fixed_sigma=fixed_sigma,
            competitor_noise=InverseGammaParams(shape, shape),
            prior_exponent=exponent,
        )
        rows = max(1, BLOCK_ELEMENTS // (n2 * len(scenario.competitor_grid)))
        scenario = dataclasses.replace(scenario, n1=max(1, blocks * rows + offset))
        expected = single_array_forecast(scenario, RngStream(seed))
        got = sample_competitor_prices(scenario, RngStream(seed))
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 20),
        shift=st.integers(-5, 25),
        points=st.integers(1, 24),
        step=st.sampled_from([0.5, 1.0]),
        n1=st.integers(1, 80),
        n2=st.sampled_from([1, 2, 3, 4]) | st.integers(1, 60),
        noise=st.just(1e-9)
        | st.floats(0.01, 5.0)
        | st.tuples(st.floats(0.3, 5.0), st.just(1e-12) | st.floats(0.3, 5.0)),
        exponent=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # an exact tie between two grid prices, met after the higher one is scored
    @example(17, 11, 21, 1.0, 64, 2, 1e-9, 0.0, 1302211876)
    # saturated noise, every rival price above ours: every objective is 0
    @example(10, 12, 8, 0.5, 5, 3, 1e-9, 1.0, 0)
    @example(10, 12, 8, 0.5, 5, 3, (2.0, 1e-12), 1.0, 0)
    @example(10, 0, 1, 1.0, 3, 1, 0.5, 0.0, 0)  # a one-point grid
    def test_pruned_search_keeps_the_lowest_argmax(
        self, width, shift, points, step, n1, n2, noise, exponent, seed
    ):
        """Saturated probit noise (sigma 1e-9) and half or whole grid steps
        make the objectives multiples of 1/n2 and ties common; the rival's
        grid may lie above, across or below our prices."""
        noise_fields = (
            dict(competitor_noise=InverseGammaParams(*noise))
            if isinstance(noise, tuple)
            else dict(fixed_sigma=noise)
        )
        scenario = make_scenario(
            max_price=5.0 + width,
            competitor_cost=5.0 + shift,
            competitor_max_price=5.0 + shift + (points - 1) * step,
            grid_step=step,
            n1=n1,
            n2=n2,
            prior_exponent=exponent,
            **noise_fields,
        )
        expected = single_array_forecast(scenario, RngStream(seed))
        got = sample_competitor_prices(scenario, RngStream(seed))
        assert got.tobytes() == expected.tobytes()

    def test_refined_forecast_memory_is_bounded(self):
        """The 32x-refined retail_case3 forecast of `price compare`: one
        3200 x 100 x 71 float64 temporary alone would take 173 MiB."""
        scenario = dataclasses.replace(CASE3, n1=3200)
        tracemalloc.start()
        try:
            sample_competitor_prices(scenario, RngStream(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestDrawSum:
    # eight draws that numpy's pairwise sum adds as (1 + 2^-53) + 2^-52 +
    # 2^-51 = 1 + 3 * 2^-52, while adding them in order keeps 1.0
    DRAWS = np.array([1.0] + [2.0**-53] * 7)

    def test_one_column_adds_the_draws_in_order(self):
        win = self.DRAWS[:, None]
        assert win.sum(axis=0).tobytes() != np.cumsum(win, axis=0)[-1].tobytes()
        assert _sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_add_the_draws_in_order_in_either_layout(self, order):
        win = np.array(np.stack([self.DRAWS, self.DRAWS[::-1], self.DRAWS], axis=1),
                       order=order)
        assert _sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n2=st.integers(1, 300),
        columns=st.integers(1, 9),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cumsum_bit_for_bit(self, n2, columns, order, seed):
        g = np.random.default_rng(seed)
        win = np.array(g.random((n2, columns)) ** g.uniform(1.0, 60.0), order=order)
        assert _sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()


class TestExpectedUtility:
    def test_zero_margin_price(self):
        value, se = estimate_expected_utility(5.0, [30.0, 28.0], CASE3)
        assert value == 0.0

    def test_benchmark_point_value(self):
        value, _ = estimate_expected_utility(29.5, [30.0], CASE1)
        assert value == 24.5

    def test_perishable_identity(self):
        perishable = make_scenario(utility_variant="perishable")
        samples = np.array([22.0, 30.0, 35.0])
        for p1 in np.arange(5.0, 50.5, 4.5):
            plain, _ = estimate_expected_utility(p1, samples, CASE3)
            salvage, _ = estimate_expected_utility(p1, samples, perishable)
            accept = plain / (p1 - 5.0) if p1 > 5.0 else None
            if accept is not None:
                assert plain - salvage == pytest.approx(5.0 * (1 - accept), abs=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_expected_utility(10.0, [], CASE3)
        with pytest.raises(ValueError, match="outside"):
            estimate_expected_utility(60.0, [30.0], CASE3)


class TestOptimizePrice:
    def test_benchmark_case_selects_just_below_rival(self):
        for seed in (1, 42, 993):
            curve = optimize_price(CASE1, RngStream(seed))
            assert curve.optimum == 29.5
            assert curve.optimum_utility == pytest.approx(24.5, abs=1e-9)

    def test_acceptance_column_monotone_nonincreasing(self):
        curve = optimize_price(CASE3, RngStream(21))
        assert np.all(np.diff(curve.accept_prob) <= 1e-15)

    def test_expected_utility_nonnegative(self):
        curve = optimize_price(CASE3, RngStream(22))
        assert np.all(curve.expected_utility >= 0.0)

    def test_endpoint_behavior(self):
        curve = optimize_price(CASE3, RngStream(23))
        assert curve.accept_prob[0] == curve.accept_prob.max()
        assert curve.expected_utility[0] == 0.0
        assert curve.expected_utility[-1] < 0.05 * curve.expected_utility.max()

    def test_seed_determinism(self):
        a = optimize_price(CASE3, RngStream(31))
        b = optimize_price(CASE3, RngStream(31))
        assert np.array_equal(a.expected_utility, b.expected_utility)
        assert np.array_equal(a.accept_prob, b.accept_prob)
        assert np.array_equal(a.std_err, b.std_err)
        c = optimize_price(CASE3, RngStream(32))
        assert not np.array_equal(a.expected_utility, c.expected_utility)

    def test_grid_blocks_match_one_call(self):
        """At grid step 0.05 and n1 = 1500 the forecast takes 304 distinct
        prices, so a row block of the grid solver holds 431 of the 901
        grid prices: scored in three blocks, the curve has the bits of one
        grid x distinct prices ``from_draws`` call at their frequencies
        (perishable, so a lost sale pays)."""
        scenario = dataclasses.replace(
            CASE3, n1=1500, n2=10, grid_step=0.05, utility_variant="perishable"
        )
        points = scenario.price_grid.points()
        samples = sample_competitor_prices(scenario, RngStream(34))
        states, weights = _distinct_states(samples)
        assert states.size == 304 and BLOCK_ELEMENTS // states.size < points.size
        accept = t_choice_prob(points[:, None], states[None, :], scenario.customer_noise)
        expected = EvaluationCurve.from_draws(
            points, accept, points - scenario.cost, np.full(points.size, -scenario.cost),
            weights, scenario.n1,
        )
        got = optimize_price(scenario, RngStream(34))
        for column in ("accept_prob", "expected_utility", "std_err"):
            assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()

    def test_grid_memory_is_bounded(self):
        """The benchmark case at n1 = 200,000: one 91 x 200,000 float64
        acceptance matrix alone would take 139 MiB."""
        scenario = dataclasses.replace(CASE1, n1=200_000)
        tracemalloc.start()
        try:
            curve = optimize_price(scenario, RngStream(35))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.optimum == 29.5
        assert peak < 16 * 2**20

    def test_invalid_scenario_rejected(self):
        bad = make_scenario(n1=0)
        with pytest.raises(ValueError, match="n1"):
            optimize_price(bad, RngStream(1))
