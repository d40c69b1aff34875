"""Generic template: choice problem, competitor forecasting, grid solver."""

import math
import warnings

import numpy as np
import pytest

from araprice.core import (
    AgentBeliefs,
    EvaluationCurve,
    OutcomeModel,
    PriceGrid,
    ProducerUtility,
    RandomUtilitySpec,
    ValidationConfig,
    customer_choice_probs,
    realize_choice,
    sample_competitor_optimal_price,
    solve_supported_price,
    validate_problem,
)
from araprice.oracle import quadrature_competitor_objective
from araprice.pension import OfferEvaluation
from araprice.randkit import CategoricalPMF, PowerPricePrior, RngStream, student_t_cdf
from araprice.retail import RetailScenario
from araprice.randkit import InverseGammaParams

CASE1_OFFERS = CategoricalPMF(
    (0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055, 0.06, 0.065, 0.07),
    (0.05, 0.1, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.0),
)

# strictly increasing in the offered rate for every parameter value
INCREASING_RATE_UTILITY = RandomUtilitySpec.custom(
    builder=lambda rho: (lambda rate, s: 1.0 - np.exp(-rho * (1.0 + rate) ** 8)),
    prior=(0.85, 0.95),
)


class TestPriceGrid:
    def test_inclusive_endpoints_and_contents(self):
        points = PriceGrid(5.0, 50.0, 0.5).points()
        assert points.size == 91
        assert points[0] == 5.0 and points[-1] == 50.0
        assert 29.5 in points

    def test_decimal_snapping(self):
        points = PriceGrid(0.025, 0.07, 0.005).points()
        assert points.size == 10
        assert 0.045 in points and 0.05 in points and 0.07 in points

    def test_invalid(self):
        with pytest.raises(ValueError):
            PriceGrid(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            PriceGrid(1.0, 2.0, 0.0)

    def test_single_point(self):
        assert PriceGrid(3.0, 3.0, 1.0).points().tolist() == [3.0]


class TestCustomerChoice:
    def test_identical_products_split_evenly(self):
        # symmetric tie-free perturbation: an independent utility parameter
        # per product; identical prices and outcomes
        spec = RandomUtilitySpec.custom(
            builder=lambda rho: (lambda p, s: 1.0 - np.exp(-rho * (30.0 - p))),
            prior=(0.8, 1.2),
            per_product=True,
        )
        outcomes = OutcomeModel.point_mass(2)
        n = 4000
        probs = customer_choice_probs([20.0, 20.0], spec, outcomes, n, RngStream(31))
        se = math.sqrt(0.25 / n)
        assert abs(probs[0] - 0.5) <= 3 * se

    def test_rate_comparison_against_closed_form(self):
        # one fixed offer vs a pmf rival; increasing utilities reduce the
        # choice to a rate comparison, so the oracle is the pmf mass below
        outcomes = OutcomeModel.point_mass(2)
        n = 10_000
        probs = customer_choice_probs(
            [0.045, CASE1_OFFERS], INCREASING_RATE_UTILITY, outcomes, n, RngStream(37)
        )
        exact = CASE1_OFFERS.prob_below(0.045)
        assert exact == pytest.approx(0.55)
        assert abs(probs[0] - exact) <= 0.02

    def test_single_product_degenerate(self):
        probs = customer_choice_probs(
            [10.0], RandomUtilitySpec.risk_neutral(), OutcomeModel.point_mass(1), 10,
            RngStream(1),
        )
        assert probs.tolist() == [1.0]

    def test_probabilities_partition_unity(self):
        outcomes = OutcomeModel.point_mass(3)
        probs = customer_choice_probs(
            [0.03, CASE1_OFFERS, CASE1_OFFERS],
            INCREASING_RATE_UTILITY,
            outcomes,
            777,
            RngStream(5),
        )
        assert probs.sum() == 1.0
        assert np.all(probs >= 0)

    def test_strict_tie_rule_favors_competitor(self):
        # equal deterministic utilities: the competitor must win every draw
        spec = RandomUtilitySpec.risk_neutral()
        probs = customer_choice_probs(
            [10.0, 10.0], spec, OutcomeModel.point_mass(2), 200, RngStream(3)
        )
        assert probs.tolist() == [0.0, 1.0]

    def test_argmax_scale_invariance(self):
        outcomes = OutcomeModel.point_mass(2)
        base = INCREASING_RATE_UTILITY
        scaled = RandomUtilitySpec.custom(
            builder=lambda rho: (
                lambda rate, s: 7.3 * (1.0 - np.exp(-rho * (1.0 + rate) ** 8))
            ),
            prior=base.prior,
        )
        prices = [0.045, CASE1_OFFERS]
        for draw in range(60):
            a = realize_choice(prices, base, outcomes, RngStream(101, draw).generator)
            b = realize_choice(prices, scaled, outcomes, RngStream(101, draw).generator)
            assert a.chosen == b.chosen

    def test_monotone_dominance_in_own_price(self):
        # decreasing utility in price: cutting our price never lowers our share
        spec = RandomUtilitySpec.custom(
            builder=lambda rho: (lambda p, s: 1.0 - np.exp(-rho * (60.0 - p))),
            prior=(0.05, 0.15),
        )
        rival = CategoricalPMF((18.0, 20.0, 22.0), (0.3, 0.4, 0.3))
        outcomes = OutcomeModel.point_mass(2)
        p_low = customer_choice_probs(
            [19.0, rival], spec, outcomes, 4000, RngStream(71)
        )[0]
        p_high = customer_choice_probs(
            [21.0, rival], spec, outcomes, 4000, RngStream(71)
        )[0]
        assert p_low >= p_high

    def test_iid_competitors_power_law(self):
        outcomes = OutcomeModel.point_mass(4)
        n = 20_000
        multi = customer_choice_probs(
            [0.05, CASE1_OFFERS, CASE1_OFFERS, CASE1_OFFERS],
            INCREASING_RATE_UTILITY,
            outcomes,
            n,
            RngStream(83),
        )[0]
        single = CASE1_OFFERS.prob_below(0.05)
        expected = single**3
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(multi - expected) <= 3 * se

    def test_degenerate_outcome_model_rejected(self):
        bad = OutcomeModel.discrete({0: ([0.0], [0.7]), 1: ([0.0], [1.0])})
        with pytest.raises(ValueError, match="outcome model"):
            customer_choice_probs(
                [1.0, 2.0], RandomUtilitySpec.risk_neutral(), bad, 10, RngStream(1)
            )


def _retail_like_inputs():
    """Competitor-forecast inputs mirroring the bundled retail setup."""
    margin = RandomUtilitySpec.custom(
        builder=lambda _t: (lambda p, s: p - 5.0), prior=None
    )
    beliefs = AgentBeliefs((PowerPricePrior(5.0, 50.0, 2.0),))
    scale = math.sqrt(0.5 / 0.5)
    dof = 2 * 0.5
    choice = lambda own, rivals: student_t_cdf(scale * (rivals - own), dof)
    grid = PriceGrid(5.0, 40.0, 0.5)
    return margin, beliefs, choice, grid


class TestCompetitorSampling:
    def test_support_within_feasible_range(self):
        margin, beliefs, choice, grid = _retail_like_inputs()
        rng = RngStream(11)
        draws = [
            sample_competitor_optimal_price(2, margin, beliefs, choice, grid, 100, rng)
            for _ in range(50)
        ]
        assert min(draws) >= 5.0 and max(draws) <= 40.0

    def test_point_mass_beliefs_deterministic(self):
        margin, _, choice, grid = _retail_like_inputs()
        beliefs = AgentBeliefs((30.0,))
        rng = RngStream(13)
        draws = {
            sample_competitor_optimal_price(2, margin, beliefs, choice, grid, 50, rng)
            for _ in range(10)
        }
        assert len(draws) == 1

    def test_flat_objective_warns_and_returns_lowest(self):
        flat = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: np.zeros_like(np.asarray(p, float))),
            prior=None,
        )
        _, beliefs, choice, grid = _retail_like_inputs()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            price = sample_competitor_optimal_price(
                2, flat, beliefs, choice, grid, 20, RngStream(17)
            )
        assert price == grid.min
        assert any("flat" in str(w.message) for w in caught)

    def test_argmax_matches_quadrature_oracle(self):
        margin, beliefs, choice, grid = _retail_like_inputs()
        price = sample_competitor_optimal_price(
            2, margin, beliefs, choice, grid, 10_000, RngStream(19)
        )
        scenario = RetailScenario(
            cost=5.0,
            competitor_cost=5.0,
            max_price=50.0,
            competitor_max_price=40.0,
            customer_noise=InverseGammaParams(2.0, 2.0),
            competitor_noise=InverseGammaParams(0.5, 0.5),
            prior_exponent=2.0,
        )
        ref_grid, objective = quadrature_competitor_objective(scenario, nodes=512)
        oracle_argmax = ref_grid[int(np.argmax(objective))]
        assert abs(price - oracle_argmax) <= grid.step + 1e-12


class TestSolveSupportedPrice:
    def test_zero_utility_degenerate(self):
        grid = PriceGrid(1.0, 5.0, 1.0)
        u1 = ProducerUtility(on_sale=lambda p: 0.0)
        win = lambda own, rivals: np.full(np.broadcast(own, rivals).shape, 0.5)
        optimum, curve = solve_supported_price(grid, u1, [2.0, 3.0], win)
        assert optimum == grid.min
        assert np.all(curve.expected_utility == 0.0)

    def test_optimum_attains_curve_max(self):
        margin, beliefs, choice, _ = _retail_like_inputs()
        grid = PriceGrid(5.0, 50.0, 0.5)
        u1 = ProducerUtility.margin(5.0)
        win_for_us = lambda own, rivals: student_t_cdf(1.0 * (rivals - own), 4.0)
        optimum, curve = solve_supported_price(
            grid, u1, beliefs, win_for_us, n_draws=400, rng=RngStream(23)
        )
        assert curve.expected_utility[curve.optimum_index] == curve.expected_utility.max()
        assert optimum == curve.prices[curve.optimum_index]

    def test_deterministic_given_stream(self):
        _, beliefs, _, _ = _retail_like_inputs()
        grid = PriceGrid(5.0, 50.0, 0.5)
        u1 = ProducerUtility.margin(5.0)
        win = lambda own, rivals: student_t_cdf(rivals - own, 4.0)
        _, a = solve_supported_price(grid, u1, beliefs, win, n_draws=200, rng=RngStream(9))
        _, b = solve_supported_price(grid, u1, beliefs, win, n_draws=200, rng=RngStream(9))
        assert np.array_equal(a.expected_utility, b.expected_utility)
        assert np.array_equal(a.accept_prob, b.accept_prob)


class TestEvaluationCurve:
    def test_from_draws_matches_row_by_row_formula(self):
        g = np.random.default_rng(4)
        prices = np.array([1.0, 2.0, 3.0])
        win = g.random((3, 257))
        on_sale, on_no_sale = prices - 0.5, np.array([-0.5, 0.0, -0.25])
        curve = EvaluationCurve.from_draws(prices, win, on_sale, on_no_sale)
        for i in range(prices.size):
            payoff = on_sale[i] * win[i] + on_no_sale[i] * (1.0 - win[i])
            assert curve.expected_utility[i] == payoff.mean()
            assert curve.std_err[i] == payoff.std(ddof=1) / math.sqrt(win.shape[1])
            assert curve.accept_prob[i] == win[i].mean()
        one = EvaluationCurve.from_draws(prices, win[:, :1], on_sale, on_no_sale)
        assert np.array_equal(one.std_err, np.zeros(3))

    def test_every_column_must_align(self):
        cols = dict(prices=np.arange(3.0), accept_prob=np.zeros(3),
                    expected_utility=np.arange(3.0), std_err=np.zeros(3))
        with pytest.raises(ValueError, match="std_err"):
            EvaluationCurve(**{**cols, "std_err": np.zeros(2)})
        with pytest.raises(ValueError, match="benefit_horizon"):
            OfferEvaluation(**cols, benefit_next_year=np.zeros(3),
                            benefit_horizon=np.zeros(4))
        ev = OfferEvaluation(**cols, benefit_next_year=np.zeros(3),
                             benefit_horizon=np.zeros(3))
        assert ev.offers is ev.prices and ev.optimum == 2.0


class TestValidateProblem:
    def test_bounded_retail_utility_passes(self):
        grid = PriceGrid(5.0, 50.0, 0.5)
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: p - 5.0), prior=None, bound=50.0
        )
        report = validate_problem(
            grid, spec, OutcomeModel.point_mass(2), ValidationConfig(50.0, 512)
        )
        assert report.passed, report.failures()

    def test_empty_grid_fails_compactness(self):
        spec = RandomUtilitySpec.risk_neutral()
        report = validate_problem(
            None, spec, OutcomeModel.point_mass(2), ValidationConfig(10.0)
        )
        names = {c.name: c.passed for c in report.checks}
        assert names["price_set_compact_nonempty"] is False

    def test_bound_violation_flagged(self):
        grid = PriceGrid(5.0, 50.0, 0.5)
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: p - 5.0), prior=None
        )
        report = validate_problem(
            grid, spec, OutcomeModel.point_mass(2), ValidationConfig(10.0, 512)
        )
        names = {c.name: c.passed for c in report.checks}
        assert names["utilities_bounded"] is False
        assert names["outcome_model_normalized"] is True
