"""Generic template: choice problem, competitor forecasting, grid solver."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import araprice.core as core

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
from araprice.randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    student_t_cdf,
)
from araprice.retail import RetailScenario

GOLDEN = Path(__file__).with_name("golden_outputs.json")

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

    def test_snapped_end_points_must_be_finite(self):
        # snapping scales by 1e9, so an end point above about 1.8e299 overflows
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(0.0, 1e308, 1e307)
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(-1e300, -1e300, 1.0)
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(0.0, 1.0, math.inf)  # the last point is inf * 0, NaN
        assert np.isfinite(PriceGrid(0.0, 1e200, 1e199).points()).all()


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

    def test_nan_utility_names_the_product(self):
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (
                lambda p, s: np.where(p > 19.5, np.nan, -p + np.asarray(s, float))
            ),
        )
        outcomes = OutcomeModel.point_mass(3)
        prices = [19.0, 18.0, 20.0]
        with pytest.raises(ValueError, match="product 2 is NaN at price 20.0"):
            realize_choice(prices, spec, outcomes, np.random.default_rng(0))
        with pytest.raises(ValueError, match="product 2 is NaN"):
            customer_choice_probs(prices, spec, outcomes, 10, RngStream(1))

    def test_one_realize_choice_call_per_draw(self, monkeypatch):
        calls = []
        original = core.realize_choice

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(core, "realize_choice", counted)
        customer_choice_probs(
            [20.0, CategoricalPMF((19.0, 21.0), (0.5, 0.5))],
            RandomUtilitySpec.risk_neutral(), OutcomeModel.point_mass(2), 37,
            RngStream(2),
        )
        assert len(calls) == 37

    def test_demo_shares_match_recorded_digest(self):
        """The first stage of demos/generic_template.py, whose float64
        bytes were hashed into golden_outputs.json ("demo_shares")."""
        recorded = json.loads(GOLDEN.read_text())
        if recorded["versions"] != {"numpy": np.__version__, "scipy": scipy.__version__}:
            pytest.skip(f"digest recorded with {recorded['versions']}")
        customer = RandomUtilitySpec.custom(
            builder=lambda w: (lambda price, s: -(price + w * np.asarray(s, float))),
            prior=(0.5, 2.0),
        )
        delays = OutcomeModel.discrete({
            0: ([1.0, 3.0], [0.8, 0.2]),
            1: ([2.0, 5.0], [0.6, 0.4]),
            2: ([1.0, 2.0], [0.5, 0.5]),
        })
        probs = customer_choice_probs(
            [20.0, 19.0, 22.0], customer, delays, 20_000, RngStream(2024).derive(1)
        )
        digest = hashlib.sha256(probs.astype("<f8").tobytes()).hexdigest()
        if "demo_shares" not in recorded:
            pytest.fail(
                f'{GOLDEN.name} has no "demo_shares" digest: re-recording it '
                "with test_golden_outputs.py does not write one.  If these "
                f'shares are right, add "demo_shares": "{digest}" to it.'
            )
        assert digest == recorded["demo_shares"]


# ---------------------------------------------------------------------------
# The customer choice loop as it was before realize_choice was trimmed:
# the reference for bit-identity.
# ---------------------------------------------------------------------------


def _frozen_nodes_weights(outcomes, choice):
    entry = outcomes.per_choice[choice]
    if isinstance(entry, tuple) and len(entry) == 2:
        values, probs = entry
        return np.asarray(values, float), np.asarray(probs, float)
    pdf, lo, hi = entry
    s = np.linspace(lo, hi, outcomes.quadrature_nodes)
    w = pdf(s)
    dw = np.full(s.size, (hi - lo) / (s.size - 1))
    dw[0] *= 0.5
    dw[-1] *= 0.5
    return s, w * dw


def _frozen_realize_prices(spec, g, size):
    if isinstance(spec, PowerPricePrior):
        return spec.ppf(g.random(size))
    if isinstance(spec, CategoricalPMF):
        values = np.asarray(spec.values)
        return values[g.choice(len(values), size=size, p=spec.probs)]
    if isinstance(spec, EmpiricalDistribution):
        return spec.samples[g.integers(0, spec.samples.size, size)]
    if callable(spec):
        return np.array([float(spec(g)) for _ in range(size)])
    return np.full(size, float(spec))


def per_draw_choice(prices, spec, outcomes, g):
    """One draw: (chosen, expected utilities), the untrimmed way."""
    n = len(prices)
    realized = np.array([_frozen_realize_prices(p, g, 1)[0] for p in prices])
    if spec.per_product:
        thetas = [spec.sample_parameter(g) for _ in range(n)]
    else:
        theta = spec.sample_parameter(g)
        thetas = [theta] * n
    eu = np.empty(n)
    for i in range(n):
        u = spec.builder(thetas[i])
        s, w = _frozen_nodes_weights(outcomes, i)
        price = float(realized[i])
        values = np.broadcast_to(np.asarray(u(price, s), dtype=float), s.shape)
        eu[i] = float(np.dot(values, w))
    return int(np.flatnonzero(eu == eu.max())[-1]), eu


def per_draw_choice_probs(prices, spec, outcomes, n_draws, rng):
    g = rng.generator
    counts = np.zeros(len(prices), dtype=np.int64)
    for _ in range(n_draws):
        counts[per_draw_choice(prices, spec, outcomes, g)[0]] += 1
    probs = counts / n_draws
    probs[np.argmax(probs)] += 1.0 - probs.sum()
    return probs


PRICE_KINDS = {
    "float": lambda: 10.0,
    "other_float": lambda: 10.5,
    "int": lambda: 10,
    "power": lambda: PowerPricePrior(9.0, 11.0, 2.0),
    "pmf": lambda: CategoricalPMF((9.5, 10.0, 10.5), (0.25, 0.5, 0.25)),
    "empirical": lambda: EmpiricalDistribution(np.array([9.0, 10.0, 10.0, 11.5])),
    "callable": lambda: (lambda g: g.uniform(9.0, 11.0)),
}
PRIORS = {
    "none": None,
    "fixed": 0.7,
    "interval": (0.5, 1.5),
    "pmf": CategoricalPMF((0.5, 1.0), (0.5, 0.5)),
    "callable": lambda g: g.normal(1.0, 0.1),
}


def _builder(kind):
    def build(theta):
        t = 1.0 if theta is None else theta
        if kind == "array":
            return lambda p, s: -(p + t * np.asarray(s, float))
        if kind == "scalar":  # not shaped like the nodes: broadcast
            return lambda p, s: 20.0 - t * p
        if kind == "object":  # node-shaped, but must become float64 first
            return lambda p, s: np.array([-(p + t * x) for x in s.tolist()], object)
        return lambda p, s: (-(p + t * np.asarray(s, float))).astype(np.float32)

    return build


def _outcomes(kind, n, nodes):
    if kind == "point_mass":
        return OutcomeModel.point_mass(n)
    if kind == "discrete":
        return OutcomeModel.discrete({c: ([1.0, 3.0], [0.75, 0.25]) for c in range(n)})
    pdfs = (lambda s: np.full(s.shape, 0.5), lambda s: s / 2.0)
    return OutcomeModel.continuous(
        {c: (pdfs[c % 2], 0.0, 2.0) for c in range(n)}, nodes=nodes
    )


@st.composite
def choice_problems(draw):
    n = draw(st.integers(2, 4))
    prices = [PRICE_KINDS[k]() for k in draw(
        st.lists(st.sampled_from(sorted(PRICE_KINDS)), min_size=n, max_size=n)
    )]
    spec = RandomUtilitySpec.custom(
        builder=_builder(draw(st.sampled_from(["array", "scalar", "float32", "object"]))),
        prior=PRIORS[draw(st.sampled_from(sorted(PRIORS)))],
        per_product=draw(st.booleans()),
    )
    outcomes = _outcomes(
        draw(st.sampled_from(["point_mass", "discrete", "continuous"])),
        n,
        draw(st.sampled_from([3, 64, 1024])),
    )
    return prices, spec, outcomes


TIED = (  # equal prices, outcomes and one shared parameter: every draw ties
    [10.0, 10, 10.0],
    RandomUtilitySpec.custom(builder=_builder("array"), prior=(0.5, 1.5)),
    OutcomeModel.discrete({c: ([1.0, 3.0], [0.75, 0.25]) for c in range(3)}),
)
OBJECT_UTILITY = (  # an object array summed as float64 over 1,024 nodes
    [10.0, PowerPricePrior(9.0, 11.0, 2.0)],
    RandomUtilitySpec.custom(builder=_builder("object"), prior=(0.5, 1.5)),
    _outcomes("continuous", 2, 1024),
)


class TestChoiceLoopBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(problem=choice_problems(), seed=st.integers(0, 2**32 - 1),
           n_draws=st.integers(1, 12))
    @example(problem=TIED, seed=5, n_draws=8)
    @example(problem=OBJECT_UTILITY, seed=1, n_draws=3)
    def test_matches_the_per_draw_loop(self, problem, seed, n_draws):
        prices, spec, outcomes = problem
        g_ref, g_new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n_draws):
            chosen, eu = per_draw_choice(prices, spec, outcomes, g_ref)
            got = realize_choice(prices, spec, outcomes, g_new)
            assert got.chosen == chosen
            assert got.expected_utilities.tobytes() == eu.tobytes()
            assert g_new.bit_generator.state == g_ref.bit_generator.state
        ref = per_draw_choice_probs(prices, spec, outcomes, n_draws, RngStream(seed))
        got = customer_choice_probs(prices, spec, outcomes, n_draws, RngStream(seed))
        assert got.tobytes() == ref.tobytes()

    def test_tied_draws_go_to_the_last_product(self):
        prices, spec, outcomes = TIED
        probs = customer_choice_probs(prices, spec, outcomes, 50, RngStream(5))
        assert probs.tolist() == [0.0, 0.0, 1.0]


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
