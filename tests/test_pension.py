"""Pension engine: customer utility, acceptance, benefits, optimization."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from araprice import pension
from araprice.cli import main
from araprice.core import PriceGrid
from araprice.pension import (
    ExitProfile,
    PensionScenario,
    acceptance_probability,
    acceptance_probability_reduced,
    customer_expected_utility,
    expected_benefit,
    optimize_offer,
)
from araprice.randkit import CategoricalPMF, RngStream
from araprice.scenario import bundled_case

CASE1_OFFERS = CategoricalPMF(
    (0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055, 0.06, 0.065, 0.07),
    (0.05, 0.1, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.0),
)
EXITS = ExitProfile((0.15, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0))


def make_scenario(**overrides) -> PensionScenario:
    base = dict(
        capital=30_000.0,
        earn_rate=0.07,
        offer_grid=PriceGrid(0.025, 0.07, 0.005),
        horizon=8,
        exit_profile=EXITS,
        competitor_offers=CASE1_OFFERS,
        penalty_fraction=0.8,
        n_competitors=1,
        risk_aversion=(0.85, 0.95),
        money_unit=1e4,
        mc_draws=10_000,
    )
    base.update(overrides)
    return PensionScenario(**base)


CASE1 = make_scenario()
LONG = make_scenario(
    horizon=12,
    exit_profile=ExitProfile((0.1, 0.05, 0.04, 0.03, 0.03, 0.02, 0.02, 0.01, 0.01,
                              0.01, 0.01)),
)


def reference_customer_eu(h, scenario, rho):
    """Term-by-term re-evaluation with plain Python arithmetic."""
    x = scenario.capital / scenario.money_unit
    u = lambda w: 1.0 - math.exp(-rho * w)
    terms = [scenario.exit_profile.stay_prob * u((1.0 + h) ** scenario.horizon * x)]
    for j, q in enumerate(scenario.exit_profile.q_exit, start=1):
        bonus = ((1.0 + h) ** j - 1.0) * x
        payout = x + (1.0 - scenario.penalty_fraction) * bonus
        terms.append(q * u(payout))
    return math.fsum(terms)


def in_order_eu(h, scenario, rho):
    """The utility formula on a single array of payouts for every exit
    year: the years' terms added in year order, then the stay term.  The
    engine's per-year kernel must match it bit for bit."""
    h = np.asarray(h, dtype=float)
    rho = np.asarray(rho, dtype=float)
    x = scenario.scaled_capital
    growth = (1.0 + h[..., None]) ** np.arange(1, scenario.horizon)
    early = x + (1.0 - scenario.penalty_fraction) * (growth - 1.0) * x
    stay = (1.0 + h) ** scenario.horizon * x
    q = np.asarray(scenario.exit_profile.q_exit)
    u_early = 1.0 - np.exp(-rho[..., None] * early)
    u_stay = 1.0 - np.exp(-rho * stay)
    terms = q * u_early
    value = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        value = value + terms[..., j]
    value = value + scenario.exit_profile.stay_prob * u_stay
    return value


LAYOUTS = {
    # name: (shape of h, shape of rho); None is a Python float
    "scalar": (None, None),
    "0-d": ((), ()),
    "scalar x 1-D": (None, ("n",)),
    "rates x draws": (("k", 1), (1, "n")),
    "draws x rates": ((1, "k"), ("n", 1)),
    "1-D x 1-D": (("n",), ("n",)),
}


@st.composite
def utility_inputs(draw):
    """A scenario and broadcastable offers and risk aversions: horizons
    1-12 and 129-130, exit years with zero mass, and money units down to
    1e-3, where exp underflows to 0."""
    horizon = draw(st.integers(1, 12) | st.sampled_from([129, 130]))
    exits = draw(st.lists(st.integers(0, 9), min_size=horizon - 1, max_size=horizon - 1))
    total = sum(exits) + draw(st.integers(0, 9))
    scenario = make_scenario(
        capital=draw(st.floats(1e3, 1e5)),
        horizon=horizon,
        exit_profile=ExitProfile(tuple(q / total if total else 0.0 for q in exits)),
        penalty_fraction=draw(st.floats(0.0, 1.0)),
        money_unit=10.0 ** draw(st.floats(-3.0, 6.0)),
    )
    sizes = {"k": draw(st.integers(1, 4)), "n": draw(st.integers(1, 40))}
    h_shape, rho_shape = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]

    def values(shape, lo, hi):
        if shape is None:
            return draw(st.floats(lo, hi))
        shape = tuple(sizes.get(d, d) for d in shape)
        seed = draw(st.integers(0, 2**32 - 1))
        return np.random.default_rng(seed).uniform(lo, hi, shape)

    h = values(h_shape, 0.0, 0.2)
    rho = values(rho_shape, 0.05, 50.0)
    return scenario, h, rho


class TestUtilityKernel:
    @settings(max_examples=400, deadline=None)
    @given(inputs=utility_inputs())
    def test_matches_single_array_formula_bit_for_bit(self, inputs):
        scenario, h, rho = inputs
        value = customer_expected_utility(h, scenario, rho, _check_range=False)
        expected = in_order_eu(h, scenario, rho)
        if np.ndim(h) == 0 and np.ndim(rho) == 0:
            assert type(value) is float
        else:
            assert value.shape == expected.shape
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


class TestCustomerExpectedUtility:
    def test_full_penalty_certain_exit(self):
        scenario = make_scenario(
            penalty_fraction=1.0,
            exit_profile=ExitProfile((1.0, 0, 0, 0, 0, 0, 0)),
        )
        x = scenario.scaled_capital
        for h in (0.03, 0.05, 0.07):
            value = customer_expected_utility(h, scenario, rho=0.9)
            assert value == pytest.approx(1.0 - math.exp(-0.9 * x), abs=1e-12)

    def test_certain_stay(self):
        scenario = make_scenario(exit_profile=ExitProfile((0.0,) * 7))
        value = customer_expected_utility(0.045, scenario, rho=0.9)
        stay = (1.045**8) * scenario.scaled_capital
        assert value == pytest.approx(1.0 - math.exp(-0.9 * stay), abs=1e-12)

    def test_against_independent_arithmetic(self):
        for h in (0.025, 0.045, 0.07):
            for rho in (0.85, 0.9, 0.95):
                assert customer_expected_utility(h, CASE1, rho) == pytest.approx(
                    reference_customer_eu(h, CASE1, rho), abs=1e-12
                )

    def test_strictly_increasing_in_offer(self):
        grid = CASE1.offer_grid.points()
        for rho in (0.85, 0.95):
            values = customer_expected_utility(grid, CASE1, np.full(grid.size, rho))
            assert np.all(np.diff(values) > 0)

    def test_range_and_rho_validation(self):
        with pytest.raises(ValueError, match="outside"):
            customer_expected_utility(0.5, CASE1, 0.9)
        with pytest.raises(ValueError, match="positive"):
            customer_expected_utility(0.045, CASE1, -0.1)


class TestAcceptance:
    def test_dominated_offer_never_wins(self):
        scenario = make_scenario(offer_grid=PriceGrid(0.01, 0.07, 0.005))
        p, se = acceptance_probability(0.01, scenario, RngStream(3))
        assert p == 0.0

    def test_benchmark_offer_mass(self):
        p, se = acceptance_probability(0.045, CASE1, RngStream(5))
        assert abs(p - 0.55) <= 0.02
        assert se == pytest.approx(math.sqrt(p * (1 - p) / CASE1.mc_draws))

    def test_five_rivals(self):
        scenario = make_scenario(n_competitors=5, mc_draws=200_000)
        p, _ = acceptance_probability(0.06, scenario, RngStream(7))
        assert abs(p - 0.9**5) <= 0.02

    def test_reduced_closed_form(self):
        assert acceptance_probability_reduced(0.025, CASE1_OFFERS, 1) == 0.0
        assert acceptance_probability_reduced(0.02, CASE1_OFFERS, 3) == 0.0
        assert acceptance_probability_reduced(0.05, CASE1_OFFERS, 2) == pytest.approx(
            0.49, abs=1e-12
        )
        assert acceptance_probability_reduced(0.06, CASE1_OFFERS, 10) == pytest.approx(
            0.9**10, rel=1e-12
        )

    def test_monte_carlo_agrees_with_reduced_everywhere(self):
        scenario = make_scenario(mc_draws=20_000)
        for i, h in enumerate(scenario.offer_grid.points()):
            p, _ = acceptance_probability(float(h), scenario, RngStream(800, i))
            exact = acceptance_probability_reduced(float(h), CASE1_OFFERS, 1)
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / scenario.mc_draws)
            assert abs(p - exact) <= max(3 * se, 1e-9), f"h={h}"

    def test_power_law_in_rival_count(self):
        one = make_scenario(mc_draws=100_000)
        three = make_scenario(n_competitors=3, mc_draws=100_000)
        p1, se1 = acceptance_probability(0.05, one, RngStream(11))
        p3, se3 = acceptance_probability(0.05, three, RngStream(12))
        tol = 3 * (se3 + 3 * p1**2 * se1)
        assert abs(p3 - p1**3) <= tol


class TestBankSide:
    def test_next_year_benefit_formula(self):
        value = expected_benefit(0.045, 0.55, CASE1, "next_year")
        assert value == pytest.approx((0.07 - 0.045) * 30_000 * 0.55, rel=1e-12)
        assert value == pytest.approx(412.50, abs=1e-9)

    def test_horizon_benefit_at_exact_acceptance(self):
        value = expected_benefit(0.045, 0.55, CASE1, "horizon")
        # independent arithmetic: expected spread plus collected penalties
        x, z, lam = 30_000.0, 0.07, 0.8
        terms = [CASE1.exit_profile.stay_prob * ((1 + z) ** 8 - 1.045**8) * x]
        for j, q in enumerate(CASE1.exit_profile.q_exit, start=1):
            spread = ((1 + z) ** j - 1.045**j) * x
            penalty = lam * (1.045**j - 1.0) * x
            terms.append(q * (spread + penalty))
        assert value == pytest.approx(0.55 * math.fsum(terms), rel=1e-12)

    def test_benefits_zero_at_zero_acceptance(self):
        assert expected_benefit(0.05, 0.0, CASE1, "next_year") == 0.0
        assert expected_benefit(0.05, 0.0, CASE1, "horizon") == 0.0

    def test_benefits_linear_in_capital(self):
        double = make_scenario(capital=60_000.0)
        for mode in ("next_year", "horizon"):
            assert expected_benefit(0.04, 0.6, double, mode) == pytest.approx(
                2.0 * expected_benefit(0.04, 0.6, CASE1, mode), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="outside"):
            expected_benefit(0.04, 1.2, CASE1)
        for accept in ([0.5, 1.2], [0.5, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                expected_benefit(np.array([0.03, 0.04]), np.array(accept), CASE1)
        with pytest.raises(ValueError):
            expected_benefit(0.04, 0.5, CASE1, "weekly")


class TestOptimizeOffer:
    def test_acceptance_curve_nondecreasing(self):
        ev = optimize_offer(CASE1, RngStream(17))
        assert np.all(np.diff(ev.accept_prob) >= 0.0)

    def test_optimum_attains_max(self):
        ev = optimize_offer(CASE1, RngStream(18))
        assert ev.expected_utility[ev.optimum_index] == ev.expected_utility.max()

    def test_seed_determinism(self):
        a = optimize_offer(CASE1, RngStream(19))
        b = optimize_offer(CASE1, RngStream(19))
        for name in ("accept_prob", "expected_utility", "benefit_horizon"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_benefit_columns_match_formulas(self):
        """The whole-grid benefit columns have the bits of one-offer calls;
        at horizon 12 numpy sums the 11 exit years pairwise."""
        for scenario in (CASE1, LONG):
            ev = optimize_offer(scenario, RngStream(20))
            for column, mode in zip(
                (ev.benefit_next_year, ev.benefit_horizon), ("next_year", "horizon")
            ):
                one = [
                    expected_benefit(float(h), float(p), scenario, mode)
                    for h, p in zip(ev.offers, ev.accept_prob)
                ]
                assert all(isinstance(v, float) for v in one)
                assert column.tobytes() == np.array(one).tobytes(), (
                    scenario.horizon, mode,
                )

    def test_utility_column_is_normalized_margin_times_acceptance(self):
        ev = optimize_offer(CASE1, RngStream(21))
        scale = (0.07 - 0.025) * CASE1.scaled_capital
        for h, p, eu in zip(ev.offers, ev.accept_prob, ev.expected_utility):
            raw = (CASE1.earn_rate - h) * CASE1.scaled_capital * p
            assert eu == pytest.approx(raw / scale, rel=1e-12)


def full_table_wins(points, scenario, seed):
    """Wins per rate from full utility tables in one array each, on the
    engine's own draws of ``seed``: each draw's top rival offer, the
    offers' counts expanded over contiguous runs of draws."""
    points = np.asarray(points)
    rho, counts = pension._draw_customers(scenario, RngStream(seed))
    offers = np.asarray(scenario.competitor_offers.values)
    top = np.repeat(np.arange(offers.size), counts)
    eu_table = in_order_eu(offers[None, :], scenario, rho[:, None])
    eu_top = np.take_along_axis(eu_table, top[:, None], axis=1)
    eu_ours = in_order_eu(points[None, :], scenario, rho[:, None])
    return (eu_ours > eu_top).sum(axis=0)


@st.composite
def pension_scenarios(draw):
    """Small pension problems: rates on a 0.001 lattice, each possibly
    followed by up to 3 rival offers a few ulps or 1e-12 apart; grids on
    the lattice, a half step off it, or 2e-9 off it; and any exit profile,
    penalty, risk-aversion range and money unit, down to units at which
    every utility underflows to 1."""
    lattice = sorted(draw(st.sets(st.integers(0, 100), min_size=1, max_size=10)))
    gap = draw(st.sampled_from(["none", "ulps", "1e-12"]))
    near, ulps = (0, 0) if gap == "none" else (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    values = []
    for v in lattice:
        rate = v / 1000
        for _ in range(near + 1):
            values.append(rate)
            if gap == "1e-12":
                rate += 1e-12
            for _ in range(ulps if gap == "ulps" else 0):
                rate = float(np.nextafter(rate, 1.0))
    weights = draw(
        st.lists(st.integers(0, 9), min_size=len(values), max_size=len(values)).filter(any)
    )
    lo, count, step = draw(st.integers(0, 100)), draw(st.integers(0, 20)), draw(st.integers(1, 10))
    shift = draw(st.sampled_from([0.0, 0.0005, 2e-9, -2e-9]))
    horizon = draw(st.integers(1, 10))
    exits = draw(st.lists(st.integers(0, 9), min_size=horizon - 1, max_size=horizon - 1))
    stay = draw(st.integers(0, 9))
    total = sum(exits) + stay
    rho_low = draw(st.floats(0.05, 5.0))
    return PensionScenario(
        capital=draw(st.floats(1e3, 1e5)),
        earn_rate=0.5,
        offer_grid=PriceGrid(lo / 1000 + shift, (lo + count * step) / 1000 + shift, step / 1000),
        horizon=horizon,
        exit_profile=ExitProfile(tuple(q / total if total else 0.0 for q in exits)),
        competitor_offers=CategoricalPMF(
            tuple(values), tuple(w / sum(weights) for w in weights)
        ),
        penalty_fraction=draw(st.floats(0.0, 1.0)),
        n_competitors=draw(st.integers(1, 10)),
        risk_aversion=(rho_low, rho_low + draw(st.floats(0.0, 1.0) | st.floats(0.0, 45.0))),
        money_unit=draw(st.sampled_from([1e3, 1e4, 1e5, 1.0, 1e-2])),
        mc_draws=draw(st.integers(1, 5_000)),
    )


class TestRateOrderCount:
    @settings(max_examples=300, deadline=None)
    @given(scenario=pension_scenarios(), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_tables_bit_for_bit(self, scenario, seed):
        points = scenario.offer_grid.points()
        full = full_table_wins(points, scenario, seed)
        rho, counts = pension._draw_customers(scenario, RngStream(seed))
        fast = pension._wins_by_rate_order(points, scenario, rho, counts)
        assert fast.tobytes() == full.tobytes()
        ev = optimize_offer(scenario, RngStream(seed))
        assert ev.accept_prob.tobytes() == (full / scenario.mc_draws).tobytes()
        h1 = float(points[-1])
        p, se = acceptance_probability(h1, scenario, RngStream(seed))
        expected = full_table_wins([h1], scenario, seed)[0] / scenario.mc_draws
        assert (p, se) == (expected, math.sqrt(expected * (1 - expected) / scenario.mc_draws))

    @settings(max_examples=300, deadline=None)
    @given(scenario=pension_scenarios(), seed=st.integers(0, 2**32 - 1))
    def test_utility_does_not_decrease_in_the_rate(self, scenario, seed):
        """So a draw's best rival is its top offer, whatever the other
        rivals offer: every rival offer and grid rate, each with its
        neighbouring floats, at risk aversions across the whole range."""
        rates = np.concatenate(
            [scenario.competitor_offers.values, scenario.offer_grid.points()]
        )
        rates = np.unique(
            np.concatenate([rates, np.nextafter(rates, -1.0), np.nextafter(rates, 1.0)])
        )
        lo, hi = scenario.risk_aversion
        rho = np.concatenate([[lo, hi], np.random.default_rng(seed).uniform(lo, hi, 50)])
        eu = in_order_eu(rates[None, :], scenario, rho[:, None])  # (rho, rates)
        assert np.all(np.diff(eu, axis=1) >= 0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(penalty_fraction=1.0, exit_profile=ExitProfile((1.0, 0, 0, 0, 0, 0, 0))),
            dict(money_unit=1.0),
            dict(risk_aversion=(5.0, 50.0)),
            dict(competitor_offers=CategoricalPMF((0.03, 0.04, 0.04 + 1e-12), (0.3, 0.3, 0.4))),
            dict(horizon=12, exit_profile=LONG.exit_profile, risk_aversion=(5.0, 50.0)),
        ],
        ids=["constant_utility", "exp_underflow", "high_risk_aversion", "near_equal_offers",
             "long_high_risk_aversion"],
    )
    def test_unordered_rivals_match_full_tables(self, overrides):
        """Consecutive rival offers that the gap bound cannot separate: the
        rate-order count still gives the bytes of the full tables.  At
        horizon 12 and high risk aversion, utilities of different rates lie
        within rounding of each other, so the count holds only if both sum
        the 11 exit years in the same order."""
        scenario = make_scenario(**overrides)
        offers = np.asarray(scenario.competitor_offers.values)
        gaps = pension._utility_gap_bound(offers[:-1], offers[1:], scenario)
        assert not np.all(gaps > pension._SEPARATION_MARGIN)
        points = scenario.offer_grid.points()
        ev = optimize_offer(scenario, RngStream(4))
        expected = full_table_wins(points, scenario, 4) / scenario.mc_draws
        assert ev.accept_prob.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(scenario=pension_scenarios(), seed=st.integers(0, 2**32 - 1))
    def test_utility_evaluations_bound_the_count(self, scenario, seed):
        """The work budget's count never falls short of the utility terms
        that counting evaluates."""
        evaluated = []
        real = pension.customer_expected_utility

        def counting(h, scenario, rho, *args, **kwargs):
            evaluated.append(np.broadcast(np.asarray(h), np.asarray(rho)).size)
            return real(h, scenario, rho, *args, **kwargs)

        with mock.patch.object(pension, "customer_expected_utility", counting):
            optimize_offer(scenario, RngStream(seed))
        done = sum(evaluated) * scenario.horizon
        bound = pension.utility_evaluations(scenario)
        assert done <= bound

    def test_only_undecided_pairs_evaluate_utilities(self, monkeypatch):
        evaluated = []
        real = pension.customer_expected_utility

        def counting(h, scenario, rho, *args, **kwargs):
            evaluated.append(np.broadcast(np.asarray(h), np.asarray(rho)).size)
            return real(h, scenario, rho, *args, **kwargs)

        monkeypatch.setattr(pension, "customer_expected_utility", counting)
        between = make_scenario(offer_grid=PriceGrid(0.0275, 0.0675, 0.005))
        optimize_offer(between, RngStream(6))
        assert evaluated == []  # no grid rate equals a rival offer
        assert pension.utility_evaluations(between) == 0
        optimize_offer(CASE1, RngStream(6))
        # each draw is compared once, at the grid rate equal to its top offer
        assert sum(evaluated) == 2 * CASE1.mc_draws
        assert pension.utility_evaluations(CASE1) == 2 * CASE1.mc_draws * CASE1.horizon

    def test_out_of_range_offer_still_raises(self):
        with pytest.raises(ValueError, match="outside"):
            acceptance_probability(0.5, CASE1, RngStream(1))


class TestDraws:
    @pytest.mark.parametrize(
        "rivals", [1, 2, 5, 10, 2**31, 2**70], ids=["1", "2", "5", "10", "2^31", "2^70"]
    )
    @settings(max_examples=25, deadline=None)
    @given(
        probs=st.lists(st.integers(0, 9), min_size=1, max_size=300).filter(any),
        draws=st.integers(1, 100) | st.integers(10_000, 400_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_are_one_multinomial_after_the_risk_aversions(
        self, rivals, probs, draws, seed
    ):
        """The risk aversions, then per offer the count of draws it tops,
        from one multinomial over the order-statistic pmf diff(F^n) through
        its last positive cell, the offers after it counting 0, with the
        stream left where that reference leaves it.  Zero-probability
        offers as in pension_case1, rival counts at which F^n underflows,
        and draw counts on both sides of numpy's binomial switch from
        inversion to BTPE (n p of 30)."""
        scenario = self._scenario(probs, rivals, draws)
        gen_ref = RngStream(seed).generator
        rho_ref = gen_ref.uniform(scenario.risk_aversion[0], scenario.risk_aversion[1], draws)
        cdf = np.cumsum(scenario.competitor_offers.probs)
        cdf /= cdf[-1]
        cell = np.diff(cdf**rivals, prepend=0.0)
        last = np.flatnonzero(cell)[-1] + 1
        expected = np.zeros(cell.size, np.int64)
        expected[:last] = gen_ref.multinomial(draws, cell[:last])
        rng = RngStream(seed)
        rho, counts = pension._draw_customers(scenario, rng)
        assert rho.tobytes() == rho_ref.tobytes()
        assert counts.dtype == expected.dtype and counts.tobytes() == expected.tobytes()
        assert counts.sum() == draws
        assert rng.generator.random() == gen_ref.random()

    @pytest.mark.parametrize("rivals", [1, 2, 10])
    def test_trailing_zero_offers_take_no_draw(self, rivals):
        """Offers of zero mass after the last positive one, as 0.07 in
        pension_case3_n2, are never passed to the multinomial (numpy gives
        its last category whatever the binomials leave) and count 0."""
        probs = [1, 2, 4, 0, 0]
        scenario = self._scenario(probs, rivals, 1_000)
        spy = mock.Mock(wraps=RngStream(3).generator)
        _, counts = pension._draw_customers(scenario, mock.Mock(generator=spy))
        (draws, pvals), _ = spy.multinomial.call_args
        assert spy.multinomial.call_count == 1 and draws == 1_000
        assert len(pvals) == 3 and pvals[-1] > 0.0
        assert counts.tolist()[3:] == [0, 0] and counts.sum() == 1_000

    def test_top_frequencies_fit_the_order_statistic_pmf(self):
        """Per rival count n in {2, 5, 10} and offer k, the count of draws
        whose top offer is k against Binomial(draws, F(k)^n - F(k-1)^n),
        two-sided exact tests with a Bonferroni bound on the family error
        of 1e-3."""
        draws, family_alpha = 200_000, 1e-3
        probs = CASE1_OFFERS.probs
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        tests = []
        for rivals in (2, 5, 10):
            scenario = self._scenario(probs, rivals, draws)
            _, counts = pension._draw_customers(scenario, RngStream(11))
            cell = np.diff(cdf**rivals, prepend=0.0)
            tests += [(rivals, k, int(c), float(p)) for k, (c, p) in enumerate(zip(counts, cell))]
        alpha = family_alpha / len(tests)
        for rivals, k, count, p in tests:
            pvalue = stats.binomtest(count, draws, p).pvalue
            assert pvalue > alpha, (rivals, k, count, draws * p)

    @staticmethod
    def _scenario(probs, rivals, draws):
        return make_scenario(
            competitor_offers=CategoricalPMF(
                tuple(0.02 + 0.005 * i for i in range(len(probs))),
                tuple(w / sum(probs) for w in probs),
            ),
            n_competitors=rivals,
            mc_draws=draws,
        )

    def test_optimize_offer_memory_is_bounded(self):
        """400k draws x 10 rivals: a single (draws, rivals) array of
        uniforms alone would take 31 MiB."""
        scenario = make_scenario(n_competitors=10, mc_draws=400_000)
        tracemalloc.start()
        try:
            optimize_offer(scenario, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestScenarioValidation:
    def test_exit_profile_length(self):
        with pytest.raises(ValueError, match="exit_profile"):
            make_scenario(exit_profile=ExitProfile((0.1, 0.1))).validate()

    def test_horizon_cap(self):
        def at(horizon):
            exits = ExitProfile((0.0,) * (horizon - 1))
            return make_scenario(horizon=horizon, exit_profile=exits).violations()

        assert at(pension.MAX_HORIZON) == []
        assert at(pension.MAX_HORIZON + 1) == ["horizon: must be in [1, 10000], got 10001"]

    def test_penalty_range(self):
        with pytest.raises(ValueError, match="penalty"):
            make_scenario(penalty_fraction=1.5).validate()

    def test_warns_when_offers_exceed_earning_rate(self):
        scenario = make_scenario(offer_grid=PriceGrid(0.05, 0.09, 0.005))
        with pytest.warns(RuntimeWarning, match="earning rate"):
            scenario.validate()

    def test_exit_mass_cap(self):
        with pytest.raises(ValueError, match="mass"):
            make_scenario(
                exit_profile=ExitProfile((0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.1))
            ).validate()

    def test_exit_mass_overshoot_leaves_no_negative_stay_weight(self):
        exits = ExitProfile((0.5, 0.5 + 5e-10, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert exits.violations() == []
        assert exits.stay_prob == 0.0
        assert EXITS.stay_prob == 1.0 - math.fsum(EXITS.q_exit)

    @pytest.mark.parametrize(
        "field, params",
        [
            ("offer_grid", {"offer_grid": {"min": -1.9, "max": -1.0, "step": 0.1}}),
            ("competitor_offers", {"competitor_offers": {
                "values": [-1.5, 0.05], "probs": [0.5, 0.5]}}),
        ],
    )
    def test_rate_below_minus_one_exits_4(self, tmp_path, capsys, field, params):
        """Below -1 a payout no longer rises with the rate, so such a rate is
        refused by name; -1 itself is accepted."""
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"].update(horizon=2, exit_profile=[0.1], **params)
        src = tmp_path / "case.json"
        src.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "out")]
        for argv in (["validate", str(src)], ["run", str(src), *out], ["compare", str(src), *out]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"error: params.{field}: rates must be at least -1, got -1.")
        assert list(tmp_path.iterdir()) == [src]
        low = raw["params"][field]
        if field == "offer_grid":
            low["min"] = -1.0
        else:
            low["values"][0] = -1.0
        src.write_text(json.dumps(raw))
        assert main(["validate", str(src)]) == 0


class TestUtilityRisesWithRate:
    """The one predicate the oracle reads, against the utility kernel."""

    CERTAIN_EXIT = (1.0,) + (0.0,) * 6

    @pytest.mark.parametrize(
        "exits, penalty, rises",
        [
            (EXITS.q_exit, 0.8, True),
            (EXITS.q_exit, 1.0, True),  # staying still rises
            ((0.0,) * 7, 1.0, True),  # certain stay
            (CERTAIN_EXIT, 0.8, True),  # the exit keeps part of the bonus
            (CERTAIN_EXIT, 0.0, True),
            (CERTAIN_EXIT, 1.0, False),  # every rate pays the capital back
            ((0.5, 0.5 + 5e-10, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, False),
        ],
    )
    def test_predicate_matches_the_utility_kernel(self, exits, penalty, rises):
        scenario = make_scenario(exit_profile=ExitProfile(exits), penalty_fraction=penalty)
        assert scenario.utility_rises_with_rate is rises
        grid = scenario.offer_grid.points()
        for rho in (0.85, 0.95):
            steps = np.diff(customer_expected_utility(grid, scenario, np.full(grid.size, rho)))
            assert np.all(steps > 0) if rises else np.all(steps == 0)

