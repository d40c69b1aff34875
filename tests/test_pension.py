"""Pension engine: customer utility, acceptance, benefits, optimization."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from araprice import pension
from araprice._parallel import BLOCK_ELEMENTS
from araprice.core import PriceGrid
from araprice.pension import (
    ExitProfile,
    PensionScenario,
    acceptance_probability,
    acceptance_probability_reduced,
    bank_expected_utility,
    customer_expected_utility,
    expected_benefit,
    optimize_offer,
)
from araprice.randkit import CategoricalPMF, RngStream
from araprice.scenario import bundled_case, bundled_case_names, parse_scenario

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


def single_array_eu(h, scenario, rho, g=None):
    """Frozen copy of the single-array utility formula: payouts for every
    exit year in one array, summed over the last axis by numpy.  The
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
    value = scenario.exit_profile.stay_prob * u_stay + (q * u_early).sum(axis=-1)
    if g is not None:
        value = value + g(scenario.horizon)
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
    1-12 and 129-130 (the 8-sum and split orders), exit years with zero
    mass, and money units down to 1e-3, where exp underflows to 0."""
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
    g = draw(st.sampled_from([None, lambda T: -0.01 * T]))
    return scenario, h, rho, g


class TestUtilityKernel:
    @settings(max_examples=400, deadline=None)
    @given(inputs=utility_inputs())
    def test_matches_single_array_formula_bit_for_bit(self, inputs):
        scenario, h, rho, g = inputs
        value = customer_expected_utility(h, scenario, rho, g=g, _check_range=False)
        expected = single_array_eu(h, scenario, rho, g=g)
        if np.ndim(h) == 0 and np.ndim(rho) == 0:
            assert type(value) is float
        else:
            assert value.shape == expected.shape
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize(
        "n", [*range(0, 20), 127, 128, 129, 136, 255, 256, 257, 300, 513]
    )
    def test_term_order_is_numpy_sum_order(self, n):
        rng = np.random.default_rng(n)
        terms = rng.standard_normal((3, 5, n)) * 10.0 ** rng.integers(-12, 12, (3, 5, n))
        terms[0, 0] = -0.0  # a sum of negative zeros is 0.0

        def term(j, buf):
            buf[...] = terms[..., j]
            return buf

        total = pension._add_terms(term, range(n), np.empty((3, 5)))
        assert total.tobytes() == terms.sum(axis=-1).tobytes()


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
        g = lambda T: -0.01 * T
        value = customer_expected_utility(0.045, scenario, rho=0.9, g=g)
        stay = (1.045**8) * scenario.scaled_capital
        assert value == pytest.approx(1.0 - math.exp(-0.9 * stay) + g(8), abs=1e-12)

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
    def test_zero_acceptance(self):
        assert bank_expected_utility(0.04, 0.0, CASE1) == 0.0

    def test_zero_margin(self):
        assert bank_expected_utility(0.07, 0.83, CASE1) == pytest.approx(0.0, abs=1e-12)

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
        with pytest.raises(ValueError):
            bank_expected_utility(0.04, 1.2, CASE1)
        with pytest.raises(ValueError):
            expected_benefit(0.04, 0.5, CASE1, "weekly")


class TestOptimizeOffer:
    def test_acceptance_curve_nondecreasing(self):
        ev = optimize_offer(CASE1, RngStream(17))
        assert np.all(np.diff(ev.accept_prob) >= 0.0)

    def test_optimum_attains_max(self):
        ev = optimize_offer(CASE1, RngStream(18))
        assert ev.expected_utility[ev.optimum_index] == ev.expected_utility.max()

    def test_seed_determinism_and_workers(self):
        a = optimize_offer(CASE1, RngStream(19))
        b = optimize_offer(CASE1, RngStream(19))
        c = optimize_offer(CASE1, RngStream(19), workers=3)
        for name in ("accept_prob", "expected_utility", "benefit_horizon"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(getattr(a, name), getattr(c, name))

    def test_benefit_columns_match_formulas(self):
        ev = optimize_offer(CASE1, RngStream(20))
        for h, p, nxt, hor in zip(
            ev.offers, ev.accept_prob, ev.benefit_next_year, ev.benefit_horizon
        ):
            assert nxt == pytest.approx(
                expected_benefit(float(h), float(p), CASE1, "next_year"), rel=1e-12
            )
            assert hor == pytest.approx(
                expected_benefit(float(h), float(p), CASE1, "horizon"), rel=1e-12
            )

    def test_utility_column_is_normalized_margin_times_acceptance(self):
        ev = optimize_offer(CASE1, RngStream(21))
        scale = (0.07 - 0.025) * CASE1.scaled_capital
        for h, p, eu in zip(ev.offers, ev.accept_prob, ev.expected_utility):
            raw = bank_expected_utility(float(h), float(p), CASE1)
            assert eu == pytest.approx(raw / scale, rel=1e-12)


def choice_draws(scenario, seed):
    """The engine's draws made with numpy's own ``Generator.choice``."""
    gen = RngStream(seed).generator
    rho = gen.uniform(scenario.risk_aversion[0], scenario.risk_aversion[1], scenario.mc_draws)
    idx = gen.choice(
        len(scenario.competitor_offers.values),
        size=(scenario.mc_draws, scenario.n_competitors),
        p=scenario.competitor_offers.probs,
    )
    return rho, idx, gen


def full_table_wins(points, scenario, seed):
    """Wins per rate from full utility tables in one array each, on the
    draws of ``seed`` made by ``Generator.choice``."""
    points = np.asarray(points)
    rho, idx, _ = choice_draws(scenario, seed)
    offers = np.asarray(scenario.competitor_offers.values)
    eu_table = single_array_eu(offers[None, :], scenario, rho[:, None])
    eu_rival_max = np.take_along_axis(eu_table, idx, axis=1).max(axis=1)
    eu_ours = single_array_eu(points[None, :], scenario, rho[:, None])
    return (eu_ours > eu_rival_max[:, None]).sum(axis=0)


@st.composite
def pension_scenarios(draw):
    """Small pension problems: rates on a 0.001 lattice, grids on it, a
    half step off it, or 2e-9 off it, and any exit profile, penalty,
    risk-aversion range and money unit."""
    lattice = sorted(draw(st.sets(st.integers(0, 100), min_size=1, max_size=10)))
    weights = draw(
        st.lists(st.integers(0, 9), min_size=len(lattice), max_size=len(lattice)).filter(any)
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
            tuple(v / 1000 for v in lattice), tuple(w / sum(weights) for w in weights)
        ),
        penalty_fraction=draw(st.floats(0.0, 1.0)),
        n_competitors=draw(st.integers(1, 10)),
        risk_aversion=(rho_low, rho_low + draw(st.floats(0.0, 1.0) | st.floats(0.0, 45.0))),
        money_unit=draw(st.sampled_from([1e3, 1e4, 1e5, 1.0])),
        mc_draws=draw(st.integers(1, 5_000)),
    )


class TestRateOrderCount:
    @settings(max_examples=300, deadline=None)
    @given(
        scenario=pension_scenarios(),
        seed=st.integers(0, 2**32 - 1),
        workers=st.sampled_from([1, 2]),
    )
    def test_matches_full_tables_bit_for_bit(self, scenario, seed, workers):
        points = scenario.offer_grid.points()
        full = full_table_wins(points, scenario, seed)
        if pension._rate_order_applies(scenario):
            rho, top = pension._draw_customers(scenario, RngStream(seed), top_only=True)
            fast = pension._wins_by_rate_order(points, scenario, rho, top, workers)
            assert fast.tobytes() == full.tobytes()
        ev = optimize_offer(scenario, RngStream(seed), workers=workers)
        assert ev.accept_prob.tobytes() == (full / scenario.mc_draws).tobytes()
        h1 = float(points[-1])
        p, se = acceptance_probability(h1, scenario, RngStream(seed))
        expected = full_table_wins([h1], scenario, seed)[0] / scenario.mc_draws
        assert (p, se) == (expected, math.sqrt(expected * (1 - expected) / scenario.mc_draws))

    @settings(max_examples=60, deadline=None)
    @given(
        offers=st.integers(1, 300),  # indices of 8 and of 16 bits
        used=st.integers(1, 300),
        draws=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_group_by_top_slices_each_offers_draws_in_order(self, offers, used, draws, seed):
        """Offers at or above ``used`` get no draws: their groups are empty."""
        gen = np.random.default_rng(seed)
        rho = gen.uniform(0.85, 0.95, draws)
        top = gen.integers(0, min(used, offers), draws)
        counts = np.bincount(top, minlength=offers)
        for key in (top, top.astype(np.min_scalar_type(offers - 1))):
            groups = pension._group_by_top(rho, key, counts)
            assert len(groups) == offers
            for o, group in enumerate(groups):
                assert group.tobytes() == rho[top == o].tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(penalty_fraction=1.0, exit_profile=ExitProfile((1.0, 0, 0, 0, 0, 0, 0))),
            dict(money_unit=1.0),
            dict(risk_aversion=(5.0, 50.0)),
            dict(competitor_offers=CategoricalPMF((0.03, 0.04, 0.04 + 1e-12), (0.3, 0.3, 0.4))),
        ],
        ids=["constant_utility", "exp_underflow", "high_risk_aversion", "near_equal_offers"],
    )
    def test_falls_back_when_rates_cannot_order_rivals(self, overrides):
        scenario = make_scenario(**overrides)
        assert not pension._rate_order_applies(scenario)
        points = scenario.offer_grid.points()
        ev = optimize_offer(scenario, RngStream(4), workers=2)
        expected = full_table_wins(points, scenario, 4) / scenario.mc_draws
        assert ev.accept_prob.tobytes() == expected.tobytes()

    def test_bundled_cases_take_the_rate_order_path(self):
        names = [n for n in bundled_case_names() if n.startswith("pension")]
        assert names
        for name in names:
            assert pension._rate_order_applies(parse_scenario(bundled_case(name)).params), name

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
        optimize_offer(CASE1, RngStream(6))
        # each draw is compared once, at the grid rate equal to its top offer
        assert sum(evaluated) == 2 * CASE1.mc_draws

    def test_many_threads_match_one(self):
        """More workers than cores and a short switch interval: the
        threads that settle tied offers must not lose an update."""
        scenario = make_scenario(
            n_competitors=2, mc_draws=50_000, offer_grid=PriceGrid(0.025, 0.07, 0.0025)
        )
        one = optimize_offer(scenario, RngStream(8), workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = optimize_offer(scenario, RngStream(8), workers=16)
        finally:
            sys.setswitchinterval(interval)
        assert many.accept_prob.tobytes() == one.accept_prob.tobytes()

    def test_out_of_range_offer_still_raises(self):
        with pytest.raises(ValueError, match="outside"):
            acceptance_probability(0.5, CASE1, RngStream(1))


class TestBlockedDraws:
    @settings(max_examples=100, deadline=None)
    @given(
        probs=st.lists(st.integers(0, 9), min_size=1, max_size=10).filter(any),
        rivals=st.integers(1, 10),
        blocks=st.integers(0, 3),
        offset=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_match_generator_choice(self, probs, rivals, blocks, offset, seed):
        """Zero-probability offers as in pension_case1; the draw count lands
        on, one below or one above 0 to 3 whole row blocks."""
        scenario = make_scenario(
            competitor_offers=CategoricalPMF(
                tuple(0.02 + 0.005 * i for i in range(len(probs))),
                tuple(w / sum(probs) for w in probs),
            ),
            n_competitors=rivals,
            mc_draws=max(1, blocks * (BLOCK_ELEMENTS // rivals) + offset),
        )
        rho_ref, idx_ref, gen_ref = choice_draws(scenario, seed)
        after = gen_ref.random()
        for top_only, expected in ((True, idx_ref.max(axis=1)), (False, idx_ref)):
            rng = RngStream(seed)
            rho, idx = pension._draw_customers(scenario, rng, top_only=top_only)
            assert rho.tobytes() == rho_ref.tobytes()
            assert idx.dtype == expected.dtype and idx.tobytes() == expected.tobytes()
            assert rng.generator.random() == after

    @pytest.mark.parametrize("size", [1, 2, 10, 32, 33, 60])
    def test_cdf_index_is_searchsorted_right(self, size):
        """Counted (up to 32 offers, from 4,096 uniforms) and searched
        lookups, with repeated cdf values (zero-probability offers) and
        uniforms on a cdf value."""
        rng = np.random.default_rng(size)
        probs = rng.integers(0, 3, size).astype(float)
        probs[-1] += 1.0
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        u = np.concatenate([rng.random(4096), cdf, np.nextafter(cdf, 0.0), [0.0]])
        for shaped in (u, u[:4096].reshape(1024, 4), u[:4095], u[-200:]):
            idx = pension._cdf_index(cdf, shaped)
            expected = cdf.searchsorted(shaped, side="right")
            assert idx.dtype == expected.dtype and idx.tobytes() == expected.tobytes()

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
