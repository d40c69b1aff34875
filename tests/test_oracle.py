"""Oracle module: quadrature/enumeration twins of the Monte Carlo estimators."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from araprice import _parallel, oracle, retail
from araprice.cli import main
from araprice.core import PriceGrid
from araprice.oracle import (
    compare,
    exact_pension_acceptance,
    exact_template_utility,
    quadrature_competitor_objective,
    quadrature_retail_utility,
)
from araprice.pension import (
    ExitProfile,
    PensionScenario,
    acceptance_probability_reduced,
    optimize_offer,
)
from araprice.randkit import CategoricalPMF, InverseGammaParams, RngStream
from araprice.retail import (
    REFINED_FORECAST_FACTOR,
    RetailScenario,
    estimate_expected_utility,
)
from araprice.scenario import TemplateScenario, bundled_case, parse_scenario

CASE1_OFFERS = CategoricalPMF(
    (0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055, 0.06, 0.065, 0.07),
    (0.05, 0.1, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.0),
)


def retail_scenario(**overrides) -> RetailScenario:
    base = dict(
        cost=5.0,
        competitor_cost=5.0,
        max_price=50.0,
        competitor_max_price=40.0,
        customer_noise=InverseGammaParams(2.0, 2.0),
        competitor_noise=InverseGammaParams(0.5, 0.5),
    )
    base.update(overrides)
    return RetailScenario(**base)


def pension_scenario(**overrides) -> PensionScenario:
    base = dict(
        capital=30_000.0,
        earn_rate=0.07,
        offer_grid=PriceGrid(0.025, 0.07, 0.005),
        horizon=8,
        exit_profile=ExitProfile((0.15, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0)),
        competitor_offers=CASE1_OFFERS,
        mc_draws=10_000,
    )
    base.update(overrides)
    return PensionScenario(**base)


class TestRetailQuadrature:
    def test_point_mass_reduces_to_single_sample_estimate(self):
        scenario = retail_scenario(known_competitor_price=30.0)
        for p1 in (12.0, 25.0, 29.5, 41.0):
            estimate, _ = estimate_expected_utility(p1, [30.0], scenario)
            oracle = quadrature_retail_utility(p1, scenario, density=30.0)
            assert oracle == pytest.approx(estimate, abs=1e-12)

    def test_node_doubling_stability(self):
        pdf = lambda x: np.full_like(np.asarray(x, float), 1.0 / 20.0)
        scenario = retail_scenario()
        coarse = quadrature_retail_utility(25.0, scenario, nodes=256, density=(pdf, 20.0, 40.0))
        fine = quadrature_retail_utility(25.0, scenario, nodes=512, density=(pdf, 20.0, 40.0))
        assert abs(coarse - fine) < 1e-8

    def test_monte_carlo_consistency_on_shared_density(self):
        pdf = lambda x: np.full_like(np.asarray(x, float), 1.0 / 20.0)
        scenario = retail_scenario()
        g = RngStream(47).generator
        samples = g.uniform(20.0, 40.0, 10_000)
        for p1 in (10.0, 22.0, 33.0, 45.0):
            estimate, se = estimate_expected_utility(p1, samples, scenario)
            oracle = quadrature_retail_utility(
                p1, scenario, nodes=512, density=(pdf, 20.0, 40.0)
            )
            assert abs(estimate - oracle) <= 3 * se

    def test_perishable_variant_handled(self):
        scenario = retail_scenario(
            known_competitor_price=30.0, utility_variant="perishable"
        )
        estimate, _ = estimate_expected_utility(25.0, [30.0], scenario)
        oracle = quadrature_retail_utility(25.0, scenario)
        assert oracle == pytest.approx(estimate, abs=1e-12)

    def test_node_floor(self):
        with pytest.raises(ValueError, match="nodes"):
            quadrature_retail_utility(20.0, retail_scenario(), nodes=8, density=30.0)


@pytest.fixture
def sale_prob_calls(monkeypatch):
    """The rival-price count of each call of the oracle's `_sale_prob`."""
    calls = []
    sale_prob = oracle._sale_prob

    def recorded(p1, p2, sigma, noise):
        calls.append(np.size(p2))
        return sale_prob(p1, p2, sigma, noise)

    monkeypatch.setattr(oracle, "_sale_prob", recorded)
    return calls


def _density(kind: str, values: list, seed: int):
    """A rival-price density of each kind the retail oracle takes."""
    if kind == "pmf":
        points = sorted(set(values))
        probs = np.random.default_rng(seed).dirichlet(np.ones(len(points)))
        return CategoricalPMF(tuple(points), tuple(float(p) for p in probs))
    if kind == "gauss":
        return (lambda x: 0.05 + 0.001 * np.asarray(x), 10.0, 40.0)
    if kind == "point":
        return values[0]
    return np.asarray(values)  # equally weighted sample, repeats included


class TestRetailGrid:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["pmf", "gauss", "point", "sample"]),
        values=st.lists(st.sampled_from([12.0, 17.5, 20.0, 23.25, 31.0]), min_size=1,
                        max_size=40)
        | st.lists(st.just(23.25), min_size=1, max_size=40)
        | st.lists(st.floats(5.0, 45.0), min_size=1, max_size=40),
        prices=st.lists(st.floats(5.0, 50.0), min_size=1, max_size=30),
        sigma=st.none() | st.floats(0.05, 5.0),
        shape=st.sampled_from([0.5, 1.5, 2.0, 2.5]),
        variant=st.sampled_from(["non_perishable", "perishable"]),
        block=st.sampled_from([1, 7, 40, _parallel.BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**16),
    )
    def test_grid_call_equals_one_price_calls_bit_for_bit(
        self, kind, values, prices, sigma, shape, variant, block, seed
    ):
        """Small row blocks put block edges inside the grid; value lists
        cover one value, all-equal samples and samples with repeats."""
        scenario = retail_scenario(
            fixed_sigma=sigma,
            customer_noise=InverseGammaParams(shape, 2.0),
            utility_variant=variant,
        )
        density = _density(kind, values, seed)
        with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block):
            grid = quadrature_retail_utility(np.array(prices), scenario, density=density)
        one = [quadrature_retail_utility(p, scenario, density=density) for p in prices]
        assert all(isinstance(v, float) for v in one)
        assert grid.tobytes() == np.array(one).tobytes()

    def test_empty_grid_gives_an_empty_curve(self):
        scenario = retail_scenario(known_competitor_price=30.0)
        assert quadrature_retail_utility(np.array([]), scenario).shape == (0,)

    def test_sample_prices_are_evaluated_once(self, sale_prob_calls):
        samples = np.repeat([21.0, 24.5, 30.0], 500)
        quadrature_retail_utility(np.linspace(10.0, 40.0, 61), retail_scenario(),
                                  density=samples)
        assert sale_prob_calls == [3]

    def test_grid_memory_is_bounded(self):
        """2^17 prices against 256 Gauss-Legendre nodes, for our price and
        for the rival's: the whole table alone would take 256 MiB.  Probit
        choice, scipy's fastest CDF."""
        prices = np.linspace(5.0, 50.0, 1 << 17)
        pdf = lambda x: np.full_like(np.asarray(x, float), 1.0 / 20.0)
        rival = retail_scenario(
            fixed_sigma=2.0, grid_step=2.0**-10,
            competitor_max_price=5.0 + ((1 << 17) - 1) * 2.0**-10,
        )
        assert rival.competitor_grid.count() == 1 << 17
        calls = {
            "retail": lambda: quadrature_retail_utility(
                prices, retail_scenario(fixed_sigma=2.0), nodes=256,
                density=(pdf, 20.0, 40.0),
            ),
            "rival": lambda: quadrature_competitor_objective(rival, nodes=256),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, name

    def test_compare_calls_scipy_once_per_row_block(
        self, sale_prob_calls, tmp_path, capsys
    ):
        """`compare retail_case3`: 91 prices against the 24 distinct prices
        of the 3,200-draw refined forecast, one `_sale_prob` call per row
        block, not one per price: here one block holds the whole grid."""
        path = bundled_case("retail_case3")
        assert main(["compare", str(path), "--out", str(tmp_path / "c3")]) == 0
        capsys.readouterr()
        params = parse_scenario(path).params
        grid = int(params.price_grid.count())
        rows = _parallel.BLOCK_ELEMENTS // 24
        assert REFINED_FORECAST_FACTOR * params.n1 == 3_200
        assert sale_prob_calls == [24] * len(range(0, grid, rows)) == [24]


class TestTemplateExact:
    def template(self, competitor_prices, **choice) -> TemplateScenario:
        return TemplateScenario(
            cost=10.0, grid=PriceGrid(10.0, 30.0, 0.5),
            competitor_prices=competitor_prices, **choice,
        )

    def test_pmf_sum_on_scipy_t(self):
        pmf = CategoricalPMF((18.0, 20.0, 22.0, 24.0), (0.2, 0.4, 0.3, 0.1))
        scenario = self.template(pmf, choice_noise=InverseGammaParams(2.0, 2.0))
        prices = scenario.grid.points()
        got = exact_template_utility(prices, scenario)
        for p, value in zip(prices, got):
            sale = [stats.t.sf(p - v, 4.0) for v in pmf.values]
            assert value == pytest.approx((p - 10.0) * np.dot(sale, pmf.probs), rel=1e-12)

    def test_list_is_equally_weighted(self):
        scenario = self.template([19.0, 23.0, 23.0], choice_sigma=2.0)
        got = exact_template_utility(np.array([15.0, 21.0]), scenario)
        for p, value in zip((15.0, 21.0), got):
            sale = np.mean([stats.norm.sf((p - v) / 2.0) for v in (19.0, 23.0, 23.0)])
            assert value == pytest.approx((p - 10.0) * sale, rel=1e-12)

    def test_runs_on_scipy_not_the_engine_cdf(self, sale_prob_calls, monkeypatch):
        """The template, retail and rival oracles share the engine's scorer
        but not its CDF: each makes one call of the oracle's scipy
        `_sale_prob` and none of the engine's `retail._sale_prob`."""

        def engine_cdf(*args, **kwargs):
            raise AssertionError("the oracle ran the engine's CDF")

        monkeypatch.setattr(retail, "_sale_prob", engine_cdf)
        scenario = parse_scenario(bundled_case("template_example")).params
        exact_template_utility(scenario.grid.points(), scenario)
        assert sale_prob_calls == [4]
        market = retail_scenario()
        densities = {
            "point": 30.0,
            "pmf": CategoricalPMF((18.0, 24.0, 30.0), (0.25, 0.5, 0.25)),
            "sample": np.array([21.0, 24.5, 24.5, 30.0]),
            "prior": market.our_price_prior,
        }
        prices = np.linspace(5.0, 50.0, 7)
        for name, density in densities.items():
            sale_prob_calls.clear()
            quadrature_retail_utility(prices, market, density=density)
            assert len(sale_prob_calls) == 1, name
        sale_prob_calls.clear()
        quadrature_competitor_objective(market)
        assert sale_prob_calls == [512]


class TestEmptyRivalSample:
    """The oracle, like the engine, rejects an empty rival-price sample with
    the engine's ValueError, not a NaN and a numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_every_caller_raises_the_engine_error(self):
        empty = "rival price sample is empty: need at least one rival price draw"
        with pytest.raises(ValueError, match=empty):
            quadrature_retail_utility(20.0, retail_scenario(), density=[])
        template = TemplateScenario(
            cost=10.0, grid=PriceGrid(10.0, 11.0, 0.5), competitor_prices=[],
            choice_sigma=2.0,
        )
        with pytest.raises(ValueError, match=empty):
            exact_template_utility(template.grid.points(), template)
        with pytest.raises(ValueError, match=empty):
            estimate_expected_utility(20.0, [], retail_scenario())


class TestCompetitorQuadrature:
    def test_argmax_in_range_and_stable(self):
        scenario = retail_scenario()
        grid, obj = quadrature_competitor_objective(scenario, nodes=512)
        grid2, obj2 = quadrature_competitor_objective(scenario, nodes=1024)
        best = grid[int(np.argmax(obj))]
        assert 5.0 <= best <= 40.0
        assert np.max(np.abs(obj - obj2)) < 1e-8


class TestPensionExact:
    """The closed form on the edges of its domain: a stay weight of 0, with
    and without a bonus kept on early exit."""

    CERTAIN_EXIT = ExitProfile((1.0,) + (0.0,) * 6)

    def test_exit_mass_overshoot_accepts_no_offer(self, tmp_path):
        """An exit mass 5e-10 above 1, which validation accepts as rounding,
        leaves a stay weight of 0, not a negative one.  At full penalty every
        rate then pays the same, so ``run`` accepts no offer and ``compare``
        passes."""
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"].update(
            penalty_fraction=1.0, exit_profile=[0.5, 0.5 + 5e-10, 0, 0, 0, 0, 0]
        )
        src = tmp_path / "overshoot.json"
        src.write_text(json.dumps(raw))
        assert math.fsum(raw["params"]["exit_profile"]) > 1.0
        assert main(["run", str(src), "--out", str(tmp_path / "run")]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1] for row in rows] == ["0.0"] * 10
        assert main(["compare", str(src), "--out", str(tmp_path / "cmp")]) == 0
        report = json.loads((tmp_path / "cmp.oracle.json").read_text())
        assert report["passed"] and {row["oracle"] for row in report["rows"]} == {0.0}

    def test_certain_exit_at_full_penalty_accepts_no_offer(self):
        scenario = pension_scenario(penalty_fraction=1.0, exit_profile=self.CERTAIN_EXIT)
        points = scenario.offer_grid.points()
        zeros = [0.0] * points.size
        assert exact_pension_acceptance(points, scenario).tolist() == zeros
        assert optimize_offer(scenario, RngStream(1)).accept_prob.tolist() == zeros

    def test_certain_exit_keeping_part_of_the_bonus_is_the_closed_form(self):
        scenario = pension_scenario(
            penalty_fraction=0.8, exit_profile=self.CERTAIN_EXIT, n_competitors=2
        )
        assert scenario.exit_profile.stay_prob == 0.0
        points = scenario.offer_grid.points()
        exact = exact_pension_acceptance(points, scenario)
        assert exact.tolist() == [
            acceptance_probability_reduced(float(h), CASE1_OFFERS, 2) for h in points
        ]
        assert exact[-1] == 1.0 and np.all(np.diff(exact) >= 0)
        engine = optimize_offer(scenario, RngStream(3))
        assert compare(points, engine.accept_prob, engine.std_err, exact).passed

    def test_benchmark_value(self):
        assert exact_pension_acceptance(0.045, pension_scenario()) == pytest.approx(
            0.55, abs=1e-12
        )

    def test_many_rivals(self):
        scenario = pension_scenario(n_competitors=10)
        assert exact_pension_acceptance(0.06, scenario) == pytest.approx(
            0.9**10, rel=1e-10
        )

    def test_deterministic(self):
        scenario = pension_scenario(n_competitors=3)
        a = exact_pension_acceptance(0.05, scenario)
        b = exact_pension_acceptance(0.05, scenario)
        assert a == b


class TestPensionGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        rivals=st.integers(1, 12),
        lo=st.floats(0.05, 3.0),
        width=st.just(0.0) | st.floats(0.01, 3.0),
        horizon=st.integers(2, 12),
        offers=st.lists(st.sampled_from(range(10)), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_grid_call_equals_one_offer_calls_bit_for_bit(
        self, rivals, lo, width, horizon, offers, seed
    ):
        exits = np.random.default_rng(seed).uniform(0.0, 0.08, horizon - 1)
        scenario = pension_scenario(
            n_competitors=rivals,
            risk_aversion=(lo, lo + width),
            horizon=horizon,
            exit_profile=ExitProfile(tuple(float(q) for q in exits)),
        )
        h = scenario.offer_grid.points()[offers]
        grid = exact_pension_acceptance(h, scenario)
        one = [exact_pension_acceptance(float(x), scenario) for x in h]
        assert all(isinstance(v, float) for v in one)
        assert grid.tobytes() == np.array(one).tobytes()

    def test_empty_grid_gives_an_empty_curve(self):
        assert exact_pension_acceptance(np.array([]), pension_scenario()).shape == (0,)

    def test_grid_call_rejects_an_offer_out_of_range(self):
        with pytest.raises(ValueError, match="outside the modeled range"):
            exact_pension_acceptance(np.array([0.03, 0.5]), pension_scenario())


class TestGaussLegendreMemo:
    @pytest.mark.parametrize(
        "lo, hi, nodes",
        [(0.85, 0.95, 64), (5.0, 50.0, 512), (5.0, 50.0, 256), (0.0, 1.0, 16), (-3.5, 2.25, 17)],
    )
    def test_cached_rule_equals_fresh_rule_bit_for_bit(self, lo, hi, nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        oracle._gauss_legendre.cache_clear()
        for _ in range(2):  # the first call fills the memo, the second reads it
            nodes_, weights = oracle._gauss_legendre(lo, hi, nodes)
            assert nodes_.tobytes() == (mid + half * x).tobytes()
            assert weights.tobytes() == (half * w).tobytes()

    def test_returned_arrays_are_read_only(self):
        for array in oracle._gauss_legendre(5.0, 50.0, 512):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_repeat_call_does_not_solve_again(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(nodes):
            calls.append(nodes)
            return leggauss(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        oracle._gauss_legendre.cache_clear()
        interval = (1.0, 1.0 + math.pi, 33)
        first = oracle._gauss_legendre(*interval)
        assert calls == [33]
        again = oracle._gauss_legendre(*interval)
        assert calls == [33] and again is first

    def test_memo_is_bounded(self):
        kept = oracle._GAUSS_RULES_KEPT
        for k in range(kept + 5):
            oracle._gauss_legendre(0.0, 2.0 + k, 16)
        info = oracle._gauss_legendre.cache_info()
        assert info.maxsize == kept and info.currsize == kept


class TestCompare:
    def test_pass_and_fail(self):
        report = compare([1.0, 2.0], [0.5, 0.7], [0.1, 0.1], [0.45, 0.65])
        assert report.passed and report.max_abs_z == pytest.approx(0.5)
        report = compare([1.0], [0.5], [0.01], [0.45])
        assert not report.passed and report.max_abs_z == pytest.approx(5.0)

    def test_zero_se_requires_exact_match(self):
        exact = compare([1.0], [0.5], [0.0], [0.5])
        assert exact.passed and exact.max_abs_z == 0.0
        broken = compare([1.0], [0.5], [0.0], [0.500001])
        assert not broken.passed and math.isinf(broken.max_abs_z)

    def test_report_serialization(self):
        report = compare([1.0], [0.5], [0.1], [0.45], z_threshold=2.5)
        data = report.to_dict()
        assert data["z_threshold"] == 2.5
        assert data["rows"][0]["price"] == 1.0
        with pytest.raises(ValueError):
            compare([1.0], [0.5], [0.1], [0.45], z_threshold=0.0)
