"""Oracle module: quadrature/enumeration twins of the Monte Carlo estimators."""

import math

import numpy as np
import pytest

from araprice import oracle
from araprice.core import PriceGrid
from araprice.oracle import (
    compare,
    exact_pension_acceptance,
    quadrature_competitor_objective,
    quadrature_retail_utility,
)
from araprice.pension import (
    ExitProfile,
    PensionScenario,
    acceptance_probability_reduced,
)
from araprice.randkit import CategoricalPMF, InverseGammaParams, RngStream
from araprice.retail import RetailScenario, estimate_expected_utility

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


class TestCompetitorQuadrature:
    def test_argmax_in_range_and_stable(self):
        scenario = retail_scenario()
        grid, obj = quadrature_competitor_objective(scenario, nodes=512)
        grid2, obj2 = quadrature_competitor_objective(scenario, nodes=1024)
        best = grid[int(np.argmax(obj))]
        assert 5.0 <= best <= 40.0
        assert np.max(np.abs(obj - obj2)) < 1e-8


class TestPensionExact:
    def test_equals_reduced_closed_form(self):
        scenario = pension_scenario()
        for h in scenario.offer_grid.points():
            exact = exact_pension_acceptance(float(h), scenario)
            reduced = acceptance_probability_reduced(float(h), CASE1_OFFERS, 1)
            assert exact == pytest.approx(reduced, abs=1e-12), f"h={h}"

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
