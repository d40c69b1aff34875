"""Deterministic reference calculations for every Monte Carlo estimator.

Each engine estimate has an independent cross-check here: quadrature or
exact enumeration instead of sampling, and scipy's Student-t instead of
the package's own CDF path.  Nothing in this module touches an RNG, so
oracle values are bit-stable across runs and safe to compare against.

A Gauss-Legendre rule is an eigenproblem solved once per rule (Golub &
Welsch, 1969), not once per price: ``_gauss_legendre`` keeps the
``_GAUSS_RULES_KEPT`` most recently used rules, keyed on the whole
``(lo, hi, nodes)`` triple.  A kept rule is the pair of arrays computed
on its first request, so it has the bits of a fresh computation.  Its
arrays are read-only, because every caller shares them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .pension import PensionScenario, customer_expected_utility
from .randkit import CategoricalPMF, PowerPricePrior
from .retail import RetailScenario

__all__ = [
    "OracleReport",
    "quadrature_retail_utility",
    "quadrature_competitor_objective",
    "exact_pension_acceptance",
    "compare",
]


# Rules that ``_gauss_legendre`` keeps: 16 * nodes bytes each (8 KiB at
# 512 nodes).
_GAUSS_RULES_KEPT = 32


@functools.lru_cache(maxsize=_GAUSS_RULES_KEPT, typed=True)
def _gauss_legendre(lo: float, hi: float, nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rule = mid + half * x, half * w
    for array in rule:
        array.flags.writeable = False
    return rule


def _retail_accept(p1, p2, scenario: RetailScenario):
    """Sale probability via scipy's t / normal CDFs (independent code path)."""
    diff = np.asarray(p1, float) - np.asarray(p2, float)
    if scenario.fixed_sigma is not None:
        return stats.norm.sf(diff / scenario.fixed_sigma)
    noise = scenario.customer_noise
    return stats.t.sf(
        math.sqrt(noise.shape / noise.scale) * diff, 2.0 * noise.shape
    )


def _retail_payoff(p1, accept, scenario: RetailScenario):
    if scenario.utility_variant == "perishable":
        return (p1 - scenario.cost) * accept - scenario.cost * (1.0 - accept)
    return (p1 - scenario.cost) * accept


def quadrature_retail_utility(
    p1: float, scenario: RetailScenario, nodes: int = 256, density=None
) -> float:
    """Retailer expected utility at ``p1`` by integration, not sampling.

    ``density`` describes the competitor-price distribution: a float
    (point mass), a CategoricalPMF or an array of equally weighted prices
    (exact sums), a PowerPricePrior, or a (pdf, lo, hi) triple handled by
    Gauss-Legendre with ``nodes`` points.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    if density is None:
        if scenario.known_competitor_price is None:
            raise ValueError("no density supplied and no known competitor price")
        density = float(scenario.known_competitor_price)

    if isinstance(density, (int, float)):
        accept = float(_retail_accept(p1, float(density), scenario))
        return float(_retail_payoff(p1, accept, scenario))
    if isinstance(density, CategoricalPMF):
        values = np.asarray(density.values)
        accept = float(np.dot(_retail_accept(p1, values, scenario), density.probs))
        return float(_retail_payoff(p1, accept, scenario))
    if isinstance(density, PowerPricePrior):
        x, w = _gauss_legendre(density.lower, density.upper, nodes)
        accept = float(np.dot(_retail_accept(p1, x, scenario) * density.pdf(x), w))
        return float(_retail_payoff(p1, accept, scenario))
    if isinstance(density, tuple) and len(density) == 3 and callable(density[0]):
        pdf, lo, hi = density
        x, w = _gauss_legendre(lo, hi, nodes)
        accept = float(np.dot(_retail_accept(p1, x, scenario) * pdf(x), w))
        return float(_retail_payoff(p1, accept, scenario))
    values = np.asarray(density, dtype=float)  # equally weighted price sample
    accept = float(_retail_accept(p1, values, scenario).mean())
    return float(_retail_payoff(p1, accept, scenario))


def quadrature_competitor_objective(
    scenario: RetailScenario, nodes: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Expected rival objective margin * P(win) at every rival grid price.

    Integrates the rival's sale probability over her power-prior belief
    about our price; the argmax is the noise-free version of one
    competitor-price forecast.  Returns (grid, objective values).
    """
    grid = scenario.competitor_grid.points()
    prior = scenario.our_price_prior
    x, w = _gauss_legendre(prior.lower, prior.upper, nodes)
    if scenario.fixed_sigma is not None:
        rival_win = stats.norm.cdf(
            (x[None, :] - grid[:, None]) / scenario.fixed_sigma
        )
    else:
        noise = scenario.competitor_noise
        rival_win = stats.t.cdf(
            math.sqrt(noise.shape / noise.scale) * (x[None, :] - grid[:, None]),
            2.0 * noise.shape,
        )
    accept = rival_win @ (prior.pdf(x) * w)
    return grid, (grid - scenario.competitor_cost) * accept


def exact_pension_acceptance(
    h1: float, scenario: PensionScenario, rho_nodes: int = 64
) -> float:
    """Exact acceptance probability for the pension problem.

    The customer's risk aversion integrates out by Gauss-Legendre; rival
    offers are independent, so for each risk-aversion node the win
    probability against all rivals is the single-rival strict-win mass
    raised to the rival count.  No sampling, no combinatorial blowup.
    """
    scenario.validate()
    if rho_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    lo, hi = scenario.risk_aversion
    if hi > lo:
        rho, w = _gauss_legendre(lo, hi, rho_nodes)
        w = w / (hi - lo)
    else:
        rho, w = np.array([lo]), np.array([1.0])
    offers = np.asarray(scenario.competitor_offers.values)
    probs = np.asarray(scenario.competitor_offers.probs)
    eu_ours = customer_expected_utility(
        np.full(rho.size, float(h1)), scenario, rho, _check_range=True
    )
    eu_rival = customer_expected_utility(
        offers[None, :], scenario, rho[:, None], _check_range=False
    )  # (nodes, offers)
    single_win = (eu_rival < eu_ours[:, None]) @ probs  # strict rule
    return float(np.dot(w, single_win**scenario.n_competitors))


@dataclass(frozen=True)
class OracleRow:
    price: float
    estimate: float
    oracle: float
    std_err: float
    z: float


@dataclass(frozen=True)
class OracleReport:
    """Engine-vs-oracle comparison across a price grid."""

    rows: tuple
    z_threshold: float

    @property
    def max_abs_z(self) -> float:
        return max((abs(r.z) for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.z_threshold

    def to_dict(self) -> dict:
        return {
            "z_threshold": self.z_threshold,
            "max_abs_z": self.max_abs_z,
            "passed": self.passed,
            "rows": [
                {
                    "price": r.price,
                    "estimate": r.estimate,
                    "oracle": r.oracle,
                    "std_err": r.std_err,
                    "z": r.z,
                }
                for r in self.rows
            ],
        }


def compare(
    prices, estimates, std_errs, oracle_values, z_threshold: float = 3.0,
    deterministic_atol: float = 1e-9,
) -> OracleReport:
    """z-score each engine estimate against its oracle value.

    Standard errors at or below ``deterministic_atol`` mean the estimate
    is (numerically) deterministic; those rows must agree with the oracle
    to the same tolerance (z reported as 0), otherwise z is infinite.
    """
    if z_threshold <= 0:
        raise ValueError("z threshold must be positive")
    rows = []
    for p, est, se, orc in zip(prices, estimates, std_errs, oracle_values):
        if se > deterministic_atol:
            z = (est - orc) / se
        else:
            z = 0.0 if abs(est - orc) <= deterministic_atol else math.inf
        rows.append(
            OracleRow(
                price=float(p),
                estimate=float(est),
                oracle=float(orc),
                std_err=float(se),
                z=float(z),
            )
        )
    return OracleReport(rows=tuple(rows), z_threshold=float(z_threshold))
