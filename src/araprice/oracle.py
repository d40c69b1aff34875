"""Deterministic reference calculations for every Monte Carlo estimator.

Each engine estimate has a cross-check here: quadrature, enumeration or a
closed form instead of sampling.  The sale probabilities are scipy's, so
they share ``ndtr`` and (at dofs other than 1, 3 and 4) ``stdtr`` with the
engine; the t CDF itself is tested against mpmath.  Nothing in this module
touches an RNG, so oracle values are bit-stable across runs and safe to
compare against.

The retail, template and pension oracles take a whole grid of prices in
one call.  Pension acceptance is a closed form that evaluates no utility.
Retail, template and rival-objective grids are scored by the
engine's own scorer, :func:`araprice.core.score_grid`, with the engine's
payoffs and scipy's sale probability as the choice model: the states are
the points of the rival-price density, one rival each, and each row of
prices reduces with ``np.vecdot`` against the density's pmf or
Gauss-Legendre weights x pdf.  An equally weighted sample is its distinct
prices weighted by their frequencies, as in the engine.  Each row block
is one scipy call, so memory stays at block size for any grid, and every
value of a grid call has the bits of a one-price call.

A Gauss-Legendre rule is an eigenproblem solved once per rule (Golub &
Welsch, 1969), not once per call: ``_gauss_legendre`` keeps the
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

from .core import ProducerUtility, _distinct_states, score_grid
from .pension import PensionScenario, _check_offer_range, acceptance_probability_reduced
from .randkit import CategoricalPMF, PowerPricePrior
from .retail import RetailScenario, _payoff
from .scenario import TemplateScenario

__all__ = [
    "OracleReport",
    "quadrature_retail_utility",
    "quadrature_competitor_objective",
    "exact_pension_acceptance",
    "exact_template_utility",
    "compare",
]


# Rules that ``_gauss_legendre`` keeps: 16 * nodes bytes each (8 KiB at
# 512 nodes).
_GAUSS_RULES_KEPT = 32

_DETERMINISTIC_ATOL = 1e-9  # an SE at or below this marks an exact estimate


def _check_nodes(nodes: int) -> None:
    """Refuse a Gauss-Legendre rule too coarse for a power-prior density."""
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")


@functools.lru_cache(maxsize=_GAUSS_RULES_KEPT, typed=True)
def _gauss_legendre(lo: float, hi: float, nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [lo, hi] (retail densities)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rule = mid + half * x, half * w
    for array in rule:
        array.flags.writeable = False
    return rule


def _sale_prob(p1, p2, sigma, noise):
    """P(sale at p1 against p2) via scipy's normal / t survival functions:
    probit at a fixed ``sigma``, else the t marginal under ``noise``."""
    diff = np.asarray(p1, float) - np.asarray(p2, float)
    if sigma is not None:
        return stats.norm.sf(diff / sigma)
    return stats.t.sf(math.sqrt(noise.shape / noise.scale) * diff, 2.0 * noise.shape)


def _expected_payoff(prices, density, sigma, noise, payoff, nodes=None):
    """Expected ``payoff`` at each of the 1-d ``prices`` against a
    rival-price density, scored by :func:`araprice.core.score_grid` on
    scipy's sale probabilities.

    A float is a point mass and a CategoricalPMF weighs its values by their
    probabilities; a PowerPricePrior takes the ``nodes``-point
    Gauss-Legendre rule on its support, with weights x pdf; anything else
    is an equally weighted sample, scored on its distinct prices weighted
    by their frequencies.
    """
    if isinstance(density, (int, float)):
        points, weights = np.array([float(density)]), np.array([1.0])
    elif isinstance(density, CategoricalPMF):
        points, weights = np.asarray(density.values), np.asarray(density.probs)
    elif isinstance(density, PowerPricePrior):
        points, weights = _gauss_legendre(density.lower, density.upper, nodes)
        weights = weights * density.pdf(points)
    else:
        points, weights = _distinct_states(density)
    accept = functools.partial(_sale_prob, sigma=sigma, noise=noise)
    return score_grid(prices, payoff, accept, points[:, None], weights).expected_utility


def quadrature_retail_utility(
    p1, scenario: RetailScenario, nodes: int = 256, density=None
):
    """Retailer expected utility at ``p1`` by integration, not sampling.

    ``p1`` is one price (a float comes back) or a 1-d array of prices (an
    array comes back, each value with the bits of a one-price call); a
    grid costs one scipy call per row block, not one per price.
    ``density`` describes the competitor-price distribution: a float
    (point mass), a CategoricalPMF or an array of equally weighted prices
    (exact sums; a sample's distinct prices are evaluated once), or a
    PowerPricePrior, handled by Gauss-Legendre with ``nodes`` points.  The
    payoff is the engine's, so the perishable write-off is integrated as
    (1 - sale) x weight like every other term.
    """
    _check_nodes(nodes)
    if density is None:
        if scenario.known_competitor_price is None:
            raise ValueError("no density supplied and no known competitor price")
        density = float(scenario.known_competitor_price)
    utility = _expected_payoff(
        np.atleast_1d(np.asarray(p1, dtype=float)), density,
        scenario.fixed_sigma, scenario.customer_noise, _payoff(scenario), nodes,
    )
    return float(utility[0]) if np.ndim(p1) == 0 else utility


def exact_template_utility(prices, scenario: TemplateScenario) -> np.ndarray:
    """Expected margin of a generic template scenario at each price.

    Sums margin times sale probability exactly over the finite rival
    price distribution (a pmf, or a list of equally weighted prices), on
    scipy's CDFs.
    """
    return _expected_payoff(
        np.asarray(prices, dtype=float), scenario.competitor_prices,
        scenario.choice_sigma, scenario.choice_noise,
        ProducerUtility.margin(scenario.cost),
    )


def quadrature_competitor_objective(
    scenario: RetailScenario, nodes: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Expected rival objective margin * P(win) at every rival grid price.

    Integrates the rival's sale probability over her power-prior belief
    about our price; the argmax is the noise-free version of one
    competitor-price forecast.  Returns (grid, objective values).
    """
    _check_nodes(nodes)
    grid = scenario.competitor_grid.points()
    return grid, _expected_payoff(
        grid, scenario.our_price_prior,
        scenario.fixed_sigma, scenario.competitor_noise,
        ProducerUtility.margin(scenario.competitor_cost), nodes,
    )


def exact_pension_acceptance(h1, scenario: PensionScenario):
    """Exact pension acceptance: P(rival offer < h)^n where the customer's
    utility rises strictly with the rate
    (:attr:`PensionScenario.utility_rises_with_rate`), at any risk aversion
    and money unit, and 0 where it is constant.  ``h1`` is one offer (a
    float comes back) or a 1-d array of offers (their one-offer values).
    """
    scenario.validate()
    h = np.atleast_1d(np.asarray(h1, dtype=float))
    _check_offer_range(h, scenario)
    offers, rises = scenario.competitor_offers, scenario.utility_rises_with_rate
    accept = np.array([
        acceptance_probability_reduced(x, offers, scenario.n_competitors) if rises else 0.0
        for x in h.tolist()
    ])
    return float(accept[0]) if np.ndim(h1) == 0 else accept


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
            # a shallow copy of each row's fields, in field order
            "rows": [dict(vars(r)) for r in self.rows],
        }


def compare(
    prices, estimates, std_errs, oracle_values, z_threshold: float = 3.0
) -> OracleReport:
    """z-score each engine estimate against its oracle value.

    Standard errors at or below ``_DETERMINISTIC_ATOL`` mean the estimate
    is (numerically) deterministic; those rows must agree with the oracle
    to the same tolerance (z reported as 0), otherwise z is infinite.
    """
    if z_threshold <= 0:
        raise ValueError("z threshold must be positive")
    rows = []
    for p, est, se, orc in zip(prices, estimates, std_errs, oracle_values):
        if se > _DETERMINISTIC_ATOL:
            z = (est - orc) / se
        else:
            z = 0.0 if abs(est - orc) <= _DETERMINISTIC_ATOL else math.inf
        rows.append(OracleRow(*map(float, (p, est, orc, se, z))))  # in field order
    return OracleReport(rows=tuple(rows), z_threshold=float(z_threshold))
