"""Deterministic reference calculations for every Monte Carlo estimator.

Each engine estimate has an independent cross-check here: quadrature or
exact enumeration instead of sampling, and scipy's Student-t instead of
the package's own CDF path.  Nothing in this module touches an RNG, so
oracle values are bit-stable across runs and safe to compare against.

The retail, template and pension oracles take a whole grid of prices in
one call.  Retail and template grids are scored in ``_parallel.map_blocks``
row blocks: rows are prices, a row holds one sale probability per point
of the rival-price density, and each block is one scipy call, so memory
stays at block size for any grid.  An equally weighted price sample is
evaluated once per distinct price and gathered back in sample order.  A
row reduces with the ``np.dot`` or ``mean`` of a one-price call, so every
value of a grid call has the bits of that call.

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

from ._parallel import map_blocks
from .pension import PensionScenario, customer_expected_utility
from .randkit import CategoricalPMF, PowerPricePrior
from .retail import RetailScenario
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

# Gauss-Legendre nodes over the pension customer's risk-aversion interval.
_PENSION_RHO_NODES = 64


@functools.lru_cache(maxsize=_GAUSS_RULES_KEPT, typed=True)
def _gauss_legendre(lo: float, hi: float, nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rule = mid + half * x, half * w
    for array in rule:
        array.flags.writeable = False
    return rule


def _sale_prob(p1, p2, sigma, noise):
    """P(sale at p1 against p2) via scipy's normal / t CDFs (independent
    code path): probit at a fixed ``sigma``, else the t marginal under
    ``noise``."""
    diff = np.asarray(p1, float) - np.asarray(p2, float)
    if sigma is not None:
        return stats.norm.sf(diff / sigma)
    return stats.t.sf(math.sqrt(noise.shape / noise.scale) * diff, 2.0 * noise.shape)


def _retail_payoff(p1, accept, scenario: RetailScenario):
    if scenario.utility_variant == "perishable":
        return (p1 - scenario.cost) * accept - scenario.cost * (1.0 - accept)
    return (p1 - scenario.cost) * accept


def _sale_curve(prices, points, sigma, noise, weights=None, pdf=None) -> np.ndarray:
    """Expected sale probability at each price of the 1-d ``prices``.

    Rows are prices, and a row holds the sale probability against each
    rival price in ``points``, times ``pdf`` when given.  A row reduces
    to ``np.dot(row, weights)``, or, when ``weights`` is None (an equally
    weighted sample), to ``row.mean()``; a sample's distinct prices are
    evaluated once and gathered back in sample order.  Rows are scored in
    ``_parallel.map_blocks`` blocks, one scipy call per block, and every
    reduction stays within one row, so a price has the bits of a
    one-price call and memory stays at block size for any grid.
    """
    inverse = None
    if weights is None:
        points, inverse = np.unique(points, return_inverse=True)

    def _block(rows: slice) -> np.ndarray:
        table = _sale_prob(prices[rows, None], points, sigma, noise)
        if pdf is not None:
            table *= pdf
        if inverse is not None:
            return table.take(inverse, axis=1).mean(axis=1)
        return np.array([np.dot(row, weights) for row in table])

    row_elements = points.size if inverse is None else inverse.size
    # the empty leading piece makes an empty grid an empty curve
    return np.concatenate([prices[:0], *map_blocks(_block, prices.size, row_elements)])


def quadrature_retail_utility(
    p1, scenario: RetailScenario, nodes: int = 256, density=None
):
    """Retailer expected utility at ``p1`` by integration, not sampling.

    ``p1`` is one price (a float comes back) or a 1-d array of prices (an
    array comes back, each value with the bits of a one-price call); a
    grid costs one scipy call per row block, not one per price.
    ``density`` describes the competitor-price distribution: a float
    (point mass), a CategoricalPMF or an array of equally weighted prices
    (exact sums; a sample's distinct prices are evaluated once), a
    PowerPricePrior, or a (pdf, lo, hi) triple handled by Gauss-Legendre
    with ``nodes`` points.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    if density is None:
        if scenario.known_competitor_price is None:
            raise ValueError("no density supplied and no known competitor price")
        density = float(scenario.known_competitor_price)

    if isinstance(density, (int, float)):
        density = CategoricalPMF((density,), (1.0,))
    elif isinstance(density, PowerPricePrior):
        density = (density.pdf, density.lower, density.upper)

    weights = pdf = None
    if isinstance(density, CategoricalPMF):
        points, weights = np.asarray(density.values), np.asarray(density.probs)
    elif isinstance(density, tuple) and len(density) == 3 and callable(density[0]):
        density_fn, lo, hi = density
        points, weights = _gauss_legendre(lo, hi, nodes)
        pdf = density_fn(points)
    else:
        points = np.asarray(density, dtype=float)  # equally weighted price sample
    prices = np.atleast_1d(np.asarray(p1, dtype=float))
    accept = _sale_curve(
        prices, points, scenario.fixed_sigma, scenario.customer_noise, weights, pdf
    )
    utility = _retail_payoff(prices, accept, scenario)
    return float(utility[0]) if np.ndim(p1) == 0 else utility


def exact_template_utility(prices, scenario: TemplateScenario) -> np.ndarray:
    """Expected margin of a generic template scenario at each price.

    Sums margin times sale probability exactly over the finite rival
    price distribution (a pmf, or a list of equally weighted prices),
    with scipy's CDFs, as :func:`quadrature_retail_utility` does for a
    pmf or a sample.
    """
    competitor = scenario.competitor_prices
    prices = np.asarray(prices, dtype=float)
    if isinstance(competitor, CategoricalPMF):
        points, weights = np.asarray(competitor.values), np.asarray(competitor.probs)
    else:
        points, weights = np.asarray(competitor, dtype=float), None
    accept = _sale_curve(
        prices, points, scenario.choice_sigma, scenario.choice_noise, weights
    )
    return (prices - scenario.cost) * accept


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
    rival_win = _sale_prob(
        grid[:, None], x[None, :], scenario.fixed_sigma, scenario.competitor_noise
    )
    accept = rival_win @ (prior.pdf(x) * w)
    return grid, (grid - scenario.competitor_cost) * accept


def exact_pension_acceptance(h1, scenario: PensionScenario):
    """Exact acceptance probability for the pension problem.

    The customer's risk aversion integrates out by Gauss-Legendre; rival
    offers are independent, so for each risk-aversion node the win
    probability against all rivals is the single-rival strict-win mass
    raised to the rival count.  No sampling, no combinatorial blowup.
    ``h1`` is one offer (a float comes back) or a 1-d array of offers (an
    array comes back); the rival utility table is computed once for all
    offers, and each offer's value has the bits of a one-offer call.
    """
    scenario.validate()
    lo, hi = scenario.risk_aversion
    if hi > lo:
        rho, w = _gauss_legendre(lo, hi, _PENSION_RHO_NODES)
        w = w / (hi - lo)
    else:
        rho, w = np.array([lo]), np.array([1.0])
    h = np.atleast_1d(np.asarray(h1, dtype=float))
    offers = np.asarray(scenario.competitor_offers.values)
    probs = np.asarray(scenario.competitor_offers.probs)
    eu_ours = customer_expected_utility(
        np.repeat(h[:, None], rho.size, axis=1), scenario, rho, _check_range=True
    )  # (our offers, nodes)
    eu_rival = customer_expected_utility(
        offers[None, :], scenario, rho[:, None], _check_range=False
    )  # (nodes, rival offers)
    accept = np.array([
        np.dot(w, ((eu_rival < ours[:, None]) @ probs) ** scenario.n_competitors)
        for ours in eu_ours
    ])  # strict rule
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
