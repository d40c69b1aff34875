"""Retail price competition with a probit customer.

One retailer discounts a product against a single competitor.  The
customer buys whichever product is cheaper up to probit noise; the noise
variance carries an inverse-gamma prior, which integrates out to a
Student-t acceptance curve.  The competitor's price is forecast by
solving her own pricing problem repeatedly under sampled beliefs, and the
retailer grid-searches her expected margin against those forecasts.

The forecast scores its draws in fixed-size row blocks
(``_parallel.map_blocks``), so its memory does not grow with n1 * n2 *
grid and ``workers`` threads can share the work with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import map_blocks, run_sliced
from .core import EvaluationCurve, PriceGrid
from .randkit import (
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    normal_cdf,
    student_t_cdf,
)

__all__ = [
    "RetailScenario",
    "probit_choice_prob",
    "t_choice_prob",
    "sample_competitor_prices",
    "estimate_expected_utility",
    "optimize_price",
]

UTILITY_VARIANTS = ("non_perishable", "perishable")

# ``price compare`` checks a forecast against one this many times larger.
REFINED_FORECAST_FACTOR = 32


@dataclass(frozen=True)
class RetailScenario:
    """Complete declarative description of one retail pricing problem.

    ``cost``/``max_price`` bound the retailer's explored price range;
    ``competitor_cost``/``competitor_max_price`` bound the rival's.
    ``customer_noise`` is the inverse-gamma prior on the probit noise
    variance used for the customer's decision, ``competitor_noise`` the
    (typically vaguer) one attributed to the rival's model of the same
    customer.  ``prior_exponent`` shapes the rival's belief about our
    price.  ``n1`` counts competitor-price forecasts; ``n2`` counts inner
    draws per forecast.  A known rival price (``known_competitor_price``)
    and/or a fixed probit scale (``fixed_sigma``) switch the scenario
    into the lower-uncertainty benchmark modes.
    """

    cost: float
    competitor_cost: float
    max_price: float
    competitor_max_price: float
    customer_noise: InverseGammaParams
    competitor_noise: InverseGammaParams
    prior_exponent: float = 2.0
    grid_step: float = 0.5
    n1: int = 100
    n2: int = 100
    fixed_sigma: float | None = None
    known_competitor_price: float | None = None
    utility_variant: str = "non_perishable"

    def violations(self) -> list[str]:
        bad = []
        if not self.cost <= self.max_price:
            bad.append(f"cost: {self.cost} exceeds max_price {self.max_price}")
        if not self.competitor_cost <= self.competitor_max_price:
            bad.append(
                "competitor_cost: "
                f"{self.competitor_cost} exceeds competitor_max_price "
                f"{self.competitor_max_price}"
            )
        if self.grid_step <= 0:
            bad.append(f"grid_step: must be positive, got {self.grid_step}")
        if self.n1 < 1:
            bad.append(f"n1: must be >= 1, got {self.n1}")
        if self.n2 < 1:
            bad.append(f"n2: must be >= 1, got {self.n2}")
        if self.prior_exponent < 0:
            bad.append(f"prior_exponent: must be >= 0, got {self.prior_exponent}")
        if self.fixed_sigma is not None and self.fixed_sigma <= 0:
            bad.append(f"fixed_sigma: must be positive, got {self.fixed_sigma}")
        if self.known_competitor_price is not None and not (
            math.isfinite(self.known_competitor_price)
        ):
            bad.append("known_competitor_price: must be finite")
        if self.utility_variant not in UTILITY_VARIANTS:
            bad.append(
                f"utility_variant: {self.utility_variant!r} not in {UTILITY_VARIANTS}"
            )
        return bad

    def validate(self) -> "RetailScenario":
        bad = self.violations()
        if bad:
            raise ValueError("invalid retail scenario: " + "; ".join(bad))
        return self

    @property
    def price_grid(self) -> PriceGrid:
        return PriceGrid(self.cost, self.max_price, self.grid_step)

    @property
    def competitor_grid(self) -> PriceGrid:
        return PriceGrid(self.competitor_cost, self.competitor_max_price, self.grid_step)

    @property
    def our_price_prior(self) -> PowerPricePrior:
        """The rival's belief about the price we will set."""
        return PowerPricePrior(self.cost, self.max_price, self.prior_exponent)


def probit_choice_prob(p1, p2, sigma):
    """Probability the customer buys product 1 at prices (p1, p2).

    Probit choice: 1 - Phi((p1 - p2) / sigma).  Undercutting the rival
    pushes the probability above one half; ``sigma`` measures how firm
    the customer's price preference is.  All arguments broadcast.
    """
    sig = np.asarray(sigma, dtype=float)
    if np.any(sig <= 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 - normal_cdf((np.asarray(p1, float) - np.asarray(p2, float)) / sig)


def t_choice_prob(p1, p2, noise: InverseGammaParams):
    """Purchase probability with the probit noise variance integrated out.

    With sigma^2 ~ InvGamma(shape, scale) the marginal is exactly
    1 - T_{2*shape}(sqrt(shape/scale) * (p1 - p2)) for the Student-t CDF.
    """
    d = np.asarray(p1, float) - np.asarray(p2, float)
    return 1.0 - student_t_cdf(math.sqrt(noise.shape / noise.scale) * d, 2.0 * noise.shape)


def _acceptance(p1, p2, scenario: RetailScenario, noise: InverseGammaParams):
    """P(sale at price p1 against rival price p2), vectorized."""
    if scenario.fixed_sigma is not None:
        return probit_choice_prob(p1, p2, scenario.fixed_sigma)
    return t_choice_prob(p1, p2, noise)


def sample_competitor_prices(
    scenario: RetailScenario, rng: RngStream, workers: int = 1
) -> np.ndarray:
    """Forecast the rival's price: ``n1`` draws of her optimal response.

    Each draw realizes ``n2`` prices we might set (from the rival's power
    prior over our price), scores every candidate rival price by margin
    times estimated sale probability, and keeps the argmax.  A known
    rival price short-circuits to a degenerate forecast.  All uniforms
    are drawn up front; the draws are then scored in row blocks of
    ``n2`` x grid temporaries, split over ``workers`` threads without
    changing a bit of the result.
    """
    scenario.validate()
    if scenario.known_competitor_price is not None:
        return np.full(scenario.n1, float(scenario.known_competitor_price))

    grid = scenario.competitor_grid.points()
    margin = grid - scenario.competitor_cost
    u = rng.generator.random((scenario.n1, scenario.n2))
    prior = scenario.our_price_prior

    def _best(rows: slice) -> np.ndarray:
        our_prices = prior.lower + (prior.upper - prior.lower) * u[rows] ** (
            1.0 / (prior.exponent + 1.0)
        )
        # sale probability for the rival: customer takes her product when it
        # is cheaper, up to the rival's own (vaguer) noise model
        win = 1.0 - _acceptance(
            our_prices[:, :, None],
            grid[None, None, :],
            scenario,
            scenario.competitor_noise,
        )
        return np.argmax(margin[None, :] * win.mean(axis=1), axis=1)

    blocks = map_blocks(_best, scenario.n1, scenario.n2 * grid.size, workers)
    return grid[np.concatenate(blocks)]


def estimate_expected_utility(
    p1: float, competitor_prices, scenario: RetailScenario
) -> tuple[float, float]:
    """Monte Carlo estimate of the retailer's expected utility at ``p1``.

    Averages margin times acceptance over the competitor-price sample.
    The perishable variant charges the write-off cost on every lost sale.
    Returns (estimate, standard error).
    """
    samples = np.atleast_1d(np.asarray(competitor_prices, dtype=float))
    if samples.size == 0:
        raise ValueError("competitor price sample is empty")
    if not scenario.cost <= p1 <= scenario.max_price:
        raise ValueError(
            f"price {p1} outside feasible range "
            f"[{scenario.cost}, {scenario.max_price}]"
        )
    accept = _acceptance(p1, samples, scenario, scenario.customer_noise)
    if scenario.utility_variant == "perishable":
        payoff = (p1 - scenario.cost) * accept - scenario.cost * (1.0 - accept)
    else:
        payoff = (p1 - scenario.cost) * accept
    est = float(payoff.mean())
    se = float(payoff.std(ddof=1) / math.sqrt(payoff.size)) if payoff.size > 1 else 0.0
    return est, se


def optimize_price(
    scenario: RetailScenario, rng: RngStream, workers: int = 1
) -> EvaluationCurve:
    """Full pipeline: forecast the rival once, then grid-search our price.

    All grid points are scored against the same competitor-price sample,
    which keeps the acceptance column monotone in price and the whole
    curve reproducible from (scenario, seed).  The rival forecast and the
    grid evaluation may be split across ``workers`` threads without
    changing a single bit of the result (randomness is drawn up front;
    blocks and slices are pre-assigned).
    """
    scenario.validate()
    samples = sample_competitor_prices(scenario, rng, workers)
    points = scenario.price_grid.points()

    accept = np.empty((points.size, samples.size))

    def _fill(block: slice) -> None:
        accept[block] = _acceptance(
            points[block, None], samples[None, :], scenario, scenario.customer_noise
        )

    run_sliced(_fill, points.size, workers)
    if scenario.utility_variant == "perishable":
        payoff = (points[:, None] - scenario.cost) * accept - scenario.cost * (
            1.0 - accept
        )
    else:
        payoff = (points[:, None] - scenario.cost) * accept
    mean = payoff.mean(axis=1)
    if samples.size > 1:
        se = payoff.std(axis=1, ddof=1) / math.sqrt(samples.size)
    else:
        se = np.zeros(points.size)
    return EvaluationCurve(
        prices=points,
        accept_prob=accept.mean(axis=1),
        expected_utility=mean,
        std_err=se,
    )
