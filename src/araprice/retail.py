"""Retail price competition with a probit customer.

One retailer discounts a product against a single competitor.  The
customer buys whichever product is cheaper up to probit noise; the noise
variance carries an inverse-gamma prior, which integrates out to a
Student-t acceptance curve.  The competitor's price is forecast by
solving her own pricing problem repeatedly under sampled beliefs, and the
retailer grid-searches her expected margin against those forecasts.

Retail is one specification of the generic template, scored by
:func:`araprice.core.score_grid` at a grid or at one price.  The forecast
scores its draws in fixed-size row blocks (``_parallel.map_blocks``), so
its memory does not grow with n1 * n2 * grid and its bits are those of
one call.  Within a block it bisects the rival's grid and skips the
prices that a monotonicity bound proves cannot hold her argmax (see
:func:`sample_competitor_prices`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import map_blocks
from .core import (
    EvaluationCurve, PriceGrid, ProducerUtility, _distinct_states, score_grid,
    solve_supported_price,
)
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

# Slack added to the rival's mean win in the forecast's pruning bound, in
# case the computed CDF is not monotone at the level of its rounding (about
# 1e-16 for a value in [0, 1]); betainc does not promise monotonicity.
_PRUNE_MARGIN = 1e-9


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
        if not bad:
            for grid in ("price_grid", "competitor_grid"):
                try:
                    getattr(self, grid)
                except ValueError as exc:
                    bad.append(f"{grid}: {exc}")
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
    scale = math.sqrt(noise.shape / noise.scale)
    z = scale * (np.asarray(p1, float) - np.asarray(p2, float))  # gap not kept alive
    return 1.0 - student_t_cdf(z, 2.0 * noise.shape)


def _sale_prob(p1, p2, sigma: float | None, noise: InverseGammaParams | None):
    """P(sale at price p1 against rival price p2), vectorized: probit at a
    fixed ``sigma``, else the t marginal of the probit under ``noise``."""
    if sigma is not None:
        return probit_choice_prob(p1, p2, sigma)
    return t_choice_prob(p1, p2, noise)


def _customer_accept(scenario: RetailScenario):
    """The customer's sale probability: retail's choice model for ``score_grid``."""
    return partial(_sale_prob, sigma=scenario.fixed_sigma, noise=scenario.customer_noise)


def _payoff(scenario: RetailScenario) -> ProducerUtility:
    """The retailer's margin on a sale; the perishable variant writes the
    unit cost off on every lost sale."""
    lost = -scenario.cost if scenario.utility_variant == "perishable" else 0.0
    return ProducerUtility(lambda p: p - scenario.cost, lambda p: lost)


def _sum_draws(win: np.ndarray) -> np.ndarray:
    """Column sums of a (draws, columns) table, adding the draws in order,
    as the mean over the draw axis of a (rows, n2, grid) array does.

    Over a C-ordered table of two or more columns, ``sum(axis=0)`` adds
    row after row, in draw order.  A single column or another layout puts
    the draws on numpy's inner loop, which sums pairwise, so those go
    through ``cumsum``, which always adds in order.
    """
    if win.shape[1] > 1 and win.flags.c_contiguous:
        return win.sum(axis=0)
    return np.cumsum(win, axis=0)[-1]


def sample_competitor_prices(scenario: RetailScenario, rng: RngStream) -> np.ndarray:
    """Forecast the rival's price: ``n1`` draws of her optimal response.

    Each draw realizes ``n2`` prices we might set (from the rival's power
    prior over our price), scores candidate rival prices by margin times
    estimated sale probability, and keeps the argmax, the lowest index on
    ties.  A known rival price short-circuits to a degenerate forecast.
    All uniforms are drawn up front; the draws are then scored in row
    blocks sized for the pruned search without changing a bit of the
    result.

    The margin is nondecreasing in the grid index and the mean win is
    nonincreasing (monotone CDFs, monotone rounding, one summation order),
    so for scored indices a < k < b, ``margin[b-1] * win[a]`` bounds the
    objective at k.  Each row scores the grid ends, then bisects only
    the gaps whose bound, with the win raised by ``_PRUNE_MARGIN``
    against CDF rounding, is not below the best objective so far.  Every
    skipped price is then strictly worse than the argmax, which is the
    argmax of the unpruned search.
    """
    scenario.validate()
    if scenario.known_competitor_price is not None:
        return np.full(scenario.n1, float(scenario.known_competitor_price))

    grid = scenario.competitor_grid.points()
    margin = grid - scenario.competitor_cost
    bound_margin = np.maximum(margin, 0.0)  # grid points rounded below her cost
    u = rng.generator.random((scenario.n1, scenario.n2))
    prior = scenario.our_price_prior

    def _best(rows: slice) -> np.ndarray:
        ours = prior.ppf(u[rows]).T  # (n2, rows): the draws on the outer axis
        count = ours.shape[1]
        mean_win = np.empty((count, grid.size))
        objective = np.full((count, grid.size), -np.inf)  # -inf: not scored

        def _score(row: np.ndarray, col: np.ndarray) -> None:
            # sale probability for the rival: customer takes her product when
            # it is cheaper, up to the rival's own (vaguer) noise model; take()
            # keeps the (n2, columns) table C-ordered, which _sum_draws needs
            win = 1.0 - _sale_prob(
                ours.take(row, axis=1), grid[col],
                scenario.fixed_sigma, scenario.competitor_noise,
            )
            mean_win[row, col] = _sum_draws(win) / scenario.n2
            objective[row, col] = margin[col] * mean_win[row, col]

        # Bisect gaps (lo, hi) between scored indices, all rows at once.
        row = np.arange(count)
        lo, hi = np.zeros(count, dtype=np.intp), np.full(count, grid.size - 1)
        _score(np.concatenate([row, row]), np.concatenate([lo, hi]))
        while row.size:
            best = objective.max(axis=1)[row]
            bound = bound_margin[hi - 1] * (mean_win[row, lo] + _PRUNE_MARGIN)
            keep = (hi - lo > 1) & ~(bound < best)  # a NaN keeps its gap
            row, lo, hi = row[keep], lo[keep], hi[keep]
            mid = (lo + hi) // 2
            _score(row, mid)
            row = np.concatenate([row, row])
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        return np.argmax(objective, axis=1)

    # per row: grid elements in mean_win and objective, and n2 per price
    # scored at one level: 2, then one per live gap (at most 5 in
    # retail_case3's refined forecast; grid / 2 if nothing is pruned)
    blocks = map_blocks(_best, scenario.n1, max(8 * scenario.n2, grid.size))
    return grid[np.concatenate(blocks)]


def estimate_expected_utility(
    p1: float, competitor_prices, scenario: RetailScenario
) -> tuple[float, float]:
    """Monte Carlo estimate of the retailer's expected utility at ``p1``.

    Averages margin times acceptance over the competitor-price sample with
    :func:`araprice.core.score_grid`, the scorer of the engine's grids and
    the oracle's, on the sample's distinct prices weighted by their
    frequencies.  The perishable variant charges the write-off cost on
    every lost sale.  Returns (estimate, standard error).
    """
    samples = np.atleast_1d(np.asarray(competitor_prices, dtype=float))
    states, weights = _distinct_states(samples)
    if not scenario.cost <= p1 <= scenario.max_price:
        raise ValueError(
            f"price {p1} outside feasible range "
            f"[{scenario.cost}, {scenario.max_price}]"
        )
    grid, accept = np.array([float(p1)]), _customer_accept(scenario)
    curve = score_grid(grid, _payoff(scenario), accept, states[:, None], weights, samples.size)
    return float(curve.expected_utility[0]), float(curve.std_err[0])


def optimize_price(scenario: RetailScenario, rng: RngStream) -> EvaluationCurve:
    """Full pipeline: forecast the rival once, then grid-search our price.

    The grid is scored by :func:`araprice.core.solve_supported_price`
    against the one competitor-price sample, which keeps the acceptance
    column monotone in price and the whole curve reproducible from
    (scenario, seed).  The rival forecast and the grid are both scored in
    row blocks.
    """
    scenario.validate()
    samples = sample_competitor_prices(scenario, rng)
    _, curve = solve_supported_price(
        scenario.price_grid, _payoff(scenario), samples, _customer_accept(scenario)
    )
    return curve
