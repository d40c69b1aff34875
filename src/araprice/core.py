"""Generic n-producer pricing template.

The supported producer prices a product against competitors whose prices,
and a customer whose preferences, are uncertain.  Uncertainty about the
other agents is expressed with random utilities and random beliefs; the
customer picks the product with the highest realized expected utility,
competitors are modeled as expected-utility maximizers themselves, and
the supported producer grid-searches her own expected utility against
Monte Carlo forecasts of everyone else's behavior.

Retail and pension specialize it with closed-form choice models.  Every
price grid of the engine and the oracle is scored by :func:`score_grid`:
a weighted mean over rival-price states of payoff x acceptance.  A Monte Carlo
sample is scored on its distinct states, weighted by their frequencies
(:func:`_distinct_states`); the oracle weighs by pmf or quadrature.  Every
rival's best response, retail's forecast included, is :func:`best_responses`.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import _parallel
from ._parallel import map_blocks
from .randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    PowerPricePrior,
    RngStream,
)

__all__ = [
    "PriceGrid",
    "OutcomeModel",
    "RandomUtilitySpec",
    "ChoiceOutcome",
    "AgentBeliefs",
    "ValidationConfig",
    "ValidationReport",
    "ProducerUtility",
    "EvaluationCurve",
    "realize_choice",
    "customer_choice_probs",
    "best_responses",
    "sample_competitor_optimal_price",
    "score_grid",
    "solve_supported_price",
    "validate_problem",
]


@dataclass(frozen=True)
class PriceGrid:
    """Compact feasible price set: {min, min+step, ...} up to and including max.

    Points are snapped to 9 decimals so that decimal steps (0.5, 0.005)
    land exactly on the prices they are meant to contain; both end points
    must still be finite once snapped.
    """

    min: float
    max: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("grid bounds must be finite")
        if self.min > self.max:
            raise ValueError(f"grid min {self.min} exceeds max {self.max}")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        count = self.count()
        if count != math.inf:  # an unbounded count is left to the work budget
            last = self.min + self.step * (count - 1)
            # snapping multiplies by 1e9, so that product must stay finite
            if not all(math.isfinite(end * 1e9) for end in (self.min, last)):
                raise ValueError(
                    f"grid end points {self.min!r}, {last!r} overflow when "
                    "snapped to 9 decimals"
                )

    def count(self) -> float:
        """Number of points, without building them: math.inf when the
        span in steps is not finite."""
        span = (self.max - self.min) / self.step + 1e-9
        return math.floor(span) + 1.0 if math.isfinite(span) else math.inf

    def points(self) -> np.ndarray:
        return np.round(self.min + self.step * np.arange(int(self.count())), 9)


# How far an outcome distribution's total mass may stray from one: a pmf
# sums exactly up to rounding, a trapezoid rule only to its quadrature error.
_MASS_TOL_DISCRETE = 1e-9
_MASS_TOL_QUADRATURE = 1e-6


class OutcomeModel:
    """Per-choice distribution of the outcome feature affecting utility.

    Each product choice c maps either to a finite pmf ``(values, probs)``,
    handled by exact enumeration, or to a density ``(pdf, lo, hi)`` on an
    interval, handled by fixed-node trapezoidal quadrature.  Building the
    model tabulates it once, as ``table[c] = (nodes, weights, mass
    tolerance)`` with the weights cast to contiguous float64, so a pdf runs
    once per choice, and a malformed entry, a pdf that raises or fewer
    than 2 nodes raise there, not on first use.
    A single point mass at 0 is the degenerate "no outcome feature" model.
    """

    def __init__(self, per_choice: dict, quadrature_nodes: int = 1024):
        if quadrature_nodes < 2:
            raise ValueError(f"quadrature needs at least 2 nodes, got {quadrature_nodes}")
        self.per_choice = per_choice
        self.quadrature_nodes = quadrature_nodes
        self.table = {c: self._tabulate(entry) for c, entry in per_choice.items()}

    def _tabulate(self, entry) -> tuple:
        if len(entry) == 2:
            values, probs = entry
            weights = np.ascontiguousarray(probs, float)
            return np.asarray(values, float), weights, _MASS_TOL_DISCRETE
        pdf, lo, hi = entry
        s = np.linspace(lo, hi, self.quadrature_nodes)
        dw = np.full(s.size, (hi - lo) / (s.size - 1))  # trapezoid weights
        dw[[0, -1]] *= 0.5
        return s, np.asarray(pdf(s) * dw, float), _MASS_TOL_QUADRATURE

    @classmethod
    def discrete(cls, per_choice: dict) -> "OutcomeModel":
        return cls(dict(per_choice))

    def validate(self):
        """Check every conditional distribution integrates to one."""
        problems = []
        for c, (_, w, tol) in self.table.items():
            total = float(np.sum(w))
            if abs(total - 1.0) > tol:
                problems.append(f"choice {c}: mass {total!r} differs from 1")
        return problems


@dataclass
class RandomUtilitySpec:
    """A parametric utility family plus a prior over its parameter.

    ``builder(theta)`` returns a utility u(price, s) (vectorized over s).
    The prior may be a fixed value, a (lo, hi) uniform interval, a
    CategoricalPMF, or a callable generator -> theta.  With
    ``per_product=True`` the parameter is drawn independently for every
    product inside each comparison; by default one realization is shared,
    i.e. the customer applies a single utility function to all offers.
    """

    builder: Callable[[object], Callable]
    prior: object = None
    per_product: bool = False

    @classmethod
    def custom(cls, builder, prior=None, per_product=False) -> "RandomUtilitySpec":
        return cls(builder, prior, per_product)

    def sample_parameter(self, g: np.random.Generator):
        prior = self.prior
        if prior is None:
            return None
        if callable(prior):
            return prior(g)
        if isinstance(prior, CategoricalPMF):
            values = np.asarray(prior.values)
            return float(values[g.choice(len(values), p=prior.probs)])
        if isinstance(prior, tuple) and len(prior) == 2:
            lo, hi = prior
            return float(g.uniform(lo, hi))
        return prior  # fixed value


@dataclass(frozen=True)
class ChoiceOutcome:
    """Realized customer comparisons of a block of draws: the index chosen
    per draw and the (draws x products) table of expected utilities."""

    chosen: np.ndarray
    expected_utilities: np.ndarray


@dataclass(frozen=True)
class AgentBeliefs:
    """Per-competitor price beliefs, combined independently.

    Each entry may be a fixed price, PowerPricePrior, CategoricalPMF,
    EmpiricalDistribution, or a callable generator -> price.
    """

    price_priors: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "price_priors", tuple(self.price_priors))

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        """(size, n_competitors) array of joint price draws."""
        cols = [
            _realize_prices(prior, rng.generator, size) for prior in self.price_priors
        ]
        return np.column_stack(cols)


def _realize_prices(spec, g: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` price realizations from a price or price distribution."""
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


@dataclass(frozen=True)
class ValidationConfig:
    """Settings for the well-posedness checks: |u| bound and probe budget."""

    utility_bound: float
    probe_count: int = 256

    def __post_init__(self) -> None:
        if self.utility_bound < 0:
            raise ValueError("utility bound must be nonnegative")
        if self.probe_count < 1:
            raise ValueError("probe count must be at least 1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class ProducerUtility:
    """Deterministic producer payoff: one value if the sale happens, another if not."""

    on_sale: Callable[[float], float]
    on_no_sale: Callable[[float], float] = lambda p: 0.0

    @classmethod
    def margin(cls, cost: float) -> "ProducerUtility":
        return cls(on_sale=lambda p: p - cost)


@dataclass(frozen=True)
class EvaluationCurve:
    """Per-price evaluation rows plus the selected optimum.

    Columns are aligned arrays: price, acceptance probability, expected
    utility and its Monte Carlo standard error; subclasses add columns.
    The optimum is the lowest price attaining the maximum expected utility.
    """

    prices: np.ndarray
    accept_prob: np.ndarray
    expected_utility: np.ndarray
    std_err: np.ndarray

    def __post_init__(self) -> None:
        for column in fields(self)[1:]:
            if getattr(self, column.name).size != self.prices.size:
                raise ValueError(f"column {column.name} has mismatched length")

    @classmethod
    def from_draws(cls, prices, win, on_sale, on_no_sale, weights, draws: int = 0):
        """Score a (grid x states) acceptance matrix ``win``.

        Each state pays ``on_sale`` or ``on_no_sale`` (per-price arrays)
        weighted by its acceptance; every row reduces with ``np.vecdot(row,
        weights)`` (the bits of ``np.dot``), the states' weights summing to
        one.  The SE is ``sqrt(vecdot((payoff - mean)**2, weights) / (draws
        - 1))``, ``std(ddof=1) / sqrt(draws)`` over ``draws`` > 1 Monte Carlo
        draws, and 0 for an exact expectation (``draws=0``) or one draw.
        """
        payoff = on_sale[:, None] * win + on_no_sale[:, None] * (1.0 - win)
        mean, se = np.vecdot(payoff, weights), np.zeros(len(prices))
        if draws > 1:
            se = np.sqrt(np.vecdot((payoff - mean[:, None]) ** 2, weights) / (draws - 1))
        return cls(prices, np.vecdot(win, weights), mean, se)

    @property
    def optimum_index(self) -> int:
        return int(np.argmax(self.expected_utility))

    @property
    def optimum(self) -> float:
        return float(self.prices[self.optimum_index])

    @property
    def optimum_utility(self) -> float:
        return float(self.expected_utility[self.optimum_index])

    @property
    def accept_at_optimum(self) -> float:
        return float(self.accept_prob[self.optimum_index])


# ---------------------------------------------------------------------------
# customer problem
# ---------------------------------------------------------------------------

_PER_DRAW = object()  # a prior that draws its own way: realized draw by draw


def _parameter_draw(prior):
    """``RandomUtilitySpec.sample_parameter``'s draws at a block of
    uniforms, one double each: a function of the block, None for no or a
    fixed prior, or _PER_DRAW."""
    if callable(prior) or isinstance(prior, CategoricalPMF):
        return _PER_DRAW
    if isinstance(prior, tuple) and len(prior) == 2:
        lo, hi = map(float, prior)
        # Generator.uniform raises OverflowError on this range
        return (lambda u: lo + (hi - lo) * u) if math.isfinite(hi - lo) else _PER_DRAW
    return None


def _is_number(price) -> bool:
    """Whether ``_realize_prices`` takes ``price`` as it is, drawing nothing."""
    distributions = (PowerPricePrior, CategoricalPMF, EmpiricalDistribution)
    return not (isinstance(price, distributions) or callable(price))


def _realizations(prices, spec: RandomUtilitySpec, g: np.random.Generator, rows: int):
    """The prices of ``rows`` draws, one array per product, and an iterator of
    each draw's (prices, utility parameters), in draw order.

    A draw takes the elements of ``prices`` and then its parameter, or one
    per product with ``per_product``, from the stream in that order.  When
    every price is a plain number and the prior is none, fixed or a finite
    ``(lo, hi)``, a block's parameters are ``lo + (hi - lo) * u`` at one
    ``g.random((rows, parameters))``: the doubles ``Generator.uniform``
    would take one draw at a time.  Otherwise each draw is realized in turn.
    """
    n = len(prices)
    params = n if spec.per_product else 1
    rule = _parameter_draw(spec.prior)
    if rule is _PER_DRAW or not all(map(_is_number, prices)):
        table = np.empty((n, rows))

        def draws():
            for r in range(rows):
                realized = [float(_realize_prices(p, g, 1)[0]) for p in prices]
                table[:, r] = realized
                yield realized, [spec.sample_parameter(g) for _ in range(params)]

        return list(table), draws()
    fixed = tuple(map(float, prices))
    if rule is None:
        thetas = itertools.repeat((spec.prior,) * params, rows)
    else:
        columns = np.ascontiguousarray(rule(g.random((rows, params))).T)
        thetas = zip(*map(memoryview, columns))  # Python floats, a draw at a time
    realized = [np.broadcast_to(p, rows) for p in fixed]
    return realized, zip(itertools.repeat(fixed, rows), thetas)


def _expected_utilities(per_draw, spec: RandomUtilitySpec, nodes, weights, rows: int):
    """(rows x products) expected utilities of the draws of ``per_draw``.

    Each product's utilities over its outcome nodes are written into a
    float64 (rows x nodes) table, which casts and broadcasts them, and
    ``np.vecdot`` reduces each row against the product's weights.
    """
    n = len(nodes)
    tables = [np.empty((rows, s.size)) for s in nodes]
    build, shared = spec.builder, not spec.per_product
    for r, (draw_prices, thetas) in enumerate(per_draw):
        utilities = [build(thetas[0])] * n if shared else map(build, thetas)
        for i, u in enumerate(utilities):
            tables[i][r] = u(draw_prices[i], nodes[i])
    return np.column_stack([np.vecdot(t, w) for t, w in zip(tables, weights)])


def realize_choice(
    prices: Sequence,
    spec: RandomUtilitySpec,
    outcomes: OutcomeModel,
    g: np.random.Generator,
    draws: int,
) -> ChoiceOutcome:
    """``draws`` draws of the customer's multiple-comparison problem.

    Each draw realizes prices (a plain number draws nothing), a utility
    parameter (a Python float from a ``(lo, hi)`` or ``CategoricalPMF``
    prior) and the utility ``spec.builder`` makes of it, once per draw or
    once per product with ``per_product``.  Plain prices with a none, fixed
    or ``(lo, hi)`` prior take every parameter from one block of uniforms;
    anything else is realized draw by draw.  Either way the stream ends
    where one draw at a time leaves it.

    Utilities over each product's outcome nodes fill a float64 (draws x
    nodes) table, reduced by ``np.vecdot`` against the model's weights.
    Ties go to the highest-indexed maximizer, so product 0 wins only on a
    strict maximum.  A NaN expected utility raises ValueError naming the
    product and price of the first NaN in draw order; so does a product
    without an outcome distribution.  ``chosen`` holds each draw's choice
    and ``expected_utilities`` the (draws x products) table.
    """
    n = len(prices)
    try:
        nodes, weights, _ = zip(*(outcomes.table[i] for i in range(n)))
    except KeyError as missing:
        msg = f"degenerate outcome model: no distribution for product {missing}"
        raise ValueError(msg) from None
    realized, per_draw = _realizations(prices, spec, g, draws)
    eu = _expected_utilities(per_draw, spec, nodes, weights, draws)
    nan = np.isnan(eu)
    if nan.any():
        r, i = np.argwhere(nan)[0]  # row-major: the first draw, then product
        raise ValueError(
            f"expected utility of product {i} is NaN at price {float(realized[i][r])!r}"
        )
    chosen = n - 1 - np.argmax(eu[:, ::-1], axis=1)  # the last maximizer
    return ChoiceOutcome(chosen=chosen, expected_utilities=eu)


def customer_choice_probs(
    prices: Sequence,
    spec: RandomUtilitySpec,
    outcomes: OutcomeModel,
    n_draws: int,
    rng: RngStream,
) -> np.ndarray:
    """Probability vector of the customer choosing each of ``prices``.

    Monte Carlo over utility/price realizations; empirical frequencies of
    the strict-rule argmax, so components always sum to one.  The outcome
    model's masses, and that it has a distribution for every product, are
    checked once per call.  Then :func:`realize_choice` runs once per row
    block of draws (``_parallel.map_blocks``, a row being the products'
    outcome nodes summed), and ``np.bincount`` counts the choices; blocks
    run in draw order, so the shares are those of one draw at a time.
    """
    n = len(prices)
    if n == 0:
        raise ValueError("need at least one product")
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    problems = outcomes.validate() + [
        f"no distribution for product {i}" for i in range(n) if i not in outcomes.table
    ]
    if problems:
        raise ValueError("degenerate outcome model: " + "; ".join(problems))
    if n == 1:
        return np.array([1.0])
    g = rng.generator

    def _count(rows: slice) -> np.ndarray:
        choice = realize_choice(prices, spec, outcomes, g, rows.stop - rows.start)
        return np.bincount(choice.chosen, minlength=n)

    row = sum(outcomes.table[i][0].size for i in range(n))
    probs = np.sum(map_blocks(_count, n_draws, row), axis=0) / n_draws
    probs[np.argmax(probs)] += 1.0 - probs.sum()  # exact partition of unity
    return probs


# ---------------------------------------------------------------------------
# competitor problem
# ---------------------------------------------------------------------------


def _win_matrix(choice_model, points: np.ndarray, rivals: np.ndarray) -> np.ndarray:
    """(grid, rows) probability of a sale at each of ``points`` against each
    row of rival prices; pairwise win probabilities against several rivals
    multiply, assuming independence."""
    win = np.asarray(
        choice_model(points[:, None, None], rivals[None, :, :]), dtype=float
    )
    return win.prod(axis=2) if win.ndim == 3 else win


# Slack on the mean win in best_responses' bound: a rounded CDF, such as
# scipy's stdtr, need not be monotone at the level of its rounding (about
# 1e-16 in [0, 1]).
_PRUNE_MARGIN = 1e-9
_FLAT_ATOL = 1e-12  # a competitor objective within this of its first price's is flat


def _sum_draws(win: np.ndarray) -> np.ndarray:
    """Column sums of a (draws, columns) table, adding the draws in order:
    ``sum(axis=0)`` does so over a C-ordered table of two or more columns;
    numpy sums one column, or another layout, pairwise, so ``cumsum``."""
    if win.shape[1] > 1 and win.flags.c_contiguous:
        return win.sum(axis=0)
    return np.cumsum(win, axis=0)[-1]


def best_responses(points, payoff, choice_model, states) -> np.ndarray:
    """A rival's objective on her grid ``points`` for each row of a (rows x
    draws x rivals) ``states`` table: ``payoff`` times her mean win over the
    row's draws, (rows x grid), with -inf at the prices the search skips.

    A draw's win is the product of ``choice_model(own, rivals)``'s pairwise
    sale probabilities, in [0, 1] and not rising with her own price; means
    add the draws in order (:func:`_sum_draws`), so a price has the same
    bits however it is reached.  For a nondecreasing ``payoff`` and scored
    a < k < b, ``max(payoff[b-1], 0) * win[a]`` bounds the objective at k:
    each row scores the grid ends, then bisects the gaps whose bound (win +
    ``_PRUNE_MARGIN``, + ``2 * _FLAT_ATOL``) reaches its best so far; any
    other payoff has bound +inf.  A skipped price is more than ``2 *
    _FLAT_ATOL`` below the argmax.  Rows run in ``map_blocks`` blocks; a
    block whose whole table fits ``BLOCK_ELEMENTS`` is scored in one pass.
    """

    def _mean_win(own, rivals: np.ndarray) -> np.ndarray:
        # on a C-ordered (rivals, draws, ...) table the win table is C-ordered,
        # the draws on its outer axis, as _sum_draws needs
        win = functools.reduce(np.multiply, np.asarray(choice_model(own, rivals), dtype=float))
        return _sum_draws(win.reshape(len(win), -1)) / len(win)

    def _best(part: slice) -> np.ndarray:
        block = np.ascontiguousarray(states[part].transpose(2, 1, 0))  # rivals, draws, rows
        count = block.shape[2]
        if block.size * points.size <= _parallel.BLOCK_ELEMENTS:  # one broadcast
            whole = _mean_win(points, block[..., None])
            return payoff * whole.reshape(count, points.size)
        mean_win = np.empty((count, points.size))
        objective = np.full((count, points.size), -np.inf)  # -inf: not scored

        def _score(row: np.ndarray, col: np.ndarray) -> None:
            mean_win[row, col] = _mean_win(points[col], block.take(row, axis=2))
            objective[row, col] = payoff[col] * mean_win[row, col]

        # Bisect gaps (lo, hi) between scored indices, all rows at once.
        cap = np.where(np.all(payoff[1:] >= payoff[:-1]), np.maximum(payoff, 0.0), np.inf)
        row = np.arange(count)
        lo, hi = np.zeros(count, dtype=np.intp), np.full(count, points.size - 1)
        _score(np.concatenate([row, row]), np.concatenate([lo, hi]))
        while row.size:
            best = objective.max(axis=1)[row]
            bound = cap[hi - 1] * (mean_win[row, lo] + _PRUNE_MARGIN) + 2 * _FLAT_ATOL
            keep = (hi - lo > 1) & ~(bound < best)  # a NaN keeps its gap
            row, lo, hi = row[keep], lo[keep], hi[keep]
            mid = (lo + hi) // 2
            _score(row, mid)
            row = np.concatenate([row, row])
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        return objective

    # row size: a grid of objectives, or draws x rivals at up to 8 prices a round
    return np.concatenate(map_blocks(_best, len(states), max(8 * states[0].size, points.size)))


def sample_competitor_optimal_price(
    target: int,
    spec: RandomUtilitySpec,
    beliefs: AgentBeliefs,
    choice_model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: PriceGrid,
    inner_draws: int,
    rng: RngStream,
) -> float:
    """One draw of a competitor's optimal price: the argmax, lowest on ties,
    of her expected utility over ``grid`` at one realized utility parameter
    and ``inner_draws`` beliefs about the other producers' prices, scored by
    :func:`best_responses` as one row.  ``choice_model(own_prices,
    rival_prices)`` is the customer's probability of picking her: a sale
    probability in [0, 1] that does not rise with her own price.  A payoff
    that falls anywhere on the grid has every price scored.  A NaN objective
    raises ValueError naming the first scored price where it is NaN; one
    flat to 1e-12 warns and returns the lowest price.  ``target`` is
    carried for bookkeeping."""
    points = grid.points()
    if inner_draws < 1:
        raise ValueError("inner_draws must be at least 1")
    payoff = spec.builder(spec.sample_parameter(rng.generator))
    rivals = beliefs.sample(rng, inner_draws)[None]  # (1, inner_draws, n_rivals)
    values = np.full(points.shape, payoff(points, 0.0), dtype=float)
    objective = best_responses(points, values, choice_model, rivals)[0]
    nan = np.isnan(objective)
    if nan.any():
        price = float(points[nan.argmax()])
        raise ValueError(f"competitor expected utility is NaN at price {price!r}")
    if np.allclose(objective, objective[0], rtol=0.0, atol=_FLAT_ATOL):
        warnings.warn(
            "expected utility is flat across the whole grid; "
            "returning the lowest price",
            RuntimeWarning,
        )
        return float(points[0])
    return float(points[np.argmax(objective)])


# ---------------------------------------------------------------------------
# supported producer problem
# ---------------------------------------------------------------------------


def _distinct_states(sample) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (draws x ...) rival-price ``sample``, sorted,
    and the share of the draws that each takes: an equally weighted
    sample as frequency weights.  Raises ValueError on an empty sample."""
    sample = np.asarray(sample, dtype=float)
    if not len(sample):
        raise ValueError("rival price sample is empty: need at least one rival price draw")
    states, counts = np.unique(sample, axis=0, return_counts=True)
    return states, counts / len(sample)


def score_grid(prices, u1: ProducerUtility, choice_model, states, weights, draws=0):
    """Score every price of the 1-d ``prices`` by ``u1``'s expected payoff.

    ``states`` is a (states x rivals) table of rival prices, and a price
    wins a state with the product of ``choice_model``'s pairwise sale
    probabilities (:func:`_win_matrix`).  :meth:`EvaluationCurve.from_draws`
    reduces each row block's (prices x states) table against ``weights``
    and ``draws``; blocks (``_parallel.map_blocks``) keep memory at block
    size, and the curve has the bits of one ``from_draws`` call.
    """

    def _score(rows: slice) -> tuple:
        block = prices[rows]
        pays = (np.array([u(p) for p in block]) for u in (u1.on_sale, u1.on_no_sale))
        win = _win_matrix(choice_model, block, states)
        curve = EvaluationCurve.from_draws(block, win, *pays, weights, draws)
        return curve.accept_prob, curve.expected_utility, curve.std_err

    # an empty grid scores one empty block, so its columns are empty arrays
    blocks = map_blocks(_score, prices.size, states.size) or [_score(slice(0, 0))]
    return EvaluationCurve(prices, *map(np.concatenate, zip(*blocks)))


def solve_supported_price(
    grid: PriceGrid,
    u1: ProducerUtility,
    beliefs,
    choice_model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_draws: int = 1000,
    rng: RngStream | None = None,
) -> tuple[float, EvaluationCurve]:
    """Grid-search the supported producer's expected utility.

    ``beliefs`` is either an AgentBeliefs over competitor prices, an
    EmpiricalDistribution / array of already-sampled competitor prices
    (used verbatim), or a single float.  All grid points are evaluated on
    the same competitor sample, so curves are smooth in price and
    deterministic given the stream.  Raises ValueError when there is no
    rival draw to score against.  The grid is scored by :func:`score_grid`
    on the sample's distinct rival-price rows, weighted by frequency.
    """
    if isinstance(beliefs, AgentBeliefs):
        if rng is None:
            raise ValueError("sampling beliefs requires an RngStream")
        rivals = beliefs.sample(rng, n_draws)
    elif isinstance(beliefs, EmpiricalDistribution):
        rivals = beliefs.samples[:, None]
    else:
        rivals = np.atleast_1d(np.asarray(beliefs, dtype=float))[:, None]
    states, weights = _distinct_states(rivals)
    curve = score_grid(grid.points(), u1, choice_model, states, weights, len(rivals))
    return curve.optimum, curve


# ---------------------------------------------------------------------------
# well-posedness checks
# ---------------------------------------------------------------------------


def validate_problem(
    grid: PriceGrid | None,
    spec: RandomUtilitySpec,
    outcomes: OutcomeModel,
    cfg: ValidationConfig,
) -> ValidationReport:
    """Existence preconditions for the optimization: compact feasible set,
    bounded utilities on it, and normalized outcome distributions.

    Never raises; every check lands in the report as pass/fail.
    """
    checks = []

    # (a) compact nonempty price set: finitely many points, finite ends
    count = grid.count() if grid is not None else 0
    grid_ok = 0 < count < math.inf
    detail = f"{int(count)} points" if grid_ok else "no finite grid points"
    checks.append(CheckResult("price_set_compact_nonempty", bool(grid_ok), detail))

    # (b) |u| <= bound over probed (price, choice, outcome, parameter) tuples
    probe_rng = RngStream(seed=0x5EED, stream_id=0xB0D)
    g = probe_rng.generator
    bound_ok, worst = True, 0.0
    choices = sorted(outcomes.table)
    if grid_ok and choices:
        for _ in range(cfg.probe_count):
            theta = spec.sample_parameter(g)
            u = spec.builder(theta)
            k = g.integers(0, int(count))  # grid point k, without building the grid
            price = float(np.round(grid.min + grid.step * k, 9))
            choice = choices[g.integers(0, len(choices))]
            s_nodes = outcomes.table[choice][0]
            s = float(s_nodes[g.integers(0, s_nodes.size)])
            val = float(np.asarray(u(price, s)))
            if not math.isfinite(val):
                bound_ok, worst = False, math.inf
                break
            worst = max(worst, abs(val))
            if abs(val) > cfg.utility_bound:
                bound_ok = False
        detail = f"max |u| probed = {worst:.6g}, bound = {cfg.utility_bound:.6g}"
    else:
        missing = "grid" if not grid_ok else "outcome distribution"
        bound_ok, detail = False, f"skipped: no {missing} to probe"
    checks.append(CheckResult("utilities_bounded", bool(bound_ok), detail))

    # (c) outcome distributions exist and normalize
    problems = outcomes.validate() if choices else ["no outcome distributions"]
    checks.append(
        CheckResult(
            "outcome_model_normalized",
            not problems,
            "; ".join(problems) if problems else "all conditionals sum to 1",
        )
    )
    return ValidationReport(checks=tuple(checks))
