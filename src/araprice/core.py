"""Generic n-producer pricing template.

The supported producer prices a product against competitors whose prices,
and a customer whose preferences, are uncertain.  Uncertainty about the
other agents is expressed with random utilities and random beliefs; the
customer picks the product with the highest realized expected utility,
competitors are modeled as expected-utility maximizers themselves, and
the supported producer grid-searches her own expected utility against
Monte Carlo forecasts of everyone else's behavior.

Retail and pension specialize it with closed-form choice models; the solver
here and retail both score Monte Carlo curves with EvaluationCurve.from_draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

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
    "sample_competitor_optimal_price",
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

    def __len__(self) -> int:
        return int(self.count())


class OutcomeModel:
    """Per-choice distribution of the outcome feature affecting utility.

    Each product choice c maps either to a finite pmf (values, probs),
    handled by exact enumeration, or to a density on an interval, handled
    by fixed-node trapezoidal quadrature.  A single point mass at 0 is the
    degenerate "no outcome feature" model used by price-only problems.
    """

    def __init__(self, per_choice: dict, quadrature_nodes: int = 1024):
        self.per_choice = per_choice
        self.quadrature_nodes = quadrature_nodes

    @classmethod
    def point_mass(cls, n_choices: int, value: float = 0.0) -> "OutcomeModel":
        return cls({c: (np.array([value]), np.array([1.0])) for c in range(n_choices)})

    @classmethod
    def discrete(cls, per_choice: dict) -> "OutcomeModel":
        out = {}
        for c, (values, probs) in per_choice.items():
            out[c] = (np.asarray(values, dtype=float), np.asarray(probs, dtype=float))
        return cls(out)

    @classmethod
    def continuous(cls, per_choice: dict, nodes: int = 1024) -> "OutcomeModel":
        """per_choice maps c -> (pdf, lo, hi)."""
        return cls(dict(per_choice), quadrature_nodes=nodes)

    def _nodes_weights(self, choice: int):
        entry = self.per_choice[choice]
        if isinstance(entry, tuple) and len(entry) == 2:
            values, probs = entry
            return np.asarray(values, float), np.asarray(probs, float)
        pdf, lo, hi = entry
        s = np.linspace(lo, hi, self.quadrature_nodes)
        w = pdf(s)
        # trapezoid weights
        dw = np.full(s.size, (hi - lo) / (s.size - 1))
        dw[0] *= 0.5
        dw[-1] *= 0.5
        return s, w * dw

    def normalization(self, choice: int) -> float:
        _, w = self._nodes_weights(choice)
        return float(np.sum(w))

    def validate(self, tol_discrete: float = 1e-9, tol_quadrature: float = 1e-6):
        """Check every conditional distribution integrates to one."""
        problems = []
        for c, entry in self.per_choice.items():
            total = self.normalization(c)
            tol = (
                tol_discrete
                if isinstance(entry, tuple) and len(entry) == 2
                else tol_quadrature
            )
            if abs(total - 1.0) > tol:
                problems.append(f"choice {c}: mass {total!r} differs from 1")
        return problems

    def expected_utility(self, u: Callable, choice: int, price: float) -> float:
        """Integrate u(price, s) over the outcome distribution of ``choice``."""
        s, w = self._nodes_weights(choice)
        values = np.asarray(u(price, s), dtype=float)
        if values.shape != s.shape:
            values = np.broadcast_to(values, s.shape)
        return float(np.dot(values, w))


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

    family: str
    builder: Callable[[object], Callable]
    prior: object = None
    bound: float | None = None
    per_product: bool = False

    @classmethod
    def risk_neutral(cls, value: float = 0.0) -> "RandomUtilitySpec":
        """u(price, s) = value + s - price, no parameter uncertainty."""
        return cls(
            family="risk_neutral",
            builder=lambda _t: (lambda p, s: value + np.asarray(s, float) - p),
            prior=None,
        )

    @classmethod
    def custom(cls, builder, prior=None, bound=None, per_product=False) -> "RandomUtilitySpec":
        return cls("custom", builder, prior, bound, per_product)

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
    """One realized customer comparison: the index chosen and the EU vector."""

    chosen: int
    expected_utilities: np.ndarray


@dataclass(frozen=True)
class AgentBeliefs:
    """Per-competitor price beliefs, combined independently.

    Each entry may be a fixed price, PowerPricePrior, CategoricalPMF,
    EmpiricalDistribution, or a callable generator -> price.
    """

    price_priors: tuple
    independent: bool = True

    def __post_init__(self) -> None:
        if not self.independent:
            raise ValueError("only independent joint beliefs are supported")
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
    def from_draws(cls, prices, win, on_sale, on_no_sale) -> "EvaluationCurve":
        """Score a (grid x draws) acceptance matrix ``win``.

        Each draw pays ``on_sale`` or ``on_no_sale`` (per-price arrays)
        weighted by its acceptance; the curve holds the mean over draws,
        its standard error (zero for a single draw) and the mean acceptance.
        """
        payoff = on_sale[:, None] * win + on_no_sale[:, None] * (1.0 - win)
        draws = payoff.shape[1]
        if draws > 1:
            se = payoff.std(axis=1, ddof=1) / math.sqrt(draws)
        else:
            se = np.zeros(len(prices))
        return cls(
            prices=prices,
            accept_prob=win.mean(axis=1),
            expected_utility=payoff.mean(axis=1),
            std_err=se,
        )

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


def realize_choice(
    prices: Sequence,
    spec: RandomUtilitySpec,
    outcomes: OutcomeModel,
    g: np.random.Generator,
) -> ChoiceOutcome:
    """One draw of the customer's multiple-comparison problem.

    Realizes prices (entries may be distributions; a plain number draws
    nothing), a utility parameter, and the utility ``spec.builder`` makes
    of it: once per draw, or once per product with ``per_product``.  It
    computes per-product expected utilities over the outcome model and
    applies the strict choice rule: product 0 wins only on a strict
    maximum, and ties go to the highest-indexed maximizer, so any
    competitor beats product 0 at equal realized expected utility.  A NaN
    expected utility raises ValueError naming the product.
    """
    n = len(prices)
    realized = [
        float(p) if isinstance(p, (float, int)) else float(_realize_prices(p, g, 1)[0])
        for p in prices
    ]
    if spec.per_product:
        utilities = [spec.builder(spec.sample_parameter(g)) for _ in range(n)]
    else:
        utilities = [spec.builder(spec.sample_parameter(g))] * n
    eu = [
        outcomes.expected_utility(utilities[i], i, realized[i]) for i in range(n)
    ]
    chosen, best = 0, eu[0]
    for i, value in enumerate(eu):
        if value != value:
            raise ValueError(
                f"expected utility of product {i} is NaN at price {realized[i]!r}"
            )
        if value >= best:
            chosen, best = i, value
    return ChoiceOutcome(chosen=chosen, expected_utilities=np.array(eu))


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
    model is validated once per call, then :func:`realize_choice` runs
    once per draw.
    """
    n = len(prices)
    if n == 0:
        raise ValueError("need at least one product")
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    problems = outcomes.validate()
    if problems:
        raise ValueError("degenerate outcome model: " + "; ".join(problems))
    if n == 1:
        return np.array([1.0])
    g = rng.generator
    counts = [0] * n
    for _ in range(n_draws):
        counts[realize_choice(prices, spec, outcomes, g).chosen] += 1
    probs = np.array(counts, dtype=np.int64) / n_draws
    probs[np.argmax(probs)] += 1.0 - probs.sum()  # exact partition of unity
    return probs


# ---------------------------------------------------------------------------
# competitor problem
# ---------------------------------------------------------------------------


def _win_matrix(choice_model, points: np.ndarray, rivals: np.ndarray) -> np.ndarray:
    """(grid, draws) probability of a sale at each of ``points`` against each
    row of rival prices; pairwise win probabilities against several rivals
    multiply, assuming independence."""
    win = np.asarray(
        choice_model(points[:, None, None], rivals[None, :, :]), dtype=float
    )
    return win.prod(axis=2) if win.ndim == 3 else win


def sample_competitor_optimal_price(
    target: int,
    spec: RandomUtilitySpec,
    beliefs: AgentBeliefs,
    choice_model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: PriceGrid,
    inner_draws: int,
    rng: RngStream,
) -> float:
    """One draw of a competitor's optimal price.

    Realizes the competitor's utility parameter and a batch of beliefs
    about the other producers' prices, evaluates her expected utility at
    every grid point, and returns the argmax (lowest price on ties).
    ``choice_model(own_price_column, rival_price_matrix)`` must return the
    probability that the customer picks the target producer; ``target``
    is carried for bookkeeping in multi-producer setups.
    """
    points = grid.points()
    if points.size == 0:
        raise ValueError("empty price grid")
    if inner_draws < 1:
        raise ValueError("inner_draws must be at least 1")
    theta = spec.sample_parameter(rng.generator)
    payoff = spec.builder(theta)
    rivals = beliefs.sample(rng, inner_draws)  # (inner_draws, n_rivals)
    win = _win_matrix(choice_model, points, rivals)
    objective = np.asarray(payoff(points, 0.0), dtype=float) * win.mean(axis=1)
    if np.allclose(objective, objective[0], rtol=0.0, atol=1e-12):
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


def solve_supported_price(
    grid: PriceGrid,
    u1: ProducerUtility,
    beliefs,
    choice_model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    outcomes: OutcomeModel | None = None,
    n_draws: int = 1000,
    rng: RngStream | None = None,
) -> tuple[float, EvaluationCurve]:
    """Grid-search the supported producer's expected utility.

    ``beliefs`` is either an AgentBeliefs over competitor prices, an
    EmpiricalDistribution / array of already-sampled competitor prices
    (used verbatim), or a single float.  All grid points are evaluated on
    the same competitor sample, so curves are smooth in price and
    deterministic given the stream.
    """
    points = grid.points()
    if points.size == 0:
        raise ValueError("empty price grid")
    if outcomes is not None:
        problems = outcomes.validate()
        if problems:
            raise ValueError("degenerate outcome model: " + "; ".join(problems))

    if isinstance(beliefs, AgentBeliefs):
        if rng is None:
            raise ValueError("sampling beliefs requires an RngStream")
        rivals = beliefs.sample(rng, n_draws)
    else:
        if isinstance(beliefs, EmpiricalDistribution):
            rivals = beliefs.samples[:, None]
        else:
            rivals = np.atleast_1d(np.asarray(beliefs, dtype=float))
            rivals = rivals[:, None]

    curve = EvaluationCurve.from_draws(
        points,
        _win_matrix(choice_model, points, rivals),
        np.array([u1.on_sale(p) for p in points]),
        np.array([u1.on_no_sale(p) for p in points]),
    )
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

    # (a) compact nonempty price set
    try:
        points = grid.points() if grid is not None else np.array([])
        grid_ok = points.size > 0 and np.all(np.isfinite(points))
        detail = f"{points.size} points" if grid_ok else "no finite grid points"
    except (ValueError, AttributeError) as exc:
        grid_ok, detail = False, str(exc)
    checks.append(CheckResult("price_set_compact_nonempty", bool(grid_ok), detail))

    # (b) |u| <= bound over probed (price, choice, outcome, parameter) tuples
    probe_rng = RngStream(seed=0x5EED, stream_id=0xB0D)
    g = probe_rng.generator
    bound_ok, worst = True, 0.0
    if grid_ok:
        choices = sorted(outcomes.per_choice)
        for _ in range(cfg.probe_count):
            theta = spec.sample_parameter(g)
            u = spec.builder(theta)
            price = float(points[g.integers(0, points.size)])
            choice = choices[g.integers(0, len(choices))]
            s_nodes, _ = outcomes._nodes_weights(choice)
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
        bound_ok, detail = False, "skipped: no grid to probe"
    checks.append(CheckResult("utilities_bounded", bool(bound_ok), detail))

    # (c) outcome distributions normalize
    problems = outcomes.validate()
    checks.append(
        CheckResult(
            "outcome_model_normalized",
            not problems,
            "; ".join(problems) if problems else "all conditionals sum to 1",
        )
    )
    return ValidationReport(checks=tuple(checks))
