"""Pension-fund offer pricing with exit risk and rival entities.

A branch manager picks the yearly return offered to one customer.  The
customer weighs our offer against rival offers with a CARA utility over
the capital he walks away with, accounting for the chance he exits the
fund early and pays a penalty on the accumulated bonus.  The manager
maximizes next-year expected utility: margin on the managed capital
times the probability the offer is accepted.

Acceptance is estimated by Monte Carlo: per draw, one customer
risk-aversion realization is applied to every entity's product, the
highest of the n rival offers follows its own pmf (the per-score-class
cdf F raised to the n-th power), and our product wins only on a
strictly higher expected utility.  In the model that is the
closed form P(rival offer < h)^n, or 0 where utility is constant in the
rate (``PensionScenario.utility_rises_with_rate``).

The Monte Carlo count orders products by rate.  Expected utility does
not decrease in the offered rate, so a draw's best rival product is its
highest rival offer.  For two rates a < b a lower bound on the utility
gap over the whole risk-aversion range follows from the payout schedules
alone; when it exceeds ``_SEPARATION_MARGIN``, every draw prefers b, so
a grid rate and a draw's highest rival offer are compared without
evaluating a utility.  Only the pairs without such a proof (in practice
a grid rate equal to a rival offer, or every pair when utilities are
constant or underflow) are compared utility by utility, on the draws
whose highest rival offer they concern.

Only how many draws each rival offer tops, and their risk aversions,
enter the count.  So the draw is the risk aversions and one multinomial
of per-offer counts, and each offer's draws are a contiguous run of the
risk aversions.  The utility comparisons add up integer win counts in
fixed-size row blocks (``_parallel.map_blocks``).  Neither work nor
memory grows with the rival count, and no utility temporary grows with
the draw count.

The utility kernel evaluates one exit year at a time over arrays of the
broadcast shape of offers and risk aversions, and its callers put the
draw axis last, so numpy's loops run over draws rather than over the few
exit years.  A utility is its exit-year terms added in year order, then
the stay term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import map_blocks
from .core import EvaluationCurve, PriceGrid
from .randkit import CategoricalPMF, RngStream

__all__ = [
    "ExitProfile",
    "PensionScenario",
    "OfferEvaluation",
    "customer_expected_utility",
    "acceptance_probability",
    "acceptance_probability_reduced",
    "expected_benefit",
    "optimize_offer",
]

SCORE_CLASSES = ("none", "low", "high")
BENEFIT_MODES = ("next_year", "horizon")

# A proven utility gap must exceed this to order two offers without
# evaluating them.  An evaluated utility adds horizon + 1 terms in order,
# of total weight at most 1, so its rounding error is at most about
# (horizon + 1) * 2**-53 (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 4.2); a gap above 1e-9 is beyond that at any horizon up
# to MAX_HORIZON, and the evaluated utilities compare the same way for
# every draw.
_SEPARATION_MARGIN = 1e-9

# Longest horizon (years) a scenario may have.  Up to it the rounding bound
# above is about 1.1e-12 per utility, three orders below the margin.
MAX_HORIZON = 10_000

# The work budget charges a pass of the tie loop (one tied rival offer)
# this many utility terms x (horizon + 1).  One-draw passes at horizon 1, 8,
# 32 and 128 took 17, 31, 84 and 288 us (2-vCPU VM, best of 3), as long as
# 2.1k, 6.0k, 15k and 40k utility terms evaluated in one large pass.
_TIE_PASS_TERMS = 1000


@dataclass(frozen=True)
class ExitProfile:
    """Early-exit probabilities q(j) for years j = 1..T-1.

    The remaining mass is the probability of completing the full horizon.
    """

    q_exit: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_exit", tuple(float(q) for q in self.q_exit))

    def violations(self) -> list[str]:
        bad = []
        if any(q < 0 for q in self.q_exit):
            bad.append("q_exit: probabilities must be nonnegative")
        if math.fsum(self.q_exit) > 1.0 + 1e-9:
            bad.append(f"q_exit: total early-exit mass {math.fsum(self.q_exit)} > 1")
        return bad

    @property
    def stay_prob(self) -> float:
        """Stay probability; 0, not negative, where rounding puts exit mass above 1."""
        return max(0.0, 1.0 - math.fsum(self.q_exit))


@dataclass(frozen=True)
class PensionScenario:
    """One personalized pension-offer problem.

    ``capital`` is the customer's investment (EUR); ``earn_rate`` the
    bank's expected yearly yield on it.  Offers range over ``offer_grid``.
    ``horizon`` is the required permanence in years; leaving in year
    j < horizon forfeits ``penalty_fraction`` of the bonus accumulated by
    then.  ``competitor_offers`` is the belief over a rival's offer for
    this customer's ``score_class``; ``n_competitors`` counts rival
    entities, assumed exchangeable.  Customer risk aversion is uniform on
    ``risk_aversion`` per Monte Carlo draw.  Utilities evaluate capital
    in ``money_unit`` EUR units to keep the CARA exponent well scaled;
    in the model, only the order of the rates (each at least -1) matters.
    """

    capital: float
    earn_rate: float
    offer_grid: PriceGrid
    horizon: int
    exit_profile: ExitProfile
    competitor_offers: CategoricalPMF
    penalty_fraction: float = 0.8
    n_competitors: int = 1
    risk_aversion: tuple = (0.85, 0.95)
    money_unit: float = 1e4
    score_class: str = "none"
    mc_draws: int = 10_000

    def violations(self) -> list[str]:
        bad = []
        if self.capital <= 0:
            bad.append(f"capital: must be positive, got {self.capital}")
        if self.earn_rate <= 0:
            bad.append(f"earn_rate: must be positive, got {self.earn_rate}")
        if not 1 <= self.horizon <= MAX_HORIZON:
            bad.append(f"horizon: must be in [1, {MAX_HORIZON}], got {self.horizon}")
        if not 0.0 <= self.penalty_fraction <= 1.0:
            bad.append(
                f"penalty_fraction: must be in [0, 1], got {self.penalty_fraction}"
            )
        for name, rate in (("offer_grid", self.offer_grid.min),
                           ("competitor_offers", self.competitor_offers.values[0])):
            if rate < -1.0:
                bad.append(f"{name}: rates must be at least -1, got {rate}")
        if len(self.exit_profile.q_exit) != self.horizon - 1:
            bad.append(
                f"exit_profile: needs {self.horizon - 1} yearly probabilities, "
                f"got {len(self.exit_profile.q_exit)}"
            )
        bad.extend(f"exit_profile.{v}" for v in self.exit_profile.violations())
        if self.n_competitors < 1:
            bad.append(f"n_competitors: must be >= 1, got {self.n_competitors}")
        lo, hi = self.risk_aversion
        if not (0 < lo <= hi):
            bad.append(f"risk_aversion: need 0 < low <= high, got ({lo}, {hi})")
        if self.money_unit <= 0:
            bad.append(f"money_unit: must be positive, got {self.money_unit}")
        if self.score_class not in SCORE_CLASSES:
            bad.append(f"score_class: {self.score_class!r} not in {SCORE_CLASSES}")
        if self.mc_draws < 1:
            bad.append(f"mc_draws: must be >= 1, got {self.mc_draws}")
        return bad

    def validate(self) -> "PensionScenario":
        bad = self.violations()
        if bad:
            raise ValueError("invalid pension scenario: " + "; ".join(bad))
        if self.offer_grid.max > self.earn_rate + 1e-12:
            warnings.warn(
                "offer grid extends above the earning rate; those offers "
                "have nonpositive margin",
                RuntimeWarning,
            )
        return self

    @property
    def utility_rises_with_rate(self) -> bool:
        """Whether expected utility rises strictly with the rate, at every
        risk aversion: payouts never fall in a rate of at least -1, and the
        stay payout and an exit payout that keeps part of the bonus rise."""
        exits = self.exit_profile
        keeps_bonus = self.penalty_fraction < 1 and max(exits.q_exit, default=0.0) > 0
        return exits.stay_prob > 0 or keeps_bonus

    @property
    def scaled_capital(self) -> float:
        return self.capital / self.money_unit

    def _offer_range(self) -> tuple[float, float]:
        return (
            min(self.offer_grid.min, self.competitor_offers.values[0]),
            max(self.offer_grid.max, self.competitor_offers.values[-1]),
        )


def _payout_schedule(h, scenario: PensionScenario):
    """Customer payouts (in money units) for exit years 1..T-1 and for staying.

    Staying the full horizon compounds the offer; leaving in year j keeps
    the capital plus (1 - penalty_fraction) of the accumulated bonus.
    """
    h = np.asarray(h, dtype=float)
    x = scenario.scaled_capital
    js = np.arange(1, scenario.horizon)
    growth = (1.0 + h[..., None]) ** js
    early = x + (1.0 - scenario.penalty_fraction) * (growth - 1.0) * x
    stay = (1.0 + h) ** scenario.horizon * x
    return early, stay


def _check_offer_range(h, scenario: PensionScenario) -> None:
    lo, hi = scenario._offer_range()
    if np.any(h < lo - 1e-12) or np.any(h > hi + 1e-12):
        raise ValueError(f"offer outside the modeled range [{lo}, {hi}]")


def customer_expected_utility(
    h,
    scenario: PensionScenario,
    rho,
    _check_range: bool = True,
):
    """Customer's expected utility of signing at offer ``h``.

    CARA utility 1 - exp(-rho * wealth) averaged over the exit year.
    ``h`` and ``rho`` broadcast, so whole offer/draw grids evaluate in one call.

    Each exit year's term q_j * (1 - exp(-rho * payout_j)) is evaluated in
    place over arrays of the broadcast shape and added to the sum in year
    order; the stay term is added last.  Numpy's loops run over the last
    axis, so callers with many draws put the draw axis last.
    """
    h_arr = np.asarray(h, dtype=float)
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0):
        raise ValueError("risk aversion must be positive")
    if _check_range:
        _check_offer_range(h_arr, scenario)
    early, stay = _payout_schedule(h_arr, scenario)
    q = scenario.exit_profile.q_exit
    neg_rho = -rho_arr
    shape = np.broadcast_shapes(h_arr.shape, rho_arr.shape)

    def _term(weight: float, payout, buf: np.ndarray) -> np.ndarray:
        np.multiply(neg_rho, payout, out=buf)
        np.exp(buf, out=buf)
        np.subtract(1.0, buf, out=buf)
        return np.multiply(buf, weight, out=buf)

    buf = np.empty(shape)
    value = np.zeros_like(buf)  # not np.zeros: its lazy pages fault in the loop
    for j, weight in enumerate(q):
        value += _term(weight, early[..., j], buf)
    value += _term(scenario.exit_profile.stay_prob, stay, buf)
    if np.ndim(h) == 0 and np.ndim(rho) == 0:
        return float(value)
    return value


def acceptance_probability(
    h1: float, scenario: PensionScenario, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo estimate of P(customer takes our offer ``h1``).

    Per draw: one risk-aversion realization for the customer and the
    highest of the rivals' offers; we win only if our product's expected
    utility strictly exceeds every rival's.  Equal offers therefore never count as wins,
    which is what makes the estimate agree with the closed form for
    exchangeable rivals.  Returns (estimate, standard error).
    """
    scenario.validate()
    _check_offer_range(float(h1), scenario)
    p = float(_acceptance(np.array([float(h1)]), scenario, rng)[0])
    se = math.sqrt(p * (1.0 - p) / scenario.mc_draws)
    return p, se


def acceptance_probability_reduced(
    h1: float, offers: CategoricalPMF, n_competitors: int
) -> float:
    """Closed-form acceptance for exchangeable rivals, P(offer < h1)^n: exact
    where :attr:`PensionScenario.utility_rises_with_rate` holds."""
    if n_competitors < 1:
        raise ValueError("n_competitors must be >= 1")
    return offers.prob_below(h1) ** n_competitors


def expected_benefit(
    h1,
    accept_prob,
    scenario: PensionScenario,
    mode: str = "next_year",
):
    """Expected monetary benefit (EUR) of offering ``h1``.

    ``next_year``: margin on the capital for one year, weighted by
    acceptance.  ``horizon``: the spread between earning and paying the
    offer over the customer's (uncertain) stay, plus penalties collected
    on early exits, weighted by acceptance.  One offer gives a float;
    aligned 1-d arrays of offers and acceptances give the array of
    one-offer values, bit for bit.
    """
    if mode not in BENEFIT_MODES:
        raise ValueError(f"mode {mode!r} not in {BENEFIT_MODES}")
    h, p = np.asarray(h1, dtype=float), np.asarray(accept_prob, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"acceptance probability {accept_prob} outside [0, 1]")
    x, z, T = scenario.capital, scenario.earn_rate, scenario.horizon
    if mode == "next_year":
        benefit = (z - h) * x * p
    else:
        js = np.arange(1, T)
        growth = (1.0 + h[..., None]) ** js  # (offers, exit years)
        stay_term = scenario.exit_profile.stay_prob * (
            (1.0 + z) ** T - (1.0 + h) ** T
        ) * x
        early_terms = np.asarray(scenario.exit_profile.q_exit) * (
            ((1.0 + z) ** js - growth) * x
            + scenario.penalty_fraction * (growth - 1.0) * x
        )
        benefit = p * (stay_term + early_terms.sum(axis=-1))
    return float(benefit) if benefit.ndim == 0 else benefit


@dataclass(frozen=True)
class OfferEvaluation(EvaluationCurve):
    """Offer-by-offer evaluation of a pension scenario.

    The prices are the offered rates (also readable as ``offers``).
    ``expected_utility`` is scaled so the best achievable outcome (the
    lowest offer accepted with certainty) is 1; the scaling is positive
    affine, so the argmax is the same as for the raw bank utility.
    Benefits are in EUR.  ``std_err`` is the standard error of the
    acceptance estimate.
    """

    benefit_next_year: np.ndarray
    benefit_horizon: np.ndarray

    @property
    def offers(self) -> np.ndarray:
        return self.prices


def _draw_customers(scenario: PensionScenario, rng: RngStream):
    """The customers' risk aversions, one per draw, and per rival offer the
    count of draws whose highest rival offer it is.

    A draw is an iid pair of a risk aversion and the highest of the n
    rivals' offer indices, the two independent.  That index has cdf F^n
    (David and Nagaraja, Order Statistics, 2003), so the counts are
    Multinomial(draws, F^n(k) - F^n(k-1)), which numpy draws as one
    binomial per offer (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. XI), after the risk aversions.  Offer ``o`` takes the
    contiguous run ``rho[ends[o] - counts[o]:ends[o]]``, ``ends =
    cumsum(counts)``: the pairs keep their law.  An offer of zero mass
    takes nothing from the stream and gets no draw.  The multinomial stops
    at the last offer of positive mass, which takes the draws the
    binomials leave, and the offers after it count 0: numpy gives its last
    category the remainder, which rounding of the binomials' conditional
    probabilities can leave positive.
    """
    gen = rng.generator
    draws = scenario.mc_draws
    rho = gen.uniform(scenario.risk_aversion[0], scenario.risk_aversion[1], draws)
    cdf = np.cumsum(np.asarray(scenario.competitor_offers.probs, dtype=float))
    cdf /= cdf[-1]
    top_cdf = cdf ** scenario.n_competitors  # ends at 1 exactly
    top_pmf = np.diff(top_cdf, prepend=0.0)
    last = np.flatnonzero(top_pmf)[-1] + 1
    counts = gen.multinomial(draws, top_pmf[:last])
    return rho, np.pad(counts, (0, top_pmf.size - last))


def _utility_gap_bound(a, b, scenario: PensionScenario) -> np.ndarray:
    """Lower bound on E(b, rho) - E(a, rho) over rho in the risk-aversion range.

    Each exit year (and staying) adds q * exp(-rho * W(a)) * (1 - exp(-rho *
    (W(b) - W(a)))) to the gap; with nonnegative q, payouts and payout rise
    the first factor is smallest at the high end of the range and the
    second at the low end.  Where those signs fail the bound is -inf.
    ``a`` and ``b`` broadcast.
    """
    lo, hi = scenario.risk_aversion
    weights = np.array([scenario.exit_profile.stay_prob, *scenario.exit_profile.q_exit])
    with np.errstate(all="ignore"):
        early_a, stay_a = _payout_schedule(a, scenario)
        early_b, stay_b = _payout_schedule(b, scenario)
        pay_a = np.concatenate([stay_a[..., None], early_a], axis=-1)
        rise = np.concatenate([stay_b[..., None], early_b], axis=-1) - pay_a
        terms = weights * np.exp(-hi * pay_a) * -np.expm1(-lo * rise)
        bound = terms.sum(axis=-1)
    valid = np.all((pay_a >= 0) & (rise >= 0), axis=-1) & bool(weights.min() >= 0)
    return np.where(valid, bound, -np.inf)


def _separation(points, scenario: PensionScenario):
    """Per (grid rate, rival offer): whether the rate provably beats the
    offer, and whether neither is proven to beat the other (a tie)."""
    offers = np.asarray(scenario.competitor_offers.values)
    beats = _utility_gap_bound(offers[None, :], points[:, None], scenario) > _SEPARATION_MARGIN
    beaten = _utility_gap_bound(points[:, None], offers[None, :], scenario) > _SEPARATION_MARGIN
    return beats, ~(beats | beaten)


def _wins_by_rate_order(points, scenario, rho, counts) -> np.ndarray:
    """Per grid rate, the draws in which it beats every rival, given per
    rival offer the ``counts`` of draws whose highest rival offer it is,
    each offer's draws a contiguous run of ``rho``.

    Utility does not decrease in the rate, so a draw's best rival product
    is its top offer.  A rate wins every draw whose top offer it provably
    beats (and with it every lower offer) and loses every draw whose top
    offer provably beats it; the remaining (rate, offer) pairs compare
    exact utilities on that offer's draws, in row blocks.
    """
    offers = np.asarray(scenario.competitor_offers.values)
    beats, ties = _separation(points, scenario)
    ties &= counts > 0  # (grid, offers)
    wins = beats @ counts

    ends = np.cumsum(counts)
    for o in np.flatnonzero(ties.any(axis=0)):
        rates = np.flatnonzero(ties[:, o])
        tied = np.concatenate(([offers[o]], points[rates]))[:, None]
        rho_o = rho[ends[o] - counts[o]:ends[o]]

        def _count(rows: slice) -> np.ndarray:
            eu = customer_expected_utility(
                tied, scenario, rho_o[None, rows], _check_range=False
            )  # (1 + rates, draws in block): the rival's utility first
            return (eu[1:] > eu[:1]).sum(axis=1)

        row = tied.size * scenario.horizon
        wins[rates] += sum(map_blocks(_count, rho_o.size, row))
    return wins


def utility_evaluations(scenario: PensionScenario) -> float:
    """Bound, without drawing, on the exit-year utility terms that counting
    acceptance on the offer grid evaluates: draws x horizon x rates per
    draw.  A draw evaluates its top offer and at most the T grid rates tied
    with one offer, or nothing when no pair is tied.  Each offer tied with
    some grid rate is one pass of the tie loop, charged ``_TIE_PASS_TERMS``
    x (horizon + 1) terms; the bound is the larger of the two counts, at
    least half their sum."""
    ties = _separation(scenario.offer_grid.points(), scenario)[1]
    tied = int(ties.sum(axis=0).max())
    terms = float(scenario.mc_draws) * scenario.horizon * (1 + tied if tied else 0)
    passes = float(ties.any(axis=0).sum()) * _TIE_PASS_TERMS * (scenario.horizon + 1)
    return max(terms, passes)


def _acceptance(points, scenario: PensionScenario, rng: RngStream):
    """Share of the Monte Carlo draws in which each rate of ``points`` wins."""
    wins = _wins_by_rate_order(points, scenario, *_draw_customers(scenario, rng))
    return wins / scenario.mc_draws


def optimize_offer(scenario: PensionScenario, rng: RngStream) -> OfferEvaluation:
    """Evaluate every offer on the grid and pick the expected-utility argmax.

    One set of Monte Carlo draws (risk aversions and rival offers) is
    shared by all grid points, which makes the acceptance column exactly
    nondecreasing in the offer and the evaluation reproducible from
    (scenario, seed).  Acceptance is counted by rate order against the
    draws of each rival offer as their highest, a contiguous run of risk
    aversions per offer, and decided without utilities wherever
    the utility gap between a grid rate and that offer is proven (see the
    module docstring); the remaining exact utility comparisons run in row
    blocks on the calling thread.  Ties on expected utility resolve to the
    lowest offer.
    """
    scenario.validate()
    draws = scenario.mc_draws
    points = scenario.offer_grid.points()
    accept = _acceptance(points, scenario, rng)
    se = np.sqrt(accept * (1.0 - accept) / draws)
    margin = (scenario.earn_rate - points) * scenario.scaled_capital
    utility_scale = (scenario.earn_rate - points[0]) * scenario.scaled_capital
    if utility_scale <= 0:  # grid starts at or above the earning rate
        utility_scale = 1.0
    eu = margin * accept / utility_scale
    next_year, horizon = (
        expected_benefit(points, accept, scenario, mode) for mode in BENEFIT_MODES
    )
    return OfferEvaluation(
        prices=points,
        accept_prob=accept,
        expected_utility=eu,
        std_err=se,
        benefit_next_year=next_year,
        benefit_horizon=horizon,
    )
