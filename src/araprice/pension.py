"""Pension-fund offer pricing with exit risk and rival entities.

A branch manager picks the yearly return offered to one customer.  The
customer weighs our offer against rival offers with a CARA utility over
the capital he walks away with, accounting for the chance he exits the
fund early and pays a penalty on the accumulated bonus.  The manager
maximizes next-year expected utility: margin on the managed capital
times the probability the offer is accepted.

Acceptance is estimated by Monte Carlo (and in closed form for
exchangeable rivals): per draw, one customer risk-aversion realization
is applied to every entity's product, rival offers are sampled from the
per-score-class pmf, and our product wins only on a strictly higher
expected utility.

The Monte Carlo count orders products by rate where it can prove that
order.  For two rates a < b a lower bound on the utility gap over the
whole risk-aversion range follows from the payout schedules alone; when
it exceeds ``_SEPARATION_MARGIN``, every draw prefers b, so a draw's
choice is decided by its highest rival offer and no utility is
evaluated.  Only the offer pairs without such a proof (in practice a
grid rate equal to a rival offer) are compared utility by utility, on
the draws whose highest rival offer they concern.  When consecutive
rival offers cannot be ordered this way (constant or underflowing
utilities), the count falls back to full utility tables.  Both paths
give the same bits.

Draws are made and counted in fixed-size row blocks
(``_parallel.map_blocks``): the rate-order path keeps only each draw's
highest rival offer, looked up from its highest uniform, and the utility
comparisons of both paths add up integer win counts block by block.  On
the rate-order path memory does not grow with draws x rivals, and no
utility temporary grows with the draw count.

The utility kernel evaluates one exit year at a time over arrays of the
broadcast shape of offers and risk aversions, and its callers put the
draw axis last, so numpy's loops run over draws rather than over the few
exit years.  The years are added in the order numpy sums a contiguous
axis, so every utility has the bits of the single-array formula.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

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
    "bank_expected_utility",
    "expected_benefit",
    "optimize_offer",
]

SCORE_CLASSES = ("none", "low", "high")
BENEFIT_MODES = ("next_year", "horizon")

# A proven utility gap must exceed this to order two offers without
# evaluating them.  Expected utilities are at most 1 and carry rounding
# errors near 1e-15, so a gap above 1e-9 is far beyond any rounding and
# the evaluated utilities compare the same way for every draw.
_SEPARATION_MARGIN = 1e-9

# _cdf_index counts instead of binary searching for at most this many
# offers and at least this many uniforms.  Timed on one lookup (2-vCPU VM,
# best of 7 x 20 calls), counting took 0.16x the search time at 32 offers
# and 131k uniforms, 0.42x at 13k and 0.48-0.82x at 4,096; at 64 offers
# and 4,096 uniforms 0.9-1.3x, and below 4,096 uniforms its per-offer call
# cost loses (1.9x at 10 offers and 2,048).
_COUNTED_LOOKUP_MAX = 32
_COUNTED_LOOKUP_MIN = 4096


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
        return 1.0 - math.fsum(self.q_exit)


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
    results only depend on offer comparisons, which scaling preserves.
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
        if self.horizon < 1:
            bad.append(f"horizon: must be >= 1, got {self.horizon}")
        if not 0.0 <= self.penalty_fraction <= 1.0:
            bad.append(
                f"penalty_fraction: must be in [0, 1], got {self.penalty_fraction}"
            )
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


def _add_terms(term, years: range, out: np.ndarray) -> np.ndarray:
    """``out`` = 0.0 + the sum of ``term(j)`` over ``years``, added in the
    order of numpy's pairwise ``add.reduce`` along a contiguous axis.

    ``term(j, buf)`` writes term j into ``buf`` and returns it.  Below 8
    terms the order is sequential.  Up to 128 it is 8 running sums joined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    sequence.  Above 128 the two halves, split at a multiple of 8, are
    summed apart.
    """
    n = len(years)
    if n < 8:
        out.fill(0.0)
        buf = np.empty_like(out)
        for j in years:
            out += term(j, buf)
        return out
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _add_terms(term, years[:half], out)
        out += _add_terms(term, years[half:], np.empty_like(out))
        return out
    r = [term(years[0], out)] + [term(j, np.empty_like(out)) for j in years[1:8]]
    buf = np.empty_like(out)
    stop = n - n % 8
    for k in range(8, stop):
        r[k % 8] += term(years[k], buf)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    for j in years[stop:]:
        out += term(j, buf)
    out += 0.0  # the reduction's initial value: a sum of -0.0 terms is 0.0
    return out


def customer_expected_utility(
    h,
    scenario: PensionScenario,
    rho,
    g: Callable[[int], float] | None = None,
    _check_range: bool = True,
):
    """Customer's expected utility of signing at offer ``h``.

    CARA utility 1 - exp(-rho * wealth) averaged over the exit year, plus
    an optional time-preference term ``g(horizon)``.  ``h`` and ``rho``
    broadcast, so whole offer/draw grids evaluate in one call.

    Each exit year's term q_j * (1 - exp(-rho * payout_j)) is evaluated in
    place over arrays of the broadcast shape, and the years are added in
    the order numpy sums a contiguous axis (:func:`_add_terms`), so every
    bit equals the single-array formula ``stay_prob * u_stay + (q *
    u_early).sum(axis=-1)``.  Numpy's loops run over the last axis, so
    callers with many draws put the draw axis last.
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

    def _year(j: int, buf: np.ndarray) -> np.ndarray:
        return _term(q[j], early[..., j], buf)

    value = _add_terms(_year, range(len(q)), np.empty(shape))
    value += _term(scenario.exit_profile.stay_prob, stay, np.empty(shape))
    if g is not None:
        value = value + g(scenario.horizon)
    if np.ndim(h) == 0 and np.ndim(rho) == 0:
        return float(value)
    return value


def acceptance_probability(
    h1: float, scenario: PensionScenario, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo estimate of P(customer takes our offer ``h1``).

    Per draw: one risk-aversion realization for the customer, one offer
    per rival; we win only if our product's expected utility strictly
    exceeds every rival's.  Equal offers therefore never count as wins,
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
    """Closed-form acceptance for exchangeable rivals: P(offer < h1)^n.

    Exact whenever all entities share the non-rate product terms and
    every utility in the risk-aversion support is strictly increasing,
    so offer comparisons decide the choice.  Serves as the oracle for
    :func:`acceptance_probability`.
    """
    if n_competitors < 1:
        raise ValueError("n_competitors must be >= 1")
    return offers.prob_below(h1) ** n_competitors


def bank_expected_utility(
    h1: float, accept_prob: float, scenario: PensionScenario
) -> float:
    """Bank's next-year expected utility of offering ``h1``.

    Risk-neutral: margin (earn_rate - h1) on the scaled capital times the
    acceptance probability; declining the offer is worth zero.
    """
    if not 0.0 <= accept_prob <= 1.0:
        raise ValueError(f"acceptance probability {accept_prob} outside [0, 1]")
    return (scenario.earn_rate - h1) * scenario.scaled_capital * accept_prob


def expected_benefit(
    h1: float,
    accept_prob: float,
    scenario: PensionScenario,
    mode: str = "next_year",
) -> float:
    """Expected monetary benefit (EUR) of offering ``h1``.

    ``next_year``: margin on the capital for one year, weighted by
    acceptance.  ``horizon``: the spread between earning and paying the
    offer over the customer's (uncertain) stay, plus penalties collected
    on early exits, weighted by acceptance.
    """
    if mode not in BENEFIT_MODES:
        raise ValueError(f"mode {mode!r} not in {BENEFIT_MODES}")
    if not 0.0 <= accept_prob <= 1.0:
        raise ValueError(f"acceptance probability {accept_prob} outside [0, 1]")
    x = scenario.capital
    z = scenario.earn_rate
    if mode == "next_year":
        return (z - h1) * x * accept_prob
    T = scenario.horizon
    js = np.arange(1, T)
    q = np.asarray(scenario.exit_profile.q_exit)
    stay_term = scenario.exit_profile.stay_prob * (
        (1.0 + z) ** T - (1.0 + h1) ** T
    ) * x
    early_terms = q * (
        ((1.0 + z) ** js - (1.0 + h1) ** js) * x
        + scenario.penalty_fraction * ((1.0 + h1) ** js - 1.0) * x
    )
    return accept_prob * float(stay_term + early_terms.sum())


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


def _cdf_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")``: how many entries of the
    ascending ``cdf`` are <= u.

    For few entries and many uniforms they are counted, one comparison
    pass each (the count fits in uint8): at 10 entries that is 0.5 ms per
    131k uniforms against 4.4 ms for the binary search.
    """
    if cdf.size > _COUNTED_LOOKUP_MAX or u.size < _COUNTED_LOOKUP_MIN:
        return cdf.searchsorted(u, side="right")
    count = np.zeros(u.shape, dtype=np.uint8)
    for c in cdf:
        count += u >= c
    return count.astype(np.intp)


def _draw_customers(scenario: PensionScenario, rng: RngStream, top_only: bool):
    """Per draw: the customer's risk aversion and each rival's offer index,
    or with ``top_only`` only the highest of those indices.

    The indices are bit for bit what ``gen.choice(n_offers, size=(draws,
    n_competitors), p=probs)`` returns, from the same stream: that call
    looks its uniforms ``gen.random((draws, n_competitors))`` up in the
    normalized cdf with ``searchsorted(side="right")``.  The lookup is
    monotone, so a draw's highest index is the lookup of its highest
    uniform.  The uniforms are drawn in row blocks, in order.
    """
    gen = rng.generator
    draws, rivals = scenario.mc_draws, scenario.n_competitors
    rho = gen.uniform(scenario.risk_aversion[0], scenario.risk_aversion[1], draws)
    cdf = np.cumsum(np.asarray(scenario.competitor_offers.probs, dtype=float))
    cdf /= cdf[-1]

    def _lookup(rows: slice) -> np.ndarray:
        u = gen.random((rows.stop - rows.start, rivals))
        if top_only:  # u.max(axis=1), without its per-row cost at few rivals
            u = functools.reduce(np.maximum, u.T)
        return _cdf_index(cdf, u)

    # the blocks draw from the stream, so they must run in order
    return rho, np.concatenate(map_blocks(_lookup, draws, rivals))


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


def _rate_order_applies(scenario: PensionScenario) -> bool:
    """Whether every consecutive pair of rival offers has a proven gap.

    Then expected utility strictly increases along the rival offers for
    every draw, so a draw's best rival product is its highest offer.
    """
    offers = np.asarray(scenario.competitor_offers.values)
    gaps = _utility_gap_bound(offers[:-1], offers[1:], scenario)
    return bool(np.all(gaps > _SEPARATION_MARGIN))


def _wins_full_table(points, scenario, rho, idx) -> np.ndarray:
    """Per grid rate, the draws in which it beats every rival, from full
    utility tables: the best rival utility of each draw against each rate,
    in row blocks of draws."""
    offers = np.asarray(scenario.competitor_offers.values)
    rates = np.concatenate((offers, points))[:, None]

    def _count(rows: slice) -> np.ndarray:
        eu = customer_expected_utility(
            rates, scenario, rho[None, rows], _check_range=False
        )  # (offers + grid, draws in block)
        rival = np.take_along_axis(eu[: offers.size], idx[rows].T, axis=0)
        return (eu[offers.size :] > rival.max(axis=0)).sum(axis=1)

    return sum(map_blocks(_count, rho.size, rates.size * scenario.horizon))


def _group_by_top(rho, top, counts) -> list:
    """``rho[top == o]`` for every offer ``o``, from one gather.

    A stable sort keeps each offer's draws in draw order; numpy sorts
    offer indices of at most 16 bits by radix.  ``counts`` is
    ``bincount(top)``.
    """
    grouped = rho[np.argsort(top, kind="stable")]
    ends = np.cumsum(counts)
    return [grouped[end - n : end] for n, end in zip(counts, ends)]


def _separation(points, scenario: PensionScenario):
    """Per (grid rate, rival offer): whether the rate provably beats the
    offer, and whether neither is proven to beat the other (a tie)."""
    offers = np.asarray(scenario.competitor_offers.values)
    beats = _utility_gap_bound(offers[None, :], points[:, None], scenario) > _SEPARATION_MARGIN
    beaten = _utility_gap_bound(points[:, None], offers[None, :], scenario) > _SEPARATION_MARGIN
    return beats, ~(beats | beaten)


def _wins_by_rate_order(points, scenario, rho, top) -> np.ndarray:
    """Per grid rate, the draws in which it beats every rival, given each
    draw's highest rival offer index ``top``.

    Requires :func:`_rate_order_applies`.  A rate wins every draw whose
    top offer it provably beats and loses every draw whose top offer
    provably beats it; the remaining (rate, offer) pairs compare exact
    utilities on that offer's draws, in row blocks.
    """
    offers = np.asarray(scenario.competitor_offers.values)
    counts = np.bincount(top, minlength=offers.size)
    beats, ties = _separation(points, scenario)
    ties &= counts > 0  # (grid, offers)
    wins = beats @ counts

    tied_offers = np.flatnonzero(ties.any(axis=0))
    by_top = _group_by_top(rho, top, counts) if tied_offers.size else []
    for o in tied_offers:
        rates = np.flatnonzero(ties[:, o])
        tied = np.concatenate(([offers[o]], points[rates]))[:, None]
        rho_o = by_top[o]

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
    draw.  Full tables hold every rival offer and grid rate; by rate order
    a draw evaluates its top offer and at most the T grid rates tied with
    one offer, or nothing when no pair is tied."""
    points = scenario.offer_grid.points()
    if _rate_order_applies(scenario):
        tied = int(_separation(points, scenario)[1].sum(axis=0).max())
        per_draw = 1 + tied if tied else 0
    else:
        per_draw = len(scenario.competitor_offers.values) + points.size
    return float(scenario.mc_draws) * scenario.horizon * per_draw


def _acceptance(points, scenario: PensionScenario, rng: RngStream):
    """Share of the Monte Carlo draws in which each rate of ``points`` wins."""
    by_rate_order = _rate_order_applies(scenario)
    rho, idx = _draw_customers(scenario, rng, top_only=by_rate_order)
    if by_rate_order:  # one or two bytes per draw: less memory, radix-sortable
        idx = idx.astype(np.min_scalar_type(len(scenario.competitor_offers.values) - 1))
    count = _wins_by_rate_order if by_rate_order else _wins_full_table
    return count(points, scenario, rho, idx) / scenario.mc_draws


def optimize_offer(scenario: PensionScenario, rng: RngStream) -> OfferEvaluation:
    """Evaluate every offer on the grid and pick the expected-utility argmax.

    One set of Monte Carlo draws (risk aversions and rival offers) is
    shared by all grid points, which makes the acceptance column exactly
    nondecreasing in the offer and the evaluation reproducible from
    (scenario, seed).  Acceptance is counted by rate order wherever the
    utility gap between a grid rate and a rival offer is proven (see the
    module docstring); the remaining exact utility comparisons, or the
    full utility tables when rates cannot order the rivals, run in row
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
        np.array([expected_benefit(h, p, scenario, mode) for h, p in zip(points, accept)])
        for mode in BENEFIT_MODES
    )
    return OfferEvaluation(
        prices=points,
        accept_prob=accept,
        expected_utility=eu,
        std_err=se,
        benefit_next_year=next_year,
        benefit_horizon=horizon,
    )
