"""Generic template: choice problem, competitor forecasting, grid solver."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import araprice.core as core

from araprice import _parallel, cli
from araprice._parallel import BLOCK_ELEMENTS
from araprice.core import (
    AgentBeliefs,
    EvaluationCurve,
    OutcomeModel,
    PriceGrid,
    ProducerUtility,
    RandomUtilitySpec,
    ValidationConfig,
    customer_choice_probs,
    realize_choice,
    sample_competitor_optimal_price,
    solve_supported_price,
    validate_problem,
)
from araprice.oracle import quadrature_competitor_objective
from araprice.pension import OfferEvaluation
from araprice.randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    normal_cdf,
    student_t_cdf,
)
from araprice.retail import RetailScenario
from araprice.scenario import bundled_case

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CASE1_OFFERS = CategoricalPMF(
    (0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055, 0.06, 0.065, 0.07),
    (0.05, 0.1, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.0),
)

# u(price, s) = s - price, no parameter uncertainty
RISK_NEUTRAL = RandomUtilitySpec.custom(lambda _t: (lambda p, s: np.asarray(s, float) - p))

# strictly increasing in the offered rate for every parameter value
INCREASING_RATE_UTILITY = RandomUtilitySpec.custom(
    builder=lambda rho: (lambda rate, s: 1.0 - np.exp(-rho * (1.0 + rate) ** 8)),
    prior=(0.85, 0.95),
)


def _point_mass(n: int) -> OutcomeModel:
    """The "no outcome feature" model: a point mass at 0 for each of n choices."""
    return OutcomeModel.discrete({c: ([0.0], [1.0]) for c in range(n)})


def _assert_recorded_digest(key: str, values: np.ndarray) -> None:
    """The sha256 of ``values``' float64 bytes is golden_outputs.json's
    ``key``; skipped under other numpy or scipy versions."""
    recorded = json.loads(GOLDEN.read_text())
    if recorded["versions"] != {"numpy": np.__version__, "scipy": scipy.__version__}:
        pytest.skip(f"digest recorded with {recorded['versions']}")
    digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    if key not in recorded:
        pytest.fail(
            f'{GOLDEN.name} has no "{key}" digest; re-recording '
            "with test_golden_outputs.py keeps one but does not make one.  "
            f'If these values are right, add "{key}": "{digest}" to it.'
        )
    assert digest == recorded[key]


class TestPriceGrid:
    def test_inclusive_endpoints_and_contents(self):
        points = PriceGrid(5.0, 50.0, 0.5).points()
        assert points.size == 91
        assert points[0] == 5.0 and points[-1] == 50.0
        assert 29.5 in points

    def test_decimal_snapping(self):
        points = PriceGrid(0.025, 0.07, 0.005).points()
        assert points.size == 10
        assert 0.045 in points and 0.05 in points and 0.07 in points

    def test_invalid(self):
        with pytest.raises(ValueError):
            PriceGrid(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            PriceGrid(1.0, 2.0, 0.0)

    def test_single_point(self):
        assert PriceGrid(3.0, 3.0, 1.0).points().tolist() == [3.0]

    def test_snapped_end_points_must_be_finite(self):
        # snapping scales by 1e9, so an end point above about 1.8e299 overflows
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(0.0, 1e308, 1e307)
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(-1e300, -1e300, 1.0)
        with pytest.raises(ValueError, match="overflow when snapped"):
            PriceGrid(0.0, 1.0, math.inf)  # the last point is inf * 0, NaN
        assert np.isfinite(PriceGrid(0.0, 1e200, 1e199).points()).all()


class TestCustomerChoice:
    def test_identical_products_split_evenly(self):
        # symmetric tie-free perturbation: an independent utility parameter
        # per product; identical prices and outcomes
        spec = RandomUtilitySpec.custom(
            builder=lambda rho: (lambda p, s: 1.0 - np.exp(-rho * (30.0 - p))),
            prior=(0.8, 1.2),
            per_product=True,
        )
        outcomes = _point_mass(2)
        n = 4000
        probs = customer_choice_probs([20.0, 20.0], spec, outcomes, n, RngStream(31))
        se = math.sqrt(0.25 / n)
        assert abs(probs[0] - 0.5) <= 3 * se

    def test_rate_comparison_against_closed_form(self):
        # one fixed offer vs a pmf rival; increasing utilities reduce the
        # choice to a rate comparison, so the oracle is the pmf mass below
        outcomes = _point_mass(2)
        n = 10_000
        probs = customer_choice_probs(
            [0.045, CASE1_OFFERS], INCREASING_RATE_UTILITY, outcomes, n, RngStream(37)
        )
        exact = CASE1_OFFERS.prob_below(0.045)
        assert exact == pytest.approx(0.55)
        assert abs(probs[0] - exact) <= 0.02

    def test_single_product_degenerate(self):
        probs = customer_choice_probs(
            [10.0], RISK_NEUTRAL, _point_mass(1), 10,
            RngStream(1),
        )
        assert probs.tolist() == [1.0]

    def test_probabilities_partition_unity(self):
        outcomes = _point_mass(3)
        probs = customer_choice_probs(
            [0.03, CASE1_OFFERS, CASE1_OFFERS],
            INCREASING_RATE_UTILITY,
            outcomes,
            777,
            RngStream(5),
        )
        assert probs.sum() == 1.0
        assert np.all(probs >= 0)

    def test_strict_tie_rule_favors_competitor(self):
        # equal deterministic utilities: the competitor must win every draw
        spec = RISK_NEUTRAL
        probs = customer_choice_probs(
            [10.0, 10.0], spec, _point_mass(2), 200, RngStream(3)
        )
        assert probs.tolist() == [0.0, 1.0]

    def test_argmax_scale_invariance(self):
        outcomes = _point_mass(2)
        base = INCREASING_RATE_UTILITY
        scaled = RandomUtilitySpec.custom(
            builder=lambda rho: (
                lambda rate, s: 7.3 * (1.0 - np.exp(-rho * (1.0 + rate) ** 8))
            ),
            prior=base.prior,
        )
        prices = [0.045, CASE1_OFFERS]
        for draw in range(60):
            a = realize_choice(prices, base, outcomes, RngStream(101, draw).generator, 1)
            b = realize_choice(prices, scaled, outcomes, RngStream(101, draw).generator, 1)
            assert a.chosen[0] == b.chosen[0]

    def test_monotone_dominance_in_own_price(self):
        # decreasing utility in price: cutting our price never lowers our share
        spec = RandomUtilitySpec.custom(
            builder=lambda rho: (lambda p, s: 1.0 - np.exp(-rho * (60.0 - p))),
            prior=(0.05, 0.15),
        )
        rival = CategoricalPMF((18.0, 20.0, 22.0), (0.3, 0.4, 0.3))
        outcomes = _point_mass(2)
        p_low = customer_choice_probs(
            [19.0, rival], spec, outcomes, 4000, RngStream(71)
        )[0]
        p_high = customer_choice_probs(
            [21.0, rival], spec, outcomes, 4000, RngStream(71)
        )[0]
        assert p_low >= p_high

    def test_iid_competitors_power_law(self):
        outcomes = _point_mass(4)
        n = 20_000
        multi = customer_choice_probs(
            [0.05, CASE1_OFFERS, CASE1_OFFERS, CASE1_OFFERS],
            INCREASING_RATE_UTILITY,
            outcomes,
            n,
            RngStream(83),
        )[0]
        single = CASE1_OFFERS.prob_below(0.05)
        expected = single**3
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(multi - expected) <= 3 * se

    def test_degenerate_outcome_model_rejected(self):
        unnormalized = OutcomeModel.discrete({0: ([0.0], [0.7]), 1: ([0.0], [1.0])})
        cases = [
            ([1.0, 2.0], unnormalized, "choice 0: mass 0.7 differs from 1"),
            ([1.0, 2.0, 3.0], _point_mass(2), "no distribution for product 2"),
        ]
        for prices, bad, reason in cases:
            with pytest.raises(ValueError, match=f"degenerate outcome model: {reason}"):
                customer_choice_probs(prices, RISK_NEUTRAL, bad, 10, RngStream(1))

    def test_realize_choice_names_a_product_without_a_distribution(self):
        with pytest.raises(
            ValueError, match="degenerate outcome model: no distribution for product 2"
        ):
            realize_choice(
                [1.0, 2.0, 3.0], RISK_NEUTRAL, _point_mass(2),
                np.random.default_rng(0), draws=1,
            )

    def test_nan_utility_names_the_product(self):
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (
                lambda p, s: np.where(p > 19.5, np.nan, -p + np.asarray(s, float))
            ),
        )
        outcomes = _point_mass(3)
        prices = [19.0, 18.0, 20.0]
        with pytest.raises(ValueError, match="product 2 is NaN at price 20.0"):
            realize_choice(prices, spec, outcomes, np.random.default_rng(0), draws=1)
        with pytest.raises(ValueError, match="product 2 is NaN"):
            customer_choice_probs(prices, spec, outcomes, 10, RngStream(1))

    def test_one_realize_choice_call_per_row_block(self, monkeypatch):
        """A row is the products' outcome nodes summed (2 here), so 37 draws
        are one block by default and four of 10, 10, 10 and 7 draws at 20
        elements a block."""
        calls = []
        original = core.realize_choice

        def counted(*args, **kwargs):
            calls.append(args[4])
            return original(*args, **kwargs)

        monkeypatch.setattr(core, "realize_choice", counted)
        prices = [20.0, CategoricalPMF((19.0, 21.0), (0.5, 0.5))]
        shares = []
        for block_elements, blocks in ((BLOCK_ELEMENTS, [37]), (20, [10, 10, 10, 7])):
            monkeypatch.setattr(_parallel, "BLOCK_ELEMENTS", block_elements)
            shares.append(customer_choice_probs(
                prices, RISK_NEUTRAL, _point_mass(2), 37, RngStream(2)
            ))
            assert calls == blocks
            calls.clear()
        assert shares[0].tobytes() == shares[1].tobytes()

    def test_memory_is_bounded(self):
        """3 products on 1,024 outcome nodes at 200,000 draws: utility
        tables of all draws would take 4.6 GiB; a block's take 1 MiB."""
        spec = RandomUtilitySpec.custom(
            builder=lambda t: (lambda p, s: s - t * p), prior=(0.5, 1.5)
        )
        outcomes = _outcomes("continuous", 3, 1024)
        tracemalloc.start()
        try:
            probs = customer_choice_probs(
                [1.0, 1.1, 0.9], spec, outcomes, 200_000, RngStream(14)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.sum() == 1.0
        assert peak < 4 * 8 * BLOCK_ELEMENTS

    def test_demo_shares_match_recorded_digest(self):
        """The first stage of demos/generic_template.py, whose float64
        bytes were hashed into golden_outputs.json ("demo_shares")."""
        customer = RandomUtilitySpec.custom(
            builder=lambda w: (lambda price, s: -(price + w * np.asarray(s, float))),
            prior=(0.5, 2.0),
        )
        delays = OutcomeModel.discrete({
            0: ([1.0, 3.0], [0.8, 0.2]),
            1: ([2.0, 5.0], [0.6, 0.4]),
            2: ([1.0, 2.0], [0.5, 0.5]),
        })
        probs = customer_choice_probs(
            [20.0, 19.0, 22.0], customer, delays, 20_000, RngStream(2024).derive(1)
        )
        _assert_recorded_digest("demo_shares", probs)

    @pytest.mark.parametrize("per_product", [False, True], ids=["shared", "per_product"])
    def test_shares_match_exact_enumeration(self, per_product):
        """z-test each Monte Carlo share against exact_choice_probs; a share
        that is exactly 0 or 1 must come out exactly."""
        builder = lambda w: (lambda price, s: -(price + w * np.asarray(s, float)))
        prior = CategoricalPMF((0.5, 1.0, 2.0), (0.2, 0.5, 0.3))
        # product 3 repeats product 0, so under a shared parameter the two tie
        # on every draw and product 0 never wins
        pmfs = {0: ([1.0, 3.0], [0.8, 0.2]), 1: ([2.0, 5.0], [0.6, 0.4]),
                2: ([1.0, 2.0], [0.5, 0.5]), 3: ([1.0, 3.0], [0.8, 0.2])}
        prices = [20.0, 19.0, 22.0, 20.0]
        spec = RandomUtilitySpec.custom(builder, prior, per_product=per_product)
        n = 20_000
        got = customer_choice_probs(
            prices, spec, OutcomeModel.discrete(pmfs), n, RngStream(2024)
        )
        exact = exact_choice_probs(prices, spec, pmfs)
        assert exact.sum() == pytest.approx(1.0)
        for share, p in zip(got, exact):
            if p in (0.0, 1.0):
                assert share == p
            else:
                assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
        if not per_product:
            assert exact[0] == 0.0 and exact[3] > 0.0


def exact_choice_probs(prices, spec, pmfs):
    """Exact customer shares for plain-number prices, a CategoricalPMF
    parameter prior and discrete outcomes ``pmfs`` (c -> (values, probs)).

    Enumerates every parameter value, or with ``per_product`` every tuple of
    one value per product, and gives its probability to the last product
    of maximal expected utility, as the strict tie rule does.
    """
    n = len(prices)
    support = list(zip(spec.prior.values, spec.prior.probs))
    shares = np.zeros(n)
    for combo in itertools.product(support, repeat=n if spec.per_product else 1):
        weight = math.prod(q for _, q in combo)
        thetas = [t for t, _ in combo] if spec.per_product else [combo[0][0]] * n
        eu = []
        for i, price in enumerate(prices):
            values, probs = (np.asarray(a, float) for a in pmfs[i])
            u = spec.builder(thetas[i])
            eu.append(np.dot(np.asarray(u(price, values), dtype=float), probs))
        shares[max(range(n), key=lambda i: (eu[i], i))] += weight
    return shares


class TestOutcomeModel:
    def test_malformed_models_fail_where_they_are_built(self):
        uniform = {0: (lambda s: np.full(s.shape, 0.5), 0.0, 2.0)}
        for nodes in (1, 0):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                OutcomeModel(uniform, quadrature_nodes=nodes)

        def broken_pdf(s):
            raise FloatingPointError("pdf failed")

        with pytest.raises(FloatingPointError, match="pdf failed"):
            OutcomeModel({0: (broken_pdf, 0.0, 1.0)})
        with pytest.raises(ValueError, match="unpack"):
            OutcomeModel({0: (1.0,)})

    def test_pmf_given_as_a_list(self):
        as_lists = OutcomeModel({c: [[1.0, 3.0], [0.75, 0.25]] for c in range(2)})
        as_tuples = OutcomeModel.discrete({c: ([1.0, 3.0], [0.75, 0.25]) for c in range(2)})
        assert as_lists.validate() == []
        for outcomes in (as_lists, as_tuples):
            choice = realize_choice(
                [1.0, 1.0], RISK_NEUTRAL, outcomes, np.random.default_rng(0), draws=1
            )
            assert choice.expected_utilities[0].tolist() == [0.5, 0.5]
        spec = RandomUtilitySpec.custom(_builder("array"), prior=(0.5, 1.5), per_product=True)
        shares = [
            customer_choice_probs([10.0, 10.0], spec, outcomes, 50, RngStream(3))
            for outcomes in (as_lists, as_tuples)
        ]
        assert shares[0].tobytes() == shares[1].tobytes()

    def test_density_pdf_runs_once_per_choice(self):
        calls = []

        def pdf(s):
            calls.append(1)
            return np.full(s.shape, 0.5)

        outcomes = OutcomeModel({c: (pdf, 0.0, 2.0) for c in range(3)}, quadrature_nodes=64)
        spec = RandomUtilitySpec.custom(_builder("array"), prior=(0.5, 1.5))
        probs = customer_choice_probs([10.0, 9.5, 10.5], spec, outcomes, 50, RngStream(4))
        assert probs.sum() == 1.0
        report = validate_problem(
            PriceGrid(5.0, 15.0, 0.5), spec, outcomes, ValidationConfig(100.0, 64)
        )
        assert report.passed, report.failures()
        assert len(calls) == 3

    @pytest.mark.parametrize("kind", ["object_pdf", "reversed"])
    def test_weights_are_tabulated_as_contiguous_float64(self, kind):
        """A pdf that returns objects, and a pmf given as stride -8 views,
        are cast once, when the model is built."""
        outcomes = _outcomes(kind, 3, 64)
        for _, weights, _ in outcomes.table.values():
            assert weights.dtype == np.float64 and weights.flags.c_contiguous
        spec = RandomUtilitySpec.custom(_builder("array"), prior=(0.5, 1.5))
        probs = customer_choice_probs([10.0, 9.5, 10.5], spec, outcomes, 50, RngStream(4))
        assert probs.sum() == 1.0


# ---------------------------------------------------------------------------
# The customer choice loop as it was before realize_choice was trimmed,
# on float64 utilities and weights laid out contiguously: the reference
# for bit-identity.
# ---------------------------------------------------------------------------


def _frozen_nodes_weights(outcomes, choice):
    entry = outcomes.per_choice[choice]
    if isinstance(entry, tuple) and len(entry) == 2:
        values, probs = entry
        return np.asarray(values, float), np.asarray(probs, float)
    pdf, lo, hi = entry
    s = np.linspace(lo, hi, outcomes.quadrature_nodes)
    w = pdf(s)
    dw = np.full(s.size, (hi - lo) / (s.size - 1))
    dw[0] *= 0.5
    dw[-1] *= 0.5
    return s, w * dw


def _frozen_realize_prices(spec, g, size):
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


def per_draw_choice(prices, spec, outcomes, g):
    """One draw: (chosen, expected utilities), the untrimmed way."""
    n = len(prices)
    realized = np.array([_frozen_realize_prices(p, g, 1)[0] for p in prices])
    if spec.per_product:
        thetas = [spec.sample_parameter(g) for _ in range(n)]
    else:
        theta = spec.sample_parameter(g)
        thetas = [theta] * n
    eu = np.empty(n)
    for i in range(n):
        u = spec.builder(thetas[i])
        s, w = _frozen_nodes_weights(outcomes, i)
        price = float(realized[i])
        values = np.broadcast_to(np.asarray(u(price, s), dtype=float), s.shape)
        eu[i] = float(np.dot(np.ascontiguousarray(values), np.ascontiguousarray(w, float)))
    return int(np.flatnonzero(eu == eu.max())[-1]), eu


def per_draw_choice_probs(prices, spec, outcomes, n_draws, rng):
    g = rng.generator
    counts = np.zeros(len(prices), dtype=np.int64)
    for _ in range(n_draws):
        counts[per_draw_choice(prices, spec, outcomes, g)[0]] += 1
    probs = counts / n_draws
    probs[np.argmax(probs)] += 1.0 - probs.sum()
    return probs


PRICE_KINDS = {
    "float": lambda: 10.0,
    "other_float": lambda: 10.5,
    "int": lambda: 10,
    "power": lambda: PowerPricePrior(9.0, 11.0, 2.0),
    "pmf": lambda: CategoricalPMF((9.5, 10.0, 10.5), (0.25, 0.5, 0.25)),
    "empirical": lambda: EmpiricalDistribution(np.array([9.0, 10.0, 10.0, 11.5])),
    "callable": lambda: (lambda g: g.uniform(9.0, 11.0)),
}
PRIORS = {
    "none": None,
    "fixed": 0.7,
    "interval": (0.5, 1.5),
    "pmf": CategoricalPMF((0.5, 1.0), (0.5, 0.5)),
    "callable": lambda g: g.normal(1.0, 0.1),
}


def _builder(kind):
    def build(theta):
        t = 1.0 if theta is None else theta
        if kind == "array":
            return lambda p, s: -(p + t * np.asarray(s, float))
        if kind == "scalar":  # not shaped like the nodes: broadcast
            return lambda p, s: 20.0 - t * p
        if kind == "object":  # node-shaped, but must become float64 first
            return lambda p, s: np.array([-(p + t * x) for x in s.tolist()], object)
        if kind == "view":  # node-shaped float64, strided: copied into the table
            return lambda p, s: np.repeat(-(p + t * np.asarray(s, float)), 2)[::2]
        return lambda p, s: (-(p + t * np.asarray(s, float))).astype(np.float32)

    return build


def _outcomes(kind, n, nodes):
    if kind == "point_mass":
        return _point_mass(n)
    if kind == "discrete":
        return OutcomeModel.discrete({c: ([1.0, 3.0], [0.75, 0.25]) for c in range(n)})
    if kind == "reversed":  # a pmf given as views of stride -8: copied when built
        values = np.linspace(0.0, 2.0, nodes)[::-1]
        probs = np.arange(1.0, nodes + 1.0)
        return OutcomeModel.discrete({c: (values, (probs / probs.sum())[::-1]) for c in range(n)})
    pdfs = (lambda s: np.full(s.shape, 0.5), lambda s: s / 2.0)
    if kind == "object_pdf":  # object weights: cast to float64 when built
        pdfs = tuple((lambda s, f=f: np.array(f(s).tolist(), object)) for f in pdfs)
    return OutcomeModel(
        {c: (pdfs[c % 2], 0.0, 2.0) for c in range(n)}, quadrature_nodes=nodes
    )


@st.composite
def choice_problems(draw):
    n = draw(st.integers(2, 4))
    prices = [PRICE_KINDS[k]() for k in draw(
        st.lists(st.sampled_from(sorted(PRICE_KINDS)), min_size=n, max_size=n)
    )]
    spec = RandomUtilitySpec.custom(
        builder=_builder(
            draw(st.sampled_from(["array", "scalar", "float32", "object", "view"]))
        ),
        prior=PRIORS[draw(st.sampled_from(sorted(PRIORS)))],
        per_product=draw(st.booleans()),
    )
    outcomes = _outcomes(
        draw(st.sampled_from(
            ["point_mass", "discrete", "reversed", "continuous", "object_pdf"]
        )),
        n,
        draw(st.sampled_from([3, 64, 1024])),
    )
    return prices, spec, outcomes


TIED = (  # equal prices, outcomes and one shared parameter: every draw ties
    [10.0, 10, 10.0],
    RandomUtilitySpec.custom(builder=_builder("array"), prior=(0.5, 1.5)),
    OutcomeModel.discrete({c: ([1.0, 3.0], [0.75, 0.25]) for c in range(3)}),
)
OBJECT_UTILITY = (  # an object array summed as float64 over 1,024 nodes
    [10.0, PowerPricePrior(9.0, 11.0, 2.0)],
    RandomUtilitySpec.custom(builder=_builder("object"), prior=(0.5, 1.5)),
    _outcomes("continuous", 2, 1024),
)

OBJECT_PDF = (  # plain prices and an interval prior: the block path
    [10.0, 10.5, 9.5],
    RandomUtilitySpec.custom(builder=_builder("array"), prior=(0.5, 1.5)),
    _outcomes("object_pdf", 3, 64),
)
ONE_VALUE_PMFS = (  # a one-value pmf still takes a double per draw
    [CategoricalPMF((10.0,), (1.0,)), PowerPricePrior(9.0, 11.0, 2.0)],
    RandomUtilitySpec.custom(builder=_builder("array"), prior=CategoricalPMF((0.7,), (1.0,))),
    _outcomes("discrete", 2, 3),
)
INT_FIXED_PRIOR = (  # the builder gets the int itself
    [10, 9.5, 10.5],
    RandomUtilitySpec.custom(builder=_builder("scalar"), prior=2),
    _outcomes("point_mass", 3, 3),
)
PMF_PER_PRODUCT = (  # one pmf draw per product, after the prices
    [PowerPricePrior(9.0, 11.0, 2.0), 10.0, CategoricalPMF((9.5, 10.0, 10.5), (0.25, 0.5, 0.25))],
    RandomUtilitySpec.custom(builder=_builder("array"), prior=PRIORS["pmf"], per_product=True),
    _outcomes("continuous", 3, 64),
)


class TestChoiceLoopBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(problem=choice_problems(), seed=st.integers(0, 2**32 - 1),
           n_draws=st.integers(1, 12))
    @example(problem=TIED, seed=5, n_draws=8)
    @example(problem=OBJECT_UTILITY, seed=1, n_draws=3)
    @example(problem=OBJECT_PDF, seed=6, n_draws=5)
    @example(problem=ONE_VALUE_PMFS, seed=2, n_draws=6)
    @example(problem=INT_FIXED_PRIOR, seed=3, n_draws=9)
    @example(problem=PMF_PER_PRODUCT, seed=4, n_draws=7)
    def test_matches_the_per_draw_loop(self, problem, seed, n_draws):
        """One-draw blocks, one block of n_draws draws, and the shares in one
        block, in blocks of 5 draws and of 1 draw, against the per-draw loop."""
        prices, spec, outcomes = problem
        g_ref, g_new = np.random.default_rng(seed), np.random.default_rng(seed)
        choices, eus = [], []
        for _ in range(n_draws):
            chosen, eu = per_draw_choice(prices, spec, outcomes, g_ref)
            got = realize_choice(prices, spec, outcomes, g_new, draws=1)
            assert got.chosen.tolist() == [chosen]
            assert got.expected_utilities[0].tobytes() == eu.tobytes()
            assert g_new.bit_generator.state == g_ref.bit_generator.state
            choices.append(chosen)
            eus.append(eu)
        g_block = np.random.default_rng(seed)
        block = realize_choice(prices, spec, outcomes, g_block, draws=n_draws)
        assert block.chosen.tolist() == choices
        assert block.expected_utilities.tobytes() == np.array(eus).tobytes()
        assert g_block.bit_generator.state == g_ref.bit_generator.state
        ref = per_draw_choice_probs(prices, spec, outcomes, n_draws, RngStream(seed))
        row = sum(outcomes.table[i][0].size for i in range(len(prices)))
        for block_elements in (BLOCK_ELEMENTS, 5 * row, 1):
            with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
                got = customer_choice_probs(prices, spec, outcomes, n_draws, RngStream(seed))
            assert got.tobytes() == ref.tobytes()

    def test_tied_draws_go_to_the_last_product(self):
        prices, spec, outcomes = TIED
        probs = customer_choice_probs(prices, spec, outcomes, 50, RngStream(5))
        assert probs.tolist() == [0.0, 0.0, 1.0]


def _retail_like_inputs():
    """Competitor-forecast inputs mirroring the bundled retail setup."""
    margin = RandomUtilitySpec.custom(
        builder=lambda _t: (lambda p, s: p - 5.0), prior=None
    )
    beliefs = AgentBeliefs((PowerPricePrior(5.0, 50.0, 2.0),))
    scale = math.sqrt(0.5 / 0.5)
    dof = 2 * 0.5
    choice = lambda own, rivals: student_t_cdf(scale * (rivals - own), dof)
    grid = PriceGrid(5.0, 40.0, 0.5)
    return margin, beliefs, choice, grid


class TestCompetitorSampling:
    def test_support_within_feasible_range(self):
        margin, beliefs, choice, grid = _retail_like_inputs()
        rng = RngStream(11)
        draws = [
            sample_competitor_optimal_price(2, margin, beliefs, choice, grid, 100, rng)
            for _ in range(50)
        ]
        assert min(draws) >= 5.0 and max(draws) <= 40.0

    def test_point_mass_beliefs_deterministic(self):
        margin, _, choice, grid = _retail_like_inputs()
        beliefs = AgentBeliefs((30.0,))
        rng = RngStream(13)
        draws = {
            sample_competitor_optimal_price(2, margin, beliefs, choice, grid, 50, rng)
            for _ in range(10)
        }
        assert len(draws) == 1

    def test_flat_objective_warns_and_returns_lowest(self):
        flat = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: np.zeros_like(np.asarray(p, float))),
            prior=None,
        )
        _, beliefs, choice, grid = _retail_like_inputs()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            price = sample_competitor_optimal_price(
                2, flat, beliefs, choice, grid, 20, RngStream(17)
            )
        assert price == grid.min
        assert any("flat" in str(w.message) for w in caught)

    @pytest.mark.parametrize("nan_above, first", [(15.0, 15.5), (-math.inf, 10.0)])
    def test_nan_objective_names_the_first_price(self, nan_above, first):
        margin, beliefs, _, _ = _retail_like_inputs()
        choice = lambda own, rivals: np.where(own > nan_above, np.nan, 0.5) + 0.0 * rivals
        with pytest.raises(ValueError, match=f"NaN at price {first}$"):
            sample_competitor_optimal_price(
                2, margin, beliefs, choice, PriceGrid(10.0, 20.0, 0.5), 20, RngStream(17)
            )

    @pytest.mark.parametrize(
        "peak, rest, flat",
        [(math.inf, math.inf, True), (-math.inf, -math.inf, True), (1e-13, 0.0, True),
         (2e-12, 0.0, False), (math.inf, 0.0, False), (0.0, -math.inf, False)],
    )
    def test_flatness_is_that_of_allclose(self, peak, rest, flat):
        """A payoff of ``peak`` at one grid price and ``rest`` elsewhere is
        flat as np.allclose(rtol=0, atol=1e-12) has it: equal infinities
        are, and no numpy warning is raised on the way."""
        _, beliefs, _, grid = _retail_like_inputs()
        at = grid.points()[3]
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: np.where(p == at, peak, rest))
        )
        sure_sale = lambda own, rivals: 1.0 + 0.0 * (own + rivals)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            price = sample_competitor_optimal_price(
                2, spec, beliefs, sure_sale, grid, 20, RngStream(17)
            )
        messages = [str(w.message) for w in caught]
        assert messages == (["expected utility is flat across the whole grid; "
                             "returning the lowest price"] if flat else [])
        assert price == (grid.min if flat or peak < rest else at)

    @pytest.mark.parametrize("block_elements", [1, BLOCK_ELEMENTS])
    def test_flatness_holds_where_the_search_prunes(self, block_elements):
        """Payoffs of 1e-4, 1e-4 and 2e-4 at wins of 1, 1 and 0.5 + 1e-9 give
        objectives within 2e-13 of each other: flat.  Without the 2e-12 in
        the bound, the bisection would skip the middle price and miss it."""
        spec = RandomUtilitySpec.custom(lambda _t: (lambda p, s: np.where(p < 7.0, 1e-4, 2e-4)))
        choice = lambda own, rivals: np.where(own < 7.0, 1.0, 0.5 + 1e-9) + 0.0 * rivals
        with warnings.catch_warnings(record=True) as caught, mock.patch.object(
            _parallel, "BLOCK_ELEMENTS", block_elements
        ):
            warnings.simplefilter("always")
            price = sample_competitor_optimal_price(
                2, spec, AgentBeliefs((30.0,)), choice, PriceGrid(5.0, 7.0, 1.0), 1,
                RngStream(17),
            )
        assert price == 5.0
        assert [str(w.message) for w in caught] == [
            "expected utility is flat across the whole grid; returning the lowest price"
        ]

    @pytest.mark.parametrize("n_rivals", [1, 2])
    @pytest.mark.parametrize("awkward", [False, True])
    def test_win_matrix_is_the_product_over_rivals(self, n_rivals, awkward):
        """Rivals' pairwise wins multiply: the table has the bits of
        ``prod(axis=2)``, for one rival too, and is C-ordered."""
        _, _, choice, grid = _retail_like_inputs()
        if awkward:  # -0.0, NaN and values off [0, 1] pass through unchanged
            choice = lambda own, rivals: np.where(
                rivals > 45.0, -0.0, np.where(rivals < 6.0, np.nan, 1.5 - own / rivals)
            )
        points = grid.points()
        rivals = np.random.default_rng(23).uniform(5.0, 50.0, (50, n_rivals))
        pairwise = np.asarray(choice(points[:, None, None], rivals[None]), dtype=float)
        got = core._win_matrix(choice, points, rivals)
        assert got.shape == (points.size, 50) and got.flags.c_contiguous
        assert got.tobytes() == pairwise.prod(axis=2).tobytes()
        if n_rivals == 2:
            product = pairwise[:, :, 0] * pairwise[:, :, 1]
            assert got.tobytes() == product.tobytes()

    def test_demo_forecast_matches_recorded_digest(self):
        """The second stage of demos/generic_template.py, 300 forecasts of
        rival A, whose float64 bytes were hashed into golden_outputs.json
        ("demo_forecast")."""
        rng = RngStream(2024)
        rival_margin = RandomUtilitySpec.custom(
            builder=lambda cost: (lambda p, s: p - cost), prior=(6.0, 10.0)
        )
        beliefs = AgentBeliefs((PowerPricePrior(15.0, 25.0, 2.0),))
        choice = lambda own, rivals: student_t_cdf(rivals - own, 3.0)
        grid = PriceGrid(10.0, 30.0, 0.5)
        forecast = np.array([
            sample_competitor_optimal_price(
                1, rival_margin, beliefs, choice, grid, 200, rng.derive(100 + k)
            )
            for k in range(300)
        ])
        _assert_recorded_digest("demo_forecast", forecast)

    def test_argmax_matches_quadrature_oracle(self):
        margin, beliefs, choice, grid = _retail_like_inputs()
        price = sample_competitor_optimal_price(
            2, margin, beliefs, choice, grid, 10_000, RngStream(19)
        )
        scenario = RetailScenario(
            cost=5.0,
            competitor_cost=5.0,
            max_price=50.0,
            competitor_max_price=40.0,
            customer_noise=InverseGammaParams(2.0, 2.0),
            competitor_noise=InverseGammaParams(0.5, 0.5),
            prior_exponent=2.0,
        )
        ref_grid, objective = quadrature_competitor_objective(scenario, nodes=512)
        oracle_argmax = ref_grid[int(np.argmax(objective))]
        assert abs(price - oracle_argmax) <= grid.step + 1e-12


def full_table_objective(points, payoff, choice_model, states):
    """The rival objective at every grid price from the whole (rows, draws,
    grid) table: pairwise wins multiplied in rival order, draws added in
    order."""
    pairwise = np.asarray(choice_model(points[:, None], states[:, :, None, :]), dtype=float)
    win = pairwise[..., 0]
    for k in range(1, states.shape[2]):
        win = win * pairwise[..., k]
    return payoff * (np.cumsum(win, axis=1)[:, -1] / states.shape[1])


class TestBestResponses:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 30),
        draws=st.sampled_from([1, 2, 3]) | st.integers(1, 50),
        rivals=st.integers(1, 3),
        points=st.integers(1, 24),
        cost=st.sampled_from([0.0, 3.0, 7.5]),
        monotone=st.booleans(),
        sigma=st.just(1e-9) | st.floats(0.01, 5.0),
        block_elements=st.sampled_from([1, 1000, BLOCK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
    )
    # saturated noise on half-step prices: wins of 0, 1/2 and 1, and ties
    @example(7, 4, 2, 17, 3.0, True, 1e-9, 1, 0)
    @example(7, 4, 2, 17, 3.0, True, 1e-9, BLOCK_ELEMENTS, 0)
    @example(5, 3, 1, 12, 7.5, False, 1e-9, 1, 1)
    @example(1, 1, 1, 1, 0.0, True, 0.5, 1, 2)  # a one-point grid
    @example(1, 50, 1, 24, 3.0, True, 2.0, 1, 0)  # one row: one-column sums
    def test_matches_the_full_table(
        self, rows, draws, rivals, points, cost, monotone, sigma, block_elements, seed
    ):
        """The argmax of each row, and the bits at every scored price, are
        those of the unpruned full table, one block at a time or in one
        pass.  A row with a skipped price is not flat to _FLAT_ATOL, and a
        payoff that is not nondecreasing has every price scored."""
        g = np.random.default_rng(seed)
        grid = 5.0 + 0.5 * np.arange(points)
        states = 0.5 * g.integers(8, 8 + 2 * points + 4, (rows, draws, rivals))
        payoff = grid - cost if monotone else g.uniform(-1.0, 3.0, points)
        choice = lambda own, rivals: normal_cdf((rivals - own) / sigma)
        expected = full_table_objective(grid, payoff, choice, states)
        with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
            got = core.best_responses(grid, payoff, choice, states)
        assert got.shape == (rows, points)
        assert np.argmax(got, axis=1).tolist() == np.argmax(expected, axis=1).tolist()
        scored = got != -np.inf
        assert got[scored].tobytes() == expected[scored].tobytes()
        for row in expected[~scored.all(axis=1)]:
            assert not np.allclose(row, row[0], rtol=0.0, atol=core._FLAT_ATOL)
        if not np.all(payoff[1:] >= payoff[:-1]):
            assert scored.all()


class TestDrawSum:
    # eight draws that numpy's pairwise sum adds as (1 + 2^-53) + 2^-52 +
    # 2^-51 = 1 + 3 * 2^-52, while adding them in order keeps 1.0
    DRAWS = np.array([1.0] + [2.0**-53] * 7)

    def test_one_column_adds_the_draws_in_order(self):
        win = self.DRAWS[:, None]
        assert win.sum(axis=0).tobytes() != np.cumsum(win, axis=0)[-1].tobytes()
        assert core._sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_add_the_draws_in_order_in_either_layout(self, order):
        win = np.array(np.stack([self.DRAWS, self.DRAWS[::-1], self.DRAWS], axis=1),
                       order=order)
        assert core._sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n2=st.integers(1, 300),
        columns=st.integers(1, 9),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cumsum_bit_for_bit(self, n2, columns, order, seed):
        g = np.random.default_rng(seed)
        win = np.array(g.random((n2, columns)) ** g.uniform(1.0, 60.0), order=order)
        assert core._sum_draws(win).tobytes() == np.cumsum(win, axis=0)[-1].tobytes()


class TestSolveSupportedPrice:
    def test_zero_utility_degenerate(self):
        grid = PriceGrid(1.0, 5.0, 1.0)
        u1 = ProducerUtility(on_sale=lambda p: 0.0)
        win = lambda own, rivals: np.full(np.broadcast(own, rivals).shape, 0.5)
        optimum, curve = solve_supported_price(grid, u1, [2.0, 3.0], win)
        assert optimum == grid.min
        assert np.all(curve.expected_utility == 0.0)

    def test_optimum_attains_curve_max(self):
        margin, beliefs, choice, _ = _retail_like_inputs()
        grid = PriceGrid(5.0, 50.0, 0.5)
        u1 = ProducerUtility.margin(5.0)
        win_for_us = lambda own, rivals: student_t_cdf(1.0 * (rivals - own), 4.0)
        optimum, curve = solve_supported_price(
            grid, u1, beliefs, win_for_us, n_draws=400, rng=RngStream(23)
        )
        assert curve.expected_utility[curve.optimum_index] == curve.expected_utility.max()
        assert optimum == curve.prices[curve.optimum_index]

    def test_deterministic_given_stream(self):
        _, beliefs, _, _ = _retail_like_inputs()
        grid = PriceGrid(5.0, 50.0, 0.5)
        u1 = ProducerUtility.margin(5.0)
        win = lambda own, rivals: student_t_cdf(rivals - own, 4.0)
        _, a = solve_supported_price(grid, u1, beliefs, win, n_draws=200, rng=RngStream(9))
        _, b = solve_supported_price(grid, u1, beliefs, win, n_draws=200, rng=RngStream(9))
        assert np.array_equal(a.expected_utility, b.expected_utility)
        assert np.array_equal(a.accept_prob, b.accept_prob)

    @pytest.mark.parametrize("sampled", [False, True], ids=["empty_array", "zero_n_draws"])
    def test_zero_rival_draws_rejected(self, sampled):
        """No draws would average an empty slice into a NaN curve."""
        _, beliefs, _, _ = _retail_like_inputs()
        grid = PriceGrid(5.0, 6.0, 0.5)
        win = lambda own, rivals: student_t_cdf(rivals - own, 4.0)
        kwargs = {"n_draws": 0, "rng": RngStream(9)} if sampled else {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rival price draw"):
                solve_supported_price(
                    grid, ProducerUtility.margin(5.0),
                    beliefs if sampled else [], win, **kwargs,
                )


    def test_row_blocks_match_one_call(self):
        """Two rivals at 5,000 draws, each row of rival prices distinct: a
        row block holds 13 of the 41 grid prices, and the four blocks give
        the bits of one ``from_draws`` call over the whole (grid x
        distinct states) win matrix, weighted by frequency."""
        beliefs = AgentBeliefs(
            (PowerPricePrior(5.0, 15.0, 2.0), CategoricalPMF((8.0, 9.0), (0.3, 0.7)))
        )
        grid, draws = PriceGrid(0.0, 10.0, 0.25), 5_000
        points = grid.points()
        u1 = ProducerUtility(on_sale=lambda p: p - 1.0, on_no_sale=lambda p: -0.5)
        win = lambda own, rivals: student_t_cdf(rivals - own, 4.0)
        states, weights = core._distinct_states(beliefs.sample(RngStream(12), draws))
        assert len(states) == draws and BLOCK_ELEMENTS // states.size == 13
        expected = EvaluationCurve.from_draws(
            points,
            win(points[:, None, None], states[None, :, :]).prod(axis=2),
            points - 1.0,
            np.full(points.size, -0.5),
            weights,
            draws,
        )
        _, got = solve_supported_price(grid, u1, beliefs, win, draws, RngStream(12))
        for column in ("accept_prob", "expected_utility", "std_err"):
            assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()

    def test_scores_distinct_states_only(self, monkeypatch, tmp_path, capsys):
        """`price run template_example` draws 4,000 rival prices from a
        4-value pmf: the choice model sees a 41 x 4 table, not 41 x 4,000."""
        shapes = []
        solve = core.solve_supported_price

        def recorded(grid, u1, beliefs, choice_model, *args, **kwargs):
            def model(own, rivals):
                shapes.append(np.broadcast_shapes(np.shape(own), np.shape(rivals)))
                return choice_model(own, rivals)

            return solve(grid, u1, beliefs, model, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_supported_price", recorded)
        path = bundled_case("template_example")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        assert cli.parse_scenario(path).params.n_draws == 4_000
        assert shapes == [(41, 4, 1)]

    def test_memory_is_bounded(self):
        """41 prices x 200,000 draws: one float64 win matrix alone would
        take 63 MiB."""
        beliefs = AgentBeliefs((PowerPricePrior(5.0, 15.0, 2.0),))
        win = lambda own, rivals: student_t_cdf(rivals - own, 4.0)
        tracemalloc.start()
        try:
            solve_supported_price(
                PriceGrid(0.0, 10.0, 0.25), ProducerUtility.margin(1.0),
                beliefs, win, n_draws=200_000, rng=RngStream(13),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEvaluationCurve:
    def test_from_draws_matches_row_by_row_formula(self):
        """Every row reduces with ``np.dot`` against the weights, also for a
        column slice, which is not contiguous; the SE of ``draws`` > 1
        equally weighted draws is ``std(ddof=1) / sqrt(draws)``, and 0 for
        an exact expectation or a single draw."""
        g = np.random.default_rng(4)
        prices = np.array([1.0, 2.0, 3.0])
        on_sale, on_no_sale = prices - 0.5, np.array([-0.5, 0.0, -0.25])
        for table in (g.random((3, 257)), g.random((3, 515))[:, 1::2]):
            n = table.shape[1]
            for weights, draws in ((np.full(n, 1.0 / n), n), (g.dirichlet(np.ones(n)), 0)):
                curve = EvaluationCurve.from_draws(
                    prices, table, on_sale, on_no_sale, weights, draws
                )
                for i in range(prices.size):
                    payoff = on_sale[i] * table[i] + on_no_sale[i] * (1.0 - table[i])
                    mean = np.dot(payoff, weights)
                    assert curve.expected_utility[i] == mean
                    assert curve.accept_prob[i] == np.dot(table[i], weights)
                    if draws:
                        se = math.sqrt(np.dot((payoff - mean) ** 2, weights) / (draws - 1))
                        assert curve.std_err[i] == se
                        assert se == pytest.approx(payoff.std(ddof=1) / math.sqrt(n), rel=1e-12)
                if not draws:
                    assert np.array_equal(curve.std_err, np.zeros(3))
        one = EvaluationCurve.from_draws(prices, table[:, :1], on_sale, on_no_sale, [1.0], 1)
        assert np.array_equal(one.std_err, np.zeros(3))

    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.integers(1, 6),
        draws=st.integers(1, 40),
        integral=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(distinct=1, draws=7, integral=False, seed=0)
    def test_grouped_scores_match_expanded(self, distinct, draws, integral, seed):
        """A table with repeated columns scores the same expanded, each
        column at a weight of 1/draws, and grouped on its distinct columns
        at their frequencies: to 1e-12 relative, and exactly for
        small-integer payoffs with 0/1 acceptance over a power-of-two draw
        count, whose weights are exact.  A single distinct state has an SE
        of exactly 0.0."""
        g = np.random.default_rng(seed)
        prices = np.array([1.0, 2.0, 3.0, 4.0])
        if integral:
            columns = g.integers(0, 2, (prices.size, distinct)).astype(float)
            on_sale, on_no_sale = g.integers(-3, 4, (2, prices.size)).astype(float)
        else:
            columns = g.random((prices.size, distinct))
            on_sale, on_no_sale = g.normal(size=(2, prices.size))
        n = distinct + draws
        if integral:
            n = 1 << (n - 1).bit_length()
        pick = np.concatenate([np.arange(distinct), g.integers(0, distinct, n - distinct)])
        expanded = EvaluationCurve.from_draws(
            prices, columns[:, pick], on_sale, on_no_sale, np.full(n, 1.0 / n), n
        )
        states, weights = core._distinct_states(columns.T[pick])
        grouped = EvaluationCurve.from_draws(
            prices, states.T, on_sale, on_no_sale, weights, n
        )
        scale = np.abs([on_sale, on_no_sale]).max()
        for column in ("accept_prob", "expected_utility", "std_err"):
            want, got = getattr(expanded, column), getattr(grouped, column)
            if integral:
                assert np.array_equal(got, want), column
            # an SE that is 0 grouped is rounding noise expanded
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)
        if len(states) == 1:
            assert np.array_equal(grouped.std_err, np.zeros(prices.size))

    def test_every_column_must_align(self):
        cols = dict(prices=np.arange(3.0), accept_prob=np.zeros(3),
                    expected_utility=np.arange(3.0), std_err=np.zeros(3))
        with pytest.raises(ValueError, match="std_err"):
            EvaluationCurve(**{**cols, "std_err": np.zeros(2)})
        with pytest.raises(ValueError, match="benefit_horizon"):
            OfferEvaluation(**cols, benefit_next_year=np.zeros(3),
                            benefit_horizon=np.zeros(4))
        ev = OfferEvaluation(**cols, benefit_next_year=np.zeros(3),
                             benefit_horizon=np.zeros(3))
        assert ev.offers is ev.prices and ev.optimum == 2.0


class TestValidateProblem:
    def test_bounded_retail_utility_passes(self):
        grid = PriceGrid(5.0, 50.0, 0.5)
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: p - 5.0), prior=None
        )
        report = validate_problem(
            grid, spec, _point_mass(2), ValidationConfig(50.0, 512)
        )
        assert report.passed, report.failures()

    def test_empty_grid_fails_compactness(self):
        report = validate_problem(
            None, RISK_NEUTRAL, _point_mass(2), ValidationConfig(10.0)
        )
        names = {c.name: c.passed for c in report.checks}
        assert names["price_set_compact_nonempty"] is False

    def test_empty_outcome_model_fails_instead_of_raising(self):
        report = validate_problem(
            PriceGrid(5.0, 50.0, 0.5), RISK_NEUTRAL, OutcomeModel({}), ValidationConfig(10.0)
        )
        checks = {c.name: c for c in report.checks}
        assert checks["price_set_compact_nonempty"].passed
        assert not checks["utilities_bounded"].passed
        assert checks["utilities_bounded"].detail == "skipped: no outcome distribution to probe"
        assert not checks["outcome_model_normalized"].passed
        assert checks["outcome_model_normalized"].detail == "no outcome distributions"

    @pytest.mark.parametrize(
        "grid, compact",
        [(PriceGrid(0.0, 1e308, 1e-300), False), (PriceGrid(0.0, 1e15, 1.0), True)],
        ids=["unbounded_count", "1e15_points"],
    )
    def test_huge_grids_are_reported_without_building_them(self, grid, compact):
        """An infinite point count fails compactness instead of raising; a
        finite one is probed point by point, never allocated."""
        report = validate_problem(
            grid, RISK_NEUTRAL, _point_mass(2), ValidationConfig(10.0)
        )
        names = {c.name: c.passed for c in report.checks}
        assert names["price_set_compact_nonempty"] is compact
        if not compact:
            assert names["utilities_bounded"] is False

    def test_bound_violation_flagged(self):
        grid = PriceGrid(5.0, 50.0, 0.5)
        spec = RandomUtilitySpec.custom(
            builder=lambda _t: (lambda p, s: p - 5.0), prior=None
        )
        report = validate_problem(
            grid, spec, _point_mass(2), ValidationConfig(10.0, 512)
        )
        names = {c.name: c.passed for c in report.checks}
        assert names["utilities_bounded"] is False
        assert names["outcome_model_normalized"] is True
