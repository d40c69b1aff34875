"""Building a custom pricing problem with the generic template.

The retail and pension engines are specializations of a small set of
primitives: a customer who picks the product with the highest realized
expected utility, competitors modeled as expected-utility maximizers
under sampled beliefs, and a grid search over our own price.  This demo
wires those primitives together by hand for a made-up three-producer
market with an outcome feature (delivery delay) that differs by vendor.

Run:  python demos/generic_template.py
"""

import numpy as np

from araprice import (
    AgentBeliefs,
    EmpiricalDistribution,
    OutcomeModel,
    PowerPricePrior,
    PriceGrid,
    ProducerUtility,
    RandomUtilitySpec,
    RngStream,
    customer_choice_probs,
    sample_competitor_optimal_price,
    solve_supported_price,
    student_t_cdf,
    validate_problem,
    ValidationConfig,
)

rng = RngStream(2024)

# ---------------------------------------------------------------------
# 1. The customer.  Utility decreases in price and in delivery delay s;
#    the trade-off rate is uncertain.  Vendors differ in delay profiles.
# ---------------------------------------------------------------------
customer = RandomUtilitySpec.custom(
    builder=lambda w: (lambda price, s: -(price + w * np.asarray(s, float))),
    prior=(0.5, 2.0),  # euro value of one day of delay
)
delays = OutcomeModel.discrete(
    {
        0: ([1.0, 3.0], [0.8, 0.2]),     # us: usually fast
        1: ([2.0, 5.0], [0.6, 0.4]),     # rival A
        2: ([1.0, 2.0], [0.5, 0.5]),     # rival B: fast but pricier below
    }
)

probs = customer_choice_probs(
    prices=[20.0, 19.0, 22.0], spec=customer, outcomes=delays,
    n_draws=20_000, rng=rng.derive(1),
)
print("1. customer shares at prices (20, 19, 22):", np.round(probs, 3))

# ---------------------------------------------------------------------
# 2. Forecasting rival A.  She maximizes margin times her own estimate of
#    winning, under a belief that our price stays near its current level.
#    Repeated draws of her optimum build our forecast distribution.
# ---------------------------------------------------------------------
rival_margin = RandomUtilitySpec.custom(
    builder=lambda cost: (lambda p, s: p - cost),
    prior=(6.0, 10.0),  # we are unsure of her unit cost
)
her_beliefs = AgentBeliefs((PowerPricePrior(15.0, 25.0, 2.0),))
her_choice = lambda own, rivals: student_t_cdf(rivals - own, 3.0)
her_grid = PriceGrid(10.0, 30.0, 0.5)

forecast = np.array(
    [
        sample_competitor_optimal_price(
            1, rival_margin, her_beliefs, her_choice, her_grid, 200, rng.derive(100 + k)
        )
        for k in range(300)
    ]
)
print(
    "2. rival price forecast: mean "
    f"{forecast.mean():.2f}, 10-90% range "
    f"[{np.quantile(forecast, 0.1):.1f}, {np.quantile(forecast, 0.9):.1f}]"
)

# ---------------------------------------------------------------------
# 3. Our problem.  Margin over cost 12, the forecast above as the rival
#    price distribution, and a t-noise choice model for the customer.
# ---------------------------------------------------------------------
our_grid = PriceGrid(12.0, 30.0, 0.5)
win_prob = lambda own, rivals: 1.0 - student_t_cdf(own - rivals, 4.0)
optimum, curve = solve_supported_price(
    grid=our_grid,
    u1=ProducerUtility.margin(12.0),
    beliefs=EmpiricalDistribution(forecast),
    choice_model=win_prob,
)
print(f"3. our optimal price: {optimum} (expected margin {curve.optimum_utility:.2f},"
      f" acceptance {curve.accept_at_optimum:.2f})")

# ---------------------------------------------------------------------
# 4. Well-posedness: compact grid, bounded utilities, normalized outcome
#    model, so the optimum exists and the comparisons are well-defined.
# ---------------------------------------------------------------------
report = validate_problem(our_grid, customer, delays, ValidationConfig(100.0, 512))
print("4. validation:", "all checks pass" if report.passed else report.failures())
for check in report.checks:
    print(f"   - {check.name}: {'ok' if check.passed else 'FAIL'} ({check.detail})")
