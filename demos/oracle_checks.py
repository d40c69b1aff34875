"""Cross-checking every Monte Carlo estimate against an exact twin.

Each stochastic quantity in the package has a deterministic reference:
closed forms for acceptance under exchangeable rivals, quadrature for
integrals over price beliefs and noise priors.  This demo reproduces the
checks the test suite runs, at demo scale, and prints the agreement.

Run:  python demos/oracle_checks.py
"""

import numpy as np

from araprice import (
    PowerPricePrior,
    RngStream,
    acceptance_probability,
    bundled_case,
    compare,
    exact_pension_acceptance,
    estimate_expected_utility,
    optimize_offer,
    parse_scenario,
    probit_choice_prob,
    quadrature_retail_utility,
    sample_inverse_gamma,
    t_choice_prob,
)

# ---------------------------------------------------------------------
# 1. Student-t acceptance really is the probit averaged over its
#    variance prior (the closed form the retail engine runs on).
# ---------------------------------------------------------------------
pension = parse_scenario(bundled_case("pension_case1")).params
retail = parse_scenario(bundled_case("retail_case3")).params

sigma = np.sqrt(sample_inverse_gamma(retail.customer_noise, RngStream(1), 400_000))
print("1. probit-average vs closed form (price gap -> both probabilities)")
for gap in (-3.0, -1.0, 0.0, 1.0, 3.0):
    mc = float(np.mean(probit_choice_prob(30.0 + gap, 30.0, sigma)))
    closed = t_choice_prob(30.0 + gap, 30.0, retail.customer_noise)
    print(f"   gap {gap:+.0f}: monte carlo {mc:.5f}   closed form {closed:.5f}")

# ---------------------------------------------------------------------
# 2. Pension acceptance: simulation vs the exact oracle across the whole
#    offer grid.  The oracle is the exchangeable-rival closed form
#    P(rival offer < h)^n, since the customer's utility rises with the rate.
# ---------------------------------------------------------------------
print("\n2. pension acceptance at every offer (10,000 draws per point)")
print("   offer   simulated   exact")
for i, h in enumerate(pension.offer_grid.points()):
    mc, se = acceptance_probability(float(h), pension, RngStream(7, i))
    exact = exact_pension_acceptance(float(h), pension)
    print(f"   {h:.3f}   {mc:9.4f}   {exact:5.4f}")

# ---------------------------------------------------------------------
# 3. Retail expected utility: Monte Carlo over a known price density vs
#    Gauss-Legendre quadrature of the same integral, z-scored.
# ---------------------------------------------------------------------
print("\n3. retail expected utility, monte carlo vs quadrature")
g = RngStream(11).generator
samples = g.uniform(20.0, 40.0, 10_000)
density = PowerPricePrior(20.0, 40.0)  # uniform on [20, 40], as the samples
prices, estimates, ses, oracles = [], [], [], []
for p1 in (10.0, 18.0, 26.0, 34.0, 42.0):
    est, se = estimate_expected_utility(p1, samples, retail)
    orc = quadrature_retail_utility(p1, retail, nodes=512, density=density)
    prices.append(p1); estimates.append(est); ses.append(se); oracles.append(orc)
    print(f"   price {p1:4.0f}: mc {est:8.4f} +/- {se:.4f}   quadrature {orc:8.4f}")
report = compare(prices, estimates, ses, oracles)
print(f"   max |z| = {report.max_abs_z:.2f} (threshold {report.z_threshold}) ->",
      "consistent" if report.passed else "INCONSISTENT")

# ---------------------------------------------------------------------
# 4. The one disagreement worth knowing about: at the benchmark pension
#    scenario the exact objective has a near-tie at the top.  Simulation
#    at modest draw counts can pick either side; the oracle settles it.
# ---------------------------------------------------------------------
print("\n4. near-tie at the top of the benchmark pension objective")
for h in (0.045, 0.05):
    exact = exact_pension_acceptance(h, pension)
    eu = (pension.earn_rate - h) * pension.capital * exact
    print(f"   offer {h:.3f}: exact acceptance {exact:.2f}, exact objective {eu:.2f} EUR")
ev = optimize_offer(pension, RngStream(42))
print(f"   simulated optimum at seed 42 with 10,000 draws: {ev.optimum}")
print("   -> the exact objective prefers 0.05 by 1.8%; treat claims of either"
      "\n      optimum at this draw count as within-noise.")
