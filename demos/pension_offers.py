"""Pension-fund offer pricing walkthrough.

A branch manager can offer a customer a fixed yearly return between 2.5%
and 7% on 30,000 EUR.  The bank expects to earn 7% on the capital, the
customer must stay 8 years or forfeit 80% of the accumulated bonus, and
rival entities court the same customer with offers we only know as a
probability distribution.  The customer signs with whoever maximizes his
expected utility (CARA, risk aversion uncertain in [0.85, 0.95]).

Run:  python demos/pension_offers.py
"""

from araprice import (
    RngStream,
    acceptance_probability_reduced,
    bundled_case,
    exact_pension_acceptance,
    optimize_offer,
    parse_scenario,
)


def show(title, scenario, ev):
    print(f"\n{title}")
    print("  offer   accept   utility   next-yr EUR   horizon EUR")
    for h, a, u, b1, bh in zip(
        ev.offers, ev.accept_prob, ev.expected_utility,
        ev.benefit_next_year, ev.benefit_horizon,
    ):
        marker = "  <-- optimum" if h == ev.optimum else ""
        print(f"  {h:.3f}   {a:6.3f}   {u:7.3f}   {b1:11.2f}   {bh:11.2f}{marker}")


# ---------------------------------------------------------------------
# 1. Benchmark: one rival.  Acceptance is a step function of the offer:
#    it jumps exactly at the rival's possible offer values, by the
#    probability of each.  The bank trades margin against acceptance.
# ---------------------------------------------------------------------
case1 = parse_scenario(bundled_case("pension_case1"))
ev1 = optimize_offer(case1.params, RngStream(case1.seed))
show("1. benchmark: one rival entity", case1.params, ev1)
print(
    "  exact oracle: P(rival offer < 0.045) = "
    f"{exact_pension_acceptance(0.045, case1.params):.2f}"
)

# ---------------------------------------------------------------------
# 2. Personalization by score class: high-score customers attract better
#    rival offers, so retaining them costs more and earns less.
# ---------------------------------------------------------------------
for name, label in (
    ("pension_case2_low", "low-score customer (weak rival offers)"),
    ("pension_case2_high", "high-score customer (strong rival offers)"),
):
    sc = parse_scenario(bundled_case(name))
    ev = optimize_offer(sc.params, RngStream(sc.seed))
    print(
        f"\n2. {label}: optimum {ev.optimum}, acceptance "
        f"{ev.accept_at_optimum:.3f}, next-year benefit "
        f"{ev.benefit_next_year[ev.optimum_index]:.0f} EUR"
    )

# ---------------------------------------------------------------------
# 3. Rival count: with n exchangeable rivals, acceptance at a given offer
#    is the single-rival win probability raised to n, so the bank must
#    bid up as the market gets more crowded.
# ---------------------------------------------------------------------
print("\n3. sweep over the number of rival entities")
print("  rivals   optimum   accept@opt   exact law")
for name in ("pension_case1", "pension_case3_n2", "pension_case3_n5", "pension_case3_n10"):
    sc = parse_scenario(bundled_case(name))
    ev = optimize_offer(sc.params, RngStream(sc.seed))
    exact = acceptance_probability_reduced(
        ev.optimum, sc.params.competitor_offers, sc.params.n_competitors
    )
    print(
        f"  {sc.params.n_competitors:6d}   {ev.optimum:7.3f}   "
        f"{ev.accept_at_optimum:10.3f}   {exact:9.5f}"
    )

print(
    "\nMore rivals push the optimal offer up and the achievable utility down; "
    "each extra exchangeable rival multiplies the win probability by the "
    "single-rival factor."
)
