"""Pricing decision support under competition.

The package forecasts what competitors will charge and what a customer
will choose, both under explicitly modeled uncertainty, and returns the
price maximizing the supported producer's expected utility.  A generic
n-producer template lives in :mod:`araprice.core`; two ready-to-run
specializations cover retail discounting (:mod:`araprice.retail`) and
pension-fund offers (:mod:`araprice.pension`).  Every Monte Carlo
estimator has an exact or quadrature twin in :mod:`araprice.oracle`, and
scenario JSON files run from the ``price`` command line.
"""

__version__ = "0.1.0"

from .core import (
    AgentBeliefs,
    ChoiceOutcome,
    EvaluationCurve,
    OutcomeModel,
    PriceGrid,
    ProducerUtility,
    RandomUtilitySpec,
    ValidationConfig,
    ValidationReport,
    customer_choice_probs,
    realize_choice,
    sample_competitor_optimal_price,
    solve_supported_price,
    validate_problem,
)
from .oracle import (
    OracleReport,
    compare,
    exact_pension_acceptance,
    quadrature_competitor_objective,
    quadrature_retail_utility,
)
from .pension import (
    ExitProfile,
    OfferEvaluation,
    PensionScenario,
    acceptance_probability,
    acceptance_probability_reduced,
    customer_expected_utility,
    expected_benefit,
    optimize_offer,
)
from .randkit import (
    CategoricalPMF,
    EmpiricalDistribution,
    InverseGammaParams,
    PowerPricePrior,
    RngStream,
    normal_cdf,
    sample_inverse_gamma,
    student_t_cdf,
)
from .retail import (
    RetailScenario,
    estimate_expected_utility,
    optimize_price,
    probit_choice_prob,
    sample_competitor_prices,
    t_choice_prob,
)
from .scenario import (
    ScenarioFile,
    TemplateScenario,
    bundled_case,
    bundled_case_names,
    parse_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
