"""Scenario files: JSON descriptions of complete pricing problems.

A scenario file carries a ``kind`` discriminator (retail, pension, or
template), the full parameter record for that engine, a seed, and output
preferences.  Parsing validates the schema first and then every domain
invariant, reporting all violations with field paths; the same record
round-trips back to JSON unchanged.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import PriceGrid
from .pension import ExitProfile, PensionScenario
from .randkit import CategoricalPMF, InverseGammaParams
from .retail import REFINED_FORECAST_FACTOR, RetailScenario

__all__ = [
    "WORK_BUDGET",
    "ScenarioError",
    "MissingFileError",
    "SchemaError",
    "InvariantError",
    "TemplateScenario",
    "ScenarioFile",
    "parse_scenario",
    "check_compare_budget",
    "scenario_to_dict",
    "bundled_case",
    "bundled_case_names",
]

KINDS = ("retail", "pension", "template")
FORMATS = ("csv", "json")
_FLOAT_MAX = sys.float_info.max

# Most elements (256 MiB as float64) that one command may allocate or
# evaluate for a scenario: grid points x draws, draws x rivals.  Counted
# from the parameters before anything is allocated; an overrun is an
# invariant violation (exit 4).  ``compare`` is also held to its refined
# forecast, which ``run`` and ``validate`` never build.
WORK_BUDGET = 1 << 25


class ScenarioError(Exception):
    """Base class; ``exit_code`` maps onto the CLI contract."""

    exit_code = 1


class MissingFileError(ScenarioError):
    exit_code = 2


class SchemaError(ScenarioError):
    exit_code = 3


class InvariantError(ScenarioError):
    exit_code = 4


@dataclass(frozen=True)
class TemplateScenario:
    """Generic one-vs-one pricing instance runnable from a file.

    The customer follows the probit / marginalized-t discrete choice
    model; the rival's price is a fixed list or pmf of candidate prices.
    Arbitrary utility families and outcome models are available through
    the library API; the file format covers the price-only template.
    """

    cost: float
    grid: PriceGrid
    competitor_prices: object  # CategoricalPMF or array of floats
    choice_sigma: float | None = None
    choice_noise: InverseGammaParams | None = None
    n_draws: int = 1000

    def violations(self) -> list[str]:
        bad = []
        if (self.choice_sigma is None) == (self.choice_noise is None):
            bad.append("choice: exactly one of sigma / t noise params required")
        if self.choice_sigma is not None and self.choice_sigma <= 0:
            bad.append(f"choice.sigma: must be positive, got {self.choice_sigma}")
        if self.n_draws < 1:
            bad.append(f"n_draws: must be >= 1, got {self.n_draws}")
        if not isinstance(self.competitor_prices, CategoricalPMF):
            arr = np.asarray(self.competitor_prices, dtype=float)
            if arr.size == 0:
                bad.append("competitor_prices: must be nonempty")
        return bad


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario: kind, engine parameters, seed, output settings."""

    kind: str
    params: object
    seed: int
    output: str | None = None
    format: str = "csv"


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


_NUMBER = (int, float)
_TYPE_NAMES = {
    _NUMBER: "number",
    int: "integer",
    str: "string",
    dict: "object",
    list: "array",
}


def _require(obj: dict, key: str, types, path: str, problems: list):
    """``obj[key]`` if present and of JSON type ``types``, else None with a
    schema problem recorded."""
    if key not in obj:
        problems.append(f"{path}.{key}: missing")
        return None
    value = obj[key]
    if not isinstance(value, types):
        problems.append(
            f"{path}.{key}: expected {_TYPE_NAMES[types]}, got {type(value).__name__}"
        )
        return None
    return value


def _number(obj, key, path, problems, optional=False):
    if optional and key not in obj:
        return None
    return _require(obj, key, _NUMBER, path, problems)


def _numbers(obj, key, path, problems):
    """A list of numbers at ``obj[key]``, else None with a schema problem."""
    values = _require(obj, key, list, path, problems)
    if values is None:
        return None
    for i, v in enumerate(values):
        if not isinstance(v, _NUMBER):
            kind = type(v).__name__
            problems.append(f"{path}.{key}[{i}]: expected number, got {kind}")
            return None
    return values


def _literal_problems(node, path: str) -> list[str]:
    """Booleans and non-finite numbers anywhere in the file.

    No scenario field takes either, and JSON ``true`` would otherwise pass
    as the integer 1, ``NaN``/``Infinity`` as floats, and an integer
    beyond the float range would overflow its conversion.
    """
    if isinstance(node, bool):
        return [f"{path}: a bool is not a valid value"]
    if isinstance(node, (int, float)) and not -_FLOAT_MAX <= node <= _FLOAT_MAX:
        return [f"{path}: {node!r:.24} is not a finite number"]
    if isinstance(node, dict):
        children = ((f"{path}.{k}", v) for k, v in node.items())
    elif isinstance(node, list):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return []
    return [p for where, v in children for p in _literal_problems(v, where)]


def _grid(obj, key, path, problems, invariants):
    raw = _require(obj, key, dict, path, problems)
    if raw is None:
        return None
    lo = _number(raw, "min", f"{path}.{key}", problems)
    hi = _number(raw, "max", f"{path}.{key}", problems)
    step = _number(raw, "step", f"{path}.{key}", problems)
    if None in (lo, hi, step):
        return None
    try:
        return PriceGrid(float(lo), float(hi), float(step))
    except ValueError as exc:
        invariants.append(f"{path}.{key}: {exc}")
        return None


def _igamma(obj, key, path, problems, invariants, optional=False):
    if optional and key not in obj:
        return None
    raw = _require(obj, key, dict, path, problems)
    if raw is None:
        return None
    shape = _number(raw, "shape", f"{path}.{key}", problems)
    scale = _number(raw, "scale", f"{path}.{key}", problems)
    if None in (shape, scale):
        return None
    try:
        return InverseGammaParams(float(shape), float(scale))
    except ValueError as exc:
        invariants.append(f"{path}.{key}: {exc}")
        return None


def _pmf(obj, key, path, problems, invariants):
    raw = _require(obj, key, dict, path, problems)
    if raw is None:
        return None
    values = _numbers(raw, "values", f"{path}.{key}", problems)
    probs = _numbers(raw, "probs", f"{path}.{key}", problems)
    if values is None or probs is None:
        return None
    try:
        return CategoricalPMF(tuple(values), tuple(probs))
    except ValueError as exc:
        invariants.append(f"{path}.{key}: {exc}")
        return None


def _work_problems(kind: str, params, compare: bool) -> list[str]:
    """Element counts of ``params`` above :data:`WORK_BUDGET`, for ``run``
    and ``validate`` or, with ``compare``, for ``price compare``."""
    if kind == "retail":
        grid = params.price_grid.count()
        forecast = float(params.n1) * params.n2 * params.competitor_grid.count()
        counts = {"price grid x n1": grid * params.n1}
        if params.known_competitor_price is None:
            counts["n1 x n2 x competitor grid"] = forecast
            if compare:
                counts[
                    f"n1 x n2 x competitor grid x {REFINED_FORECAST_FACTOR} (compare)"
                ] = REFINED_FORECAST_FACTOR * forecast
    elif kind == "pension":
        counts = {
            "offer_grid x competitor offers x horizon": (
                params.offer_grid.count()
                * len(params.competitor_offers.values) * params.horizon
            ),
            "mc_draws x n_competitors": float(params.mc_draws) * params.n_competitors,
        }
    else:
        counts = {"grid x n_draws": params.grid.count() * params.n_draws}
    return [
        f"params: {what} is {count:.4g} elements, over the work budget of {WORK_BUDGET}"
        for what, count in counts.items()
        if count > WORK_BUDGET
    ]


def _parse_retail(
    params: dict, problems: list, invariants: list
) -> RetailScenario | None:
    path = "params"
    cost = _number(params, "cost", path, problems)
    competitor_cost = _number(params, "competitor_cost", path, problems)
    max_price = _number(params, "max_price", path, problems)
    competitor_max_price = _number(params, "competitor_max_price", path, problems)
    customer_noise = _igamma(params, "customer_noise", path, problems, invariants)
    competitor_noise = _igamma(params, "competitor_noise", path, problems, invariants)
    prior_exponent = _number(params, "prior_exponent", path, problems)
    grid_step = _number(params, "grid_step", path, problems)
    n1 = _require(params, "n1", int, path, problems)
    n2 = _require(params, "n2", int, path, problems)
    fixed_sigma = _number(params, "fixed_sigma", path, problems, optional=True)
    known = _number(params, "known_competitor_price", path, problems, optional=True)
    variant = params.get("utility_variant", "non_perishable")
    if problems or invariants:
        return None
    scenario = RetailScenario(
        cost=float(cost),
        competitor_cost=float(competitor_cost),
        max_price=float(max_price),
        competitor_max_price=float(competitor_max_price),
        customer_noise=customer_noise,
        competitor_noise=competitor_noise,
        prior_exponent=float(prior_exponent),
        grid_step=float(grid_step),
        n1=int(n1),
        n2=int(n2),
        fixed_sigma=None if fixed_sigma is None else float(fixed_sigma),
        known_competitor_price=None if known is None else float(known),
        utility_variant=str(variant),
    )
    invariants.extend(f"params.{v}" for v in scenario.violations())
    return scenario


def _parse_pension(
    params: dict, problems: list, invariants: list
) -> PensionScenario | None:
    path = "params"
    capital = _number(params, "capital", path, problems)
    earn_rate = _number(params, "earn_rate", path, problems)
    offer_grid = _grid(params, "offer_grid", path, problems, invariants)
    horizon = _require(params, "horizon", int, path, problems)
    penalty = _number(params, "penalty_fraction", path, problems)
    exit_raw = _numbers(params, "exit_profile", path, problems)
    offers = _pmf(params, "competitor_offers", path, problems, invariants)
    n_comp = _require(params, "n_competitors", int, path, problems)
    rho = _numbers(params, "risk_aversion", path, problems)
    money_unit = _number(params, "money_unit", path, problems)
    score = params.get("score_class", "none")
    draws = _require(params, "mc_draws", int, path, problems)
    if rho is not None and len(rho) != 2:
        problems.append("params.risk_aversion: expected [low, high]")
    if problems or invariants:
        return None
    scenario = PensionScenario(
        capital=float(capital),
        earn_rate=float(earn_rate),
        offer_grid=offer_grid,
        horizon=int(horizon),
        exit_profile=ExitProfile(tuple(exit_raw)),
        competitor_offers=offers,
        penalty_fraction=float(penalty),
        n_competitors=int(n_comp),
        risk_aversion=(float(rho[0]), float(rho[1])),
        money_unit=float(money_unit),
        score_class=str(score),
        mc_draws=int(draws),
    )
    invariants.extend(f"params.{v}" for v in scenario.violations())
    return scenario


def _parse_template(
    params: dict, problems: list, invariants: list
) -> TemplateScenario | None:
    path = "params"
    cost = _number(params, "cost", path, problems)
    grid = _grid(params, "grid", path, problems, invariants)
    n_draws = _require(params, "n_draws", int, path, problems)
    choice = _require(params, "choice", dict, path, problems)
    sigma = None
    noise = None
    if choice is not None:
        sigma = _number(choice, "sigma", f"{path}.choice", problems, optional=True)
        noise = _igamma(
            choice, "t_noise", f"{path}.choice", problems, invariants, optional=True
        )
    raw_prices = params.get("competitor_prices")
    prices: object
    if isinstance(raw_prices, dict):
        prices = _pmf(params, "competitor_prices", path, problems, invariants)
    elif isinstance(raw_prices, list) and raw_prices:
        prices = _numbers(params, "competitor_prices", path, problems)
        prices = None if prices is None else tuple(float(v) for v in prices)
    else:
        problems.append(f"{path}.competitor_prices: expected a list or a pmf object")
        prices = None
    if problems or invariants:
        return None
    scenario = TemplateScenario(
        cost=float(cost),
        grid=grid,
        competitor_prices=prices,
        choice_sigma=None if sigma is None else float(sigma),
        choice_noise=noise,
        n_draws=int(n_draws),
    )
    invariants.extend(f"params.{v}" for v in scenario.violations())
    return scenario


def parse_scenario(path) -> ScenarioFile:
    """Load and fully validate a scenario file.

    Raises MissingFileError, SchemaError (malformed JSON, or a missing
    field or wrong JSON type anywhere in the file) or InvariantError; the
    last two list every problem with its field path.  The work budget is
    that of ``price run``; see :func:`check_compare_budget`.
    """
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"scenario file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{p}: top level must be an object")

    schema_problems: list[str] = []
    kind = _require(raw, "kind", str, "scenario", schema_problems)
    params = _require(raw, "params", dict, "scenario", schema_problems)
    seed = _require(raw, "seed", int, "scenario", schema_problems)
    output = raw.get("output")
    fmt = raw.get("format", "csv")
    if kind is not None and kind not in KINDS:
        schema_problems.append(f"scenario.kind: {kind!r} not one of {KINDS}")
    if fmt not in FORMATS:
        schema_problems.append(f"scenario.format: {fmt!r} not one of {FORMATS}")
    if output is not None and not isinstance(output, str):
        schema_problems.append("scenario.output: expected a string path")
    if seed is not None and isinstance(seed, int) and not 0 <= seed < 2**64:
        schema_problems.append("scenario.seed: must fit in 64 unsigned bits")
    schema_problems.extend(_literal_problems(raw, "scenario"))
    if schema_problems:
        raise SchemaError("; ".join(schema_problems))

    invariant_problems: list[str] = []
    parser = {
        "retail": _parse_retail,
        "pension": _parse_pension,
        "template": _parse_template,
    }[kind]
    scenario = parser(params, schema_problems, invariant_problems)
    if schema_problems:
        raise SchemaError("; ".join(schema_problems))
    if not invariant_problems:
        invariant_problems = _work_problems(kind, scenario, compare=False)
    if invariant_problems:
        raise InvariantError("; ".join(invariant_problems))
    return ScenarioFile(
        kind=kind, params=scenario, seed=seed, output=output, format=fmt
    )


def check_compare_budget(scenario: ScenarioFile) -> None:
    """Raise InvariantError if ``price compare`` would overrun the work
    budget on a parsed scenario: it also builds the refined rival forecast,
    which ``run`` and ``validate`` never build."""
    problems = _work_problems(scenario.kind, scenario.params, compare=True)
    if problems:
        raise InvariantError("; ".join(problems))


# ---------------------------------------------------------------------------
# serialization (round-trip partner of parse_scenario)
# ---------------------------------------------------------------------------


def _grid_dict(grid: PriceGrid) -> dict:
    return {"min": grid.min, "max": grid.max, "step": grid.step}


def scenario_to_dict(sc: ScenarioFile) -> dict:
    params = sc.params
    if sc.kind == "retail":
        body = {
            "cost": params.cost,
            "competitor_cost": params.competitor_cost,
            "max_price": params.max_price,
            "competitor_max_price": params.competitor_max_price,
            "customer_noise": {
                "shape": params.customer_noise.shape,
                "scale": params.customer_noise.scale,
            },
            "competitor_noise": {
                "shape": params.competitor_noise.shape,
                "scale": params.competitor_noise.scale,
            },
            "prior_exponent": params.prior_exponent,
            "grid_step": params.grid_step,
            "n1": params.n1,
            "n2": params.n2,
            "utility_variant": params.utility_variant,
        }
        if params.fixed_sigma is not None:
            body["fixed_sigma"] = params.fixed_sigma
        if params.known_competitor_price is not None:
            body["known_competitor_price"] = params.known_competitor_price
    elif sc.kind == "pension":
        body = {
            "capital": params.capital,
            "earn_rate": params.earn_rate,
            "offer_grid": _grid_dict(params.offer_grid),
            "horizon": params.horizon,
            "penalty_fraction": params.penalty_fraction,
            "exit_profile": list(params.exit_profile.q_exit),
            "competitor_offers": {
                "values": list(params.competitor_offers.values),
                "probs": list(params.competitor_offers.probs),
            },
            "n_competitors": params.n_competitors,
            "risk_aversion": list(params.risk_aversion),
            "money_unit": params.money_unit,
            "score_class": params.score_class,
            "mc_draws": params.mc_draws,
        }
    else:
        body = {
            "cost": params.cost,
            "grid": _grid_dict(params.grid),
            "n_draws": params.n_draws,
        }
        if isinstance(params.competitor_prices, CategoricalPMF):
            body["competitor_prices"] = {
                "values": list(params.competitor_prices.values),
                "probs": list(params.competitor_prices.probs),
            }
        else:
            body["competitor_prices"] = list(params.competitor_prices)
        if params.choice_sigma is not None:
            body["choice"] = {"sigma": params.choice_sigma}
        else:
            body["choice"] = {
                "t_noise": {
                    "shape": params.choice_noise.shape,
                    "scale": params.choice_noise.scale,
                }
            }
    out = {"kind": sc.kind, "seed": sc.seed, "format": sc.format, "params": body}
    if sc.output is not None:
        out["output"] = sc.output
    return out


# ---------------------------------------------------------------------------
# bundled cases
# ---------------------------------------------------------------------------


def bundled_case_names() -> list[str]:
    root = resources.files("araprice").joinpath("cases")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_case(name: str) -> Path:
    """Filesystem path of a bundled case scenario (without .json suffix)."""
    root = resources.files("araprice").joinpath("cases")
    target = root.joinpath(f"{name}.json")
    with resources.as_file(target) as concrete:
        if not concrete.is_file():
            raise MissingFileError(
                f"no bundled case {name!r}; available: {bundled_case_names()}"
            )
        return concrete
