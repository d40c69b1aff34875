"""Scenario files: JSON descriptions of complete pricing problems.

A scenario file carries a ``kind`` discriminator (retail, pension, or
template), the full parameter record for that engine, a seed, and output
preferences.  The top level and each kind's ``params`` are read through
field tables, which map every key to ``(reader, required)``.  A reader
takes ``(value, path, problems, invariants)`` and returns what it read, or
None once it has recorded why not.  Parsing checks the schema first (a
missing or unknown key, a wrong JSON type, a bool, a non-finite number)
and then every domain invariant, reporting all violations with field paths.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import PriceGrid
from .pension import ExitProfile, PensionScenario, utility_evaluations
from .randkit import CategoricalPMF, InverseGammaParams
from .retail import REFINED_FORECAST_FACTOR, RetailScenario

__all__ = [
    "WORK_BUDGET",
    "OUTPUT_COLUMNS",
    "ScenarioError",
    "MissingFileError",
    "SchemaError",
    "InvariantError",
    "TemplateScenario",
    "ScenarioFile",
    "parse_scenario",
    "check_compare_budget",
    "bundled_case",
    "bundled_case_names",
]

KINDS = ("retail", "pension", "template")
FORMATS = ("csv", "json")
_FLOAT_MAX = sys.float_info.max

# Most elements (2^25) that one command may evaluate for a scenario: grid
# points x draws, pension draws (one risk aversion each, at any rival
# count), pension utility terms, grid points x output columns.  Counted
# before the engine runs, they are safety bounds: the grid scorers score
# a sample's distinct rival states, not its draws, and like the rival
# forecast work in row blocks; held whole are draw samples, the
# forecast's n1 x n2 uniforms, the pension offer grid x offers x horizon
# tie matrix and the output table, which their own entries bound.  An
# overrun is an invariant violation (exit 4).  ``compare`` is also held
# to its refined forecast and the template oracle's grid x
# competitor-price win table, which ``run`` and ``validate`` never build.
WORK_BUDGET = 1 << 25

# The curve columns that ``price run`` writes, one row per grid point.
OUTPUT_COLUMNS = {
    "retail": ("price", "accept_prob", "expected_utility", "std_err"),
    "pension": ("price", "accept_prob", "expected_utility", "benefit_next_year",
                "benefit_horizon", "std_err"),
    "template": ("price", "accept_prob", "expected_utility", "std_err"),
}
_GRID_FIELD = {"retail": "price_grid", "pension": "offer_grid", "template": "grid"}


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
# the schema: ``problems`` are schema violations (exit 3), ``invariants``
# domain invariant violations (exit 4)
# ---------------------------------------------------------------------------


def _typed(value, types, name: str, path: str, problems: list):
    """``value`` if it has JSON type ``types``, else None with a schema
    problem.  No field takes a bool, which would pass as the integer 1, or
    a number beyond the float range (NaN, the infinities, an integer that
    would overflow its conversion)."""
    if isinstance(value, bool):
        problems.append(f"{path}: a bool is not a valid value")
    elif not isinstance(value, types):
        problems.append(f"{path}: expected {name}, got {type(value).__name__}")
    elif isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        problems.append(f"{path}: {value!r:.24} is not a finite number")
    else:
        return value
    return None


def _number(value, path, problems, invariants):
    value = _typed(value, (int, float), "number", path, problems)
    return None if value is None else float(value)


def _integer(value, path, problems, invariants):
    return _typed(value, int, "integer", path, problems)


def _string(value, path, problems, invariants):
    return _typed(value, str, "string", path, problems)


def _object(value, path, problems, invariants):
    return _typed(value, dict, "object", path, problems)


def _numbers(value, path, problems, invariants):
    """A list of numbers, as a tuple of floats."""
    if _typed(value, list, "array", path, problems) is None:
        return None
    items = [_number(v, f"{path}[{i}]", problems, invariants) for i, v in enumerate(value)]
    return None if None in items else tuple(items)


def _one_of(options: tuple):
    """A reader of a string in ``options``."""
    def read(value, path, problems, invariants):
        value = _string(value, path, problems, invariants)
        if value is None or value in options:
            return value
        problems.append(f"{path}: {value!r} not one of {options}")
        return None
    return read


def _seed(value, path, problems, invariants):
    seed = _integer(value, path, problems, invariants)
    if seed is None or 0 <= seed < 2**64:
        return seed
    problems.append(f"{path}: must fit in 64 unsigned bits")
    return None


def _names_a_file(base: str) -> bool:
    """Whether the output path base ``base`` ends in a file name: its last
    component is not empty, ``.`` or ``..``."""
    return os.path.basename(base) not in ("", ".", "..")


def _output(value, path, problems, invariants):
    value = _string(value, path, problems, invariants)
    if value is None or _names_a_file(value):
        return value
    problems.append(f"{path}: {value!r} does not end in a file name")
    return None


def _read_object(value, fields: dict, path: str, problems: list, invariants: list):
    """The keys of the JSON object ``value``, each read by its reader in
    ``fields``; None if ``value`` is not an object.  A missing required
    key and an unknown key are schema problems."""
    if _object(value, path, problems, invariants) is None:
        return None
    read = {}
    for key, (reader, required) in fields.items():
        if key in value:
            read[key] = reader(value[key], f"{path}.{key}", problems, invariants)
        elif required:
            problems.append(f"{path}.{key}: missing")
    problems.extend(f"{path}.{key}: unknown field" for key in value if key not in fields)
    return read


def _record(build, **fields):
    """A reader of a JSON object into ``build(**values)``, with ``fields``
    as its table.  A missing optional key stays out of the call, so that
    ``build``'s default applies; a ValueError from ``build`` is an
    invariant violation."""
    def read(value, path, problems, invariants):
        seen = len(problems)
        values = _read_object(value, fields, path, problems, invariants)
        if len(problems) > seen or None in values.values():
            return None
        try:
            return build(**values)
        except ValueError as exc:
            invariants.append(f"{path}: {exc}")
            return None
    return read


def _exit_profile(value, path, problems, invariants):
    q_exit = _numbers(value, path, problems, invariants)
    return None if q_exit is None else ExitProfile(q_exit)


def _low_high(value, path, problems, invariants):
    pair = _numbers(value, path, problems, invariants)
    if pair is None or len(pair) == 2:
        return pair
    problems.append(f"{path}: expected [low, high]")
    return None


_IGAMMA = _record(InverseGammaParams, shape=(_number, True), scale=(_number, True))
_GRID = _record(PriceGrid, min=(_number, True), max=(_number, True), step=(_number, True))
_PMF = _record(CategoricalPMF, values=(_numbers, True), probs=(_numbers, True))


def _rival_prices(value, path, problems, invariants):
    """The template's rival prices: a pmf object or a nonempty list."""
    if isinstance(value, dict):
        return _PMF(value, path, problems, invariants)
    if isinstance(value, list) and value:
        return _numbers(value, path, problems, invariants)
    problems.append(f"{path}: expected a list or a pmf object")
    return None


def _template(choice: dict, **fields) -> TemplateScenario:
    return TemplateScenario(
        choice_sigma=choice.get("sigma"), choice_noise=choice.get("t_noise"), **fields
    )


_PARAMS = {
    "retail": _record(
        RetailScenario,
        cost=(_number, True),
        competitor_cost=(_number, True),
        max_price=(_number, True),
        competitor_max_price=(_number, True),
        customer_noise=(_IGAMMA, True),
        competitor_noise=(_IGAMMA, True),
        prior_exponent=(_number, True),
        grid_step=(_number, True),
        n1=(_integer, True),
        n2=(_integer, True),
        fixed_sigma=(_number, False),
        known_competitor_price=(_number, False),
        utility_variant=(_string, False),
    ),
    "pension": _record(
        PensionScenario,
        capital=(_number, True),
        earn_rate=(_number, True),
        offer_grid=(_GRID, True),
        horizon=(_integer, True),
        penalty_fraction=(_number, True),
        exit_profile=(_exit_profile, True),
        competitor_offers=(_PMF, True),
        n_competitors=(_integer, True),
        risk_aversion=(_low_high, True),
        money_unit=(_number, True),
        score_class=(_string, False),
        mc_draws=(_integer, True),
    ),
    "template": _record(
        _template,
        cost=(_number, True),
        grid=(_GRID, True),
        competitor_prices=(_rival_prices, True),
        choice=(_record(dict, sigma=(_number, False), t_noise=(_IGAMMA, False)), True),
        n_draws=(_integer, True),
    ),
}
_TOP = {
    "kind": (_one_of(KINDS), True),
    "params": (_object, True),  # read by the table of its kind
    "seed": (_seed, True),
    "output": (_output, False),
    "format": (_one_of(FORMATS), False),
}


def _work_problems(kind: str, params, compare: bool) -> list[str]:
    """Element counts of ``params`` above :data:`WORK_BUDGET`, for ``run``
    and ``validate`` or, with ``compare``, for ``price compare`` of a parsed
    scenario, whose pension utility count is not taken again."""
    grid = getattr(params, _GRID_FIELD[kind]).count()
    columns = len(OUTPUT_COLUMNS[kind])
    counts = {f"price grid x {columns} output columns": grid * columns}
    if kind == "retail":
        forecast = float(params.n1) * params.n2 * params.competitor_grid.count()
        counts["price grid x n1"] = grid * params.n1
        if params.known_competitor_price is None:
            counts["n1 x n2 x competitor grid"] = forecast
            if compare:
                counts[
                    f"n1 x n2 x competitor grid x {REFINED_FORECAST_FACTOR} (compare)"
                ] = REFINED_FORECAST_FACTOR * forecast
    elif kind == "pension":
        counts["offer_grid x competitor offers x horizon"] = (
            grid * len(params.competitor_offers.values) * params.horizon
        )
        counts["mc_draws"] = float(params.mc_draws)
        if not compare and max(counts.values()) <= WORK_BUDGET:
            counts["pension utility terms"] = utility_evaluations(params)
    else:
        counts["grid x n_draws"] = grid * params.n_draws
        if compare:
            prices = params.competitor_prices
            prices = prices.values if isinstance(prices, CategoricalPMF) else prices
            counts["grid x competitor prices (compare)"] = grid * len(prices)
    return [
        f"params: {what} is {count:.4g} elements, over the work budget of {WORK_BUDGET}"
        for what, count in counts.items()
        if count > WORK_BUDGET
    ]


def parse_scenario(path) -> ScenarioFile:
    """Load and fully validate a scenario file.

    Raises MissingFileError, SchemaError (malformed JSON, or a missing
    field, an unknown key or a wrong JSON type anywhere in the file) or
    InvariantError; the last two list every problem with its field path.
    The top level and the ``params`` of each kind are read through field
    tables.  The work budget is that of ``price run``; see
    :func:`check_compare_budget`.
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

    problems: list[str] = []
    invariants: list[str] = []
    top = _read_object(raw, _TOP, "scenario", problems, invariants)
    if top.get("kind") is not None and top.get("params") is not None:
        top["params"] = _PARAMS[top["kind"]](top["params"], "params", problems, invariants)
    if problems:
        raise SchemaError("; ".join(problems))
    scenario = ScenarioFile(**top)
    if scenario.params is not None:  # None when a nested record broke an invariant
        invariants.extend(f"params.{v}" for v in scenario.params.violations())
    if not invariants:
        invariants = _work_problems(scenario.kind, scenario.params, compare=False)
    if invariants:
        raise InvariantError("; ".join(invariants))
    return scenario


def check_compare_budget(scenario: ScenarioFile) -> None:
    """Raise InvariantError if ``price compare`` would overrun the work
    budget on a parsed scenario: it also builds the refined rival forecast
    and the template oracle's win table, which ``run`` and ``validate``
    never build."""
    problems = _work_problems(scenario.kind, scenario.params, compare=True)
    if problems:
        raise InvariantError("; ".join(problems))


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
