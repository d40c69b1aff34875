"""The ``price`` command: run, validate, and oracle-check scenario files.

Exit codes: 0 success, 2 missing file, 3 schema violation, 4 invariant
violation, 5 numeric failure; ``compare`` exits 1 when the engine and
oracle disagree beyond the z threshold.  Outputs embed seed, draw counts
and engine version, and are byte-identical across reruns with the same
seed.  Every run uses one thread; ``--workers`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    AgentBeliefs,
    EvaluationCurve,
    ProducerUtility,
    solve_supported_price,
)
from .oracle import (
    compare,
    exact_pension_acceptance,
    quadrature_retail_utility,
)
from .pension import OfferEvaluation, optimize_offer
from .randkit import CategoricalPMF, RngStream
from .retail import (
    REFINED_FORECAST_FACTOR,
    optimize_price,
    probit_choice_prob,
    sample_competitor_prices,
    t_choice_prob,
)
from .scenario import (
    ScenarioError,
    ScenarioFile,
    TemplateScenario,
    check_compare_budget,
    parse_scenario,
)

RETAIL_COLUMNS = ("price", "accept_prob", "expected_utility", "std_err")
PENSION_COLUMNS = (
    "price",
    "accept_prob",
    "expected_utility",
    "benefit_next_year",
    "benefit_horizon",
    "std_err",
)


def _fmt(value) -> str:
    return repr(float(value))


def _curve_table(result) -> tuple[tuple, list[list[float]]]:
    cols = PENSION_COLUMNS if isinstance(result, OfferEvaluation) else RETAIL_COLUMNS
    rows = zip(result.prices, *(getattr(result, name) for name in cols[1:]))
    return cols, [[float(v) for v in row] for row in rows]


def _summary(result, scenario: ScenarioFile) -> dict:
    params = scenario.params
    if scenario.kind == "retail":
        n1, n2 = params.n1, params.n2
    else:
        n1 = params.mc_draws if scenario.kind == "pension" else params.n_draws
        n2 = None
    benefits = {
        name: float(getattr(result, name)[result.optimum_index])
        if hasattr(result, name) else None
        for name in ("benefit_next_year", "benefit_horizon")
    }
    return {
        "optimum": result.optimum,
        "accept_prob_at_optimum": result.accept_at_optimum,
        "expected_utility": result.optimum_utility,
        **benefits,
        "seed": scenario.seed,
        "n1": n1,
        "n2": n2,
        "wall_ms": None,  # kept out of files so reruns are byte-identical
        "engine_version": __version__,
    }


def _metadata_line(scenario: ScenarioFile, summary: dict) -> str:
    return (
        f"# araprice {__version__} kind={scenario.kind} seed={scenario.seed} "
        f"n1={summary['n1']} n2={summary['n2']}"
    )


def _check_finite(cols, rows, summary: dict) -> None:
    """Raise FloatingPointError on a non-finite curve or summary value."""
    for row in rows:
        for col, value in zip(cols, row):
            if not np.isfinite(value):
                raise FloatingPointError(f"{col} is {value} at price {row[0]}")
    for key, value in summary.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise FloatingPointError(f"summary {key} is {value}")


def _render_outputs(result, scenario: ScenarioFile, out_base: Path) -> dict:
    """Output path -> file text; raises before any file exists when a value
    is not finite."""
    cols, rows = _curve_table(result)
    summary = _summary(result, scenario)
    _check_finite(cols, rows, summary)
    if scenario.format == "csv":
        lines = [_metadata_line(scenario, summary), ",".join(cols)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return {
            out_base.with_suffix(".csv"): "\n".join(lines) + "\n",
            out_base.with_suffix(".summary.json"): _dumps(summary),
        }
    payload = {"summary": summary, "curve": {"columns": list(cols), "rows": rows}}
    return {out_base.with_suffix(".json"): _dumps(payload)}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _template_choice(params: TemplateScenario):
    """P(the customer buys at ``own`` against ``rivals``), as the file sets it."""
    if params.choice_sigma is not None:
        return lambda own, rivals: probit_choice_prob(own, rivals, params.choice_sigma)
    return lambda own, rivals: t_choice_prob(own, rivals, params.choice_noise)


def _run_template(params: TemplateScenario, rng: RngStream) -> EvaluationCurve:
    """A pmf of rival prices is sampled by the solver; a list is resampled
    here and used verbatim."""
    beliefs = params.competitor_prices
    if isinstance(beliefs, CategoricalPMF):
        beliefs = AgentBeliefs((beliefs,))
    else:
        values = np.asarray(beliefs, dtype=float)
        beliefs = values[rng.generator.integers(0, values.size, params.n_draws)]
    _, curve = solve_supported_price(
        params.grid,
        ProducerUtility.margin(params.cost),
        beliefs,
        _template_choice(params),
        n_draws=params.n_draws,
        rng=rng,
    )
    return curve


def _run_engine(scenario: ScenarioFile, seed: int):
    rng = RngStream(seed)
    if scenario.kind == "retail":
        return optimize_price(scenario.params, rng)
    if scenario.kind == "pension":
        return optimize_offer(scenario.params, rng)
    return _run_template(scenario.params, rng)


def cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    scenario = dataclasses.replace(scenario, seed=seed)
    out_base = Path(
        args.out
        or scenario.output
        or Path(args.scenario).with_suffix("").name + "_result"
    )
    started = time.perf_counter()
    try:  # no numpy warnings: _check_finite reports a non-finite value
        with np.errstate(all="ignore"):
            result = _run_engine(scenario, seed)
            wall_ms = int(round(1000 * (time.perf_counter() - started)))
            outputs = _render_outputs(result, scenario, out_base)
    except (FloatingPointError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5
    for path, text in outputs.items():
        path.write_text(text)
    print(
        f"optimum={result.optimum} accept={result.accept_at_optimum:.4f} "
        f"expected_utility={result.optimum_utility:.6g} seed={seed} "
        f"wall_ms={wall_ms}"
    )
    for path in outputs:
        print(f"wrote {path}")
    return 0


def _oracle_values(scenario: ScenarioFile, result, seed: int):
    """Per-grid-point oracle values and the engine columns to test them against."""
    params = scenario.params
    if scenario.kind == "pension":
        oracle = [
            exact_pension_acceptance(float(h), params) for h in result.offers
        ]
        return result.offers, result.accept_prob, result.std_err, oracle
    if scenario.kind == "retail":
        if params.known_competitor_price is not None:
            density = float(params.known_competitor_price)
        else:
            # refined forecast: same sampler, fresh stream, a larger sample
            density = sample_competitor_prices(
                dataclasses.replace(params, n1=REFINED_FORECAST_FACTOR * params.n1),
                RngStream(seed, stream_id=0xFACE),
            )
        oracle = [
            quadrature_retail_utility(float(p), params, density=density)
            for p in result.prices
        ]
        return result.prices, result.expected_utility, result.std_err, oracle
    # template: exact integration over the finite competitor-price distribution
    if isinstance(params.competitor_prices, CategoricalPMF):
        values = np.asarray(params.competitor_prices.values)
        weights = np.asarray(params.competitor_prices.probs)
    else:
        values = np.asarray(params.competitor_prices, dtype=float)
        weights = np.full(values.size, 1.0 / values.size)
    win = _template_choice(params)(result.prices[:, None], values[None, :])
    oracle = (result.prices - params.cost) * (win @ weights)
    return result.prices, result.expected_utility, result.std_err, list(oracle)


def cmd_compare(args) -> int:
    scenario = parse_scenario(args.scenario)
    check_compare_budget(scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    try:  # no numpy warnings: _check_finite reports a non-finite value
        with np.errstate(all="ignore"):
            result = _run_engine(scenario, seed)
            prices, estimates, std_errs, oracle = _oracle_values(scenario, result, seed)
            _check_finite(
                ("price", "estimate", "std_err", "oracle"),
                zip(prices, estimates, std_errs, oracle),
                {},
            )
    except (FloatingPointError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5
    report = compare(prices, estimates, std_errs, oracle, z_threshold=args.z)
    out_base = Path(args.out or Path(args.scenario).with_suffix("").name)
    report_path = out_base.with_suffix(".oracle.json")
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: max |z| = {report.max_abs_z:.3f} "
        f"(threshold {report.z_threshold}) over {len(report.rows)} grid points"
    )
    print(f"wrote {report_path}")
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    print(
        f"OK: valid {scenario.kind} scenario "
        f"(seed={scenario.seed}, format={scenario.format})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Pricing decision support under competition.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write curve + summary")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the file seed")
    run.add_argument("--out", default=None, help="output path base")
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="run and z-test against the exact oracle")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--z", type=float, default=3.0, help="|z| pass threshold")
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(fn=cmd_compare)
    for command in (run, cmp_):
        command.add_argument(
            "--workers", type=int, default=None,
            help="accepted and ignored; every run uses one thread",
        )

    val = sub.add_parser("validate", help="parse and check every invariant")
    val.add_argument("scenario")
    val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
