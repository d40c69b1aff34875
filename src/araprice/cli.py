"""The ``price`` command: run, validate, and oracle-check scenario files.

Exit codes: 0 success; 2 missing scenario file, unwritable output path
or command-line error (argparse's, such as a ``--seed`` outside [0, 2**64)
or a ``--z`` that is not a finite number above 0); 3 schema violation;
4 invariant violation; 5 numeric failure; ``compare`` exits 1 when the
engine and oracle disagree beyond the z threshold.  ``run`` writes a CSV
curve one row block at a time and a JSON file in one piece, each renamed
into place once all are written, so exit 2 or 5 leaves no file.  An engine
warning is written to stderr as one ``warning:`` line.  Outputs embed
seed, draw counts and engine version, and are byte-identical across
reruns with the same seed.  Every run uses one thread; ``--workers`` is
accepted and ignored.  Closing stdout early changes no output or exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import BLOCK_ELEMENTS
from .core import (
    AgentBeliefs,
    EvaluationCurve,
    ProducerUtility,
    solve_supported_price,
)
from .oracle import (
    compare,
    exact_pension_acceptance,
    exact_template_utility,
    quadrature_retail_utility,
)
from .pension import optimize_offer
from .randkit import CategoricalPMF, RngStream
from .retail import (
    REFINED_FORECAST_FACTOR,
    _sale_prob,
    optimize_price,
    sample_competitor_prices,
)
from .scenario import (
    OUTPUT_COLUMNS,
    ScenarioError,
    ScenarioFile,
    TemplateScenario,
    _names_a_file,
    check_compare_budget,
    parse_scenario,
)

class OutputError(ScenarioError):
    """An output file that cannot be written."""

    exit_code = 2


def _curve_table(result, kind: str) -> tuple[tuple, np.ndarray]:
    """The output columns and one float64 (rows x columns) table of them."""
    cols = OUTPUT_COLUMNS[kind]
    columns = [result.prices, *(getattr(result, name) for name in cols[1:])]
    return cols, np.stack(columns, axis=1, dtype=float)


def _summary(optimum_row: dict, scenario: ScenarioFile) -> dict:
    params = scenario.params
    if scenario.kind == "retail":
        n1, n2 = params.n1, params.n2
    else:
        n1 = params.mc_draws if scenario.kind == "pension" else params.n_draws
        n2 = None
    return {
        "optimum": optimum_row["price"],
        "accept_prob_at_optimum": optimum_row["accept_prob"],
        "expected_utility": optimum_row["expected_utility"],
        "benefit_next_year": optimum_row.get("benefit_next_year"),
        "benefit_horizon": optimum_row.get("benefit_horizon"),
        "seed": scenario.seed,
        "n1": n1,
        "n2": n2,
        "wall_ms": None,  # kept out of files so reruns are byte-identical
        "engine_version": __version__,
    }


def _check_finite(cols, table: np.ndarray) -> None:
    """Raise FloatingPointError naming the first non-finite cell, row by row."""
    finite = np.isfinite(table)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), len(cols))
        values = table[row].tolist()
        raise FloatingPointError(f"{cols[col]} is {values[col]} at price {values[0]}")


def _render_outputs(result, scenario: ScenarioFile, out_base: Path) -> dict:
    """Output path -> its text in pieces, CSV rows formatted as they are
    written; raises before any file exists when a value is not finite."""
    cols, table = _curve_table(result, scenario.kind)
    _check_finite(cols, table)
    summary = _summary(dict(zip(cols, table[result.optimum_index].tolist())), scenario)
    if scenario.format == "csv":
        head = (
            f"# araprice {__version__} kind={scenario.kind} seed={scenario.seed} "
            f"n1={summary['n1']} n2={summary['n2']}\n{','.join(cols)}\n"
        )
        return {
            out_base.with_suffix(".csv"): _csv_text(head, table),
            out_base.with_suffix(".summary.json"): [_dumps(summary)],
        }
    payload = {"summary": summary, "curve": {"columns": list(cols), "rows": table.tolist()}}
    return {out_base.with_suffix(".json"): [_dumps(payload)]}


def _csv_text(head: str, table: np.ndarray):
    """``head``, then the CSV lines of ``table``, one row block at a time."""
    yield head
    rows = BLOCK_ELEMENTS // table.shape[1]
    for start in range(0, len(table), rows):
        block = table[start:start + rows].tolist()
        yield "".join(",".join(map(repr, row)) + "\n" for row in block)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _out_base(name: str) -> Path:
    """The output path base ``name``; its last component must be a file name."""
    if not _names_a_file(name):
        raise OutputError(f"cannot write {name}: not a file name")
    return Path(name)


def _write(outputs: dict) -> None:
    """Write each path's text pieces to a temporary file beside it, then
    rename them all into place; on any error, remove every file made."""
    made = {}
    try:
        for path, pieces in outputs.items():
            made[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with made[path].open("w") as out:
                out.writelines(pieces)
        for path, temp in made.items():
            os.replace(temp, path)
            made[path] = path  # removed too if a later rename fails
    except BaseException as exc:
        for leftover in made.values():
            with contextlib.suppress(OSError):
                leftover.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _say(text: str) -> None:
    """Print and flush ``text``; once the reader has closed the pipe, point
    stdout at os.devnull, so that neither this nor the exit flush raises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


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
        partial(_sale_prob, sigma=params.choice_sigma, noise=params.choice_noise),
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
    out_base = _out_base(
        args.out or scenario.output or Path(args.scenario).with_suffix("").name + "_result"
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
    _write(outputs)
    _say(
        f"optimum={result.optimum} accept={result.accept_at_optimum:.4f} "
        f"expected_utility={result.optimum_utility:.6g} seed={seed} "
        f"wall_ms={wall_ms}"
        + "".join(f"\nwrote {path}" for path in outputs)
    )
    return 0


def _oracle_values(scenario: ScenarioFile, result, seed: int):
    """Oracle values over the whole grid, one oracle call, and the engine
    columns to test them against."""
    params = scenario.params
    if scenario.kind == "pension":
        oracle = exact_pension_acceptance(result.offers, params)
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
        oracle = quadrature_retail_utility(result.prices, params, density=density)
    else:  # template: exact sum over the finite competitor-price distribution
        oracle = exact_template_utility(result.prices, params)
    return result.prices, result.expected_utility, result.std_err, oracle


def cmd_compare(args) -> int:
    scenario = parse_scenario(args.scenario)
    check_compare_budget(scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    out_base = _out_base(args.out or Path(args.scenario).with_suffix("").name)
    try:  # no numpy warnings: _check_finite reports a non-finite value
        with np.errstate(all="ignore"):
            result = _run_engine(scenario, seed)
            columns = _oracle_values(scenario, result, seed)
            _check_finite(
                ("price", "estimate", "std_err", "oracle"),
                np.stack(columns, axis=1, dtype=float),
            )
    except (FloatingPointError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5
    report = compare(*columns, z_threshold=args.z)
    report_path = out_base.with_suffix(".oracle.json")
    _write({report_path: [json.dumps(report.to_dict(), indent=2) + "\n"]})
    status = "PASS" if report.passed else "FAIL"
    _say(
        f"{status}: max |z| = {report.max_abs_z:.3f} "
        f"(threshold {report.z_threshold}) over {len(report.rows)} grid points\n"
        f"wrote {report_path}"
    )
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    _say(f"OK: valid {scenario.kind} scenario "
         f"(seed={scenario.seed}, format={scenario.format})")
    return 0


def _seed_arg(text: str) -> int:
    """A ``--seed``: an integer in [0, 2**64), as a scenario file's seed."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")
    return seed


def _z_arg(text: str) -> float:
    """A ``--z`` threshold: a finite number above 0."""
    try:
        z = float(text)
    except ValueError:
        z = math.nan
    if not 0 < z < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return z


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
    run.add_argument("--seed", type=_seed_arg, default=None, help="override the file seed")
    run.add_argument("--out", default=None, help="output path base")
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="run and z-test against the exact oracle")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--z", type=_z_arg, default=3.0, help="|z| pass threshold")
    cmp_.add_argument("--seed", type=_seed_arg, default=None)
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


def _warning_line(message, *_location, **_kwargs) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # the engine's warnings, one line each
        warnings.showwarning = _warning_line
        try:
            return args.fn(args)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
