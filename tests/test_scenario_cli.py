"""Scenario files and the ``price`` command line."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import araprice
from araprice.cli import main
from araprice.pension import PensionScenario
from araprice.retail import RetailScenario
from araprice.scenario import (
    WORK_BUDGET,
    InvariantError,
    MissingFileError,
    SchemaError,
    _work_problems,
    check_compare_budget,
    bundled_case,
    bundled_case_names,
    parse_scenario,
    scenario_to_dict,
)

RETAIL_HEADER = "price,accept_prob,expected_utility,std_err"
PENSION_HEADER = (
    "price,accept_prob,expected_utility,benefit_next_year,benefit_horizon,std_err"
)


class TestParsing:
    def test_bundled_retail_benchmark(self):
        sc = parse_scenario(bundled_case("retail_case1"))
        assert sc.kind == "retail" and isinstance(sc.params, RetailScenario)
        p = sc.params
        assert p.cost == 5.0 and p.max_price == 50.0
        assert p.fixed_sigma == 0.01
        assert p.known_competitor_price == 30.0
        assert p.competitor_max_price == 40.0

    def test_bundled_pension_benchmark(self):
        sc = parse_scenario(bundled_case("pension_case1"))
        assert sc.kind == "pension" and isinstance(sc.params, PensionScenario)
        p = sc.params
        assert p.capital == 30_000.0 and p.earn_rate == 0.07
        assert p.horizon == 8 and p.penalty_fraction == 0.8
        assert p.exit_profile.q_exit == (0.15, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0)
        assert p.n_competitors == 1

    def test_all_bundled_cases_parse(self):
        for name in bundled_case_names():
            parse_scenario(bundled_case(name))

    def test_missing_file(self):
        with pytest.raises(MissingFileError):
            parse_scenario("/nonexistent/path.json")

    def test_schema_violations(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            parse_scenario(bad)
        bad.write_text(json.dumps({"kind": "retail", "params": {}}))
        with pytest.raises(SchemaError, match="seed"):
            parse_scenario(bad)
        bad.write_text(json.dumps({"kind": "nope", "params": {}, "seed": 1}))
        with pytest.raises(SchemaError, match="kind"):
            parse_scenario(bad)

    def test_invariant_violation_names_field(self, tmp_path):
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"]["competitor_offers"]["probs"] = [0.05] * 9 + [0.45]
        bad = tmp_path / "bad_pmf.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(InvariantError, match="competitor_offers"):
            parse_scenario(bad)
        raw["params"]["competitor_offers"]["probs"] = [0.1] * 9  # sums to 0.9
        bad.write_text(json.dumps(raw))
        with pytest.raises(InvariantError, match="competitor_offers"):
            parse_scenario(bad)

    def test_multiple_invariants_reported_together(self, tmp_path):
        raw = json.loads(bundled_case("retail_case3").read_text())
        raw["params"]["n1"] = 0
        raw["params"]["grid_step"] = -1.0
        bad = tmp_path / "two_bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(InvariantError) as err:
            parse_scenario(bad)
        assert "n1" in str(err.value) and "grid_step" in str(err.value)

    @pytest.mark.parametrize(
        "name", ["retail_case1", "pension_case1", "template_example"]
    )
    def test_round_trip(self, name, tmp_path):
        sc = parse_scenario(bundled_case(name))
        encoded = tmp_path / "again.json"
        encoded.write_text(json.dumps(scenario_to_dict(sc)))
        again = parse_scenario(encoded)
        assert again.kind == sc.kind
        assert again.seed == sc.seed
        assert again.params == sc.params


class TestCli:
    def test_run_retail_benchmark(self, tmp_path, capsys):
        out = tmp_path / "case1"
        code = main(["run", str(bundled_case("retail_case1")), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "optimum=29.5" in stdout
        csv_text = out.with_suffix(".csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0].startswith("# araprice") and "seed=42" in lines[0]
        assert lines[1] == RETAIL_HEADER
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["optimum"] == 29.5
        assert summary["seed"] == 42
        assert summary["n1"] == 100 and summary["n2"] == 100
        assert summary["wall_ms"] is None
        assert set(summary) >= {
            "optimum",
            "accept_prob_at_optimum",
            "expected_utility",
            "benefit_next_year",
            "benefit_horizon",
            "seed",
            "n1",
            "n2",
            "wall_ms",
        }

    def test_run_pension_columns(self, tmp_path):
        out = tmp_path / "pension"
        code = main(["run", str(bundled_case("pension_case1")), "--out", str(out)])
        assert code == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[1] == PENSION_HEADER
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["benefit_next_year"] is not None
        assert summary["n1"] == 10_000 and summary["n2"] is None

    def test_run_template(self, tmp_path):
        out = tmp_path / "tpl"
        code = main(["run", str(bundled_case("template_example")), "--out", str(out)])
        assert code == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[1] == RETAIL_HEADER

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["run", str(bad)]) == 3
        raw = json.loads(bundled_case("retail_case1").read_text())
        raw["params"]["n1"] = -3
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad)]) == 4

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("params", "capital", float("nan")),
            ("params", "money_unit", float("inf")),
            ("params", "capital", 10**400),
            (None, "seed", True),
            ("params", "mc_draws", True),
            ("params", "horizon", True),
            ("params", "n_competitors", True),
        ],
        ids=["capital_nan", "money_unit_infinity", "capital_huge_int", "seed_true",
             "mc_draws_true", "horizon_true", "n_competitors_true"],
    )
    def test_bad_numbers_are_schema_errors(self, tmp_path, capsys, section, key, value):
        raw = json.loads(bundled_case("pension_case1").read_text())
        (raw[section] if section else raw)[key] = value
        bad = tmp_path / "bad_number.json"
        bad.write_text(json.dumps(raw))  # writes NaN, Infinity, true and big ints literally
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.with_suffix(".summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "case, key, value, message",
        [
            ("retail_case3", "n2", None, "params.n2: missing"),
            ("retail_case3", "cost", "lots", "params.cost: expected number, got str"),
            ("retail_case3", "n1", 2.5, "params.n1: expected integer, got float"),
            ("pension_case1", "capital", None, "params.capital: missing"),
            ("pension_case1", "capital", "lots", "params.capital: expected number, got str"),
            ("pension_case1", "horizon", 2.5, "params.horizon: expected integer, got float"),
            ("pension_case1", "exit_profile", [0.1, "x"], "params.exit_profile[1]: expected number"),
        ],
        ids=["retail_missing", "retail_str", "retail_float_count", "pension_missing",
             "pension_str", "pension_float_count", "pension_list_item"],
    )
    def test_param_schema_errors_exit_3(
        self, tmp_path, capsys, command, case, key, value, message
    ):
        raw = json.loads(bundled_case(case).read_text())
        if value is None:
            del raw["params"][key]
        else:
            raw["params"][key] = value
        bad = tmp_path / "bad_param.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, str(bad)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "case, keys, value, message",
        [
            ("pension_case1", ("offer_grid", "step"), 1e-13,
             "params: offer_grid x competitor offers x horizon is 3.6e+13"),
            ("retail_case3", ("n1",), 10**9, "params: price grid x n1 is 9.1e+10"),
            ("pension_case1", ("mc_draws",), 10**12,
             "params: mc_draws x n_competitors is 1e+12"),
        ],
        ids=["offer_grid_step_1e-13", "n1_1e9", "mc_draws_1e12"],
    )
    def test_work_budget_overrun_exits_4(
        self, tmp_path, monkeypatch, capsys, command, case, keys, value, message
    ):
        """Inputs that ran out of memory before the budget existed; the
        engines are stubbed out, so a missing check fails instead of
        allocating."""
        import araprice.cli as cli

        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        raw = json.loads(bundled_case(case).read_text())
        node = raw["params"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(bad), *out]) == 4
        err = capsys.readouterr().err
        assert message in err and f"work budget of {WORK_BUDGET}" in err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "case, key, per_unit, message",
        [
            ("template_example", "n_draws", 41, "grid x n_draws"),
            ("pension_case1", "mc_draws", 1, "mc_draws x n_competitors"),
            ("pension_case1", "mc_draws", 16, "mc_draws x horizon x rates compared per draw"),
        ],
    )
    def test_work_budget_boundary(self, tmp_path, capsys, case, key, per_unit, message):
        """The template's 41-point grid times n_draws; one rival times
        mc_draws (no factor of the horizon: no array holds draws x years),
        with the grid rates between the rival offers, so no utility is
        evaluated; and pension_case1's utility terms, 8 years x 2 rates
        (a top offer and the grid rate tied with it) per draw.  On and one
        past the budget; validate only, so nothing of that size runs."""
        raw = json.loads(bundled_case(case).read_text())
        if message == "mc_draws x n_competitors":
            raw["params"]["offer_grid"] = {"min": 0.0275, "max": 0.0675, "step": 0.005}
        edge = tmp_path / "edge.json"
        for count, code in ((WORK_BUDGET // per_unit, 0), (WORK_BUDGET // per_unit + 1, 4)):
            raw["params"][key] = count
            edge.write_text(json.dumps(raw))
            assert main(["validate", str(edge)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_pension_utility_work_over_budget_exits_4(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """pension_case1 over a 2000-year horizon at 1e5 draws: the
        utilities underflow, so the count takes the full tables, 4e9
        utility terms (minutes of work) in row blocks that each fit."""
        import araprice.cli as cli

        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"].update(horizon=2000, exit_profile=[0.0] * 1999, mc_draws=10**5)
        src = tmp_path / "long.json"
        src.write_text(json.dumps(raw))
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, str(src), *out]) == 4
        err = capsys.readouterr().err
        assert "mc_draws x horizon x rates compared per draw is 4e+09" in err
        assert list(tmp_path.iterdir()) == [src]

    def test_only_compare_counts_its_refined_forecast(self, tmp_path, monkeypatch, capsys):
        """retail_case3 at n1 = 200 forecasts 200 x 100 x 71 = 1.4e6
        elements in run, but 32 times that (4.5e7) in compare."""
        import araprice.cli as cli

        raw = json.loads(bundled_case("retail_case3").read_text())
        raw["params"]["n1"] = 200
        case = tmp_path / "n1_200.json"
        case.write_text(json.dumps(raw))
        assert main(["validate", str(case)]) == 0
        assert main(["run", str(case), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out.csv").is_file()
        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        assert main(["compare", str(case), "--out", str(tmp_path / "cmp")]) == 4
        err = capsys.readouterr().err
        assert "n1 x n2 x competitor grid x 32 (compare) is 4.544e+07" in err
        assert not (tmp_path / "cmp.oracle.json").exists()

    def test_bundled_cases_fit_the_work_budget(self):
        """Including the refined forecast of ``compare retail_case3``:
        32 x 100 x 100 x 71 = 2.27e7 elements."""
        for name in bundled_case_names():
            sc = parse_scenario(bundled_case(name))
            check_compare_budget(sc)
            for compare in (False, True):
                assert _work_problems(sc.kind, sc.params, compare) == [], name
        retail = parse_scenario(bundled_case("retail_case3")).params
        assert 32 * retail.n1 * retail.n2 * 71 <= WORK_BUDGET

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_run_refuses_non_finite_output(self, tmp_path, monkeypatch, capsys, fmt):
        import araprice.cli as cli

        real = cli.optimize_price

        def nan_column(*args, **kwargs):
            curve = real(*args, **kwargs)
            utility = curve.expected_utility.copy()
            utility[3] = float("nan")
            return dataclasses.replace(curve, expected_utility=utility)

        monkeypatch.setattr(cli, "optimize_price", nan_column)
        raw = json.loads(bundled_case("retail_case1").read_text())
        raw["format"] = fmt
        src = tmp_path / "case.json"
        src.write_text(json.dumps(raw))
        assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert "numeric failure" in err and "expected_utility is nan" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [src]

    @staticmethod
    def _assert_workers_ignored(tmp_path, monkeypatch, command, case):
        """``--workers`` is accepted and ignored: ``command`` on ``case``
        starts no thread and writes the same bytes at 1 and 4."""
        def no_thread(thread):
            raise AssertionError(f"{command} {case} started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        written = []
        for workers in ("1", "4"):
            out = tmp_path / f"{command}_{case}_w{workers}"
            assert main([command, str(bundled_case(case)), "--out", str(out),
                         "--workers", workers]) == 0
            written.append(sorted(
                (p.name.removeprefix(out.name), p.read_bytes())
                for p in tmp_path.glob(f"{out.name}.*")
            ))
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_worker_counts_write_identical_bytes(self, tmp_path, monkeypatch, command):
        """retail_case3's compare exercises the 32x-refined rival forecast."""
        self._assert_workers_ignored(tmp_path, monkeypatch, command, "retail_case3")

    def test_pension_never_uses_the_thread_pool(self, tmp_path, monkeypatch):
        """pension_case2_high: 400k draws give tie settlement several row
        blocks, all counted on the calling thread."""
        for command in ("run", "compare"):
            self._assert_workers_ignored(
                tmp_path, monkeypatch, command, "pension_case2_high"
            )

    def test_determinism_across_runs_and_workers(self, tmp_path):
        case = bundled_case("retail_case3")
        paths = []
        for tag, workers in (("a", "1"), ("b", "4")):
            out = tmp_path / f"run_{tag}"
            assert main(
                ["run", str(case), "--out", str(out), "--workers", workers]
            ) == 0
            paths.append(
                (
                    out.with_suffix(".csv").read_bytes(),
                    out.with_suffix(".summary.json").read_bytes(),
                )
            )
        assert paths[0] == paths[1]

    def test_seed_override_changes_result(self, tmp_path):
        case = bundled_case("retail_case3")
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["run", str(case), "--out", str(a), "--seed", "1"])
        main(["run", str(case), "--out", str(b), "--seed", "2"])
        assert a.with_suffix(".csv").read_bytes() != b.with_suffix(".csv").read_bytes()

    def test_compare_pension(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            ["compare", str(bundled_case("pension_case1")), "--out", str(out)]
        )
        report = json.loads(out.with_suffix(".oracle.json").read_text())
        assert code == 0, report
        assert report["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_compare_retail_known_price(self, tmp_path):
        out = tmp_path / "cmp_retail"
        code = main(
            ["compare", str(bundled_case("retail_case2")), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.with_suffix(".oracle.json").read_text())
        assert report["max_abs_z"] == 0.0  # deterministic engine, exact oracle

    def test_compare_template(self, tmp_path):
        out = tmp_path / "cmp_tpl"
        code = main(
            ["compare", str(bundled_case("template_example")), "--out", str(out)]
        )
        assert code == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_compare_refuses_non_finite_values(self, tmp_path, capsys):
        raw = json.loads(bundled_case("template_example").read_text())
        raw["params"]["cost"] = 1e300  # the payoff spread overflows the SE
        src = tmp_path / "huge_cost.json"
        src.write_text(json.dumps(raw))
        assert main(["compare", str(src), "--out", str(tmp_path / "cmp")]) == 5
        err = capsys.readouterr().err
        assert "numeric failure: std_err is inf" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "case, overrides, workers, message",
        [
            ("template_example", {"cost": 1e300}, 1, "std_err is inf at price 10.0"),
            (
                "retail_case3",  # the t CDF squares gaps of 1e200; --workers 2 is ignored
                {"max_price": 1e200, "competitor_max_price": 1e200, "grid_step": 1e199,
                 "n1": 20, "n2": 20},
                2,
                "std_err is inf at price 3e+199",
            ),
        ],
        ids=["template", "retail_overflow"],
    )
    def test_numeric_failure_is_the_only_stderr_line(
        self, tmp_path, command, case, overrides, workers, message
    ):
        """numpy's overflow warnings must not reach stderr ahead of the
        documented line; checked in a fresh process, as a user sees it."""
        raw = json.loads(bundled_case(case).read_text())
        raw["params"].update(overrides)
        src = tmp_path / "huge.json"
        src.write_text(json.dumps(raw))
        env = dict(os.environ, PYTHONPATH=str(Path(araprice.__file__).parents[1]))
        argv = [command, str(src), "--workers", str(workers), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "araprice.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 5
        assert proc.stderr == f"numeric failure: {message}\n"
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize(
        "grid",
        [{"min": 10.0, "max": 30.0, "step": 0.0}, {"min": 30.0, "max": 10.0, "step": 0.5}],
        ids=["zero_step", "min_above_max"],
    )
    def test_bad_template_grid_exits_4(self, tmp_path, capsys, grid):
        raw = json.loads(bundled_case("template_example").read_text())
        raw["params"]["grid"] = grid
        bad = tmp_path / "bad_grid.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert "params.grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    @pytest.mark.parametrize(
        "case, overrides, field",
        [
            (
                "retail_case3",
                {"cost": 0, "max_price": 1e308, "competitor_max_price": 1e308,
                 "grid_step": 1e307},
                "params.price_grid",
            ),
            ("template_example", {"grid": {"min": 0.0, "max": 1e308, "step": 1e307}},
             "params.grid"),
        ],
        ids=["retail", "template"],
    )
    def test_grid_that_overflows_when_snapped_exits_4(
        self, tmp_path, capsys, command, case, overrides, field
    ):
        """Snapping to 9 decimals scales by 1e9: end points near the float
        limit must be refused as an invariant, before any run."""
        raw = json.loads(bundled_case(case).read_text())
        raw["params"].update(overrides)
        src = tmp_path / "huge_grid.json"
        src.write_text(json.dumps(raw))
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, str(src), *out]) == 4
        err = capsys.readouterr().err
        assert f"{field}: grid end points" in err and "overflow when snapped" in err
        assert list(tmp_path.iterdir()) == [src]

    def test_validate(self, capsys):
        assert main(["validate", str(bundled_case("pension_case2_low"))]) == 0
        assert "OK" in capsys.readouterr().out

    def test_numeric_failure_exit_code(self, monkeypatch, capsys):
        import araprice.cli as cli

        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic overflow")

        monkeypatch.setattr(cli, "optimize_price", boom)
        assert main(["run", str(bundled_case("retail_case1"))]) == 5
        assert "numeric failure" in capsys.readouterr().err

    def test_curve_probability_bounds(self, tmp_path):
        out = tmp_path / "bounds"
        main(["run", str(bundled_case("retail_case3")), "--out", str(out)])
        rows = out.with_suffix(".csv").read_text().splitlines()[2:]
        accepts = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= a <= 1.0 for a in accepts)

    def test_json_format_output(self, tmp_path):
        raw = json.loads(bundled_case("retail_case1").read_text())
        raw["format"] = "json"
        src = tmp_path / "json_fmt.json"
        src.write_text(json.dumps(raw))
        out = tmp_path / "result"
        assert main(["run", str(src), "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["summary"]["optimum"] == 29.5
        assert payload["curve"]["columns"] == RETAIL_HEADER.split(",")
