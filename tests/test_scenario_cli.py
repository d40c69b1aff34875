"""Scenario files and the ``price`` command line."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import araprice
from araprice import cli
from araprice._parallel import BLOCK_ELEMENTS
from araprice.cli import main
from araprice.core import EvaluationCurve
from araprice.oracle import exact_pension_acceptance
from araprice.pension import MAX_HORIZON, OfferEvaluation, PensionScenario
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

    @pytest.mark.parametrize("command", ["run", "validate", "compare"])
    @pytest.mark.parametrize(
        "case, key, value, message",
        [
            ("retail_case3", "params.n2", None, "params.n2: missing"),
            ("retail_case3", "params.cost", "lots", "params.cost: expected number, got str"),
            ("retail_case3", "params.n1", 2.5, "params.n1: expected integer, got float"),
            ("pension_case1", "params.capital", None, "params.capital: missing"),
            ("pension_case1", "params.capital", "lots",
             "params.capital: expected number, got str"),
            ("pension_case1", "params.horizon", 2.5,
             "params.horizon: expected integer, got float"),
            ("pension_case1", "params.exit_profile", [0.1, "x"],
             "params.exit_profile[1]: expected number"),
            ("retail_case1", "outptu", "x", "scenario.outptu: unknown field"),
            ("retail_case1", "params.known_competitor_prise", 31.0,
             "params.known_competitor_prise: unknown field"),
            ("pension_case1", "params.offer_grid.stpe", 0.005,
             "params.offer_grid.stpe: unknown field"),
            ("template_example", "params.choice.sigmaa", 1.0,
             "params.choice.sigmaa: unknown field"),
            ("pension_case1", "params.score_class", 5,
             "params.score_class: expected string, got int"),
            ("retail_case1", "params.utility_variant", 5,
             "params.utility_variant: expected string, got int"),
        ],
        ids=["retail_missing", "retail_str", "retail_float_count", "pension_missing",
             "pension_str", "pension_float_count", "pension_list_item", "top_unknown",
             "params_unknown", "grid_unknown", "choice_unknown", "score_class_int",
             "utility_variant_int"],
    )
    def test_param_schema_errors_exit_3(
        self, tmp_path, capsys, command, case, key, value, message
    ):
        """``key`` is a dotted path from the top of the file; a value of
        None deletes it."""
        raw = json.loads(bundled_case(case).read_text())
        *parents, last = key.split(".")
        node = raw
        for name in parents:
            node = node[name]
        if value is None:
            del node[last]
        else:
            node[last] = value
        bad = tmp_path / "bad_param.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, str(bad)] + (["--out", str(out)] if command != "validate" else [])
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_renamed_key_is_refused(self, data):
        """Renaming any one key, at any depth, of any bundled case makes
        ``validate`` exit 3 and name the renamed key's path."""
        case = data.draw(st.sampled_from(bundled_case_names()))
        raw = json.loads(bundled_case(case).read_text())
        # (path as the parser names it, object holding the key, key)
        keys = [(f"scenario.{key}", raw, key) for key in raw]
        objects = [("params", raw["params"])]
        while objects:
            path, node = objects.pop()
            for key, child in node.items():
                keys.append((f"{path}.{key}", node, key))
                if isinstance(child, dict):
                    objects.append((f"{path}.{key}", child))
        path, node, key = data.draw(st.sampled_from(keys))
        suffix = data.draw(st.text("abcxyz_", min_size=1, max_size=3))
        assume(key + suffix not in node)
        node[key + suffix] = node.pop(key)
        renamed = path + suffix
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "renamed.json"
            src.write_text(json.dumps(raw))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["validate", str(src)])
        assert code == 3, err.getvalue()
        assert f"{renamed}: unknown field" in err.getvalue()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "case, keys, value, message",
        [
            ("pension_case1", ("offer_grid", "step"), 1e-13,
             "params: offer_grid x competitor offers x horizon is 3.6e+13"),
            ("retail_case3", ("n1",), 10**9, "params: price grid x n1 is 9.1e+10"),
            ("pension_case1", ("mc_draws",), 10**12,
             "params: mc_draws is 1e+12"),
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
        "case, grid, params, columns",
        [
            ("template_example", "grid", dict(n_draws=1), 4),
            ("pension_case1", "offer_grid", dict(
                horizon=1, exit_profile=[],
                competitor_offers={"values": [0.0], "probs": [1.0]},
            ), 6),
        ],
        ids=["template", "pension"],
    )
    def test_output_over_budget_exits_4(
        self, tmp_path, monkeypatch, capsys, case, grid, params, columns
    ):
        """A grid whose output table, points x columns, is one point past the
        budget while every other count fits: ``run`` exits 4 before the
        engine runs and writes no file."""
        import araprice.cli as cli

        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        raw = json.loads(bundled_case(case).read_text())
        points = WORK_BUDGET // columns + 1
        raw["params"].update(params, **{grid: {"min": 0.0, "max": points - 1.0, "step": 1.0}})
        src = tmp_path / "wide.json"
        src.write_text(json.dumps(raw))
        assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert f"params: price grid x {columns} output columns is {points * columns:.4g}" in err
        assert err.count("over the work budget") == 1
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize(
        "case, key, per_unit, message",
        [
            ("template_example", "n_draws", 41, "grid x n_draws"),
            ("pension_case1", "mc_draws", 1, "params: mc_draws is"),
            ("pension_case1", "mc_draws", 16, "pension utility terms"),
        ],
    )
    def test_work_budget_boundary(self, tmp_path, capsys, case, key, per_unit, message):
        """The template's 41-point grid times n_draws; mc_draws, one risk
        aversion per draw (no factor of the horizon: no array holds draws x
        years), with the grid rates between the rival offers, so no utility
        is evaluated; and pension_case1's utility terms, 8 years x 2 rates
        (a top offer and the grid rate tied with it) per draw.  On and one
        past the budget; validate only, so nothing of that size runs."""
        raw = json.loads(bundled_case(case).read_text())
        if message == "params: mc_draws is":
            raw["params"]["offer_grid"] = {"min": 0.0275, "max": 0.0675, "step": 0.005}
        edge = tmp_path / "edge.json"
        for count, code in ((WORK_BUDGET // per_unit, 0), (WORK_BUDGET // per_unit + 1, 4)):
            raw["params"][key] = count
            edge.write_text(json.dumps(raw))
            assert main(["validate", str(edge)]) == code
        assert message in capsys.readouterr().err

    def test_rival_count_is_outside_the_budget(self, tmp_path):
        """2^70 rivals: the draw takes one count per rival offer, so
        the budget counts draws alone and the file runs, and the
        acceptance column is the closed form's, 0 below the highest
        offer of positive mass and 1 above it."""
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"]["n_competitors"] = 2**70
        src = tmp_path / "crowded.json"
        src.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out)]) == 0
        rows = out.with_suffix(".csv").read_text().splitlines()[2:]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.isfinite(table).all()
        params = parse_scenario(src).params
        exact = exact_pension_acceptance(params.offer_grid.points(), params)
        assert table[:, 1].tobytes() == exact.tobytes()
        assert exact.min() == 0.0 and exact.max() == 1.0

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_pension_utility_work_over_budget_exits_4(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """pension_case1 over a 2000-year horizon at 1e5 draws: the
        utilities underflow, so every grid rate is tied with every offer
        and each draw compares its top offer and the 10 grid rates, 2.2e9
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
        assert "pension utility terms is 2.2e+09" in err
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_pension_tie_passes_over_budget_exit_4(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """200,000 rival offers one ulp apart at money_unit 1: the
        utilities underflow, so the one grid rate is tied with every offer.
        2e6 draws at horizon 1 compare only 4e6 utility terms, but the tie
        loop would make one pass per offer (seconds of per-call work), each
        charged 1,000 x (horizon + 1) terms: 4e8 in all."""
        import araprice.cli as cli

        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        raw = json.loads(bundled_case("pension_case1").read_text())
        n = 200_000
        bits = np.array(0.05).view(np.int64) + np.arange(n)
        raw["params"].update(
            offer_grid={"min": 0.05, "max": 0.05, "step": 0.005},
            horizon=1,
            exit_profile=[],
            competitor_offers={"values": bits.view(np.float64).tolist(), "probs": [1 / n] * n},
            money_unit=1.0,
            mc_draws=2 * 10**6,
        )
        src = tmp_path / "ties.json"
        src.write_text(json.dumps(raw))
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, str(src), *out]) == 4
        err = capsys.readouterr().err
        assert "pension utility terms is 4e+08" in err
        assert list(tmp_path.iterdir()) == [src]

    def test_horizon_cap(self, tmp_path, capsys):
        """A light pension file (one grid rate, one rival offer, one draw)
        validates at the longest horizon and exits 4 one year past it."""
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"].update(
            offer_grid={"min": 0.05, "max": 0.05, "step": 0.005},
            competitor_offers={"values": [0.05], "probs": [1.0]},
            mc_draws=1,
        )
        src = tmp_path / "long.json"
        for horizon, code in ((MAX_HORIZON, 0), (MAX_HORIZON + 1, 4)):
            raw["params"].update(horizon=horizon, exit_profile=[0.0] * (horizon - 1))
            src.write_text(json.dumps(raw))
            assert main(["validate", str(src)]) == code
        assert MAX_HORIZON == 10_000
        assert "params.horizon: must be in [1, 10000], got 10001" in capsys.readouterr().err

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

    def test_compare_counts_the_template_oracle_table(self, tmp_path, monkeypatch, capsys):
        """A 10,000-point template grid against a list of 3,400 rival prices
        at one draw scores 1e4 elements in run; the oracle of compare builds
        a 10,000 x 3,400 win table (3.4e7 elements)."""
        import araprice.cli as cli

        raw = json.loads(bundled_case("template_example").read_text())
        raw["params"].update(
            grid={"min": 0.0, "max": 9999.0, "step": 1.0},
            competitor_prices=[float(v) for v in range(3400)],
            n_draws=1,
        )
        case = tmp_path / "wide.json"
        case.write_text(json.dumps(raw))
        assert main(["validate", str(case)]) == 0
        assert main(["run", str(case), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out.csv").is_file()
        monkeypatch.setattr(cli, "_run_engine", lambda *args: pytest.fail("engine ran"))
        assert main(["compare", str(case), "--out", str(tmp_path / "cmp")]) == 4
        err = capsys.readouterr().err
        assert "grid x competitor prices (compare) is 3.4e+07" in err
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

    def test_seed_override_changes_result(self, tmp_path):
        case = bundled_case("retail_case3")
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["run", str(case), "--out", str(a), "--seed", "1"])
        main(["run", str(case), "--out", str(b), "--seed", "2"])
        assert a.with_suffix(".csv").read_bytes() != b.with_suffix(".csv").read_bytes()

    def test_in_process_calls_share_no_arguments(self, tmp_path, capsys):
        """A ``--seed`` given to one in-process ``main`` call is not the next
        call's, and a bad argv after a good call still exits 2."""
        case = bundled_case("retail_case2")
        file_seed = json.loads(case.read_text())["seed"]
        assert file_seed != 7
        seeds = []
        for extra in (["--seed", "7"], []):
            out = tmp_path / f"s{len(seeds)}"
            assert main(["run", str(case), "--out", str(out), *extra]) == 0
            seeds.append(json.loads(out.with_suffix(".summary.json").read_text())["seed"])
        assert seeds == [7, file_seed]
        with pytest.raises(SystemExit) as exc:
            main(["run", str(case), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be an integer in [0, 2**64)" in capsys.readouterr().err
        out = tmp_path / "after"
        assert main(["run", str(case), "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".summary.json").read_text())["seed"] == file_seed

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

    @staticmethod
    def _price_in_fresh_process(*argv, cwd=None):
        env = dict(os.environ, PYTHONPATH=str(Path(araprice.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "araprice.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
        )

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
        proc = self._price_in_fresh_process(
            command, str(src), "--workers", str(workers), "--out", str(tmp_path / "out")
        )
        assert proc.returncode == 5
        assert proc.stderr == f"numeric failure: {message}\n"
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_engine_warning_is_one_stderr_line(self, tmp_path, command):
        """An offer grid above the earning rate runs, with the engine's
        warning as the CLI's own line, not Python's source excerpt; the
        oracle of compare checks the scenario again, and still one line
        comes out.  In a fresh process, as a user sees it."""
        raw = json.loads(bundled_case("pension_case1").read_text())
        raw["params"]["earn_rate"] = 0.05
        src = tmp_path / "low_earn.json"
        src.write_text(json.dumps(raw))
        proc = self._price_in_fresh_process(command, str(src), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "warning: offer grid extends above the earning rate; those offers "
            "have nonpositive margin\n"
        )

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


def _reference_outputs(result, scenario, out_base):
    """The per-value renderer ``price run`` had before its table renderer:
    ``repr(float(v))`` for each cell of a list of lists, and a summary read
    from the result's own columns."""
    cols = (
        PENSION_HEADER if isinstance(result, OfferEvaluation) else RETAIL_HEADER
    ).split(",")
    columns = [result.prices, *(getattr(result, name) for name in cols[1:])]
    rows = [[float(v) for v in row] for row in zip(*columns)]
    params = scenario.params
    n1, n2 = (params.n1, params.n2) if scenario.kind == "retail" else (params.mc_draws, None)
    summary = {
        "optimum": result.optimum,
        "accept_prob_at_optimum": result.accept_at_optimum,
        "expected_utility": result.optimum_utility,
        **{
            name: float(getattr(result, name)[result.optimum_index])
            if hasattr(result, name) else None
            for name in ("benefit_next_year", "benefit_horizon")
        },
        "seed": scenario.seed,
        "n1": n1,
        "n2": n2,
        "wall_ms": None,
        "engine_version": araprice.__version__,
    }

    def dumps(obj):
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"

    if scenario.format == "csv":
        lines = [
            f"# araprice {araprice.__version__} kind={scenario.kind} "
            f"seed={scenario.seed} n1={n1} n2={n2}",
            ",".join(cols),
        ]
        lines += [",".join(repr(float(v)) for v in row) for row in rows]
        return {
            out_base.with_suffix(".csv"): "\n".join(lines) + "\n",
            out_base.with_suffix(".summary.json"): dumps(summary),
        }
    payload = {"summary": summary, "curve": {"columns": cols, "rows": rows}}
    return {out_base.with_suffix(".json"): dumps(payload)}


# values whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, exponent notation at both ends, a rounding artefact, 17 digits
_AWKWARD_VALUES = (-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1 / 3)


def _awkward_curve(kind: str, rows: int):
    """A curve of ``rows`` rows whose cells cycle through the awkward values,
    with alternating signs, in the columns of ``kind``."""
    n_cols = 6 if kind == "pension" else 4
    cells = np.resize(np.array(_AWKWARD_VALUES), rows * n_cols)
    cells *= np.where(np.arange(cells.size) % 4 < 2, 1.0, -1.0)
    columns = cells.reshape(rows, n_cols).T.copy()
    return (OfferEvaluation if kind == "pension" else EvaluationCurve)(*columns)


class TestOutputs:
    """``price run`` renders every file from one float table: CSV rows one
    row block at a time, a JSON file in one piece."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", ["one", "block", "block_plus_one"])
    @pytest.mark.parametrize(
        "kind, case", [("retail", "retail_case1"), ("pension", "pension_case1")]
    )
    def test_table_renderer_matches_per_value_reference(
        self, tmp_path, kind, case, rows, fmt
    ):
        n_cols = 6 if kind == "pension" else 4
        n_rows = {"one": 1, "block": BLOCK_ELEMENTS // n_cols,
                  "block_plus_one": BLOCK_ELEMENTS // n_cols + 1}[rows]
        result = _awkward_curve(kind, n_rows)
        scenario = dataclasses.replace(parse_scenario(bundled_case(case)), format=fmt)
        out_base = tmp_path / "out"
        outputs = cli._render_outputs(result, scenario, out_base)
        cli._write(outputs)
        expected = _reference_outputs(result, scenario, out_base)
        assert sorted(tmp_path.iterdir()) == sorted(expected)
        for path, text in expected.items():
            assert path.read_text() == text, path.name

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 40),
        kind=st.sampled_from(["retail", "pension"]),
        bad=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1, max_size=5,
        ),
    )
    def test_first_non_finite_cell_is_named(self, n_rows, kind, bad):
        cols = (PENSION_HEADER if kind == "pension" else RETAIL_HEADER).split(",")
        table = np.stack(
            [getattr(_awkward_curve(kind, n_rows), name) for name in ["prices", *cols[1:]]],
            axis=1,
        )
        for cell, value in bad:
            table.flat[cell % table.size] = value
        # the message of the per-value loop that checked the list of lists
        expected = next(
            f"{col} is {value} at price {row[0]}"
            for row in table.tolist()
            for col, value in zip(cols, row)
            if not np.isfinite(value)
        )
        with pytest.raises(FloatingPointError) as err:
            cli._check_finite(cols, table)
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "command, argv, message",
        [
            ("run", ["--seed", "-1"], "argument --seed: must be an integer in [0, 2**64)"),
            ("compare", ["--seed", str(2**64)],
             "argument --seed: must be an integer in [0, 2**64)"),
            ("compare", ["--z", "0"], "argument --z: must be a finite number above 0"),
            ("compare", ["--z", "nan"], "argument --z: must be a finite number above 0"),
            *(
                (command, ["--out", out], f"error: cannot write {out}: not a file name")
                for command in ("run", "compare") for out in (".", "/", "..", "sub/..")
            ),
            *(
                (command, ["--out", "missing/out"],
                 f"error: cannot write missing/out.{suffix}: No such file or directory")
                for command, suffix in (("run", "csv"), ("compare", "oracle.json"))
            ),
        ],
    )
    def test_bad_command_line_value_exits_2(self, tmp_path, command, argv, message):
        """Each bad value exits 2 with an error line, no traceback and no
        file; in a fresh process, as a user sees it."""
        src = tmp_path / "case.json"
        src.write_text(bundled_case("retail_case2").read_text())
        proc = TestCli._price_in_fresh_process(command, src.name, *argv, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize(
        "output, code, message",
        [
            *(
                (output, 3, f"scenario.output: {output!r} does not end in a file name")
                for output in (".", "/", "..", "sub/", "")
            ),
            ("missing/out", 2, "error: cannot write missing/out.csv: No such file or directory"),
        ],
    )
    def test_bad_output_field(self, tmp_path, output, code, message):
        """A file's ``output`` that names no file is a schema violation, which
        ``validate`` reports too; one in a missing directory cannot be written."""
        raw = json.loads(bundled_case("retail_case2").read_text())
        raw["output"] = output
        src = tmp_path / "case.json"
        src.write_text(json.dumps(raw))
        assert main(["validate", str(src)]) == (3 if code == 3 else 0)
        proc = TestCli._price_in_fresh_process("run", src.name, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [src]

    def test_write_that_fails_on_a_later_file_leaves_no_file(self, tmp_path):
        """With a directory where the summary goes, ``run`` exits 2 with one
        error line and writes no CSV either; no temporary is left."""
        (tmp_path / "out.summary.json").mkdir()
        src = tmp_path / "retail_case2.json"
        src.write_text(bundled_case("retail_case2").read_text())
        proc = TestCli._price_in_fresh_process("run", src.name, "--out", "out", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: cannot write out.summary.json: Is a directory\n"
        assert {p.name for p in tmp_path.iterdir()} == {src.name, "out.summary.json"}
        assert list((tmp_path / "out.summary.json").iterdir()) == []

    def test_write_that_fails_mid_file_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """A CSV that fails half written (a full disk) leaves neither its
        temporary nor any other file, and an earlier output stays whole."""
        src = tmp_path / "case.json"
        src.write_text(bundled_case("retail_case2").read_text())
        out = ["--out", str(tmp_path / "out")]
        assert main(["run", str(src), *out]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = cli._csv_text

        def disk_full(head, table):
            pieces = real(head, table)
            yield next(pieces)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_csv_text", disk_full)
        assert main(["run", str(src), "--seed", "7", *out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / 'out.csv'}: No space left on device\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
