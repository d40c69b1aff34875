"""Benchmark worker: the side of the benchmark that imports araprice.

perfbench/run.py starts it with ``PYTHONPATH=src``; it is not meant to
be run by hand.  Modes:

    worker.py warm SPEC [--setup-only]  one warm workload process
    worker.py cli RAW ARG...            a traced `price` process; span data to RAW
    worker.py regret SPEC               exact-twin regret of cli-cold outputs

A warm process imports, parses its generated inputs and runs one untimed
warm-up op, then reports ``ready``; run.py times set-up up to that
message.  It then runs the number of whole passes of ops whose total is
closest to ``seconds``, checks every op's output outside the timed
region, and prints one ``result`` message.  Protocol messages are JSON lines prefixed ``@@ ``
on the original stdout; the program's own prints are captured per op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import checks
import layers

_PROTO = sys.stdout
ZCHECK_ALPHA = 1e-4  # family-wise level of the pension acceptance z-check
EXACT_ATOL = 1e-12  # rounding slack of the quadrature oracle near 0 and 1
RARE_COUNT = 20  # below this many expected wins or losses, test exactly


def emit(message: dict) -> None:
    _PROTO.write("@@ " + json.dumps(message) + "\n")
    _PROTO.flush()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(fn):
    """Call one op with its prints captured; returns (wall, value, error)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = fn()
        error = None
    except (Exception, SystemExit):
        value, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    return wall, {"value": value, "error": error, "stderr": err.getvalue()}


def floats_digest(*arrays) -> str:
    import numpy as np

    return checks.digest([np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays])


# ---------------------------------------------------------------------------
# exact twins of the engine's decisions
# ---------------------------------------------------------------------------


def regret(exact, picked_index: int) -> float | None:
    best = max(exact)
    if not best > 0:
        return None
    return (best - exact[picked_index]) / best


def poisson_tail(k: int, lam: float) -> float:
    """P(X >= k) for k above the mean of X ~ Poisson(lam), else P(X <= k)."""
    def pmf(i):
        return math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1))

    if k > lam:
        return math.fsum(pmf(i) for i in range(k, k + 400))
    return math.fsum(pmf(i) for i in range(k + 1))


def acceptance_pvalue(est: float, p: float, draws: int) -> float:
    """Two-sided p-value of a Monte Carlo win frequency against its exact
    value ``p``: the z-test with the oracle's null SE sqrt(p(1-p)/draws),
    or, when fewer than RARE_COUNT wins or losses are expected and the
    normal approximation fails, the exact Poisson tail of the rare count."""
    if not EXACT_ATOL < p < 1.0 - EXACT_ATOL:  # certain: the estimate must be exact
        return 1.0 if abs(est - p) <= EXACT_ATOL else 0.0
    if min(p, 1.0 - p) * draws >= RARE_COUNT:
        z = (est - p) / math.sqrt(p * (1.0 - p) / draws)
        return 2.0 * (1.0 - statistics.NormalDist().cdf(abs(z)))
    if p < 0.5:
        return min(1.0, 2.0 * poisson_tail(round(est * draws), p * draws))
    return min(1.0, 2.0 * poisson_tail(round((1.0 - est) * draws), (1.0 - p) * draws))


def pension_exact_acceptance(scenario, prices) -> list:
    import araprice

    return [araprice.exact_pension_acceptance(h, scenario) for h in prices]


def pension_utility(scenario, prices, accept) -> list:
    return [(scenario.earn_rate - h) * scenario.capital * a for h, a in zip(prices, accept)]


def template_exact_utility(cost, prices, rivals, dof, scale=1.0):
    """(p - cost) * prod over rivals of sum_v pmf(v) P(t_dof > scale (p - v))."""
    import numpy as np
    from scipy import stats

    p = np.asarray(prices, dtype=float)
    win = np.ones_like(p)
    for values, probs in rivals:
        sf = stats.t.sf(scale * (p[:, None] - np.asarray(values)[None, :]), dof)
        win *= sf @ np.asarray(probs)
    return list((p - cost) * win)


def scenario_exact_utility(scenario_file, prices):
    """Exact objective of a parsed pension scenario, or of a template
    scenario with categorical rival prices and t choice noise; else None."""
    import araprice

    params = scenario_file.params
    if scenario_file.kind == "pension":
        return pension_utility(params, prices, pension_exact_acceptance(params, prices))
    pmf, noise = getattr(params, "competitor_prices", None), getattr(params, "choice_noise", None)
    if isinstance(pmf, araprice.CategoricalPMF) and noise is not None:
        return template_exact_utility(
            params.cost, prices, [(pmf.values, pmf.probs)],
            2.0 * noise.shape, math.sqrt(noise.shape / noise.scale),
        )
    return None


# ---------------------------------------------------------------------------
# warm workloads
# ---------------------------------------------------------------------------


class Workload:
    """Ops of one warm workload; subclasses fill in the three hooks."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.work = Path(spec["work"])
        self.first_digest: dict = {}
        self.regrets: list = []
        self.bytes_written = 0

    def cli(self, argv) -> int:
        import araprice.cli

        return araprice.cli.main([str(a) for a in argv])

    def out(self, key: str) -> Path:
        path = self.work / "out" / key
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def check_repeat(self, name: str, result: dict) -> bool:
        """Record the first digest of an input; False if a repeat differs."""
        first = self.first_digest.setdefault(name, result["digest"])
        return first == result["digest"]

    def check_all(self, records: list) -> list:
        """Check every op record; returns op outcomes for run.py."""
        outcomes = []
        for rec in records:
            outcome = {"key": rec["key"], "wall": rec["wall"], "ok": True}
            try:
                if rec["error"] is not None:
                    raise checks.CheckError(
                        "traceback: " + rec["error"].strip().splitlines()[-1]
                    )
                result = self.check(rec)
                outcome["digest"] = result["digest"]
                self.bytes_written += result.get("bytes", 0)
                if not self.check_repeat(rec["name"], result):
                    raise checks.CheckError("output bytes differ from an earlier run of the same input")
                if result.get("failure"):
                    outcome.update(ok=False, reason=result["failure"], known=result["known"])
            except checks.CheckError as exc:
                outcome.update(ok=False, reason=str(exc), known=False)
            outcomes.append(outcome)
        return outcomes

    def post_checks(self, records: list) -> list:
        return []


class PensionBatch(Workload):
    """Seeded pension customers priced through `price run` in one process."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        import araprice

        self.workers = spec["workers"]
        self.batches = spec["customers"]
        self.files = {c["name"]: c["file"] for batch in self.batches for c in batch}
        self.scenarios = {name: araprice.parse_scenario(f) for name, f in self.files.items()}
        self.z_rows: list = []

    def warm_up(self) -> None:
        self.cli(["run", self.spec["warmup"], "--workers", self.workers,
                  "--out", self.out("warmup")])

    def pass_ops(self, k: int) -> list:
        ops = []
        for c in self.batches[k % len(self.batches)]:
            key = f"p{k}_{c['name']}"
            argv = ["run", c["file"], "--workers", self.workers, "--out", self.out(key)]
            ops.append((key, c["name"], partial(self.cli, argv)))
        return ops

    def check(self, rec: dict) -> dict:
        checks.check_process(rec["value"], rec["stderr"])
        result = checks.check_run_output(self.out(rec["key"]), "pension")
        if rec["name"] not in self.first_digest:
            scenario = self.scenarios[rec["name"]].params
            prices = result["prices"]
            exact = pension_exact_acceptance(scenario, prices)
            utility = pension_utility(scenario, prices, exact)
            self.regrets.append(regret(utility, prices.index(result["optimum"])))
            for h, est, p in zip(prices, result["accept"], exact):
                self.z_rows.append((rec["key"], h, est, p, scenario.mc_draws))
        return result

    def check_all(self, records: list) -> list:
        """Family-wise (Bonferroni) test of every acceptance column against
        the exact oracle, on top of the per-op checks."""
        outcomes = super().check_all(records)
        level = ZCHECK_ALPHA / max(1, len(self.z_rows))
        bad = {}
        for key, h, est, p, draws in self.z_rows:
            pvalue = acceptance_pvalue(est, p, draws)
            if pvalue < level:
                bad.setdefault(key, f"acceptance {est} at offer {h} against exact {p}: "
                                    f"p-value {pvalue:.3g} below family-wise {level:.3g}")
        for outcome in outcomes:
            if outcome["ok"] and outcome["key"] in bad:
                outcome.update(ok=False, reason=bad[outcome["key"]], known=False)
        return outcomes

    def post_checks(self, records: list) -> list:
        """Criterion 10 at batch scale: the cheapest customers of the first
        pass give identical bytes at the other worker count."""
        other = 1 if int(self.workers) != 1 else 2
        first = records[0]["key"].split("_")[0] + "_"
        first_pass = [r for r in records if r["key"].startswith(first)]
        cheapest = sorted(first_pass, key=lambda r: r["wall"])[:2]
        failures = []
        for rec in cheapest:
            key = f"w{other}_{rec['key']}"
            code = self.cli(["run", self.files[rec["name"]], "--workers", other,
                             "--out", self.out(key)])
            a = checks.check_run_output(self.out(rec["key"]), "pension")["digest"]
            b = checks.check_run_output(self.out(key), "pension")["digest"] if code == 0 else None
            if a != b:
                failures.append(f"{rec['name']}: bytes differ between --workers {self.workers} and {other}")
        return failures


class Verify(Workload):
    """`price compare` on bundled cases, then power-prior quadrature curves
    and one seeded 3-producer market built from the generic template."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        import araprice

        self.compares = spec["compares"]
        self.compare_scenarios = {
            c["case"]: araprice.parse_scenario(c["file"]) for c in self.compares
        }
        self.curves = {
            c["name"]: araprice.RetailScenario(
                cost=c["cost"],
                competitor_cost=c["cost"],
                max_price=c["max_price"],
                competitor_max_price=c["max_price"],
                customer_noise=araprice.InverseGammaParams(*c["customer_noise"]),
                competitor_noise=araprice.InverseGammaParams(0.5, 0.5),
                prior_exponent=c["exponent"],
                utility_variant=c["variant"],
            )
            for c in spec["curves"]
        }
        self.markets = {m["name"]: m for m in spec["markets"]}

    def warm_up(self) -> None:
        import araprice

        warm = self.compares[0]
        self.cli(["compare", warm["file"], "--out", self.out("warmup")])
        sc = next(iter(self.curves.values()))
        araprice.quadrature_retail_utility(sc.cost, sc, density=sc.our_price_prior, nodes=512)
        small = dict(next(iter(self.markets.values())), choice_draws=2000, forecasts=30)
        self.market(small)

    def curve(self, name: str):
        import araprice

        sc = self.curves[name]
        prior = sc.our_price_prior
        values = [
            araprice.quadrature_retail_utility(float(p), sc, density=prior, nodes=512)
            for p in sc.price_grid.points()
        ]
        _, rival = araprice.quadrature_competitor_objective(sc, nodes=512)
        return values, rival

    def pass_ops(self, k: int) -> list:
        ops = []
        for c in self.compares:
            key = f"p{k}_compare_{c['case']}"
            argv = ["compare", c["file"], "--out", self.out(key)]
            ops.append((key, c["case"], partial(self.cli, argv)))
        name = list(self.curves)[k % len(self.curves)]
        ops.append((f"p{k}_curve_{name}", name, partial(self.curve, name)))
        m = list(self.markets.values())[k % len(self.markets)]
        ops.append((f"p{k}_market_{m['name']}", m["name"], partial(self.market, m)))
        return ops

    def check(self, rec: dict) -> dict:
        if rec["name"] in self.curves:
            return self.check_curve(rec)
        if rec["name"] in self.markets:
            return self.check_market(rec)
        result = checks.check_compare_output(
            self.out(rec["key"]), rec["name"], rec["value"], rec["stderr"]
        )
        if rec["name"] not in self.first_digest:
            scenario = self.compare_scenarios[rec["name"]]
            rows = result["rows"]
            prices = [r["price"] for r in rows]
            if scenario.kind == "pension":
                params = scenario.params
                margin = [(params.earn_rate - h) * params.capital for h in prices]
                engine = [m * r["estimate"] for m, r in zip(margin, rows)]
                exact = [m * r["oracle"] for m, r in zip(margin, rows)]
                self.regrets.append(regret(exact, checks.first_argmax(engine)))
            elif (exact := scenario_exact_utility(scenario, prices)) is not None:
                engine = [r["estimate"] for r in rows]
                self.regrets.append(regret(exact, checks.first_argmax(engine)))
        return result

    def check_curve(self, rec: dict) -> dict:
        """Finite values that agree with adaptive quadrature at a few prices."""
        import numpy as np
        from scipy import integrate, stats

        values, rival = rec["value"]
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(rival))):
            raise checks.CheckError("quadrature curve is not finite")
        sc = self.curves[rec["name"]]
        prior = sc.our_price_prior
        noise = sc.customer_noise
        scale, dof = math.sqrt(noise.shape / noise.scale), 2.0 * noise.shape
        points = sc.price_grid.points()
        for i in range(0, points.size, 30):
            p = float(points[i])
            accept, _ = integrate.quad(
                lambda x: stats.t.sf(scale * (p - x), dof) * prior.pdf(x),
                prior.lower, prior.upper, limit=200, epsabs=1e-13, epsrel=1e-12,
            )
            ref = (p - sc.cost) * accept
            if sc.utility_variant == "perishable":
                ref -= sc.cost * (1.0 - accept)
            if abs(ref - values[i]) > 1e-6 * max(1.0, abs(ref)):
                raise checks.CheckError(f"quadrature at {p}: {values[i]} vs adaptive {ref}")
        return {"digest": floats_digest(values, rival)}

    def market(self, m: dict) -> dict:
        import araprice as ap
        import numpy as np

        rng = ap.RngStream(m["seed"])
        customer = ap.RandomUtilitySpec.custom(
            builder=lambda w: (lambda price, s: -(price + w * np.asarray(s, float))),
            prior=tuple(m["tradeoff"]),
        )
        delays = ap.OutcomeModel.discrete(
            {i: tuple(d) for i, d in enumerate(m["delays"])}
        )
        shares = ap.customer_choice_probs(
            m["shares_at"], customer, delays, m["choice_draws"], rng.derive(1)
        )
        rival_margin = ap.RandomUtilitySpec.custom(
            builder=lambda cost: (lambda p, s: p - cost), prior=tuple(m["rival_cost"])
        )
        beliefs = ap.AgentBeliefs((ap.PowerPricePrior(*m["belief"]),))
        her_choice = lambda own, rivals: ap.student_t_cdf(rivals - own, m["rival_dof"])
        her_grid = ap.PriceGrid(*m["rival_grid"])
        forecast = np.array([
            ap.sample_competitor_optimal_price(
                1, rival_margin, beliefs, her_choice, her_grid, m["inner_draws"],
                rng.derive(100 + k),
            )
            for k in range(m["forecasts"])
        ])
        values, counts = np.unique(forecast, return_counts=True)
        rival_a = (tuple(values), tuple(counts / counts.sum()))
        rival_b = (tuple(m["rival_b"][0]), tuple(m["rival_b"][1]))
        dof = m["our_dof"]
        optimum, curve = ap.solve_supported_price(
            ap.PriceGrid(*m["grid"]),
            ap.ProducerUtility.margin(m["cost"]),
            ap.AgentBeliefs((ap.CategoricalPMF(*rival_a), ap.CategoricalPMF(*rival_b))),
            lambda own, rivals: 1.0 - ap.student_t_cdf(own - rivals, dof),
            n_draws=m["solve_draws"],
            rng=rng.derive(2),
        )
        return {"shares": shares, "forecast": forecast, "rivals": (rival_a, rival_b),
                "optimum": optimum, "curve": curve}

    def check_market(self, rec: dict) -> dict:
        """Choice shares that partition unity, forecasts on the rival's
        grid, and an optimum that is the argmax of a finite curve."""
        import numpy as np

        out = rec["value"]
        m = self.markets[rec["name"]]
        shares, curve = out["shares"], out["curve"]
        if abs(shares.sum() - 1.0) > 1e-12 or np.any(shares < 0) or np.any(shares > 1):
            raise checks.CheckError(f"choice probabilities {shares} do not partition unity")
        lo, hi, _ = m["rival_grid"]
        if np.any(out["forecast"] < lo) or np.any(out["forecast"] > hi):
            raise checks.CheckError("rival forecast outside her price grid")
        columns = (curve.prices, curve.accept_prob, curve.expected_utility, curve.std_err)
        if not all(np.all(np.isfinite(c)) for c in columns):
            raise checks.CheckError("supported-price curve is not finite")
        best = int(np.argmax(curve.expected_utility))
        if out["optimum"] != float(curve.prices[best]):
            raise checks.CheckError(f"optimum {out['optimum']} is not the curve argmax")
        if rec["name"] not in self.first_digest:
            exact = template_exact_utility(m["cost"], curve.prices, out["rivals"], dof=m["our_dof"])
            self.regrets.append(regret(exact, best))
        return {"digest": floats_digest(shares, out["forecast"], *columns)}


WORKLOADS = {"pension-batch": PensionBatch, "verify": Verify}


def warm(spec_path: str, setup_only: bool) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = layers.Tracer() if spec["trace"] else None
    if tracer is not None:
        import numpy.polynomial.legendre  # noqa: F401

        layers.install(tracer, [layers.LEGGAUSS])
    import araprice
    import araprice.cli  # noqa: F401

    workload = WORKLOADS[spec["workload"]](spec)
    workload.warm_up()
    emit({"event": "ready"})
    if setup_only:
        return 0

    records, pass_walls = [], []
    untraced_pass_s = None
    cpu0, start = cpu_seconds(), time.perf_counter()
    k = 0
    while True:
        if tracer is not None and k == 1:
            # pass 0 ran without span wrappers: its wall time is the
            # reference for the tracing overhead
            untraced_pass_s = pass_walls[0]
            layers.install(tracer)
            tracer.reset()
            records.clear()
            pass_walls.clear()
            cpu0, start = cpu_seconds(), time.perf_counter()
        pass_start = time.perf_counter()
        for key, name, fn in workload.pass_ops(k):
            wall, rec = run_op(fn)
            rec.update(key=key, name=name, wall=wall)
            records.append(rec)
        pass_walls.append(time.perf_counter() - pass_start)
        k += 1
        # stop at the pass count whose total is closest to `seconds`
        elapsed = time.perf_counter() - start + statistics.fmean(pass_walls) / 2
        if elapsed >= spec["seconds"] and (tracer is None or k > 1):
            break
    cpu = cpu_seconds() - cpu0
    raw = tracer.raw() if tracer is not None else None
    wrappers = layers.installed()

    import numpy
    import scipy

    outcomes = workload.check_all(records)
    result = {
        "event": "result",
        "ops": outcomes,
        "pass_walls": pass_walls,
        "cpu_s": cpu,
        "regrets": [r for r in workload.regrets if r is not None],
        "post_failures": workload.post_checks(records),
        "bytes_written": workload.bytes_written,
        "wrappers_installed": wrappers,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers_raw"] = raw
        result["untraced_pass_s"] = untraced_pass_s
    emit(result)
    return 0


def traced_cli(raw_path: str, argv: list) -> int:
    tracer = layers.Tracer()
    import numpy.polynomial.legendre  # noqa: F401

    layers.install(tracer, [layers.LEGGAUSS])
    import araprice.cli

    layers.install(tracer)
    try:
        return araprice.cli.main(argv)
    finally:
        Path(raw_path).write_text(json.dumps(tracer.raw()))


def cli_regret(spec_path: str) -> int:
    """Regret of the cli-cold runs that have an exact twin, and versions."""
    import araprice
    import numpy
    import scipy

    regrets = []
    for item in json.loads(Path(spec_path).read_text()):
        scenario = araprice.parse_scenario(item["file"])
        result = checks.check_run_output(Path(item["out"]), scenario.kind)
        exact = scenario_exact_utility(scenario, result["prices"])
        if exact is not None:
            regrets.append(regret(exact, result["prices"].index(result["optimum"])))
    emit({
        "event": "result",
        "regrets": [r for r in regrets if r is not None],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "warm":
        sys.exit(warm(rest[0], "--setup-only" in rest[1:]))
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    if mode == "regret":
        sys.exit(cli_regret(rest[0]))
    sys.exit(f"unknown mode {mode!r}")
