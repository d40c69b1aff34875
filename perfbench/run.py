"""araprice benchmark runner (stdlib only).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client; see perfbench/NOTES.md for why):

    cli-cold       fresh `python -m araprice.cli` run or validate processes
                   on the five light bundled cases, seeds from --seed
    pension-batch  one warm process prices seeded pension customers
                   through `cli.main(["run", ...])` at min(2, nproc) workers
    verify         one warm process runs `cli.main(["compare", ...])` on
                   every bundled case, then a power-prior quadrature curve
                   and a seeded 3-producer market solved with the generic
                   template of araprice.core

Each run sets up (timed separately), then runs the number of whole passes
of ops whose total time is closest to --seconds, then checks every op's
output.  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 a separate
run installs span wrappers and the last line holds the per-layer metrics.
The lines before it report error rate, decision regret, output digests
and run metadata.  The program is run from ./src, byte-compiled first.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASES = SRC / "araprice" / "cases"
PY = sys.executable

LIGHT_CASES = (
    "retail_case1",
    "retail_case2",
    "retail_case3",
    "template_example",
    "pension_case1",
)
PENSION_BASES = (
    "pension_case2_low",
    "pension_case2_high",
    "pension_case3_n2",
    "pension_case3_n5",
    "pension_case3_n10",
)
PENSION_PMFS = {  # score class -> bundled case holding its rival-offer pmf
    "none": "pension_case3_n2",
    "low": "pension_case2_low",
    "high": "pension_case2_high",
}
EXACT_TWIN_CASES = ("template_example", "pension_case1")
COMPARE_CASES = LIGHT_CASES + PENSION_BASES  # every bundled case
PASSES = 12  # distinct generated inputs per workload; later passes repeat them
SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3  # `-X importtime` processes per traced run
HARD_LIMIT_S = 170.0  # kill any child still running this long after start

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


class Child:
    """A child process; ``wait`` reaps it with wait4 for its rusage."""

    def __init__(self, argv, work: Path, tag: str, deadline: float, pipe=False):
        self.out_path = work / "logs" / f"{tag}.out"
        self.err_path = work / "logs" / f"{tag}.err"
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        self._out = None if pipe else open(self.out_path, "w")
        self._err = open(self.err_path, "w")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(a) for a in argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE if pipe else self._out, stderr=self._err,
            text=True,
        )
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()

    def messages(self):
        """Protocol messages from a piped child, with their arrival time."""
        for line in self.proc.stdout:
            if line.startswith("@@ "):
                yield time.perf_counter() - self.start, json.loads(line[3:])

    def wait(self) -> dict:
        if self.proc.stdout is not None:
            self.proc.stdout.read()
            self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._timer.cancel()
        for f in (self._out, self._err):
            if f is not None:
                f.close()
        return {
            "code": self.proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "stdout": "" if self._out is None else self.out_path.read_text(),
            "stderr": self.err_path.read_text(),
        }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PRICE_WORKERS", None)  # `--workers` stays at its default
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_child(argv, work, tag, deadline) -> dict:
    return Child(argv, work, tag, deadline).wait()


def bundled(name: str) -> dict:
    return json.loads((CASES / f"{name}.json").read_text())


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# inputs generated from the workload seed
# ---------------------------------------------------------------------------


def pension_customers(rng: random.Random, work: Path) -> list:
    """Seeded perturbations of the five 200k-400k-draw bundled cases:
    score-class pmf, rival count and capital.  Draw counts, grids and the
    number of rival offers stay; only the rival count changes the work of
    a customer (sampling rival offers, 25 ms at 1 rival to 210 ms at 10
    for 400k draws)."""
    batches = []
    for k in range(PASSES):
        batch = []
        for base in PENSION_BASES:
            doc = bundled(base)
            params = doc["params"]
            score = rng.choice(sorted(PENSION_PMFS))
            probs = bundled(PENSION_PMFS[score])["params"]["competitor_offers"]["probs"]
            probs = [p * rng.uniform(0.8, 1.25) for p in probs]
            total = sum(probs)
            params["competitor_offers"]["probs"] = [p / total for p in probs]
            params["score_class"] = score
            params["n_competitors"] = rng.choice([1, 2, 5, 10])
            params["capital"] = round(rng.uniform(10_000.0, 100_000.0), -2)
            doc["seed"] = rng.randrange(2**31)
            name = f"c{k}_{base}"
            batch.append({"name": name, "file": str(write_json(work / "inputs" / f"{name}.json", doc))})
        batches.append(batch)
    return batches


def quadrature_curves(rng: random.Random) -> list:
    """One retail scenario per pass, drawn like acceptance criterion 9,
    power prior only, with a fixed 45-unit price range so every curve has
    91 grid points.  One curve a pass keeps the median op of `verify` in
    the cluster of pension compares at any pass count."""
    curves = []
    for k in range(PASSES):
        cost = round(rng.uniform(2.0, 8.0), 2)
        curves.append({
            "name": f"q{k}",
            "cost": cost,
            "max_price": cost + 45.0,
            "customer_noise": [round(rng.uniform(0.6, 3.0), 3), round(rng.uniform(0.6, 3.0), 3)],
            "exponent": round(rng.uniform(0.0, 3.0), 3),
            "variant": "perishable" if rng.random() < 0.5 else "non_perishable",
        })
    return curves


def template_markets(rng: random.Random) -> list:
    """Three-producer markets shaped like demos/generic_template.py.

    The seed varies the customer, the vendors' delays, the rival's costs,
    our cost and the second rival's prices.  The rival's belief about our
    price and both t choice models stay fixed: the cost of the Student-t
    CDF depends on its arguments and degrees of freedom, and fixing them
    keeps the work of a market independent of the seed."""
    markets = []
    for k in range(PASSES):
        delays = []
        for _ in range(3):
            fast = round(rng.uniform(0.5, 2.5), 2)
            share = round(rng.uniform(0.4, 0.9), 2)
            delays.append([[fast, round(fast + rng.uniform(1.0, 4.0), 2)], [share, 1.0 - share]])
        tradeoff = round(rng.uniform(0.3, 0.8), 2)
        rival_cost = round(rng.uniform(5.0, 7.0), 2)
        cost = round(rng.uniform(10.0, 13.0), 2)
        b_values = sorted(rng.sample([17.0 + 0.5 * i for i in range(17)], 4))
        b_weights = [rng.uniform(0.5, 1.5) for _ in b_values]
        markets.append({
            "name": f"m{k}",
            "seed": rng.randrange(2**31),
            "tradeoff": [tradeoff, round(tradeoff + rng.uniform(1.0, 2.0), 2)],
            "delays": delays,
            "shares_at": [round(rng.uniform(18.0, 22.0), 2), round(rng.uniform(17.0, 21.0), 2),
                          round(rng.uniform(20.0, 24.0), 2)],
            "choice_draws": 20_000,
            "rival_cost": [rival_cost, round(rival_cost + rng.uniform(2.0, 4.0), 2)],
            "belief": [15.0, 25.0, 2.0],
            "rival_dof": 3.0,
            "rival_grid": [10.0, 30.0, 0.5],
            "inner_draws": 200,
            "forecasts": 300,
            "cost": cost,
            "grid": [cost, cost + 18.0, 0.5],
            "our_dof": 4.0,
            "rival_b": [b_values, [w / sum(b_weights) for w in b_weights]],
            "solve_draws": 4000,
        })
    return markets


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def import_cumulative_s(importtime: str, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules, from the
    ``-X importtime`` log.  Entries nested in another entry of the package
    are already in its cumulative time; scipy's lazy loader can leave the
    package itself without an entry of its own."""
    entries = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total, ancestors = 0, []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = name == package or name.startswith(package + ".")
        if inside and not any(a[1] for a in ancestors):
            total += cumulative
        ancestors.append((depth, inside))
    return total / 1e6


def import_probes(work: Path, deadline: float) -> dict:
    """Cold `import araprice.cli` wall time and the scipy.stats share of it."""
    code = ("import time; t = time.perf_counter(); import araprice.cli; "
            "print(time.perf_counter() - t)")
    walls, stats_s = [], []
    for i in range(IMPORT_PROBES):
        res = run_child([PY, "-X", "importtime", "-c", code], work, f"importtime{i}", deadline)
        if res["code"] != 0:
            raise BenchError(f"import probe failed: {res['stderr'][-500:]}")
        walls.append(float(res["stdout"].strip()))
        stats_s.append(import_cumulative_s(res["stderr"], "scipy.stats"))
    return {"import.araprice_s": statistics.median(walls),
            "import.scipy_stats_s": statistics.median(stats_s)}


def cli_cold(args, work: Path, rng: random.Random, deadline: float) -> dict:
    inputs = {}
    for case in LIGHT_CASES:
        doc = bundled(case)
        doc["seed"] = rng.randrange(2**31)
        inputs[case] = write_json(work / "inputs" / f"{case}.json", doc)
    (work / "out").mkdir()
    kinds = {case: bundled(case)["kind"] for case in LIGHT_CASES}

    setups = []
    for i in range(0 if args.trace else SETUPS):  # traced runs report no set-up
        res = run_child([PY, "-c", "import araprice.cli"], work, f"setup{i}", deadline)
        if res["code"] != 0:
            raise BenchError(f"import araprice.cli failed: {res['stderr'][-500:]}")
        setups.append(res["wall"])

    records, pass_walls, raws = [], [], []
    untraced_pass_s = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k >= 1
        if args.trace and k == 1:  # pass 0 is the untraced reference
            untraced_pass_s = pass_walls[0]
            records.clear()
            pass_walls.clear()
            start = time.perf_counter()
        pass_start = time.perf_counter()
        for i, case in enumerate(LIGHT_CASES):
            cmd = ("run", "validate")[(i + k) % 2]  # two passes do both per case
            key = f"p{k}_{cmd}_{case}"
            base = work / "out" / key
            argv = [cmd, inputs[case]] + (["--out", base] if cmd == "run" else [])
            if traced:
                raw_path = work / "raw" / f"{key}.json"
                raw_path.parent.mkdir(parents=True, exist_ok=True)
                res = run_child([PY, HERE / "worker.py", "cli", raw_path, *argv], work, key, deadline)
                if raw_path.is_file():
                    raws.append(json.loads(raw_path.read_text()))
            else:
                res = run_child([PY, "-m", "araprice.cli", *argv], work, key, deadline)
            res.update(key=key, case=case, cmd=cmd, base=base)
            records.append(res)
        pass_walls.append(time.perf_counter() - pass_start)
        k += 1
        # stop at the pass count whose total is closest to --seconds
        elapsed = time.perf_counter() - start + statistics.fmean(pass_walls) / 2
        if elapsed >= args.seconds and (not args.trace or k > 1):
            break

    ops, first_digest, bytes_written = [], {}, 0
    for rec in records:
        outcome = {"key": rec["key"], "wall": rec["wall"], "ok": True}
        try:
            checks.check_process(rec["code"], rec["stderr"])
            if rec["cmd"] == "run":
                result = checks.check_run_output(rec["base"], kinds[rec["case"]])
                bytes_written += result["bytes"]
                outcome["digest"] = result["digest"]
                if first_digest.setdefault(rec["case"], result["digest"]) != result["digest"]:
                    raise checks.CheckError("output bytes differ from an earlier run of the same input")
            elif not rec["stdout"].startswith("OK: valid"):
                raise checks.CheckError(f"validate printed {rec['stdout'][:200]!r}")
        except checks.CheckError as exc:
            outcome.update(ok=False, reason=str(exc), known=False)
        ops.append(outcome)

    passed = {op["key"] for op in ops if op["ok"]}
    twins = {}  # the first passing run of each case with an exact twin
    for rec in records:
        if rec["cmd"] == "run" and rec["key"] in passed and rec["case"] in EXACT_TWIN_CASES:
            twins.setdefault(rec["case"], {"file": str(inputs[rec["case"]]), "out": str(rec["base"])})
    twins = list(twins.values())
    regret_child = Child([PY, HERE / "worker.py", "regret", write_json(work / "twins.json", twins)],
                         work, "regret", deadline, pipe=True)
    message = next((m for _, m in regret_child.messages() if m.get("event") == "result"), None)
    regret_res = regret_child.wait()
    if message is None:
        raise BenchError(f"regret check failed: {regret_res['stderr'][-500:]}")

    result = {
        "setups": setups,
        "ops": ops,
        "pass_walls": pass_walls,
        "cpu_s": sum(r["cpu"] for r in records),
        "maxrss_kib": max(r["maxrss_kib"] for r in records),
        "regrets": message["regrets"],
        "post_failures": [],
        "versions": message["versions"],
        "bytes_written": bytes_written,
        "wrappers_installed": [],
    }
    if args.trace:
        result["layers_raw"] = layers.merge(raws)
        result["untraced_pass_s"] = untraced_pass_s
    return result


def warm_spec(args, work: Path, rng: random.Random) -> dict:
    spec = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "work": str(work)}
    if args.workload == "pension-batch":
        spec["workers"] = min(2, len(os.sched_getaffinity(0)))
        spec["warmup"] = str(CASES / "pension_case2_low.json")
        spec["customers"] = pension_customers(rng, work)
    else:
        # compares run the bundled files at their own seed: a z-test at a
        # fresh seed fails by chance, and the known false FAIL is at seed 42
        spec["compares"] = [{"case": c, "file": str(CASES / f"{c}.json")} for c in COMPARE_CASES]
        spec["curves"] = quadrature_curves(rng)
        spec["markets"] = template_markets(rng)
    return spec


def warm(args, work: Path, rng: random.Random, deadline: float) -> dict:
    spec_path = write_json(work / "spec.json", warm_spec(args, work, rng))
    argv = [PY, HERE / "worker.py", "warm", spec_path]
    setups = []
    # traced runs set up once; their set-up time is not reported
    for i in range(0 if args.trace else SETUPS - 1):
        child = Child(argv + ["--setup-only"], work, f"setup{i}", deadline, pipe=True)
        ready = next((t for t, m in child.messages() if m.get("event") == "ready"), None)
        res = child.wait()
        if ready is None or res["code"] != 0:
            raise BenchError(f"set-up failed: {res['stderr'][-1000:]}")
        setups.append(ready)
    child = Child(argv, work, "workload", deadline, pipe=True)
    result = None
    for t, message in child.messages():
        if message.get("event") == "ready":
            setups.append(t)
        elif message.get("event") == "result":
            result = message
    res = child.wait()
    if result is None or res["code"] != 0:
        raise BenchError(f"workload process failed: {res['stderr'][-1000:]}")
    result.update(setups=setups, maxrss_kib=res["maxrss_kib"])
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.is_file() else []:
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


def layer_metrics(args, result: dict, ops: int, work: Path, deadline: float) -> dict:
    values = layers.metrics(result["layers_raw"], ops)
    values["cli.bytes_written"] = result["bytes_written"] / ops
    values.update(import_probes(work, deadline))
    traced_pass = result["pass_walls"][0]
    values["trace.overhead_frac"] = traced_pass / result["untraced_pass_s"] - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "pension-batch", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "araprice" / "__init__.py").is_file():
        print(f"error: no araprice sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        build = subprocess.run([PY, "-m", "compileall", "-q", str(SRC / "araprice")],
                               capture_output=True, text=True)
        if build.returncode != 0:
            raise BenchError(f"byte-compiling src failed: {build.stdout}{build.stderr}")
        rng = random.Random(f"{args.workload}:{args.seed}")
        runner = cli_cold if args.workload == "cli-cold" else warm
        result = runner(args, work, rng, deadline)
        report = summarize(args, result, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / ".work").is_dir() and not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()
    print(report)
    return 0


def summarize(args, result: dict, work: Path, deadline: float) -> str:
    ops = result["ops"]
    walls = [op["wall"] for op in ops]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op.get("known")]
    problems = [f"{op['key']}: {op['reason']}" for op in unexpected] + result["post_failures"]
    if not args.trace and result["wrappers_installed"]:
        problems.append(f"span wrappers installed in an untraced run: {result['wrappers_installed']}")
    # digests of the first two passes: cli-cold needs two to run every case
    first_two = sorted({op["key"].split("_")[0] for op in ops}, key=lambda p: int(p[1:]))[:2]
    digests = {}
    for op in ops:
        pass_name, name = op["key"].split("_", 1)
        if pass_name in first_two and "digest" in op:
            digests.setdefault(name, op["digest"])
    regrets = result["regrets"]
    metrics = {
        "setup_s": statistics.median(result["setups"]) if result["setups"] else None,
        "op_p50_s": statistics.median(walls),
        "ops_per_s": len(ops) / sum(result["pass_walls"]),
        "cpu_s_per_op": result["cpu_s"] / len(ops),
        "peak_rss_mib": result["maxrss_kib"] / 1024.0,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "passes": len(result["pass_walls"]),
        "setups": len(result["setups"]),
        "error_rate": {"value": len(failed) / len(ops), "unit": "fraction"},
        "decision_regret": {
            "value": statistics.fmean(regrets) if regrets else None,
            "unit": "fraction",
            "ops_with_exact_twin": len(regrets),
        },
        "failures": [{"key": op["key"], "known": bool(op.get("known")), "reason": op["reason"]}
                     for op in failed] + [{"key": "post-check", "known": False, "reason": r}
                                          for r in result["post_failures"]],
        "output_digest": checks.digest([f"{k}={v}".encode() for k, v in sorted(digests.items())]),
        "op_digests": digests,
        "meta": {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            **result["versions"],
            "wrappers_installed": result["wrappers_installed"],
        },
    }
    lines = []
    if args.trace:
        values = layer_metrics(args, result, len(ops), work, deadline)
        for name in layers.DESIGNATED[args.workload]:
            if not values[name] > 0:
                problems.append(f"layer metric {name} is 0 on its designated workload")
        report["meta"]["tracing_overhead_frac"] = values["trace.overhead_frac"]
        out = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        lines += [f"{name:>16} = {metrics[name]:.6g} {unit}" for name, unit in END_TO_END]
        lines.append(f"{'error_rate':>16} = {report['error_rate']['value']:.6g} fraction "
                     f"({len(failed)} of {len(ops)} ops)")
        regret_text = "n/a" if not regrets else f"{report['decision_regret']['value']:.6g} fraction"
        lines.append(f"{'decision_regret':>16} = {regret_text} ({len(regrets)} ops with an exact twin)")
    report["problems"] = problems
    lines.append(json.dumps({"report": report}))
    lines.append(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": out,
    }))
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
