"""Span wrappers around the public functions of each araprice module.

The wrappers are installed from outside the program and only in traced
runs.  Modules bind imported names at import time (``retail`` holds its
own ``student_t_cdf``, ``cli`` its own ``optimize_offer``), so every
module attribute that refers to a wrapped function is replaced, wherever
the name is looked up.  A target that no longer exists raises
``LayerError``, so a rename in the program fails the traced run instead
of reporting 0 s.

Spans nest per thread.  A span's time is inclusive; self time subtracts
the direct child spans opened on the same thread.  Spans opened in the
worker threads of ``_parallel.run_sliced`` have no parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

MARK = "__perfbench_span__"


class LayerError(RuntimeError):
    """A wrapper target is missing from the program."""


CALLS_ONLY = "calls only"  # counter for hot functions: count calls, no span


def _forecast_evals(tracer, args) -> None:
    scenario = args["scenario"]
    if scenario.known_competitor_price is None:
        grid = len(scenario.competitor_grid.points())
        tracer.count("retail.forecast_cdf_evals", scenario.n1 * scenario.n2 * grid)


def _exp_evals(tracer, args) -> None:
    import numpy as np

    size = np.broadcast(np.asarray(args["h"]), np.asarray(args["rho"])).size
    tracer.count("pension.exp_evals", size * args["scenario"].horizon)


def _t_cdf_evals(tracer, args) -> None:
    import numpy as np

    tracer.count("randkit.t_cdf_evals", int(np.size(args["x"])))


def _count_slices(tracer, args) -> None:
    fn = args["fn"]

    def counted(block):
        tracer.count("parallel.slices", 1)
        return fn(block)

    args["fn"] = counted


# (span name, module, function, counter).  A counter reads, and may
# rewrite, the call's bound arguments before the call; CALLS_ONLY counts
# calls of a function called per Monte Carlo draw without timing them.
TARGETS = (
    ("scenario.parse", "araprice.scenario", "parse_scenario", None),
    ("cli.main", "araprice.cli", "main", None),
    ("retail.forecast", "araprice.retail", "sample_competitor_prices", _forecast_evals),
    ("retail.optimize", "araprice.retail", "optimize_price", None),
    ("pension.optimize", "araprice.pension", "optimize_offer", None),
    ("pension.eu", "araprice.pension", "customer_expected_utility", _exp_evals),
    ("parallel.run_sliced", "araprice._parallel", "run_sliced", _count_slices),
    ("core.choice", "araprice.core", "customer_choice_probs", None),
    ("core.realize_choice", "araprice.core", "realize_choice", CALLS_ONLY),
    ("core.forecast", "araprice.core", "sample_competitor_optimal_price", None),
    ("core.solve", "araprice.core", "solve_supported_price", None),
    ("oracle.quadrature_retail", "araprice.oracle", "quadrature_retail_utility", None),
    (
        "oracle.quadrature_competitor",
        "araprice.oracle",
        "quadrature_competitor_objective",
        None,
    ),
    ("oracle.exact_pension", "araprice.oracle", "exact_pension_acceptance", None),
    ("oracle.compare", "araprice.oracle", "compare", None),
    ("randkit.t_cdf", "araprice.randkit", "student_t_cdf", _t_cdf_evals),
)

# Installed before araprice is imported, so that a name bound at import
# time (say, a cached copy of leggauss) is still the counting wrapper.
LEGGAUSS = ("numpy.leggauss", "numpy.polynomial.legendre", "leggauss", None)

# Per-layer metrics in output order: (name, unit).  Times and counts are
# per op of the traced passes; import times are per fresh process.
PER_LAYER = (
    ("import.araprice_s", "s"),
    ("import.scipy_stats_s", "s"),
    ("scenario.parse_s", "s"),
    ("scenario.parse_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("retail.forecast_s", "s"),
    ("retail.forecast_cdf_evals", "count"),
    ("retail.grid_s", "s"),
    ("pension.optimize_s", "s"),
    ("pension.eu_s", "s"),
    ("pension.eu_calls", "count"),
    ("pension.exp_evals", "count"),
    ("parallel.run_sliced_s", "s"),
    ("parallel.slices", "count"),
    ("core.choice_s", "s"),
    ("core.realize_choice_calls", "count"),
    ("core.forecast_s", "s"),
    ("core.forecast_calls", "count"),
    ("core.solve_s", "s"),
    ("oracle.quadrature_s", "s"),
    ("oracle.exact_pension_s", "s"),
    ("oracle.compare_s", "s"),
    ("oracle.leggauss_calls", "count"),
    ("randkit.t_cdf_s", "s"),
    ("randkit.t_cdf_evals", "count"),
    ("trace.overhead_frac", "fraction"),
)

# The workload on which each layer's metrics must be nonzero.
DESIGNATED = {
    "cli-cold": (
        "import.araprice_s",
        "import.scipy_stats_s",
        "scenario.parse_s",
        "scenario.parse_calls",
        "cli.self_s",
        "cli.bytes_written",
        "parallel.run_sliced_s",
        "parallel.slices",
    ),
    "pension-batch": (
        "pension.optimize_s",
        "pension.eu_s",
        "pension.eu_calls",
        "pension.exp_evals",
        "parallel.run_sliced_s",
        "parallel.slices",
    ),
    "verify": (
        "retail.forecast_s",
        "retail.forecast_cdf_evals",
        "retail.grid_s",
        "oracle.quadrature_s",
        "oracle.exact_pension_s",
        "oracle.compare_s",
        "oracle.leggauss_calls",
        "randkit.t_cdf_s",
        "randkit.t_cdf_evals",
        "core.choice_s",
        "core.realize_choice_calls",
        "core.forecast_s",
        "core.forecast_calls",
        "core.solve_s",
    ),
}


class Tracer:
    """In-memory span and counter aggregates, safe across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.child = defaultdict(float)  # "parent|child" -> seconds
        self.counts = defaultdict(int)

    def reset(self) -> None:
        with self._lock:
            for table in (self.total, self.calls, self.child, self.counts):
                table.clear()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        if counter is CALLS_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self._lock:
                    self.calls[name] += 1
                return fn(*args, **kwargs)

            setattr(counted, MARK, name)
            return counted

        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            stack.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    self.total[name] += elapsed
                    self.calls[name] += 1
                    if stack:
                        self.child[f"{stack[-1]}|{name}"] += elapsed

        setattr(wrapper, MARK, name)
        return wrapper

    def raw(self) -> dict:
        with self._lock:
            return {
                "total": dict(self.total),
                "calls": dict(self.calls),
                "child": dict(self.child),
                "counts": dict(self.counts),
            }


def _sites(original, module_names):
    for mod_name in module_names:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def _araprice_modules() -> list:
    return [n for n in sys.modules if n == "araprice" or n.startswith("araprice.")]


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Replace every reference to each target with its wrapper."""
    for name, module, func, counter in targets:
        mod = sys.modules.get(module)
        original = getattr(mod, func, None) if mod is not None else None
        if original is None or not callable(original):
            raise LayerError(f"{module}.{func} not found; update perfbench/layers.py")
        wrapper = tracer.wrap(name, original, counter)
        for site, attr in _sites(original, [module, *_araprice_modules()]):
            setattr(site, attr, wrapper)


def installed() -> list:
    """Names of the span wrappers currently reachable from the program."""
    found = set()
    for mod_name in [LEGGAUSS[1], *_araprice_modules()]:
        mod = sys.modules.get(mod_name)
        for value in vars(mod).values() if mod is not None else ():
            span = getattr(value, MARK, None) if callable(value) else None
            if span:
                found.add(span)
    return sorted(found)


def merge(raws) -> dict:
    out = {"total": defaultdict(float), "calls": defaultdict(int),
           "child": defaultdict(float), "counts": defaultdict(int)}
    for raw in raws:
        for part, values in raw.items():
            for key, value in values.items():
                out[part][key] += value
    return out


def metrics(raw: dict, ops: int) -> dict:
    """Per-op layer metrics from merged raw aggregates (spans and counts)."""
    total = defaultdict(float, raw["total"])
    calls = defaultdict(int, raw["calls"])
    child = defaultdict(float, raw["child"])
    counts = defaultdict(int, raw["counts"])
    cli_children = sum(v for k, v in child.items() if k.startswith("cli.main|"))
    values = {
        "scenario.parse_s": total["scenario.parse"],
        "scenario.parse_calls": calls["scenario.parse"],
        "cli.self_s": total["cli.main"] - cli_children,
        "retail.forecast_s": total["retail.forecast"],
        "retail.forecast_cdf_evals": counts["retail.forecast_cdf_evals"],
        "retail.grid_s": total["retail.optimize"]
        - child["retail.optimize|retail.forecast"],
        "pension.optimize_s": total["pension.optimize"],
        "pension.eu_s": total["pension.eu"],
        "pension.eu_calls": calls["pension.eu"],
        "pension.exp_evals": counts["pension.exp_evals"],
        "parallel.run_sliced_s": total["parallel.run_sliced"],
        "parallel.slices": counts["parallel.slices"],
        "core.choice_s": total["core.choice"],
        "core.realize_choice_calls": calls["core.realize_choice"],
        "core.forecast_s": total["core.forecast"],
        "core.forecast_calls": calls["core.forecast"],
        "core.solve_s": total["core.solve"],
        "oracle.quadrature_s": total["oracle.quadrature_retail"]
        + total["oracle.quadrature_competitor"],
        "oracle.exact_pension_s": total["oracle.exact_pension"],
        "oracle.compare_s": total["oracle.compare"],
        "oracle.leggauss_calls": calls["numpy.leggauss"],
        "randkit.t_cdf_s": total["randkit.t_cdf"],
        "randkit.t_cdf_evals": counts["randkit.t_cdf_evals"],
    }
    return {k: v / ops for k, v in values.items()}
