"""The benchmark's layer wrappers name functions that exist.

``perfbench/layers.py`` wraps araprice functions by module and name, so a
rename in the program fails a traced benchmark run.  This checks every
name in a fraction of a second, without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_wrapped_target_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module}.{func}"
        for _, module, func, _ in (*layers.TARGETS, layers.LEGGAUSS)
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert not missing, f"perfbench/layers.py wraps missing functions: {missing}"
