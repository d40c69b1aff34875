"""Self-test of the benchmark's layer wrappers.

Run from the repository root (about two minutes; one short traced and
one short untraced run per workload):

    python3 -m pytest perfbench/test_layers.py -q

If a rename in src/ breaks a wrapper, the traced run fails here instead
of the benchmark reporting 0 s for that layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(layers.DESIGNATED))
def test_designated_layer_metrics_are_nonzero(workload):
    report, result = bench(workload, trace=1)
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    zero = [n for n in layers.DESIGNATED[workload] if not result["metrics"][n]["value"] > 0]
    assert zero == []
    assert report["problems"] == []


@pytest.mark.parametrize("workload", sorted(layers.DESIGNATED))
def test_untraced_run_installs_no_wrapper(workload):
    report, result = bench(workload, trace=0)
    assert report["meta"]["wrappers_installed"] == []
    assert report["problems"] == []
    assert result["correct"]


def test_missing_target_is_an_error():
    tracer = layers.Tracer()
    with pytest.raises(layers.LayerError):
        layers.install(tracer, [("x.y", "json", "no_such_function", None)])
