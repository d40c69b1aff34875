"""Byte-for-byte outputs of ``price run`` and ``price compare``.

Every file the two commands write for the bundled cases, at their file
seeds and one worker, is hashed and checked against digests recorded
with the numpy and scipy versions stored next to them.  Other versions
may round differently, so the test skips there instead of failing.

To re-record after an intended output change:
    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from araprice.cli import main
from araprice.scenario import bundled_case, bundled_case_names

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def written_digests(workdir: Path) -> dict:
    """case -> exit codes of run and compare, and the sha256 of each file."""
    out = {}
    for name in bundled_case_names():
        base = workdir / name
        codes = {
            command: main([command, str(bundled_case(name)), "--out", str(base),
                           "--workers", "1"])
            for command in ("run", "compare")
        }
        files = {
            p.name.removeprefix(name): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.glob(f"{name}.*"))
        }
        out[name] = {"exit": codes, "sha256": files}
    return out


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_bundled_outputs_match_recorded_digests(tmp_path, capsys):
    recorded = json.loads(GOLDEN.read_text())
    if recorded["versions"] != _versions():
        pytest.skip(
            f"digests recorded with numpy {recorded['versions']['numpy']} and "
            f"scipy {recorded['versions']['scipy']}; running numpy "
            f"{np.__version__} and scipy {scipy.__version__}"
        )
    got = written_digests(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(recorded["cases"])
    for name, expected in recorded["cases"].items():
        assert got[name] == expected, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        cases = written_digests(Path(tmp))
    print(json.dumps({"versions": _versions(), "cases": cases}, indent=2))
