"""Byte-for-byte outputs of ``price run`` and ``price compare``.

Every file the two commands write for the bundled cases, at their file
seeds and one worker, is hashed and checked against digests recorded
with the numpy and scipy versions stored next to them.  Other versions
may round differently, so the test skips there instead of failing.

To re-record after an intended output change:
    PYTHONPATH=src python tests/test_golden_outputs.py
which prints each case and file whose digest changed and rewrites
golden_outputs.json in place.  It replaces the versions
and the case digests and carries every other recorded key over
unchanged, such as the "demo_shares" digest that tests/test_core.py
checks.
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


def rerecorded(recorded: dict, cases: dict) -> dict:
    """``recorded`` with new versions and case digests, its other keys kept."""
    return {**recorded, "versions": _versions(), "cases": cases}


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


def test_rerecording_keeps_the_other_recorded_keys():
    recorded = {"versions": {"numpy": "0", "scipy": "0"}, "cases": {"a": {}},
                "demo_shares": "ab12"}
    new = rerecorded(recorded, {"b": {}})
    assert new == {"versions": _versions(), "cases": {"b": {}}, "demo_shares": "ab12"}
    assert list(new) == list(recorded)


def changed_entries(old: dict, new: dict) -> list:
    """"case key" for every exit code or file digest that differs between
    two case tables, including entries present in only one of them."""
    changed = []
    for name in sorted(old.keys() | new.keys()):
        for part in ("exit", "sha256"):
            before = old.get(name, {}).get(part, {})
            after = new.get(name, {}).get(part, {})
            changed += [
                f"{name} {key}"
                for key in sorted(before.keys() | after.keys())
                if before.get(key) != after.get(key)
            ]
    return changed


def test_changed_entries_name_each_moved_file():
    old = {"a": {"exit": {"run": 0}, "sha256": {".csv": "1", ".json": "2"}}}
    new = {"a": {"exit": {"run": 0}, "sha256": {".csv": "1", ".json": "3"}},
           "b": {"exit": {"run": 0}, "sha256": {}}}
    assert changed_entries(old, new) == ["a .json", "b run"]
    assert changed_entries(old, old) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        cases = written_digests(Path(tmp))
    recorded = json.loads(GOLDEN.read_text())
    for entry in changed_entries(recorded["cases"], cases):
        print(f"changed: {entry}")
    GOLDEN.write_text(json.dumps(rerecorded(recorded, cases), indent=2) + "\n")
