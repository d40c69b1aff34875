"""Output checks shared by the benchmark runner and its worker (stdlib only).

Every op of every workload ends in one of these checks; an op fails when
any of them does, and the failure reason is kept verbatim in the report.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# CSV header of `price run` per scenario kind, as documented in README.md.
CSV_COLUMNS = {
    "retail": ("price", "accept_prob", "expected_utility", "std_err"),
    "template": ("price", "accept_prob", "expected_utility", "std_err"),
    "pension": (
        "price",
        "accept_prob",
        "expected_utility",
        "benefit_next_year",
        "benefit_horizon",
        "std_err",
    ),
}

# Ops known to fail at the parent commit.  They stay in the workloads and
# count in `failed`; a failure matching its signature here does not make
# the run incorrect, any other failure does.
KNOWN_FAILURES = {
    ("compare", "pension_case3_n5"): (
        "price compare false FAIL: oracle.compare treats an estimate of 0 "
        "(plug-in SE 0) as deterministic while the exact acceptance is "
        "positive, so |z| = inf; the oracle JSON also holds Infinity"
    ),
    ("compare", "pension_case3_n10"): (
        "price compare false FAIL: oracle.compare treats an estimate of 0 "
        "(plug-in SE 0) as deterministic while the exact acceptance is "
        "positive (5.8e-9 at offer 0.035), so |z| = inf; the oracle JSON "
        "also holds Infinity"
    ),
}


class CheckError(Exception):
    """An op output failed a check; the message is the recorded reason."""


def _reject_constant(name: str):
    raise CheckError(f"JSON holds {name}, which strict JSON forbids")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +/-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def first_argmax(values) -> int:
    best = max(values)
    return values.index(best)


def check_process(code: int, stderr: str) -> None:
    """A `price` call that should succeed: exit 0 and no traceback."""
    if "Traceback (most recent call last)" in stderr:
        tail = stderr.strip().splitlines()[-1]
        raise CheckError(f"traceback: {tail}")
    if code != 0:
        raise CheckError(f"exit code {code}: {stderr.strip()[-200:]}")


def check_run_output(base: Path, kind: str) -> dict:
    """Check the CSV + summary pair written by `price run --out base`.

    Returns the written bytes, their digest, the grid and the optimum.
    """
    csv_path = base.with_suffix(".csv")
    summary_path = base.with_suffix(".summary.json")
    if not csv_path.is_file() or not summary_path.is_file():
        raise CheckError(f"missing output next to {base.name}")
    csv_bytes = csv_path.read_bytes()
    summary_bytes = summary_path.read_bytes()
    lines = csv_bytes.decode().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# araprice"):
        raise CheckError("CSV lacks its metadata line or rows")
    columns = tuple(lines[1].split(","))
    if columns != CSV_COLUMNS[kind]:
        raise CheckError(f"CSV columns {columns} differ from {CSV_COLUMNS[kind]}")
    rows = []
    for line in lines[2:]:
        row = [float(v) for v in line.split(",")]
        if len(row) != len(columns) or not all(math.isfinite(v) for v in row):
            raise CheckError(f"CSV row not finite or ragged: {line}")
        rows.append(row)
    summary = strict_json(summary_bytes.decode())
    prices = [r[0] for r in rows]
    utility = [r[columns.index("expected_utility")] for r in rows]
    best = prices[first_argmax(utility)]
    if summary.get("optimum") != best:
        raise CheckError(
            f"summary optimum {summary.get('optimum')} is not the curve argmax {best}"
        )
    return {
        "bytes": len(csv_bytes) + len(summary_bytes),
        "digest": digest([csv_bytes, summary_bytes]),
        "prices": prices,
        "accept": [r[1] for r in rows],
        "optimum": best,
    }


def _false_fail_row(row: dict) -> bool:
    """The known defect: an estimate of exactly 0 with standard error 0
    against a positive oracle value gets an infinite z."""
    return row["estimate"] == 0.0 and row["std_err"] == 0.0 and row["oracle"] > 0.0


def compare_failure(report: dict, case: str) -> tuple[str, bool]:
    """Reason for a FAIL verdict, and whether it is the known false FAIL.

    Rows beyond the threshold for another cause are listed in the reason.
    """
    bad = [r for r in report["rows"] if not abs(r["z"]) <= report["z_threshold"]]
    known = ("compare", case) in KNOWN_FAILURES and any(map(_false_fail_row, bad))
    reason = KNOWN_FAILURES[("compare", case)] if known else "compare verdict FAIL"
    others = [r for r in bad if not (known and _false_fail_row(r))]
    if others:
        listed = ", ".join(f"offer {r['price']} z = {r['z']:.3g}" for r in others)
        reason += f"; rows beyond |z| {report['z_threshold']}: {listed}"
    return reason, known


def check_compare_output(base: Path, case: str, code: int, stderr: str) -> dict:
    """Check `price compare --out base`; returns bytes, digest and rows.

    A FAIL verdict does not raise: it sets ``failure`` to the reason, and
    ``known`` when it matches the known false FAIL of that case.
    """
    if "Traceback (most recent call last)" in stderr:
        raise CheckError(f"traceback: {stderr.strip().splitlines()[-1]}")
    path = base.with_suffix(".oracle.json")
    if not path.is_file():
        raise CheckError(f"compare wrote no report (exit {code})")
    blob = path.read_bytes()
    report = json.loads(blob)  # lenient parse first, to read the verdict
    if code != (0 if report["passed"] else 1):
        raise CheckError(f"exit code {code} disagrees with verdict {report['passed']}")
    out = {"bytes": len(blob), "digest": digest([blob]), "rows": report["rows"]}
    if not report["passed"]:
        out["failure"], out["known"] = compare_failure(report, case)
        return out
    strict_json(blob.decode())
    return out
