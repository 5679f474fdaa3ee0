"""Correctness checks on each run_experiment call, against committed references.

The tolerance for a Monte Carlo estimate comes from p and the drop count
alone: per-drop outage fractions lie in [0, 1], so the variance of a mean
over n drops is at most p(1 - p) / n whatever the correlation between users
of one drop.  A curve passes when every threshold is within Z of these
bounds of the reference.  A new random-stream layout gives statistically
equal curves and passes; a kernel that changes the outage distribution moves
the curve by more than the tolerance and fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

Z = 4.0
# CSV values carry 6 significant digits.
CSV_SLACK = 1e-6
ANALYTIC_RTOL = 1e-9
CSV_COLUMNS = (
    "threshold_db", "used_mc", "used_ci", "used_analytic", "micro_mc", "micro_ci",
    "micro_minus_used",
)
CURVE_COLUMNS = {"used": "used_mc", "microzone": "micro_mc"}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["entries"]


def parse_csv(text: str) -> dict[str, list]:
    lines = text.splitlines()
    header = lines[0].split(",")
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    columns: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            columns[name].append(None if cell == "NA" else float(cell))
    return columns


def estimate_tolerance(p_hat: float, p_ref: float, n: int, n_ref: int) -> float:
    p = 0.5 * (p_hat + p_ref)
    return Z * math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / n_ref)) + CSV_SLACK


def difference_tolerance(p_used: float, p_micro: float, n: int) -> float:
    var = (p_used * (1.0 - p_used) + p_micro * (1.0 - p_micro)) / n
    return Z * math.sqrt(var) + CSV_SLACK


def check_curves(columns: dict, ref: dict, n_drops: int) -> list[str]:
    """(a) each Monte Carlo curve agrees with the high-drop reference."""
    problems = []
    if columns["threshold_db"] != ref["thresholds_db"]:
        problems.append("threshold column differs from the reference sweep")
        return problems
    for arch, column in CURVE_COLUMNS.items():
        expected = ref[arch]
        got = columns[column]
        if expected is None:
            if any(v is not None for v in got):
                problems.append(f"{column}: expected NA, got values")
            continue
        if any(v is None for v in got):
            problems.append(f"{column}: missing values")
            continue
        for thr, p_hat, p_ref in zip(columns["threshold_db"], got, expected):
            tol = estimate_tolerance(p_hat, p_ref, n_drops, ref["n_drops"])
            if abs(p_hat - p_ref) > tol:
                problems.append(
                    f"{column} at {thr:g} dB: {p_hat:.6g} vs reference {p_ref:.6g} "
                    f"(tolerance {tol:.3g})"
                )
    return problems


def check_ordering(columns: dict, n_drops: int) -> list[str]:
    """(b) microzone outage is nowhere above used by more than the tolerance."""
    problems = []
    for thr, used, micro in zip(columns["threshold_db"], columns["used_mc"], columns["micro_mc"]):
        tol = difference_tolerance(used, micro, n_drops)
        if micro - used > tol:
            problems.append(
                f"microzone above used at {thr:g} dB: {micro:.6g} vs {used:.6g} "
                f"(tolerance {tol:.3g})"
            )
    return problems


def check_analytic(analytic, columns: dict, ref: dict) -> list[str]:
    """(c) the analytic curve matches the committed values to 1e-9 relative."""
    expected = ref["analytic"]
    if expected is None:
        ok = analytic is None and all(v is None for v in columns["used_analytic"])
        return [] if ok else ["used_analytic: expected NA"]
    if analytic is None or len(analytic) != len(expected):
        return ["used_analytic: missing or wrong length"]
    problems = []
    for thr, got, want in zip(ref["thresholds_db"], analytic, expected):
        if abs(float(got) - want) > ANALYTIC_RTOL * abs(want):
            problems.append(f"used_analytic at {thr:g} dB: {float(got)!r} vs {want!r}")
    return problems


def check_call(columns, analytic, ref: dict, n_drops: int, ordering: bool) -> list[str]:
    """Every check on one call's CSV columns and analytic curve; [] means it passed."""
    problems = check_curves(columns, ref, n_drops)
    problems += check_analytic(analytic, columns, ref)
    if ordering and not problems:
        problems += check_ordering(columns, n_drops)
    return problems


def check_pooled(calls: list, ref: dict, n_drops: int) -> list[str]:
    """(a) again on the mean curve of several calls of one config, n_drops each.

    Pooling k calls narrows the tolerance by about sqrt(k), so smaller
    errors in the kernel show.
    """
    pooled = {"threshold_db": calls[0]["threshold_db"]}
    for column in CURVE_COLUMNS.values():
        values = [c[column] for c in calls]
        # An all-NA column (architecture not run) stays as it is.
        pooled[column] = (
            values[0] if None in values[0] else [sum(v) / len(v) for v in zip(*values)]
        )
    return [f"mean of {len(calls)} calls: {p}" for p in check_curves(pooled, ref, n_drops * len(calls))]
