"""Smoke test of the benchmark itself, at tiny size (about two minutes).

    python3 perfbench/smoke.py

For every workload it asserts that ``--trace 0`` prints every end-to-end
metric and ``--trace 1`` every per-layer metric, each with its unit, that
every correctness check passes, and that the count metrics repeat exactly
across two traced runs with different seeds.  It also asserts that the
curve check rejects curves made from other configs, and that run.py fails
without printing a result where there is no source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = ["--scale", "0.05", "--seconds", "1"]
COUNT_METRICS = (
    "geometry.place_calls_per_drop",
    "channel.link_calls_per_drop",
    "channel.link_elems_per_drop",
    "outage.closed_form_calls_per_run",
)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(workload: str, seed: int, trace: int) -> dict:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (workload, trace, got)
    return result


def check_workloads() -> None:
    for name in WORKLOADS:
        result_of(name, 11, 0)
        first = result_of(name, 12, 1)["metrics"]
        second = result_of(name, 13, 1)["metrics"]
        for metric in COUNT_METRICS:
            assert first[metric]["value"] == second[metric]["value"], (name, metric)
        print(f"ok   {name}")


def check_sensitivity() -> None:
    """A curve from another config fails the check against the default reference."""
    refs = checks.load_references()
    default = refs["paper_default"][0]
    n_drops = WORKLOADS["paper_default"].drops_per_call
    caught = 0
    for entry in refs["sweep_small"][1:]:
        if entry["used"] is None or entry["microzone"] is None:
            continue
        columns = {
            "threshold_db": entry["thresholds_db"],
            "used_mc": entry["used"],
            "micro_mc": entry["microzone"],
        }
        if checks.check_curves(columns, default, n_drops):
            caught += 1
        else:
            print(f"     not distinguishable at {n_drops} drops: {entry['overrides']}")
    own = {"threshold_db": default["thresholds_db"], "used_mc": default["used"],
           "micro_mc": default["microzone"]}
    assert not checks.check_curves(own, default, n_drops)
    assert caught >= 8, caught
    print(f"ok   curve check rejects {caught} other configs")


def check_no_source_tree() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_smoke_", dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").is_file():
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = bench(tmp, "--workload", "paper_default", "--seed", "1", *TINY)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    print("ok   fails without a source tree")


if __name__ == "__main__":
    check_sensitivity()
    check_no_source_tree()
    check_workloads()
    print("smoke test passed")
