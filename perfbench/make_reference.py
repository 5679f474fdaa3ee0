"""Regenerate reference.json, the committed curves the correctness checks use.

    python3 perfbench/make_reference.py

Every config of every workload runs once at a high drop count, with master
seed REFERENCE_SEED_BASE + config index, a range no workload seed reaches.
The file keeps the full-precision Monte Carlo estimates of each architecture
and the analytic curve.  Calls run on 2 workers; cellsim's results do not
depend on the worker count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cellsim import scenario  # noqa: E402

from checks import REFERENCE_PATH  # noqa: E402
from workloads import REFERENCE_SEED_BASE, WORKLOADS  # noqa: E402

REFERENCE_DROPS = {"paper_default": 40_000, "dense_tier2_60deg": 4_000, "sweep_small": 4_000}


def reference_entry(workload, index: int, n_drops: int) -> dict:
    seed = REFERENCE_SEED_BASE + index
    cfg = scenario.parse_config(workload.config_text(index, n_drops, seed))
    result = scenario.run_experiment(cfg, workers=2)
    curves = {arch: result.curves.get(arch) for arch in ("used", "microzone")}
    return {
        "overrides": [list(kv) for kv in workload.configs[index]],
        "seed": seed,
        "n_drops": n_drops,
        "thresholds_db": [float(t) for t in cfg.thresholds_db],
        **{
            arch: None if curve is None else [float(v) for v in curve.estimates]
            for arch, curve in curves.items()
        },
        "analytic": None
        if result.analytic_used is None
        else [float(v) for v in result.analytic_used],
    }


def main() -> None:
    entries = {}
    for name, n_drops in REFERENCE_DROPS.items():
        workload = WORKLOADS[name]
        entries[name] = []
        for index in range(len(workload.configs)):
            started = time.perf_counter()
            entries[name].append(reference_entry(workload, index, n_drops))
            print(f"{name}[{index}]: {n_drops} drops in {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
    doc = {
        "made_by": "python3 perfbench/make_reference.py",
        "entries": entries,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
