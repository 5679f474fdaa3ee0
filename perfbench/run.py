"""cellsim benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; cellsim is imported from ./src.  Each workload
runs in a fresh interpreter (probe.py), as a closed loop of run_experiment
calls, one at a time.  Set-up is timed in SETUP_RUNS fresh interpreters and
reported as their median.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SEED_LIMIT, WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # fresh interpreters timed per run, the workload's own included
TIME_LIMIT_S = 170.0  # one workload, all of its interpreters
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"drops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "geometry.place_us_per_drop": "us",
    "geometry.place_calls_per_drop": "count",
    "geometry.serving_us_per_drop": "us",
    "geometry.layout_us_per_run": "us",
    "channel.link_us_per_drop": "us",
    "channel.link_calls_per_drop": "count",
    "channel.link_elems_per_drop": "count",
    "sir.sir_us_per_drop": "us",
    "sir.combine_us_per_drop": "us",
    "outage.self_us_per_drop": "us",
    "outage.closed_form_calls_per_run": "count",
    "outage.closed_form_us_per_call": "us",
    "outage.pool_overhead_s": "s",
    "scenario.analytic_s_per_run": "s",
    "scenario.self_s_per_run": "s",
    "scenario.csv_us_per_run": "us",
    "cli.import_s": "s",
    "bench.trace_overhead_frac": "frac",
    "bench.unattributed_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def probe(args: list[str], deadline: float) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "probe.py"), *args]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args[:3])}: time limit reached") from None
    finally:
        # Pool workers share the probe's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"probe {' '.join(args[:3])} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_start": list(os.getloadavg()),
    }


def bench_workload(name: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    facts = machine_facts()
    common = ["--workload", name, "--seed", str(seed), "--scale", repr(scale)]
    setups = [probe(["setup", *common], deadline) for _ in range(SETUP_RUNS - 1)]
    result = probe(["run", *common, "--seconds", repr(seconds), "--trace", str(trace)], deadline)
    facts["loadavg_end"] = list(os.getloadavg())
    setups.append(result)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)

    if trace:
        values = dict(result["layers"], **{"cli.import_s": import_s})
        units = PER_LAYER
    else:
        values = {
            "drops_per_s": result["drops_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"machine {json.dumps(facts)}")
    print(
        f"{'untraced' if trace else 'timed'} phase: {result['drops']} drops in "
        f"{result['wall_s']:.3f} s, median of {result['rounds']} rounds; "
        f"set-up median of {len(setups)} interpreters; "
        f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} calls)"
    )
    for metric in units:
        print(f"  {metric:36s} {values[metric]:14.6g} {units[metric]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    return {
        "correct": failed == 0 and result["bench_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cellsim benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="drops per call relative to the workload's own"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_LIMIT:
        parser.error(f"--seed must be in [0, 2**32), got {args.seed}")
    if args.seconds <= 0.0 or args.scale <= 0.0:
        parser.error("--seconds and --scale must be positive")
    if not (ROOT / "src" / "cellsim" / "__init__.py").is_file():
        print(f"error: no cellsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench_workload(name, args.seed, args.seconds, args.trace, args.scale)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
