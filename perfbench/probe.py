"""The part of a benchmark run that executes in a fresh interpreter.

    python3 perfbench/probe.py setup --workload NAME --seed N --scale X
    python3 perfbench/probe.py run --workload NAME --seed N --scale X --seconds S --trace 0|1

``setup`` times ``import cellsim.cli``, parsing and validating the round's
configs and building their layouts, then exits.  ``run`` does the same set-up,
warms up, runs the timed phase on 1 worker (and with ``--trace 1`` a traced
phase after an untraced one, then the 1-versus-2-worker pair), checks every
call's output and prints one JSON object.
``run.py`` starts these; the source tree is found through PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace

import checks
from spans import ROOT, Tracer
from workloads import CALLS_PER_SEED, WORKLOADS, drops_per_call, master_seed

# (module, attribute, span name): each public function wrapped in the
# namespace of the module that calls it.  The benchmark itself calls
# run_experiment and render_csv.
WRAPS = (
    ("scenario", "run_experiment", "scenario.run_experiment"),
    ("scenario", "render_csv", "scenario.render_csv"),
    ("scenario", "build_layout", "geometry.build_layout"),
    ("scenario", "mc_outage", "outage.mc_outage"),
    ("scenario", "analytic_used_curve", "scenario.analytic_used_curve"),
    ("scenario", "analytic_outage_used", "outage.analytic_outage_used"),
    ("outage", "sample_hexagon_xy", "geometry.sample_hexagon_xy"),
    ("outage", "draw_link_matrix", "channel.draw_link_matrix"),
    ("outage", "per_antenna_sir_matrix", "sir.per_antenna_sir_matrix"),
    ("outage", "combine_columns", "sir.combine_columns"),
    ("outage", "serving_sector_indices", "geometry.serving_sector_indices"),
)
ELEMENT_SPANS = {"channel.draw_link_matrix"}
CALIBRATION_SPAN = "bench.calibration"
# The layer spans must cover all of the traced phase but this share of it,
# the calibration kernel left out.  What is left is the benchmark's own loop.
UNATTRIBUTED_LIMIT = 0.01
# Times are reported in seconds of a machine that runs the calibration kernel
# in this time, about its median on the 2-core x86 cloud VM of README.md's
# baseline.
CALIBRATION_NOMINAL_S = 0.0125
CALIBRATION_DROPS = 40


def calibration_s() -> float:
    """Wall time of a fixed mix of small numpy calls, like cellsim's drops.

    Other tenants of the machine change its speed by up to 2x over tens of
    seconds.  Each measured time is scaled by CALIBRATION_NOMINAL_S over the
    calibration time measured just before and after it, which removes most
    of that drift.  The kernel does what a default drop does, at the same
    array sizes: a generator per drop, rejection draws, fading and shadowing,
    an SIR and a threshold count.  A kernel of pure interpreter work tracked
    the drift less well (README.md has the measurement).  The kernel is
    benchmark code, so a change to cellsim does not move it.
    """
    import numpy as np  # here, not at the top: set-up times numpy's import

    start = time.perf_counter()
    thresholds = np.logspace(-1.0, 1.0, 21)[:, None, None]
    for drop in range(CALIBRATION_DROPS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, drop])))
        for _ in range(7):
            xy = rng.uniform(-1.0, 1.0, size=(2, 64))
            xy = xy[:, (xy * xy).sum(axis=0) < 1.0]
        dist = np.hypot(*rng.uniform(-1.0, 1.0, size=(2, 280))) + 0.1
        gains = 10.0 ** (rng.normal(0.0, 8.0, size=(3, 280)) / 10.0)
        gains *= rng.exponential(size=(3, 280)) * dist**-4.0
        sir = gains / (gains.sum(axis=1, keepdims=True) - gains + 1e-3)
        (sir[None] > thresholds).sum(axis=2)
    return time.perf_counter() - start


def at_nominal_speed(wall_s: float, cal_before: float, cal_after: float) -> float:
    """``wall_s`` converted to seconds of a machine at nominal speed."""
    return wall_s * 2.0 * CALIBRATION_NOMINAL_S / (cal_before + cal_after)


def architectures(cfg) -> list[str]:
    return ["used", "microzone"] if cfg.architecture == "both" else [cfg.architecture]


def set_up(workload, seed: int, scale: float):
    """Import, parse and validate the round's configs, build their layouts.

    Returns the configs and the import and set-up times at nominal speed.
    The calibration runs after the set-up, because it imports numpy, which
    is part of the import being timed.
    """
    start = time.perf_counter()
    import cellsim.cli  # noqa: F401  (the import `cellsim run` pays)
    from cellsim import scenario

    imported = time.perf_counter()
    n_drops = drops_per_call(workload, scale)
    configs = []
    for index in range(len(workload.configs)):
        text = workload.config_text(index, n_drops, master_seed(seed, index))
        cfg = scenario.parse_config(text)
        for arch in architectures(cfg):
            scenario.build_layout(cfg, arch)
        configs.append(cfg)
    done = time.perf_counter()
    cal = statistics.median(calibration_s() for _ in range(3))
    return (
        configs,
        at_nominal_speed(imported - start, cal, cal),
        at_nominal_speed(done - start, cal, cal),
    )


class Calls:
    """Runs run_experiment calls one at a time and keeps their outputs."""

    def __init__(self, scenario, configs, seed: int):
        self.scenario = scenario
        self.configs = configs
        self.seed = seed
        self.next_call = 0
        # [config index, config, csv text, analytic curve, error or None]
        self.records: list[list] = []

    def call(self, index: int, cfg, workers: int = 1):
        """One run_experiment call plus its CSV; returns the record."""
        try:
            result = self.scenario.run_experiment(cfg, workers=workers)
            record = [index, cfg, self.scenario.render_csv(result), result.analytic_used, None]
        except Exception as exc:  # a failing call is counted, the run goes on
            record = [index, cfg, None, None, repr(exc)]
        self.records.append(record)
        return record

    def phase(self, seconds: float) -> tuple[list[float], int, float]:
        """Closed loop of whole rounds until ``seconds`` have passed.

        Returns the drops per second of each round at nominal machine speed,
        the drops completed and the wall time of the phase.  The calibration
        kernel runs between calls (see ``calibration_s``).
        """
        rates, total = [], 0
        start = time.perf_counter()
        cal_before = calibration_s()
        while True:
            drops, nominal_s = 0, 0.0
            for index, base in enumerate(self.configs):
                cfg = replace(base, master_seed=master_seed(self.seed, self.next_call))
                self.next_call += 1
                call_start = time.perf_counter()
                ok = self.call(index, cfg)[4] is None
                wall = time.perf_counter() - call_start
                cal_after = calibration_s()
                nominal_s += at_nominal_speed(wall, cal_before, cal_after)
                cal_before = cal_after
                drops += cfg.n_drops if ok else 0
            rates.append(drops / nominal_s)
            total += drops
            if time.perf_counter() - start >= seconds:
                return rates, total, time.perf_counter() - start

    def warm_up(self) -> None:
        scenario = self.scenario
        for index, base in enumerate(self.configs):
            seed = master_seed(self.seed, CALLS_PER_SEED - 1 - index)
            cfg = replace(base, n_drops=max(1, base.n_drops // 10), master_seed=seed)
            scenario.render_csv(scenario.run_experiment(cfg))

    def check(self, workload) -> None:
        """Run the correctness checks on every call not yet failed."""
        ref = checks.load_references()[workload.name]
        passed: dict[int, list] = {}
        for record in self.records:
            index, cfg, text, analytic, error = record
            if error is not None:
                continue
            entry = ref[index]
            if [list(kv) for kv in workload.configs[index]] != entry["overrides"]:
                raise SystemExit(f"reference.json does not match {workload.name} config {index}")
            try:
                columns = checks.parse_csv(text)
            except ValueError as exc:
                record[4] = f"CSV: {exc}"
                continue
            problems = checks.check_call(
                columns, analytic, entry, cfg.n_drops, ordering=workload.name == "paper_default"
            )
            if problems:
                record[4] = "; ".join(problems[:3])
            else:
                passed.setdefault(index, []).append((record, columns))
        # Every recorded call of one config has the same drop count.
        for index, group in passed.items():
            problems = checks.check_pooled([c for _, c in group], ref[index], group[0][0][1].n_drops)
            for record, _ in group if problems else ():
                record[4] = "; ".join(problems[:3])

    def failures(self) -> list[str]:
        return [
            f"master_seed {cfg.master_seed} config {index}: {error}"
            for index, cfg, _, _, error in self.records
            if error is not None
        ]


def peak_rss_mb() -> float:
    """High-water resident set of this process alone (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def traced_phase(calls: Calls, seconds: float):
    from cellsim import outage, scenario

    modules = {"scenario": scenario, "outage": outage}
    tracer = Tracer()
    for module, attr, name in WRAPS:
        elems = (lambda out: int(getattr(out, "gains", out).size)) if name in ELEMENT_SPANS else None
        tracer.wrap(modules[module], attr, name, elems)
    # Calibration runs between calls; its own span keeps it apart from the
    # layers and from the phase's unattributed time.
    tracer.wrap(sys.modules[__name__], "calibration_s", CALIBRATION_SPAN)
    first = len(calls.records)
    try:
        with tracer.span(ROOT):
            rates, drops, _ = calls.phase(seconds)
    finally:
        tracer.uninstall()
    runs = len(calls.records) - first
    return tracer, statistics.median(rates), drops, runs


def layer_metrics(tracer: Tracer, drops: int, runs: int) -> dict[str, float]:
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    per_drop = 1e6 / drops
    closed_calls = get("outage.analytic_outage_used", "calls")
    # The phase's wall time without the calibration kernel: the time the
    # layer spans should cover.
    layer_wall = get(ROOT, "total_s") - get(CALIBRATION_SPAN, "total_s")
    return {
        "geometry.place_us_per_drop": get("geometry.sample_hexagon_xy", "self_s") * per_drop,
        "geometry.place_calls_per_drop": get("geometry.sample_hexagon_xy", "calls") / drops,
        "geometry.serving_us_per_drop": get("geometry.serving_sector_indices", "self_s") * per_drop,
        "geometry.layout_us_per_run": get("geometry.build_layout", "self_s") * 1e6 / runs,
        "channel.link_us_per_drop": get("channel.draw_link_matrix", "self_s") * per_drop,
        "channel.link_calls_per_drop": get("channel.draw_link_matrix", "calls") / drops,
        "channel.link_elems_per_drop": tracer.elems["channel.draw_link_matrix"] / drops,
        "sir.sir_us_per_drop": get("sir.per_antenna_sir_matrix", "self_s") * per_drop,
        "sir.combine_us_per_drop": get("sir.combine_columns", "self_s") * per_drop,
        "outage.self_us_per_drop": get("outage.mc_outage", "self_s") * per_drop,
        "outage.closed_form_calls_per_run": closed_calls / runs,
        "outage.closed_form_us_per_call": (
            get("outage.analytic_outage_used", "self_s") * 1e6 / closed_calls if closed_calls else 0.0
        ),
        "scenario.analytic_s_per_run": get("scenario.analytic_used_curve", "self_s") / runs,
        "scenario.self_s_per_run": get("scenario.run_experiment", "self_s") / runs,
        "scenario.csv_us_per_run": get("scenario.render_csv", "self_s") * 1e6 / runs,
        "bench.unattributed_frac": get(ROOT, "self_s") / layer_wall,
    }


def pool_pair(calls: Calls) -> float:
    """mc_outage wall at 2 workers minus half its wall at 1 worker, same drops.

    Runs the round's first config once on each worker count.  The 2-worker
    call must write the same CSV bytes as the 1-worker call.
    """
    from cellsim import scenario

    cfg = replace(calls.configs[0], master_seed=master_seed(calls.seed, calls.next_call))
    calls.next_call += 1
    walls, records = {}, {}
    for workers in (1, 2):
        tracer = Tracer()
        tracer.wrap(scenario, "mc_outage", "outage.mc_outage")
        try:
            records[workers] = calls.call(0, cfg, workers)
        finally:
            tracer.uninstall()
        walls[workers] = tracer.summary().get("outage.mc_outage", {}).get("total_s", 0.0)
    single, multi = records[1], records[2]
    if multi[4] is None and single[4] is None and multi[2] != single[2]:
        multi[4] = "CSV bytes differ from the 1-worker run of the same config and seed"
    return walls[2] - walls[1] / 2.0


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    configs, import_s, setup_s = set_up(workload, args.seed, args.scale)
    from cellsim import scenario

    trace = args.trace == 1
    calls = Calls(scenario, configs, args.seed)
    calls.warm_up()
    # With tracing, half the time runs untraced and half traced.
    seconds = args.seconds / 2.0 if trace else args.seconds
    rates, drops, wall = calls.phase(seconds)
    out = {
        "import_s": import_s,
        "setup_s": setup_s,
        "drops": drops,
        "wall_s": wall,
        "rounds": len(rates),
        "drops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    bench_problems = []
    if trace:
        tracer, traced_rate, traced_drops, runs = traced_phase(calls, seconds)
        layers = layer_metrics(tracer, traced_drops, runs)
        layers["bench.trace_overhead_frac"] = 1.0 - traced_rate / out["drops_per_s"]
        if not layers["bench.unattributed_frac"] <= UNATTRIBUTED_LIMIT:
            bench_problems.append(
                f"layer spans leave {layers['bench.unattributed_frac']:.4g} of the traced "
                f"phase unattributed, above the limit {UNATTRIBUTED_LIMIT}"
            )
        layers["outage.pool_overhead_s"] = pool_pair(calls)
        out["layers"] = layers
    calls.check(workload)
    failures = calls.failures()
    out["attempted"] = len(calls.records)
    out["failed"] = len(failures)
    out["problems"] = bench_problems + failures[:5]
    out["bench_ok"] = not bench_problems
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        _, import_s, setup_s = set_up(WORKLOADS[args.workload], args.seed, args.scale)
        out = {"import_s": import_s, "setup_s": setup_s}
    else:
        out = run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
