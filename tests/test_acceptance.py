"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  All statistical checks use frozen seeds, so the suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from cellsim.outage import _fading, analytic_outage_used, combine_columns
from cellsim.scenario import ScenarioConfig, render_csv, run_experiment
from scalar_oracle import below_sum, diversity_combine, matched_exponential_outage, mrc_weights

Z95 = 1.959963984540054

# Matched-means abstraction grid: (mean_desired, interferer means, eta, pg).
# Outage levels span roughly 0.007 to 0.98 across the threshold set.
EXPONENTIAL_SCENARIOS = [
    (1.0, [0.2] * 5, 0.0, 10.0),
    (1.0, [1.0], 0.1, 1.0),
    (2.0, [0.5, 1.0, 2.0], 0.01, 5.0),
    (1.0, [1.0] * 6, 0.0, 84.444444),
    (0.5, [0.3, 0.7], 0.05, 2.0),
]
EXPONENTIAL_THRESHOLDS = [-10.0, -5.0, 0.0, 5.0, 10.0]
EXPONENTIAL_SEED_BASE = 2000

DEFAULT_SWEEP_DROPS = 10_000


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def exponential_curves():
    """Matched-abstraction MC (estimates, half-widths) reused by criteria 2 and 5."""
    started = time.perf_counter()
    curves = []
    for k, (md, mi, eta, pg) in enumerate(EXPONENTIAL_SCENARIOS):
        curve = matched_exponential_outage(
            md, mi, eta, pg, EXPONENTIAL_THRESHOLDS, 100_000, seed=EXPONENTIAL_SEED_BASE + k
        )
        curves.append(((md, mi, eta, pg), curve))
    return curves, time.perf_counter() - started


@pytest.fixture(scope="module")
def default_sweep():
    """The default-scenario architecture comparison reused by criteria 4, 5, 8."""
    cfg = ScenarioConfig(n_drops=DEFAULT_SWEEP_DROPS)
    started = time.perf_counter()
    result = run_experiment(cfg, workers=1)
    return cfg, result, time.perf_counter() - started


def test_criterion_1_closed_form_vs_oracle():
    started = time.perf_counter()
    exact_empty = below_sum(1.0)
    exact_half = below_sum(1.0, (1.0,), 0.0)

    rng = np.random.default_rng(424242)
    n = 1_000_000
    worst = 0.0
    for _ in range(25):
        y1 = 10.0 ** rng.uniform(-1.0, 1.0)
        k = int(rng.integers(0, 7))
        ys = tuple(10.0 ** rng.uniform(-1.0, 1.0, k))
        c = float(rng.uniform(0.0, 5.0))
        p = below_sum(y1, ys, c)
        z1 = rng.exponential(1.0 / y1, n)
        total = np.full(n, c)
        for rate in ys:
            total += rng.exponential(1.0 / rate, n)
        p_hat = float((z1 <= total).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        pull = abs(p_hat - p) / se if se > 0.0 else (0.0 if p_hat == p else math.inf)
        worst = max(worst, pull)
    elapsed = time.perf_counter() - started
    ok = exact_empty == 0.0 and abs(exact_half - 0.5) < 1e-15 and worst < 4.0 and elapsed < 30.0
    report(
        1,
        "closed form vs Monte Carlo oracle",
        ok,
        f"25 random mixes, worst |error| {worst:.2f} se; exact cases {exact_empty}, "
        f"{exact_half}; {elapsed:.1f} s",
    )


def test_criterion_2_analytic_vs_simulated(exponential_curves):
    curves, sim_elapsed = exponential_curves
    started = time.perf_counter()
    hits = 0
    cells = 0
    for (md, mi, eta, pg), (estimates, half_widths) in curves:
        for thr_db, est, ci in zip(EXPONENTIAL_THRESHOLDS, estimates, half_widths):
            truth = analytic_outage_used(md, mi, eta, pg, 10.0 ** (thr_db / 10.0))
            cells += 1
            hits += abs(est - truth) <= ci
    elapsed = sim_elapsed + time.perf_counter() - started
    ok = hits >= 24 and cells == 25 and elapsed < 120.0
    report(
        2,
        "analytic vs simulated outage, matched means",
        ok,
        f"{hits}/25 cells inside their own 95% CI at 1e5 drops; {elapsed:.1f} s",
    )


def test_criterion_3_processing_gain():
    pg_db = 10.0 * math.log10(ScenarioConfig().processing_gain)
    ok = abs(pg_db - 19.3) < 0.05
    report(3, "processing gain", ok, f"10*log10(3.8e6/45e3) = {pg_db:.4f} dB vs 19.3 dB")


def test_criterion_4_architecture_ordering(default_sweep):
    cfg, result, elapsed = default_sweep
    used = result.curves["used"]
    micro = result.curves["microzone"]
    gap = used.estimates - micro.estimates
    se_used = np.sqrt(used.estimates * (1.0 - used.estimates) / cfg.n_drops)
    se_micro = np.sqrt(micro.estimates * (1.0 - micro.estimates) / cfg.n_drops)
    combined_se = np.sqrt(se_used**2 + se_micro**2)
    ordered_everywhere = bool(np.all(micro.estimates <= used.estimates))
    significant = int(np.sum(gap > 2.0 * combined_se))
    needed = math.ceil(0.8 * gap.size)
    ok = ordered_everywhere and significant >= needed and elapsed < 300.0
    report(
        4,
        "microzone vs used ordering, default scenario",
        ok,
        f"micro <= used at {int(np.sum(micro.estimates <= used.estimates))}/{gap.size} "
        f"thresholds; gap > 2se at {significant}/{gap.size} (need {needed}); "
        f"{DEFAULT_SWEEP_DROPS} drops in {elapsed:.0f} s",
    )


def test_criterion_5_monotonicity(exponential_curves, default_sweep):
    _, result, _ = default_sweep
    curves = [estimates for _, (estimates, _) in exponential_curves[0]]
    curves += [curve.estimates for curve in result.curves.values()]
    violations = sum(bool(np.any(np.diff(c) < 0.0)) for c in curves)
    report(
        5,
        "outage curves non-decreasing",
        violations == 0,
        f"{len(curves)} curves checked, {violations} violations",
    )


def test_criterion_6_combiner_properties():
    # Each branch vector goes through combine_columns, the combiner the Monte
    # Carlo kernel runs, as a one-column matrix, and through the scalar
    # oracle's combiner.
    rng = np.random.default_rng(606)
    worst_sum = 0.0
    worst_scale = 0.0
    worst_agree = 0.0
    bounds_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        gamma = 10.0 ** rng.uniform(-3.0, 3.0, n)
        w = mrc_weights(gamma)
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        combined = diversity_combine(gamma)
        column = float(combine_columns(gamma[:, None], "paper")[0])
        worst_agree = max(worst_agree, abs(column - combined) / combined)
        lo, hi = gamma.min(), gamma.max()
        for value in (combined, column):
            bounds_ok &= lo * (1.0 - 1e-12) <= value <= hi * (1.0 + 1e-12)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        scaled = diversity_combine(c * gamma)
        scaled_column = float(combine_columns((c * gamma)[:, None], "paper")[0])
        worst_scale = max(
            worst_scale,
            abs(scaled - c * combined) / (c * combined),
            abs(scaled_column - c * column) / (c * column),
        )
    identity_ok = diversity_combine([7.25]) == 7.25 and combine_columns([[7.25]], "paper")[0] == 7.25
    # One branch over 1e4 values: the oracle returns it exactly; the kernel's
    # (sqrt(g) * g) / sqrt(g) rounds twice, so it may sit one ulp away.
    single = 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    oracle_exact = all(diversity_combine([g]) == g for g in single)
    kernel_off = np.abs(combine_columns(single[None, :], "paper") - single)
    kernel_ulp_ok = bool(np.all(kernel_off <= np.spacing(single)))
    off_by_one_ulp = int(np.count_nonzero(kernel_off))
    ok = (
        worst_sum < 1e-12
        and bounds_ok
        and worst_scale < 1e-10
        and worst_agree < 1e-12
        and identity_ok
        and oracle_exact
        and kernel_ulp_ok
    )
    report(
        6,
        "combiner properties",
        ok,
        f"1e4 branch vectors: max |sum(w)-1| {worst_sum:.1e}, bounds {bounds_ok}, "
        f"max scale error {worst_scale:.1e}, combine_columns vs diversity_combine "
        f"{worst_agree:.1e}, single-branch identity {identity_ok} at 7.25; 1e4 single "
        f"branches: diversity_combine exact {oracle_exact}, combine_columns within 1 ulp "
        f"{kernel_ulp_ok} ({off_by_one_ulp} off by 1 ulp)",
    )


def test_criterion_7_fading_statistics():
    # The fading draw the kernel makes.
    fading = _fading(np.random.default_rng(707), np.empty(1_000_000))
    mean_err = abs(fading.mean() - 1.0)
    mean_ok = mean_err < 3.0 / math.sqrt(1_000_000)

    # Its envelope, the square root of the power, against the Rayleigh CDF.
    env = np.sort(np.sqrt(_fading(np.random.default_rng(708), np.empty(100_000))))
    model = 1.0 - np.exp(-(env**2))
    n = env.size
    ks = max(
        np.abs(np.arange(1, n + 1) / n - model).max(),
        np.abs(model - np.arange(0, n) / n).max(),
    )
    ks_ok = ks < 0.02
    report(
        7,
        "fading statistics",
        mean_ok and ks_ok,
        f"exp mean error {mean_err:.2e} (limit 3e-3); envelope KS {ks:.4f} (limit 0.02)",
    )


def test_criterion_8_worker_determinism(default_sweep, tmp_path):
    cfg, single_worker_result, _ = default_sweep
    dual_worker_result = run_experiment(cfg, workers=2)
    f1 = tmp_path / "workers1.csv"
    f2 = tmp_path / "workers2.csv"
    f1.write_text(render_csv(single_worker_result), newline="")
    f2.write_text(render_csv(dual_worker_result), newline="")
    ok = f1.read_bytes() == f2.read_bytes()
    report(
        8,
        "worker-count determinism",
        ok,
        f"CSV bytes identical across workers 1 and 2: {ok} ({f1.stat().st_size} bytes)",
    )
