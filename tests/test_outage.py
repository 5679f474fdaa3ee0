import hashlib
import math
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsim import outage
from cellsim.geometry import build_layout, interferer_cell_centers
from cellsim.outage import OutageCurve, analytic_outage_used, combine_columns, mc_outage, sample_hexagon_xy
from cellsim.scenario import ConfigError, ScenarioConfig, render_csv, run_experiment
from scalar_oracle import below_sum, matched_exponential_outage, oracle_counts, reference_outage_used

rates = st.floats(min_value=0.1, max_value=10.0)


def mc_below_sum_oracle(rate, rates, offset, n: int, rng: np.random.Generator) -> float:
    """Brute-force estimate of P(z1 <= sum z_i + c) by direct sampling."""
    z1 = rng.exponential(1.0 / rate, n)
    total = np.full(n, offset)
    for other in rates:
        total += rng.exponential(1.0 / other, n)
    return float((z1 <= total).mean())


class TestClosedForm:
    # The closed form in rate form: analytic_outage_used at means 1/rate,
    # with the offset as eta and pg = threshold = 1.
    def test_empty_sum_zero_offset(self):
        assert below_sum(1.0) == 0.0

    def test_two_iid_symmetry(self):
        assert below_sum(1.0, (1.0,), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_evaluation_against_oracle(self):
        # Closed form: 1 - 1/(1.5 * e^0.5) = 0.5956460...
        p = below_sum(1.0, (2.0,), 0.5)
        assert p == pytest.approx(0.5956460, rel=1e-6)
        n = 10_000_000
        p_hat = mc_below_sum_oracle(1.0, (2.0,), 0.5, n, np.random.default_rng(123))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 4.0 * se

    @given(
        rates,
        st.lists(rates, max_size=6),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_range(self, y1, ys, c):
        # may round to exactly 1.0 for extreme rate*offset products
        p = below_sum(y1, ys, c)
        assert 0.0 <= p <= 1.0
        if ys or c > 0.0:
            assert p > 0.0

    def test_monotone_in_parameters(self):
        p0 = below_sum(1.0, (2.0, 0.5), 1.0)
        # larger offset -> more outage
        assert below_sum(1.0, (2.0, 0.5), 1.5) > p0
        # larger desired rate (smaller desired mean) -> more outage
        assert below_sum(2.0, (2.0, 0.5), 1.0) > p0
        # larger interferer rate (smaller interferer mean) -> less outage
        assert below_sum(1.0, (3.0, 0.5), 1.0) < p0


class TestAnalyticOutage:
    def test_zero_threshold(self):
        assert analytic_outage_used(1.0, [1.0], 0.5, 10.0, 0.0) == 0.0

    def test_infinite_threshold_with_a_zero_mean_interferer(self):
        # P(SIR <= inf) = 1: a zero mean, or no interference and no noise at
        # all (where the kernel's SIR is inf too), must not make it nan or 0.
        with np.errstate(all="raise"):
            assert analytic_outage_used(1, [0.0, 1.0], 0, 1, np.inf) == 1.0
            assert analytic_outage_used(1.0, [], 0.0, 1.0, np.inf) == 1.0
            np.testing.assert_array_equal(
                analytic_outage_used(1.0, [0.0, 1.0], 0.5, 1.0, [np.inf, 0.0]), [1.0, 0.0]
            )

    def test_single_equal_mean_interferer(self):
        assert analytic_outage_used(1.0, [1.0], 0.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_two_equal_mean_interferers(self):
        assert analytic_outage_used(1.0, [1.0, 1.0], 0.0, 1.0, 1.0) == pytest.approx(0.75)

    def test_limits(self):
        assert analytic_outage_used(1.0, [1.0], 0.1, 1.0, 1e6) > 1.0 - 1e-5
        lo = analytic_outage_used(1.0, [1.0], 0.1, 1.0, 1e-9)
        hi = analytic_outage_used(1.0, [1.0], 0.1, 1.0, 1e-3)
        assert 0.0 < lo < hi

    def test_rejects_nonpositive_desired_mean(self):
        # The desired mean is positive when the cell-edge power is, and a
        # config whose edge power is zero or not a normal float is rejected.
        for bad in (dict(tx_power=0.0), dict(cell_radius=1e300), dict(max_gain_db=-4000.0)):
            with pytest.raises(ConfigError, match="tx_power.*cell_radius"):
                ScenarioConfig(architecture="microzone", **bad)

    def test_zero_mean_interferers_are_inert(self):
        with_zero = analytic_outage_used(1.0, [1.0, 0.0], 0.0, 1.0, 1.0)
        without = analytic_outage_used(1.0, [1.0], 0.0, 1.0, 1.0)
        assert with_zero == without

    def test_array_threshold_matches_scalar_calls(self):
        rng = np.random.default_rng(404)
        means = rng.uniform(0.01, 3.0, 50)
        thresholds = np.concatenate([[0.0], np.logspace(-4.0, 4.0, 41)])
        curve = analytic_outage_used(1.3, means, 0.02, 12.0, thresholds)
        assert curve.shape == thresholds.shape
        # The loop sums the logs in another order: one rounding per term.
        loop_tol = means.size * np.finfo(float).eps
        for thr, value in zip(thresholds, curve):
            scalar = analytic_outage_used(1.3, means, 0.02, 12.0, float(thr))
            assert abs(value - scalar) <= 1e-15 * abs(scalar)
            loop = reference_outage_used(1.3, means, 0.02, 12.0, float(thr))
            assert abs(value - loop) <= loop_tol * abs(loop)

    def test_array_threshold_keeps_its_shape(self):
        thresholds = np.array([[0.5, 1.0, 2.0], [4.0, 8.0, 16.0]])
        grid = analytic_outage_used(1.0, [1.0, 0.5], 0.1, 1.0, thresholds)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == analytic_outage_used(1.0, [1.0, 0.5], 0.1, 1.0, 16.0)

    def test_array_threshold_limits(self):
        zero = analytic_outage_used(1.0, [1.0, 2.0], 0.5, 10.0, np.array([0.0, 1.0]))
        assert zero[0] == 0.0 and zero[1] > 0.0
        huge = analytic_outage_used(1.0, [1.0, 2.0], 0.5, 10.0, np.array([1e100, 1e300, 1e308]))
        assert np.all(huge <= 1.0) and np.all(huge > 1.0 - 1e-12)

    def test_scalar_threshold_returns_a_scalar(self):
        p = analytic_outage_used(1.0, [1.0], 0.0, 1.0, 1.0)
        assert np.ndim(p) == 0 and isinstance(p, float)
        assert isinstance(analytic_outage_used(1.0, [], 0.1, 1.0, 2.0), float)

    def test_matches_exponential_simulation(self):
        # Dual route: Monte Carlo in the matched-means abstraction must agree
        # with the closed form within its own 95% interval.
        thresholds = [-10.0, -5.0, 0.0, 5.0, 10.0]
        estimates, half_widths = matched_exponential_outage(
            1.0, [0.5, 0.5, 1.0], 0.05, 10.0, thresholds, 100_000, seed=99
        )
        for thr_db, est, ci in zip(thresholds, estimates, half_widths):
            truth = analytic_outage_used(1.0, [0.5, 0.5, 1.0], 0.05, 10.0, 10 ** (thr_db / 10.0))
            assert abs(est - truth) <= ci


class TestMcOutage:
    def small_cfg(self, **kw):
        defaults = dict(n_users=8, n_drops=50, interferer_tiers=0)
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_interference_free_limit(self):
        cfg = self.small_cfg(n_users=1, noise_power=0.0, n_drops=1, master_seed=0)
        for arch in ("used", "microzone"):
            curve = mc_outage(replace(cfg, architecture=arch))[arch]
            assert np.all(curve.estimates == 0.0)

    def test_monotone_estimates(self):
        cfg = self.small_cfg(n_drops=50, master_seed=1, architecture="used")
        assert np.all(np.diff(mc_outage(cfg)["used"].estimates) >= 0.0)

    def test_deterministic_and_worker_invariant(self):
        cfg = self.small_cfg(n_drops=40, master_seed=5, architecture="microzone")
        a = mc_outage(cfg, workers=1)["microzone"]
        b = mc_outage(cfg, workers=2)["microzone"]
        c = mc_outage(cfg, workers=1)["microzone"]
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.estimates, c.estimates)
        assert np.array_equal(a.ci_half_widths, b.ci_half_widths)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            mc_outage(self.small_cfg(), workers=0)

    @pytest.mark.parametrize("architecture", ["used", "microzone", "both"])
    def test_curves_are_keyed_in_stream_order(self, architecture):
        cfg = self.small_cfg(architecture=architecture, n_drops=3, master_seed=6)
        assert list(mc_outage(cfg)) == list(cfg.architectures)
        assert ScenarioConfig(architecture="both").architectures == ("used", "microzone")

    def test_ci_shrinks_like_root_n(self):
        # The matched-means sampler criterion 2 takes its intervals from.
        means = [0.5] * 4
        _, small = matched_exponential_outage(1.0, means, 0.0, 2.0, [0.0], 20_000, seed=3)
        _, large = matched_exponential_outage(1.0, means, 0.0, 2.0, [0.0], 80_000, seed=3)
        ratio = small[0] / large[0]
        assert 0.8 * 2.0 <= ratio <= 1.2 * 2.0

    def test_geometric_ci_shrinks_like_root_n(self):
        cfg = self.small_cfg(architecture="used")
        sweep = dict(thresholds=(0.0, 0.0, 1.0), master_seed=2)
        small = mc_outage(replace(cfg, n_drops=400, **sweep))["used"]
        large = mc_outage(replace(cfg, n_drops=1600, **sweep))["used"]
        ratio = small.ci_half_widths[0] / large.ci_half_widths[0]
        assert 0.8 * 2.0 <= ratio <= 1.2 * 2.0

    def test_counts_match_scalar_recomputation(self):
        # Independent oracle: rebuild the block streams and recount every drop
        # user by user in scalar_oracle.  45 drops at 39 drops per block
        # exercise a full block and a partial one.
        cfg = ScenarioConfig(
            interferer_tiers=1, thresholds=(-5.0, 5.0, 5.0), n_drops=45, master_seed=31
        )
        layouts = [build_layout(cfg, arch) for arch in ("used", "microzone")]
        curves = mc_outage(cfg)
        counts = oracle_counts(layouts, cfg, 45, seed=31, stream_tag=0)
        for curve, expected in zip(curves.values(), counts, strict=True):
            np.testing.assert_array_equal(curve.estimates, expected / (45 * cfg.n_users))

    def test_paired_run_shares_one_draw(self):
        # An architecture evaluated alongside another sees exactly the drops
        # it sees alone on the same seed and tag.
        cfg = self.small_cfg(interferer_tiers=1, n_drops=30, master_seed=4)
        paired = mc_outage(cfg)
        for arch in ("used", "microzone"):
            alone = mc_outage(replace(cfg, architecture=arch))[arch]
            assert np.array_equal(paired[arch].estimates, alone.estimates)


class TestKernelAgainstScalarOracle:
    @given(
        beamwidth=st.sampled_from([60.0, 120.0]),
        tiers=st.integers(0, 2),
        n_users=st.integers(1, 6),
        noise_power=st.sampled_from([None, 0.0]),
        floor_gain_db=st.sampled_from([float("-inf"), -20.0, -3.0]),
        combiner=st.sampled_from(["paper", "classical-mrc"]),
        architecture=st.sampled_from(["both", "used", "microzone"]),
        paired=st.booleans(),
        # The exact exponents too: floats alone never draws the integer rhos
        # that the workloads use, nor rho = 4, the kernel's squared reciprocal.
        rho=st.one_of(st.sampled_from([2.0, 3.0, 4.0, 5.0]), st.floats(2.0, 5.0)),
        sigma=st.floats(0.0, 12.0),
        tx_power=st.sampled_from([0.3, 1.0, 7.0]),
        d_min=st.sampled_from([1.0, 35.0, 500.0]),
        link_budget=st.sampled_from([2**7, 2**9, outage.LINK_BUDGET]),
        n_drops=st.integers(1, 12),
        seed=st.integers(0, 2**63),
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_match(
        self, beamwidth, tiers, n_users, noise_power, floor_gain_db, combiner,
        architecture, paired, rho, sigma, tx_power, d_min, link_budget, n_drops, seed,
    ):
        cfg = ScenarioConfig(
            beamwidth=beamwidth, interferer_tiers=tiers, n_users=n_users,
            noise_power=noise_power, floor_gain_db=floor_gain_db, combiner_mode=combiner,
            architecture=architecture, paired=paired, rho=rho, shadowing_sigma=sigma,
            tx_power=tx_power, d_min=d_min,
            thresholds=(-10.0, 10.0, 2.5), n_drops=n_drops, master_seed=seed,
        )
        archs = ["used", "microzone"] if architecture == "both" else [architecture]
        layouts = [build_layout(cfg, arch) for arch in archs]
        # The stream layout, spelled out here rather than read from src: a
        # paired run draws every layout on tag 0, an unpaired one layout k
        # alone on tag 1 + k.
        groups = [(layouts, 0)] if paired else [([lay], 1 + k) for k, lay in enumerate(layouts)]
        # A small link budget gives many blocks, most of them partial tails.
        with mock.patch.object(outage, "LINK_BUDGET", link_budget):
            curves = mc_outage(cfg)
            assert list(curves) == archs
            single = list(curves.values())
            expected = [
                counts
                for group, tag in groups
                for counts in oracle_counts(group, cfg, n_drops, seed, tag, link_budget)
            ]
            assert len(single) == len(expected) == len(layouts)
            for curve, counts in zip(single, expected):
                np.testing.assert_array_equal(curve.estimates, counts / (n_drops * n_users))
            dual = mc_outage(cfg, workers=2).values()
            for a, b in zip(single, dual, strict=True):
                assert np.array_equal(a.estimates, b.estimates)
                assert np.array_equal(a.ci_half_widths, b.ci_half_widths)


class TestOutageCurveInvariants:
    def test_rejects_out_of_range_estimates(self):
        with pytest.raises(ValueError):
            OutageCurve(np.array([1.5]), np.array([0.0]))

    def test_rejects_decreasing_estimates(self):
        with pytest.raises(ValueError):
            OutageCurve(np.array([0.5, 0.4]), np.array([0.0, 0.0]))

    def test_rejects_negative_half_widths(self):
        with pytest.raises(ValueError):
            OutageCurve(np.array([0.1, 0.2]), np.array([0.01, -0.01]))


class TestClosedFormAgainstOracleSweep:
    def test_randomized_cases(self):
        # Randomized closed-form vs brute-force agreement, smaller version of
        # the acceptance sweep.
        rng = np.random.default_rng(2024)
        n = 200_000
        for _ in range(8):
            y1 = 10.0 ** rng.uniform(-1.0, 1.0)
            k = int(rng.integers(0, 7))
            ys = tuple(10.0 ** rng.uniform(-1.0, 1.0, k))
            c = float(rng.uniform(0.0, 5.0))
            p = below_sum(y1, ys, c)
            p_hat = mc_below_sum_oracle(y1, ys, c, n, rng)
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(p_hat - p) < 4.0 * se + 1e-9


# Outage counts per layout and threshold, and the sha256 of the CSV text, of
# 257 drops (a short last block for every config) on the thresholds -10, -5,
# 0, 5 and 10 dB.  A change to the random streams, to the link arithmetic
# beyond its last bits, or to what is counted moves them.
PINNED_BASE = dict(n_drops=257, master_seed=20261018, thresholds=(-10.0, 10.0, 5.0))
PINNED = {
    "default": (
        {},
        {"used": [3592, 5027, 6593, 7940, 8901], "microzone": [1581, 3506, 5847, 7701, 8801]},
        "7664f0a6a78970cee7b938eeae02a50ee986c51216cf3eec4188431a3eb51dc2",
    ),
    "rho2": (
        dict(rho=2.0),
        {"used": [1553, 3177, 5442, 7670, 9155], "microzone": [99, 775, 3100, 6725, 9040]},
        "01b8386572e52b258605b792abc5cfc7a179d7a767c2a1f0269f485728469a98",
    ),
    "rho3": (
        dict(rho=3.0),
        {"used": [2374, 3950, 5869, 7653, 8889], "microzone": [465, 1739, 4373, 7136, 8762]},
        "f3ed2c2d3d7f551dd5f037683630d44c12f8767442bc35213c9b3cfeee2d9419",
    ),
    "rho5": (
        dict(rho=5.0),
        {"used": [4703, 6012, 7206, 8247, 8956], "microzone": [3186, 5101, 6810, 8090, 8874]},
        "a42a545d95e62dbb04bae913062a0f42c6819ed58afbd1c7fae13f079e513830",
    ),
    "eta0_sparse": (
        dict(noise_power=0.0, n_users=3, interferer_tiers=0),
        {"used": [24, 31, 50, 75, 120], "microzone": [0, 0, 0, 3, 13]},
        "bec7e3e2d770e265e6da1e4d91ad3e9f7d4a1d1666bc39c91369a268c9301660",
    ),
    "one_user": (
        dict(n_users=1),
        {"used": [0, 1, 1, 2, 10], "microzone": [0, 0, 0, 0, 0]},
        "162d8753fbaa328333cf9503cc84f27bdf7f87f15c65ee838a95f4eb1a33a8a0",
    ),
    "tier0": (
        dict(interferer_tiers=0),
        {"used": [3373, 4877, 6421, 7782, 8748], "microzone": [1531, 3369, 5706, 7626, 8787]},
        "225066c0deafd747b34366b326d22445f635f83e46f07fcb66bd15ea25a2c1a7",
    ),
    "tier2": (
        dict(interferer_tiers=2),
        {"used": [3430, 4868, 6415, 7861, 8874], "microzone": [1651, 3535, 5820, 7700, 8817]},
        "760ba09bab1c07b13894b78e26c2058ca84f1bd551d867a59e331711ef51c89f",
    ),
    "beam60": (
        dict(beamwidth=60.0),
        {"used": [2050, 3191, 4597, 6190, 7610], "microzone": [1865, 2852, 3881, 5365, 7161]},
        "75381c59fe61dbb9a14f6ab32e63ce05a9491c330d7ab4dc6de910eea894f2b8",
    ),
    "floor_gain": (
        dict(floor_gain_db=-20.0),
        {"used": [4080, 5563, 7099, 8327, 9147], "microzone": [2029, 4152, 6464, 8062, 9015]},
        "1bfe16ea899d5e0fcd95ae13e0d71639ed9a8e5e6d6de470dd72dd769e83e0d8",
    ),
    "paper": (
        dict(combiner_mode="paper"),
        {"used": [3592, 5027, 6593, 7940, 8901], "microzone": [2429, 4488, 6493, 7949, 8894]},
        "051177da4b03c834026a3b82e766a2bd8e988e88ef51a643bdce66073b0bfbd0",
    ),
    "unpaired": (
        dict(paired=False),
        {"used": [3496, 5042, 6576, 7891, 8844], "microzone": [1600, 3502, 5812, 7694, 8859]},
        "8e03b11031e5a1e15630639a3b09e4189dbac2887ea2223e0fc11e6ad0e58a15",
    ),
    "isolated_lone_user": (
        dict(n_users=1, interferer_tiers=0, noise_power=0.0),
        {"used": [0, 0, 0, 0, 0], "microzone": [0, 0, 0, 0, 0]},
        "c02a2e15f753780fc473d8df7b3627536e55b95a0d22eafd61b25b0754c0cf65",
    ),
    "used_no_shadowing": (
        dict(architecture="used", shadowing_sigma=0.0),
        {"used": [3007, 4587, 6255, 7800, 8879]},
        "917690e816f27abbbe4d8534a3dfb329f353fbadc1b1ef1573563fb8bc7e3afa",
    ),
    "dense_paper": (
        dict(n_users=120, interferer_tiers=2, beamwidth=60.0, combiner_mode="paper", n_drops=23),
        {"used": [1166, 1607, 2003, 2295, 2499], "microzone": [1282, 1704, 2097, 2370, 2510]},
        "5c2babde5ea9e09dee09b2b6d3c47e98027c3ae449e1eb833cfd314b3b8d63b7",
    ),
}


class TestPinnedCounts:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_counts_and_csv_digest(self, name):
        overrides, expected, digest = PINNED[name]
        cfg = ScenarioConfig(**{**PINNED_BASE, **overrides})
        result = run_experiment(cfg)
        n_samples = cfg.n_drops * cfg.n_users
        counts = {
            arch: [int(c) for c in np.rint(curve.estimates * n_samples)]
            for arch, curve in result.curves.items()
        }
        assert counts == expected
        assert hashlib.sha256(render_csv(result).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(n_users=10, interferer_tiers=2, beamwidth=60.0, combiner_mode="paper")],
    )
    def test_block_range_is_the_sum_of_single_blocks(self, overrides):
        # Blocks of different sizes (full ones, then a short last one) run in
        # one call and one call each must give the same counts: nothing a
        # block leaves behind changes the next.
        cfg = ScenarioConfig(master_seed=9, **overrides)
        centers = np.vstack(
            [np.zeros((1, 2)), interferer_cell_centers(cfg.cell_radius, cfg.interferer_tiers)]
        )
        per_block = outage.LINK_BUDGET // (cfg.sector_count * len(centers) * cfg.n_users)
        # Two full blocks and a short third, whatever the link budget.
        cfg = replace(cfg, n_drops=2 * per_block + per_block // 2 + 1)
        n_blocks = -(-cfg.n_drops // per_block)
        assert n_blocks >= 3 and cfg.n_drops % per_block
        job = (cfg, ("used", "microzone"), 0)
        whole = outage._count_blocks(job + (0, n_blocks))
        parts = sum(outage._count_blocks(job + (b, b + 1)) for b in range(n_blocks))
        np.testing.assert_array_equal(whole, parts)
        curves = mc_outage(cfg).values()
        n_samples = cfg.n_drops * cfg.n_users
        np.testing.assert_array_equal(whole, np.rint([c.estimates * n_samples for c in curves]))


def count_on_an_empty_spare(job) -> np.ndarray:
    """``outage._count_blocks(job)`` in fresh arrays: the process's spare workspace is dropped first."""
    outage._SPARE.clear()
    return outage._count_blocks(job)


def with_short_last_block(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` with drops for one full block and a short second one."""
    per_block = outage._blocks(cfg)[1]
    cfg = replace(cfg, n_drops=per_block + per_block // 3 + 1)
    assert outage._blocks(cfg)[2] == 2
    return cfg


class TestAntennaMajor:
    # The kernel's link arrays and its draws are (antennas, drops, users).
    # The pinned counts hold only if every element gets the operations of a
    # one-antenna, one-drop call on the same operands, and the sums over
    # antennas run in antenna order.
    @pytest.mark.parametrize("beamwidth", [60.0, 120.0])
    @pytest.mark.parametrize("rho", [3.0, 4.0])
    def test_path_gains_are_those_of_one_antenna_and_one_drop(self, beamwidth, rho):
        cfg = ScenarioConfig(beamwidth=beamwidth, rho=rho, floor_gain_db=-20.0)
        centers = np.vstack([np.zeros((1, 2)), interferer_cell_centers(cfg.cell_radius, 1)])
        xy = sample_hexagon_xy(cfg.cell_radius, centers, 7, np.random.default_rng(31), batch=(4,))
        for arch in ("used", "microzone"):
            layout = build_layout(cfg, arch)
            gains, inside = outage._path_gains(layout, xy, cfg)
            assert gains.shape == inside.shape == (cfg.sector_count, 4, 49)
            for k in range(cfg.sector_count):
                alone = replace(layout, sites=layout.sites[k : k + 1], boresights=layout.boresights[k : k + 1])
                for d in range(4):
                    one_gains, one_inside = outage._path_gains(alone, xy[d : d + 1], cfg)
                    np.testing.assert_array_equal(gains[k, d], one_gains[0, 0])
                    np.testing.assert_array_equal(inside[k, d], one_inside[0, 0])

    @pytest.mark.parametrize("beamwidth", [60.0, 120.0])
    def test_path_gains_in_a_workspace_left_by_a_larger_batch(self, beamwidth):
        # The kernel's last block is its smallest: its _path_gains call gets
        # views over the first elements of arrays a larger block allocated.
        # Both architectures share the workspace, as in the kernel.
        cfg = ScenarioConfig(beamwidth=beamwidth, floor_gain_db=-20.0)
        centers = np.vstack([np.zeros((1, 2)), interferer_cell_centers(cfg.cell_radius, 1)])
        work: dict = {}
        for drops, seed in ((6, 41), (2, 42)):
            xy = sample_hexagon_xy(cfg.cell_radius, centers, 7, np.random.default_rng(seed), batch=(drops,))
            for arch in ("used", "microzone"):
                layout = build_layout(cfg, arch)
                fresh_gains, fresh_inside = outage._path_gains(layout, xy, cfg)
                gains, inside = outage._path_gains(layout, xy, cfg, work)
                assert gains.shape == inside.shape == (cfg.sector_count, drops, 49)
                np.testing.assert_array_equal(gains, fresh_gains)
                np.testing.assert_array_equal(inside, fresh_inside)

    @pytest.mark.parametrize("antennas", [3, 6])
    def test_mrc_sums_the_antennas_in_order(self, antennas):
        # Branches over many decades, so that another order rounds differently.
        gamma = np.exp(np.random.default_rng(antennas).normal(0.0, 6.0, (antennas, 5, 40)))
        in_order = gamma[0] + gamma[1]
        for branch in gamma[2:]:
            in_order = in_order + branch
        np.testing.assert_array_equal(combine_columns(gamma, "classical-mrc"), in_order)
        reversed_order = gamma[-1] + gamma[-2]
        for branch in gamma[-3::-1]:
            reversed_order = reversed_order + branch
        assert not np.array_equal(reversed_order, in_order)

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(n_users=10, interferer_tiers=2, beamwidth=60.0, combiner_mode="paper")],
    )
    def test_counts_do_not_depend_on_what_the_workspace_held(self, overrides):
        # One job evaluates both architectures, in either order, in one
        # workspace over a full block and a short one.  Each architecture
        # alone, one block per job, starts from a fresh workspace every time.
        cfg = with_short_last_block(ScenarioConfig(master_seed=4, **overrides))
        n_blocks = outage._blocks(cfg)[2]
        both = outage._count_blocks((cfg, ("used", "microzone"), 0, 0, n_blocks))
        swapped = outage._count_blocks((cfg, ("microzone", "used"), 0, 0, n_blocks))
        fresh = [
            sum(count_on_an_empty_spare((cfg, (arch,), 0, b, b + 1)) for b in range(n_blocks))
            for arch in ("used", "microzone")
        ]
        np.testing.assert_array_equal(both, np.vstack(fresh))
        np.testing.assert_array_equal(swapped, both[::-1])


DENSE = dict(n_users=120, interferer_tiers=2, beamwidth=60.0, combiner_mode="paper")


class TestSpareWorkspace:
    # A job takes the process's spare workspace, which holds what the last
    # job wrote, and hands its own back: every array must be written before
    # it is read, in every block of every job.
    def test_a_job_after_another_config_counts_as_in_fresh_arrays(self):
        dense = ScenarioConfig(master_seed=5, n_drops=9, **DENSE)
        default = with_short_last_block(ScenarioConfig(master_seed=6))
        archs = ("used", "microzone")
        # The first default job sizes the spare; the dense job needs no more
        # of any array and writes its own values into them.
        expected = count_on_an_empty_spare((default, archs, 0, 0, 2))
        outage._count_blocks((dense, archs, 0, 0, outage._blocks(dense)[2]))
        left = dict(outage._SPARE["work"])
        counts = outage._count_blocks((default, archs, 0, 0, 2))
        np.testing.assert_array_equal(counts, expected)
        # The second default job ran in the arrays the dense job had written.
        assert all(outage._SPARE["work"][name] is array for name, array in left.items())

    def test_concurrent_runs_get_the_curves_of_sequential_ones(self):
        # Four threads, two per config, start each round together and switch
        # every few microseconds: two jobs that shared a workspace would
        # overwrite each other's blocks.
        configs = [
            ScenarioConfig(master_seed=7, n_drops=400),
            ScenarioConfig(master_seed=8, n_drops=24, **DENSE),
        ]
        sequential = [mc_outage(cfg) for cfg in configs]
        n_threads, rounds = 4, 3
        start = threading.Barrier(n_threads, timeout=60)
        results = [[] for _ in range(n_threads)]

        def run(k):
            try:
                for _ in range(rounds):
                    start.wait()
                    results[k].append(mc_outage(configs[k % len(configs)]))
            except BaseException:
                start.abort()  # the other threads stop waiting for this one
                raise

        threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, runs in enumerate(results):
            expected = sequential[k % len(configs)]
            assert len(runs) == rounds
            for curves in runs:
                assert curves.keys() == expected.keys()
                for arch, curve in curves.items():
                    np.testing.assert_array_equal(curve.estimates, expected[arch].estimates)
        assert len(outage._SPARE) <= 1
