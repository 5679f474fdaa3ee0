import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsim.geometry import build_layout
from cellsim.outage import (
    _path_gains,
    combine_columns,
    per_antenna_sir_matrix,
    sample_hexagon_xy,
    serving_sector_indices,
)
from cellsim.scenario import ConfigError, ScenarioConfig
from scalar_oracle import diversity_combine, mrc_weights

positive_branches = st.lists(
    st.floats(min_value=1e-6, max_value=1e9), min_size=1, max_size=8
)


def uplink_sir(desired, interferers, eta, pg):
    """One user's SIR at one antenna, through the kernel's per_antenna_sir_matrix."""
    power = np.array([[desired, *interferers]], dtype=float)
    return float(per_antenna_sir_matrix(power, eta, pg, power.shape[-1])[0, 0])


def combine(branches, mode="paper"):
    """One user's branch SIRs merged by the kernel's combine_columns."""
    return float(combine_columns(np.asarray(branches, dtype=float)[:, None], mode)[0])


def drop_sirs(arch, seed, **cfg):
    """Beam mask and branch SIRs (antennas, 1, users) of one home-cell drop, from kernel stages."""
    cfg = ScenarioConfig(interferer_tiers=0, **cfg)
    layout = build_layout(cfg, arch)
    rng = np.random.default_rng(seed)
    xy = sample_hexagon_xy((0.0, 0.0), 12, rng, batch=(1,))
    gains, inside = _path_gains(layout, xy, cfg)
    gains = gains * rng.exponential(1.0, (1, 3, 12)).transpose(1, 0, 2)
    return inside, per_antenna_sir_matrix(gains, 1e-18, cfg.processing_gain, 12)


class TestProcessingGain:
    # The linear W / R is one ScenarioConfig field, checked when a config is built.
    def test_unity_allowed(self):
        assert ScenarioConfig(processing_gain=1.0).processing_gain == 1.0

    def test_below_unity_rejected(self):
        with pytest.raises(ConfigError, match=r"^processing_gain must be in \[1, 1e6\], got 0\.5$"):
            ScenarioConfig(processing_gain=0.5)

    def test_default_is_the_paper_rates(self):
        pg = ScenarioConfig().processing_gain
        assert pg == 3.8e6 / 45e3
        assert pg == pytest.approx(84.4444444, rel=1e-8)
        assert abs(10.0 * math.log10(pg) - 19.3) < 0.05


class TestUplinkSir:
    def test_unit_case(self):
        assert uplink_sir(1.0, [], 1.0, 1.0) == 1.0

    def test_hand_evaluation(self):
        assert uplink_sir(2.0, [1.0], 1.0, 10.0) == pytest.approx(10.0)

    def test_zero_numerator(self):
        assert uplink_sir(0.0, [1.0], 0.0, 5.0) == 0.0

    def test_interference_free_is_infinite(self):
        assert uplink_sir(1.0, [], 0.0, 5.0) == math.inf

    def test_zero_over_zero_is_zero(self):
        assert uplink_sir(0.0, [], 0.0, 5.0) == 0.0

    def test_homogeneous_degree_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0.1, 10.0)
            interf = rng.uniform(0.1, 5.0, rng.integers(1, 5)).tolist()
            eta = rng.uniform(0.0, 2.0)
            c = rng.uniform(1e-3, 1e3)
            base = uplink_sir(d, interf, eta, 7.0)
            scaled = uplink_sir(c * d, [c * x for x in interf], c * eta, 7.0)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestMrcWeights:
    # The scalar oracle's combiner weights, the reference for combine_columns.
    def test_single_branch(self):
        assert mrc_weights([5.0]).tolist() == [1.0]

    def test_equal_branches(self):
        np.testing.assert_allclose(mrc_weights([2.0, 2.0, 2.0]), [1 / 3] * 3)

    def test_hand_evaluation(self):
        np.testing.assert_allclose(mrc_weights([1.0, 4.0]), [1 / 3, 2 / 3])

    def test_all_zero_is_an_error(self):
        with pytest.raises(ValueError, match="no received signal"):
            mrc_weights([0.0, 0.0])

    def test_infinite_branch_takes_all_weight(self):
        np.testing.assert_allclose(mrc_weights([math.inf, 2.0]), [1.0, 0.0])

    @given(positive_branches)
    @settings(max_examples=200, deadline=None)
    def test_weights_are_a_convex_partition(self, branches):
        w = mrc_weights(branches)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        gamma = rng.uniform(0.01, 100.0, 5)
        perm = rng.permutation(5)
        np.testing.assert_allclose(mrc_weights(gamma[perm]), mrc_weights(gamma)[perm])


class TestDiversityCombine:
    # Hand cases and properties of the kernel's combiner on one user's branches.
    def test_single_branch_identity(self):
        assert combine([5.0]) == 5.0

    def test_equal_branches(self):
        assert combine([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_hand_evaluation(self):
        assert combine([1.0, 4.0]) == pytest.approx(3.0, rel=1e-12)

    def test_all_zero_combines_to_zero(self):
        assert combine([0.0, 0.0, 0.0]) == 0.0

    def test_infinite_branch_dominates(self):
        assert combine([math.inf, 1.0]) == math.inf

    def test_classical_mode_sums(self):
        assert combine([1.0, 4.0], mode="classical-mrc") == 5.0

    @given(positive_branches)
    @settings(max_examples=200, deadline=None)
    def test_convex_combination_bounds(self, branches):
        combined = combine(branches)
        lo, hi = min(branches), max(branches)
        assert lo * (1.0 - 1e-12) <= combined <= hi * (1.0 + 1e-12)

    @given(positive_branches, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, branches, c):
        base = combine(branches)
        scaled = combine([c * b for b in branches])
        assert scaled == pytest.approx(c * base, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        gamma = rng.uniform(0.01, 100.0, 6)
        assert combine(rng.permutation(gamma)) == pytest.approx(
            combine(gamma), rel=1e-12
        )

    def test_matches_column_version(self):
        rng = np.random.default_rng(3)
        gamma = rng.uniform(0.01, 50.0, (4, 20))
        cols = combine_columns(gamma, "paper")
        for i in range(20):
            assert cols[i] == pytest.approx(diversity_combine(gamma[:, i]), rel=1e-12)


class TestPerAntennaSirMatrix:
    def test_matches_scalar_formula(self):
        gains = np.array([[1.0, 2.0, 0.5], [0.2, 0.1, 0.3]])
        gamma = per_antenna_sir_matrix(gains, 0.5, 10.0, 3)
        for l in range(2):
            for i in range(3):
                interference = sum(gains[l, j] for j in range(3) if j != i)
                assert gamma[l, i] == pytest.approx(10.0 * gains[l, i] / (interference + 0.5), rel=1e-12)

    def test_lone_user_without_noise_is_infinite(self):
        gamma = per_antenna_sir_matrix(np.array([[2.0]]), 0.0, 4.0, 1)
        assert gamma[0, 0] == math.inf

    def test_observed_slice(self):
        gains = np.ones((2, 5))
        gamma = per_antenna_sir_matrix(gains, 0.0, 1.0, n_observed=2)
        assert gamma.shape == (2, 2)
        # four interferers of equal power
        np.testing.assert_allclose(gamma, 0.25)


class TestBatchAxis:
    def test_batch_equals_per_drop(self):
        rng = np.random.default_rng(12)
        gains = np.moveaxis(rng.exponential(1.0, (4, 3, 9)), 1, 0)
        gamma = per_antenna_sir_matrix(gains, 0.2, 10.0, n_observed=5)
        assert gamma.shape == (3, 4, 5)
        for mode in ("paper", "classical-mrc"):
            combined = combine_columns(gamma, mode)
            assert combined.shape == (4, 5)
            for d in range(4):
                one = per_antenna_sir_matrix(gains[:, d], 0.2, 10.0, n_observed=5)
                np.testing.assert_array_equal(gamma[:, d], one)
                np.testing.assert_array_equal(combined[d], combine_columns(one, mode))


class TestDropSirSamples:
    def test_used_combined_is_serving_branch(self):
        # With ideal isolation (floor gain 0) a home-cell user reaches only
        # the antenna whose beam holds it: serving_sector_indices must pick
        # that antenna, the user's only nonzero branch.
        inside, gamma = drop_sirs("used", 4)
        serving = serving_sector_indices(inside)
        combined = np.take_along_axis(gamma, serving[None], axis=0)[0]
        assert np.all(combined > 0.0)
        assert np.array_equal(combined, gamma.max(axis=0))
        assert np.all(np.sort(gamma, axis=0)[:-1] == 0.0)

    def test_microzone_combined_between_branch_extremes(self):
        _, gamma = drop_sirs("microzone", 5, floor_gain_db=-20.0)
        combined = combine_columns(gamma, "paper")
        assert np.all(gamma.min(axis=0) * (1.0 - 1e-9) <= combined)
        assert np.all(combined <= gamma.max(axis=0) * (1.0 + 1e-9))
