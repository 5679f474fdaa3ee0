import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsim.channel import draw_link_matrix
from cellsim.geometry import build_layout, place_users
from cellsim.scenario import ScenarioConfig
from cellsim.sir import (
    RadioConfig,
    combine_columns,
    diversity_combine,
    drop_sir_samples,
    mrc_weights,
    per_antenna_sir_matrix,
    processing_gain,
    uplink_sir,
)

positive_branches = st.lists(
    st.floats(min_value=1e-6, max_value=1e9), min_size=1, max_size=8
)


class TestProcessingGain:
    def test_unity(self):
        assert processing_gain(1e6, 1e6) == 1.0

    def test_cdma_scenario_value(self):
        pg = processing_gain(3.8e6, 45e3)
        assert pg == pytest.approx(84.4444444, rel=1e-8)
        assert abs(10.0 * math.log10(pg) - 19.3) < 0.05

    def test_double_rate(self):
        assert processing_gain(2e4, 1e4) == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            processing_gain(1e6, 0.0)
        with pytest.raises(ValueError):
            processing_gain(1e3, 1e6)


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
    def test_single_branch_identity(self):
        assert diversity_combine([5.0]) == 5.0

    def test_equal_branches(self):
        assert diversity_combine([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_hand_evaluation(self):
        assert diversity_combine([1.0, 4.0]) == pytest.approx(3.0, rel=1e-12)

    def test_all_zero_combines_to_zero(self):
        assert diversity_combine([0.0, 0.0, 0.0]) == 0.0

    def test_infinite_branch_dominates(self):
        assert diversity_combine([math.inf, 1.0]) == math.inf

    def test_classical_mode_sums(self):
        assert diversity_combine([1.0, 4.0], mode="classical-mrc") == 5.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            diversity_combine([1.0], mode="selection")

    @given(positive_branches)
    @settings(max_examples=200, deadline=None)
    def test_convex_combination_bounds(self, branches):
        combined = diversity_combine(branches)
        lo, hi = min(branches), max(branches)
        assert lo * (1.0 - 1e-12) <= combined <= hi * (1.0 + 1e-12)

    @given(positive_branches, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, branches, c):
        base = diversity_combine(branches)
        scaled = diversity_combine([c * b for b in branches])
        assert scaled == pytest.approx(c * base, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        gamma = rng.uniform(0.01, 100.0, 6)
        assert diversity_combine(rng.permutation(gamma)) == pytest.approx(
            diversity_combine(gamma), rel=1e-12
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
        gamma = per_antenna_sir_matrix(gains, 1.0, 0.5, 10.0)
        for l in range(2):
            for i in range(3):
                interferers = [gains[l, j] for j in range(3) if j != i]
                assert gamma[l, i] == pytest.approx(
                    uplink_sir(gains[l, i], interferers, 0.5, 10.0), rel=1e-12
                )

    def test_lone_user_without_noise_is_infinite(self):
        gamma = per_antenna_sir_matrix(np.array([[2.0]]), 1.0, 0.0, 4.0)
        assert gamma[0, 0] == math.inf

    def test_observed_slice(self):
        gains = np.ones((2, 5))
        gamma = per_antenna_sir_matrix(gains, 1.0, 0.0, 1.0, n_observed=2)
        assert gamma.shape == (2, 2)
        # four interferers of equal power
        np.testing.assert_allclose(gamma, 0.25)


class TestBatchAxis:
    def test_batch_equals_per_drop(self):
        rng = np.random.default_rng(12)
        gains = rng.exponential(1.0, (4, 3, 9))
        gamma = per_antenna_sir_matrix(gains, 1.0, 0.2, 10.0, n_observed=5)
        assert gamma.shape == (4, 3, 5)
        for mode in ("paper", "classical-mrc"):
            combined = combine_columns(gamma, mode)
            assert combined.shape == (4, 5)
            for d in range(4):
                one = per_antenna_sir_matrix(gains[d], 1.0, 0.2, 10.0, n_observed=5)
                np.testing.assert_array_equal(gamma[d], one)
                np.testing.assert_array_equal(combined[d], combine_columns(one, mode))


class TestDropSirSamples:
    def test_used_combined_is_serving_branch(self):
        cfg = ScenarioConfig()
        layout = build_layout(cfg, "used")
        rng = np.random.default_rng(4)
        users = place_users(layout, 12, rng)
        link = draw_link_matrix(layout, users, cfg.channel_params(), rng)
        radio = RadioConfig(cfg.chip_rate, cfg.bit_rate, 1e-18, cfg.tx_power)
        samples = drop_sir_samples(layout, users, link, radio)
        for s in samples:
            assert isinstance(s.serving, int)
            assert s.combined == s.per_antenna[s.serving]

    def test_microzone_combined_between_branch_extremes(self):
        cfg = ScenarioConfig()
        layout = build_layout(cfg, "microzone")
        rng = np.random.default_rng(5)
        users = place_users(layout, 12, rng)
        link = draw_link_matrix(layout, users, cfg.channel_params(), rng)
        radio = RadioConfig(cfg.chip_rate, cfg.bit_rate, 1e-18, cfg.tx_power)
        samples = drop_sir_samples(layout, users, link, radio, combiner_mode="paper")
        for s in samples:
            assert s.serving == "all"
            assert s.per_antenna.min() - 1e-9 <= s.combined <= s.per_antenna.max() + 1e-9


class TestRadioConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            RadioConfig(1e6, 2e6, 0.0)
        with pytest.raises(ValueError):
            RadioConfig(2e6, 1e6, -1.0)
        assert RadioConfig(2e6, 1e6, 0.0).processing_gain_linear == 2.0
