import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from cellsim.geometry import build_layout
from cellsim import outage
from cellsim.outage import (
    LN10_OVER_10,
    PATH_GAIN_CONSTANT,
    _count_blocks,
    _fading,
    _path_gains,
    sample_hexagon_xy,
)
from cellsim.scenario import ConfigError, ScenarioConfig
from test_geometry import ConstantUniforms, kernel_gain, one_antenna


def omni_gain(point, **cfg):
    """The kernel's path gain toward ``point`` from an omnidirectional antenna at the origin."""
    return kernel_gain(one_antenna(), point, floor_gain_db=0.0, **cfg)


def shadowing_db(sigma_db, seed, n):
    """The kernel's shadowing factor, exp(sigma * ln(10) / 10 * z), read back in dB."""
    z = np.random.default_rng(seed).standard_normal(n)
    return 10.0 * np.log10(np.exp(sigma_db * LN10_OVER_10 * z))


class TestPathGainConstant:
    def test_identity_construction(self):
        # lambda^2 / (4 pi)^2 at lambda = 0.15 m, bit for bit.
        wavelength = 0.15
        assert PATH_GAIN_CONSTANT == wavelength * wavelength / (4.0 * math.pi) ** 2

    def test_two_ghz_value(self):
        # Hand evaluation: 0.15^2 / (4 pi)^2 = 0.0225 / 157.9137
        assert PATH_GAIN_CONSTANT == pytest.approx(1.42483e-4, rel=1e-5)


class TestLogNormalShadowing:
    def test_degenerate_sigma_zero(self):
        assert np.all(shadowing_db(0.0, 0, 1000) == 0.0)

    def test_mean_and_std_at_five_db(self):
        samples = shadowing_db(5.0, 1, 100_000)
        assert abs(samples.mean()) < 3.0 * 5.0 / math.sqrt(100_000)
        # chi-square concentration keeps the sample std within 2% of sigma
        assert abs(samples.std(ddof=1) - 5.0) < 0.02 * 5.0

    def test_skewness_is_statistically_zero(self):
        samples = shadowing_db(5.0, 2, 100_000)
        # SE of sample skewness for a Gaussian is ~ sqrt(6/n)
        assert abs(stats.skew(samples)) < 4.0 * math.sqrt(6.0 / 100_000)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(shadowing_sigma=-1.0)


class TestExponentialFading:
    # The kernel's own fading draw, outage._fading: -log(1 - U) by inversion.
    N = 1_000_000

    def test_kolmogorov_smirnov_against_unit_exponential(self):
        samples = _fading(np.random.default_rng(2), np.empty(self.N))
        assert stats.kstest(samples, "expon").pvalue > 1e-3

    def test_unit_mean(self):
        # Exp(1) has unit standard deviation, so the SE of the mean is 1 / sqrt(n).
        samples = _fading(np.random.default_rng(3), np.empty(self.N))
        assert abs(samples.mean() - 1.0) < 3.0 / math.sqrt(self.N)

    def test_tail_matches_exponential_cdf(self):
        # Oracle: P(A_f > 1) = exp(-1) for a unit-mean exponential.
        samples = _fading(np.random.default_rng(4), np.empty(self.N))
        p = math.exp(-1.0)
        se = math.sqrt(p * (1.0 - p) / self.N)
        assert abs((samples > 1.0).mean() - p) < 3.0 * se

    def test_support_is_nonnegative(self):
        # And finite, at most 53 ln 2: 1 - U is at least 2**-53.
        samples = _fading(np.random.default_rng(5), np.empty(self.N))
        assert np.isfinite(samples).all()
        assert samples.min() >= 0.0 and samples.max() <= 53.0 * math.log(2.0)

    def test_zero_uniform_is_zero_fading(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            fading = _fading(ConstantUniforms(0.0), np.full(64, np.nan))
        assert np.array_equal(fading, np.zeros(64))
        assert not np.signbit(fading).any()

    def test_largest_uniform_is_53_ln2(self):
        fading = _fading(ConstantUniforms(1.0 - 2.0**-53), np.empty(8))
        assert np.all(fading == 53.0 * math.log(2.0))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 50), elements=st.floats(0.0, 1.0, exclude_max=True)))
    def test_every_uniform_gives_finite_nonnegative_fading(self, uniforms):
        with np.errstate(all="raise"):
            fading = _fading(ConstantUniforms(uniforms), np.empty(uniforms.shape))
        assert np.isfinite(fading).all() and (fading >= 0.0).all()
        assert not np.signbit(fading).any()


class TestDistanceLoss:
    def test_identity_case(self):
        assert omni_gain((1.0, 0.0), rho=4.0) == 1.0

    def test_path_loss_only(self):
        assert omni_gain((100.0, 0.0), rho=4.0) == pytest.approx(1e-8, rel=1e-12)

    def test_shadowing_factor(self):
        assert math.exp(10.0 * LN10_OVER_10) == pytest.approx(10.0, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        # A zero distance is never evaluated: the config rejects d_min <= 0
        # and the kernel clamps every distance at d_min.
        with pytest.raises(ConfigError):
            ScenarioConfig(d_min=-1.0)
        assert omni_gain((0.0, 0.0), rho=4.0, d_min=2.0) == 2.0**-4.0

    def test_strictly_decreasing_in_distance(self):
        g = [omni_gain((d, 0.0), rho=4.0) for d in np.linspace(2.0, 500.0, 50)]
        assert np.all(np.diff(g) < 0.0)


class TestPathGains:
    # The kernel's deterministic link gains: pattern times distance loss for
    # every (antenna, drop, user), antenna-major.
    def test_zero_users(self):
        layout = build_layout(ScenarioConfig(), "used")
        assert _path_gains(layout, np.zeros((1, 0, 2)), ScenarioConfig())[0].shape == (3, 1, 0)

    def test_deterministic_given_seed(self, monkeypatch):
        # A block's draw is keyed by (seed, stream tag, block index) alone.
        # The link budget gives blocks of 5 drops: 60 links over 3 antennas
        # and 4 users.
        monkeypatch.setattr(outage, "LINK_BUDGET", 60)
        cfg = ScenarioConfig(n_users=4, interferer_tiers=0, n_drops=10, master_seed=9)
        assert outage._blocks(cfg)[1:] == (5, 2)
        job = [cfg, ("microzone",), 0, 0, 1]
        first = _count_blocks(tuple(job))
        assert np.array_equal(first, _count_blocks(tuple(job)))
        job[-2:] = [1, 2]
        assert not np.array_equal(first, _count_blocks(tuple(job)))

    def test_user_behind_antenna_gets_zero_column(self):
        # opposite the boresight
        assert kernel_gain(one_antenna(), (-100.0, 0.0)) == 0.0

    @pytest.mark.parametrize("rho", [2.0, 3.0, 4.0, 4.5, 5.0])
    def test_gains_are_the_plain_power_law(self, rho):
        # Against the pattern gain times the plain power of the clamped
        # squared distance, max(d**2, d_min**2)**(-rho / 2), with the beam
        # test done by bearings: the kernel's (1 / d**2)**2 at rho = 4 is
        # within 4 ulp of it, every other rho and the beam mask bit for bit.
        cfg = ScenarioConfig(rho=rho, d_min=35.0, floor_gain_db=-20.0, interferer_tiers=2)
        centers = np.vstack([np.zeros((1, 2)), outage.interferer_cell_centers(2)])
        xy = sample_hexagon_xy(centers, 30, np.random.default_rng(11), batch=(3,))
        for arch in ("used", "microzone"):
            layout = build_layout(cfg, arch)
            gains, inside = _path_gains(layout, xy, cfg)
            dx = xy[..., 0] - layout.sites[:, 0, None, None]
            dy = xy[..., 1] - layout.sites[:, 1, None, None]
            offset = np.angle(np.exp(1j * (np.arctan2(dy, dx) - layout.boresights[:, None, None])))
            in_beam = np.abs(offset) <= math.pi / cfg.sector_count
            np.testing.assert_array_equal(inside, in_beam)
            loss = np.maximum(dx * dx + dy * dy, cfg.d_min**2) ** (-rho / 2.0)
            plain = np.where(in_beam, 1.0, cfg.floor_gain) * loss
            if rho == 4.0:
                np.testing.assert_allclose(gains, plain, rtol=4 * 2.0**-52, atol=0.0)
                assert not np.array_equal(gains, plain)  # the squared reciprocal is taken
            else:
                np.testing.assert_array_equal(gains, plain)

    def test_entries_finite_nonnegative(self):
        cfg = ScenarioConfig(floor_gain_db=-10.0)
        layout = build_layout(cfg, "microzone")
        xy = sample_hexagon_xy((0.0, 0.0), 30, np.random.default_rng(10), batch=(2,))
        gains, _ = _path_gains(layout, xy, cfg)
        assert gains.shape == (3, 2, 30)
        assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)


class TestPropagationFields:
    # The propagation parameters are ScenarioConfig fields, checked when a
    # config is built, dataclasses.replace included.
    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(rho=1.5)

    def test_rejects_out_of_range_sigma(self):
        with pytest.raises(ConfigError):
            replace(ScenarioConfig(), shadowing_sigma=15.0)

