import concurrent.futures
import itertools
import math
import os
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsim import outage, scenario
from cellsim.geometry import build_layout
from cellsim.outage import (
    PATH_GAIN_CONSTANT,
    OutageCurve,
    _path_gains,
    analytic_outage_used,
    sample_hexagon_xy,
    serving_sector_indices,
)
from cellsim.scenario import (
    COMBINER_MODES,
    ARCHITECTURE_CHOICES,
    ConfigError,
    ExperimentResult,
    ScenarioConfig,
    analytic_used_curve,
    emit_csv,
    format_report,
    mean_received_powers,
    parse_config,
    parse_config_file,
    render_csv,
    run_experiment,
    serialize_config,
)
from scalar_oracle import reference_mean_received_powers, reference_outage_used


class TestParseConfig:
    def test_empty_text_yields_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_direct_parse(self):
        assert parse_config("rho = 4").rho == 4.0

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match=r"line 1.*rho"):
            parse_config("rho = banana")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 2.*unknown key.*'rh0'"):
            parse_config("rho = 4\nrh0 = 4")
        # Universal frequency reuse is the only reuse modeled, and no key names it.
        with pytest.raises(ConfigError, match=r"line 1.*unknown key.*'cluster_size'"):
            parse_config("cluster_size = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("rho = 4\nrho = 3")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nn_users = 12  # trailing\n")
        assert cfg.n_users == 12

    def test_si_suffixes(self):
        cfg = parse_config(
            "shadowing_sigma = 5 dB\n"
            "cell_radius = 1000 m\n"
            "beamwidth = 120 deg\n"
        )
        assert cfg.shadowing_sigma == 5.0
        assert cfg.cell_radius == 1000.0
        assert cfg.beamwidth == 120.0

    def test_threshold_sweep(self):
        cfg = parse_config("thresholds = -5:5:2.5")
        assert cfg.thresholds == (-5.0, 5.0, 2.5)
        np.testing.assert_allclose(cfg.thresholds_db, [-5.0, -2.5, 0.0, 2.5, 5.0])

    def test_noise_auto_and_explicit(self):
        assert parse_config("noise_power = auto").noise_power is None
        assert parse_config("noise_power = 1e-15").noise_power == 1e-15

    def test_invariant_violations_are_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config("rho = 9")
        with pytest.raises(ConfigError):
            parse_config("beamwidth = 90")
        with pytest.raises(ConfigError, match="combiner_mode"):
            parse_config("combiner_mode = selection")
        with pytest.raises(ConfigError, match="interferer_tiers"):
            parse_config("interferer_tiers = 3")
        with pytest.raises(ConfigError, match="architecture"):
            parse_config("architecture = sectored")
        # The drop count and sweep a Monte Carlo run reads: at least one drop,
        # and an ascending sweep.
        with pytest.raises(ConfigError, match="n_drops"):
            parse_config("n_drops = 0")
        with pytest.raises(ConfigError, match="stop >= start"):
            parse_config("thresholds = 3:1:1")
        with pytest.raises(ConfigError, match="^noise_power must be >= 0"):
            parse_config("noise_power = -1 W")

    def test_floor_gain_negative_infinity(self):
        cfg = parse_config("floor_gain_db = -inf")
        assert cfg.floor_gain == 0.0

    def test_unit_mismatch_rejected(self):
        with pytest.raises(ConfigError, match=r"tx_power.*unit"):
            parse_config("tx_power = 3 dB")
        with pytest.raises(ConfigError, match=r"cell_radius.*unit"):
            parse_config("cell_radius = 1 km")
        # No key takes a rate, and no suffix scales its number.
        for name, unit in itertools.product(scenario._UNITS, ["kHz", "kb/s", "Mchip/s"]):
            with pytest.raises(ConfigError, match=f"^line 1: bad value for '{name}': unsupported unit '{unit}'$"):
                parse_config(f"{name} = 1 {unit}")

    @pytest.mark.parametrize(
        "line, field, value",
        [
            ("processing_gain = 1_000", "processing_gain", 1000.0),
            ("cell_radius = 4_5 m", "cell_radius", 45.0),
            ("cell_radius = 3_800_000 m", "cell_radius", 3.8e6),
            ("rho = 3.2_5", "rho", 3.25),
            ("cell_radius = 1_0e0_2 m", "cell_radius", 1000.0),
            ("tx_power = .2_5 W", "tx_power", 0.25),
            ("n_users = 1_000", "n_users", 1000),
            ("thresholds = 1_0:2_0:1_0", "thresholds", (10.0, 20.0, 10.0)),
        ],
    )
    def test_digit_underscores_read_as_python_reads_them(self, line, field, value):
        assert getattr(parse_config(line), field) == value

    @pytest.mark.parametrize(
        "line",
        ["cell_radius = 1__000 m", "processing_gain = _1000", "cell_radius = 1000_", "rho = 4_.0",
         "rho = 4._0", "tx_power = 1_ W", "n_users = 1__0", "thresholds = 1__0:20:1"],
    )
    def test_misplaced_digit_underscores_rejected(self, line):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=rf"{key}'.*not (a number|an integer)|numeric"):
            parse_config(line)

    def test_huge_threshold_sweep_rejected_when_built(self, monkeypatch):
        # Rejected by its point count, before any array of thresholds exists.
        def no_array(self):
            raise AssertionError("thresholds_db built for a sweep that must be rejected")

        monkeypatch.setattr(ScenarioConfig, "thresholds_db", property(no_array))
        with pytest.raises(ConfigError, match=r"10000000000001 points.*1000000 allowed"):
            ScenarioConfig(thresholds=(0.0, 1e7, 1e-6))
        with pytest.raises(ConfigError, match=r"1000001 points"):
            ScenarioConfig(thresholds=(0.0, 1e6, 1.0))
        assert ScenarioConfig(thresholds=(0.0, 1e6 - 1.0, 1.0))._threshold_count() == 10**6

    def test_sweep_of_repeated_points_rejected_when_built(self, monkeypatch):
        # 10,001 points a sixteenth of a float spacing apart: as an array,
        # most of them would repeat.
        def no_array(self):
            raise AssertionError("thresholds_db built for a sweep that must be rejected")

        monkeypatch.setattr(ScenarioConfig, "thresholds_db", property(no_array))
        with pytest.raises(ConfigError, match="too fine for distinct points"):
            parse_config("thresholds = 1e17:1.0000000000001e17:1")

    @given(
        start=st.floats(-1e18, 1e18),
        count=st.integers(1, 1000),
        spacing=st.floats(0.5, 32.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_accepted_sweeps_are_strictly_ascending(self, start, count, spacing):
        # Steps of a few float spacings of the start, around the bound.
        step = spacing * math.ulp(abs(start))
        stop = start + step * (count - 1)
        try:
            cfg = ScenarioConfig(thresholds=(start, stop, step))
        except ConfigError:
            # Never for steps of 16 spacings of the sweep's magnitude or more.
            assert step < 16.0 * math.ulp(max(abs(start), abs(stop)))
            return
        assert np.all(np.diff(cfg.thresholds_db) > 0.0)

    def test_overflowing_power_at_d_min_rejected(self):
        # The in-beam power at d_min, A_p * d_min**-rho * tx_power, must be
        # finite: at rho = 4, 1e-80 m overflows.
        with pytest.raises(ConfigError, match="d_min"):
            parse_config("d_min = 1e-80 m")
        # 1e-61**-5 is finite, but not its product with A_p and 1e8 W.
        with pytest.raises(ConfigError, match="d_min"):
            parse_config("d_min = 1e-61 m\nrho = 5\ntx_power = 1e8 W")
        # The power at 1e-77 m is finite, but not once despread by the
        # default processing gain and scaled by the largest shadowing and
        # fading factors; at 1e-75 m that product is finite too.
        with pytest.raises(ConfigError, match="^processing_gain = .* at d_min = 1e-77 m"):
            parse_config("d_min = 1e-77 m")
        assert parse_config("d_min = 1e-75 m").d_min == 1e-75

    @pytest.mark.parametrize("overrides", [
        pytest.param({"processing_gain": 1e20, "tx_power": 1e300}, id="despread"),
        pytest.param({"tx_power": 1e295, "shadowing_sigma": 12.0}, id="shadowed"),
        # Beyond 1 m the largest power the kernel forms can be the draws times
        # the power at 1 m, before the distance loss: unchecked, this config
        # overflows there within 20 drops.
        pytest.param({"tx_power": 1e308, "shadowing_sigma": 12.0, "d_min": 1e4}, id="before-distance-loss"),
    ])
    def test_largest_formed_power_must_be_finite(self, overrides):
        with pytest.raises(ConfigError, match=(
            "^processing_gain = .* overflows once shadowed and faded: check tx_power, d_min, rho and shadowing_sigma$"
        )):
            ScenarioConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"tx_power": 1e293, "shadowing_sigma": 12.0},
        {"tx_power": 1e303, "d_min": 100.0},
        {"processing_gain": 1e17, "tx_power": 5e277, "shadowing_sigma": 12.0},
    ])
    def test_config_inside_the_power_bound_runs(self, overrides):
        # Each is a factor of 7 to 25 inside the bound, and the pytest
        # settings turn any RuntimeWarning into a failure.
        result = run_experiment(ScenarioConfig(n_drops=200, **overrides))
        assert np.isfinite(result.analytic_used).all()

    def test_d_min_whose_square_overflows_rejected(self):
        # The kernel clamps squared distances at d_min**2, which overflows
        # above about 1.34e154 m; the power at such a d_min underflows to 0.
        with pytest.raises(ConfigError, match="d_min"):
            parse_config("d_min = 1e300 m")
        above = math.nextafter(scenario.MAX_D_MIN, math.inf)
        with pytest.raises(ConfigError, match="d_min"):
            parse_config(f"d_min = {above!r} m\nrho = 2\ntx_power = 1e6 W")
        # At rho = 2 a 1e6 W transmit power keeps the power at MAX_D_MIN
        # itself normal, about 8e-307 W: the kernel squares d_min and runs, and
        # every user is in outage, drowned by the noise of a cell edge a
        # kilometre away.
        text = f"d_min = {scenario.MAX_D_MIN!r} m\nrho = 2\ntx_power = 1e6 W\nn_drops = 2\nn_users = 3"
        cfg = parse_config(text)
        for curve in outage.mc_outage(cfg).values():
            assert np.all(curve.estimates == 1.0)

    @pytest.mark.parametrize(
        "overrides", [{}, {"rho": 2.0, "tx_power": 1e6}, {"rho": 5.0, "tx_power": 1e3}]
    )
    def test_d_min_beyond_the_cell_is_rejected_or_gives_a_finite_curve(self, overrides):
        # The weakest in-beam power of an in-cell user is the one at
        # max(cell_radius, d_min).  Where it is not a positive normal number
        # the config is rejected, naming d_min; otherwise the analytic curve's
        # desired mean stays positive and the curve is an outage probability.
        accepted = []
        for d_min in [10.0**e for e in range(3, 155)] + [scenario.MAX_D_MIN]:
            try:
                cfg = ScenarioConfig(d_min=d_min, **overrides)
            except ConfigError as exc:
                assert "d_min" in str(exc)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                curve = analytic_used_curve(cfg)
            assert np.all((curve >= 0.0) & (curve <= 1.0)), (d_min, curve)
            accepted.append(d_min)
        # The cell edge is accepted, and only 1e6 W at rho = 2 keeps every
        # d_min up to MAX_D_MIN; the other two walks cross the bound.
        assert accepted[0] == 1e3
        assert (accepted[-1] == scenario.MAX_D_MIN) == (overrides.get("tx_power") == 1e6)

    @pytest.mark.parametrize("field", ["cell_radius", "d_min"])
    @pytest.mark.parametrize(
        "distance", [pytest.param(1e-80, id="overflow"), pytest.param(1e100, id="underflow")]
    )
    def test_each_end_of_the_distance_range_is_checked(self, field, distance):
        # At rho = 4 and the default tx_power the in-beam received power at
        # 1e-80 m is beyond float range, and at 1e100 m below the smallest
        # normal float.  Either end of the in-cell distance range is rejected
        # with an error that names its own field.
        with pytest.raises(ConfigError, match=rf"received power at {field} = .*check tx_power, {field} and rho"):
            ScenarioConfig(**{field: distance})

    def test_cell_radius_whose_farthest_square_overflows_rejected(self):
        # At rho = 2 and 1e7 W the cell-edge power of a 1e155 m cell is
        # normal, but the kernel squares distances of up to (2 sqrt(3) + 2)
        # cell radii, which overflow there.  The bound itself runs.
        with pytest.raises(ConfigError, match=r"^cell_radius = 1e\+155 m .* at most"):
            ScenarioConfig(cell_radius=1e155, rho=2.0, tx_power=1e7)
        above = math.nextafter(scenario.MAX_CELL_RADIUS, math.inf)
        with pytest.raises(ConfigError, match="^cell_radius"):
            ScenarioConfig(cell_radius=above, rho=2.0, tx_power=1e7)
        cfg = ScenarioConfig(
            cell_radius=scenario.MAX_CELL_RADIUS, rho=2.0, tx_power=1e7, interferer_tiers=2,
            n_drops=40, n_users=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(cfg)
        assert np.isfinite(result.analytic_used).all()

    def test_floor_gain_above_the_in_beam_gain_rejected(self):
        with pytest.raises(ConfigError, match="^floor_gain_db must be at most 0 dB"):
            parse_config("floor_gain_db = 1 dB")
        assert parse_config("floor_gain_db = 0 dB").floor_gain == 1.0

    @pytest.mark.parametrize("text", ["wavelength = 0.15 m", "max_gain_db = 0 dB"])
    def test_retired_power_keys_are_unknown(self, text):
        # Both only rescaled every received power, as tx_power does.
        key = text.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["bit_rate = 45 kb/s", "chip_rate = 3.8 Mchip/s"])
    def test_retired_rate_keys_are_unknown(self, text):
        # Only their ratio was read: it is the processing_gain key.
        key = text.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
            parse_config(text)

    def test_non_finite_values_rejected(self):
        for text in (
            "cell_radius = nan",
            "tx_power = inf",
            "processing_gain = nan",
            "thresholds = nan:10:1",
            "floor_gain_db = inf",
            "floor_gain_db = nan",
        ):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("name", [*scenario._UNITS, "thresholds"])
    def test_every_numeric_field_must_be_finite(self, name):
        value = (math.nan,) * 3 if name == "thresholds" else math.nan
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("text, message", [
        ("shadowing_sigma = nan dB", "shadowing_sigma must be finite"),
        ("beamwidth = inf deg", "beamwidth must be finite"),
    ])
    def test_non_finite_error_names_the_config_key(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(text)

    # Values of the wrong kind: each would run, or serialize, as a different
    # config than the one built, or fail inside the kernel.
    @pytest.mark.parametrize("name, value, message", [
        ("paired", "false", "a bool"),
        ("paired", np.bool_(False), "a bool"),
        ("thresholds", [-10.0, 10.0, 5.0], "a 3-tuple"),
        ("thresholds", (-10.0, 10.0), "a 3-tuple"),
        ("thresholds", (-10.0, "10", 5.0), "3 numbers"),
        ("thresholds", (-10.0, 10.0, True), "3 numbers"),
        ("interferer_tiers", True, "an integer"),
        ("n_users", 2.0, "an integer"),
        ("n_drops", 10.5, "an integer"),
        ("master_seed", "1", "an integer"),
        ("rho", "4", "a number"),
        ("rho", True, "a number"),
        ("noise_power", "auto", "a number"),
        ("floor_gain_db", None, "a number"),
        # Python integers beyond float range, which math.isfinite cannot take.
        pytest.param("cell_radius", 10**400, "finite", id="cell_radius-int-beyond-float"),
        pytest.param("thresholds", (-10, 10**400, 1), "finite", id="thresholds-int-beyond-float"),
        pytest.param("rho", -10**400, "finite", id="rho-int-beyond-float"),
    ])
    def test_field_of_the_wrong_kind_rejected(self, name, value, message):
        with pytest.raises(ConfigError, match=f"^{name} must be {message}, got "):
            ScenarioConfig(**{name: value})

    def test_fraction_rejected(self):
        # str(Fraction(33, 10)) is "33/10", which the config grammar rejects.
        with pytest.raises(ConfigError, match=r"^rho must be a number, got Fraction\(33, 10\)"):
            ScenarioConfig(rho=Fraction(33, 10))

    # A numpy scalar is stored as the Python number of its value, so the
    # kernel computes in Python's ints and floats and the config text is the
    # config that was built.
    def test_numpy_int8_users_run_as_python_ints(self):
        cfg = ScenarioConfig(n_users=np.int8(100), n_drops=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            csv = render_csv(run_experiment(cfg))
        assert csv == render_csv(run_experiment(ScenarioConfig(n_users=100, n_drops=20)))
        assert type(cfg.n_users) is int

    def test_numpy_int16_dense_config_runs(self):
        dense = dict(interferer_tiers=2, beamwidth=60.0)
        curves = outage.mc_outage(ScenarioConfig(n_drops=np.int16(300), n_users=np.int16(120), **dense))
        expected = outage.mc_outage(ScenarioConfig(n_drops=300, n_users=120, **dense))
        for arch, curve in expected.items():
            np.testing.assert_array_equal(curves[arch].estimates, curve.estimates)

    def test_numpy_float16_radius_runs_as_its_config_text(self):
        cfg = ScenarioConfig(cell_radius=np.float16(800.0), n_drops=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            csv = render_csv(run_experiment(cfg))
        assert csv == render_csv(run_experiment(parse_config(serialize_config(cfg))))
        assert type(cfg.cell_radius) is float

    def test_numpy_longdouble_round_trips(self):
        cfg = ScenarioConfig(rho=np.longdouble("3.3"))
        assert type(cfg.rho) is float
        assert parse_config(serialize_config(cfg)) == cfg

    def test_numpy_thresholds_stored_as_python_numbers(self):
        cfg = ScenarioConfig(thresholds=(np.float32(-10.5), np.int64(10), 1.0))
        assert cfg.thresholds == (-10.5, 10, 1.0)
        assert tuple(map(type, cfg.thresholds)) == (float, int, float)

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # Editors that save UTF-8 with a BOM put U+FEFF before the first key.
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffrho = 3  # exposant de propagation, \u03c1\n".encode("utf-8"))
        assert parse_config_file(path) == ScenarioConfig(rho=3.0)


# Every config key, once; each is the name of its ScenarioConfig field.
GRAMMAR_KEYS = (
    "architecture", "n_users", "processing_gain", "thresholds", "rho", "shadowing_sigma",
    "noise_power", "cell_radius", "beamwidth", "tx_power", "d_min", "n_drops",
    "master_seed", "combiner_mode", "interferer_tiers", "paired", "floor_gain_db",
)


def config_keys(text: str) -> list:
    return [line.partition("=")[0].strip() for line in text.splitlines()]


@st.composite
def valid_configs(draw):
    """Configs that set all 17 fields.

    tx_power spans the power scale of wavelengths from 1 mm to 10 m and
    in-beam gains of -30 to 30 dB at 1e-3 to 1e3 W.  The ranges keep the
    cell-edge power normal and the power at d_min finite and normal: at
    1e58 m, rho = 5 and the weakest drawn tx_power it is about 6e-305 W.  At
    1e-55 m and the strongest it is about 6e280 W, and despread by the
    largest drawn gain, 1e6, and scaled by the largest shadowing and fading
    factors the kernel's draws can give, about 1.4e303 W.
    """
    start = draw(st.floats(-100.0, 100.0))
    return ScenarioConfig(
        architecture=draw(st.sampled_from(ARCHITECTURE_CHOICES)),
        n_users=draw(st.integers(1, 2**64)),
        processing_gain=draw(st.floats(1.0, 1e6)),
        thresholds=(start, draw(st.floats(start, start + 100.0)), draw(st.floats(1e-3, 100.0))),
        rho=draw(st.floats(2.0, 5.0)),
        shadowing_sigma=draw(st.floats(0.0, 12.0)),
        noise_power=draw(st.none() | st.floats(0.0, 1e300)),
        cell_radius=draw(st.floats(1.0, 1e4)),
        beamwidth=draw(st.sampled_from((60.0, 120.0))),
        tx_power=draw(st.floats(4e-11, 4.5e9)),
        d_min=draw(st.floats(1e-55, 1e58)),
        n_drops=draw(st.integers(1, 2**64)),
        master_seed=draw(st.integers(0, 2**64)),
        combiner_mode=draw(st.sampled_from(COMBINER_MODES)),
        interferer_tiers=draw(st.integers(0, 2)),
        paired=draw(st.booleans()),
        floor_gain_db=draw(st.just(-math.inf) | st.floats(-1000.0, 0.0)),
    )


class TestRoundTrip:
    @given(valid_configs())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_serialize(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert sorted(config_keys(text)) == sorted(GRAMMAR_KEYS)

    def test_default_config(self):
        cfg = ScenarioConfig()
        assert parse_config(serialize_config(cfg)) == cfg
        assert config_keys(serialize_config(cfg)) == [f.name for f in fields(ScenarioConfig)]

    def test_modified_configs(self):
        cases = [
            replace(ScenarioConfig(), rho=3.3, noise_power=2.5e-17),
            replace(ScenarioConfig(), thresholds=(-4.0, 6.0, 0.5), paired=False),
            replace(ScenarioConfig(), combiner_mode="paper", interferer_tiers=2),
            replace(ScenarioConfig(), tx_power=0.1 + 0.2, master_seed=2**63),
            replace(ScenarioConfig(), architecture="microzone", beamwidth=60.0),
            replace(ScenarioConfig(), rho=np.float64(3.3), n_users=np.int64(7)),
            replace(ScenarioConfig(), rho=np.float32(3.0), n_drops=np.int32(5), noise_power=np.float64(0.0)),
        ]
        for cfg in cases:
            assert parse_config(serialize_config(cfg)) == cfg


class TestReadmeConfigTable:
    def test_lists_every_key_with_its_units(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config grammar", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
        units = {cells[0].strip(" `"): re.findall(r"`([^`]+)`", cells[2]) for cells in rows}
        assert len(rows) == len(units)
        assert sorted(units) == sorted(config_keys(serialize_config(ScenarioConfig())))
        for key, listed in units.items():
            assert listed == ([scenario._UNITS[key]] if scenario._UNITS.get(key) else []), key


class TestScenarioDefaults:
    def test_baseline_parameters(self):
        cfg = ScenarioConfig()
        assert abs(10.0 * math.log10(cfg.processing_gain) - 19.3) < 0.05
        assert cfg.n_users == 40
        assert cfg.rho == 4.0
        assert cfg.shadowing_sigma == 5.0
        assert cfg.beamwidth == 120.0
        assert cfg.cell_radius == 1000.0
        assert cfg.tx_power == 1.0

    def test_threshold_sweep_covers_zero_db(self):
        thr = ScenarioConfig().thresholds_db
        assert thr[0] == -10.0 and thr[-1] == 10.0 and len(thr) == 21
        assert 0.0 in thr

    def test_auto_noise_is_30db_below_edge_power(self):
        cfg = ScenarioConfig()
        edge = 1.42483e-4 * 1000.0**-4.0 * 1.0
        assert cfg.resolved_noise_power() == pytest.approx(edge * 1e-3, rel=1e-4)


class TestMeanReceivedPowers:
    def test_interferer_mean_is_a_third_of_desired(self):
        # With perfect sector isolation only the in-wedge third of the cell
        # contributes, with the same conditional distance distribution.
        cfg = replace(ScenarioConfig(), interferer_tiers=0)
        mean_desired, mean_in_cell, neighbors = mean_received_powers(cfg)
        assert neighbors == []
        assert mean_in_cell == pytest.approx(mean_desired / 3.0, rel=1e-9)

    def test_quadrature_against_monte_carlo(self):
        # Oracle: sample uniform in-wedge users and average the gain factors.
        # A large d_min keeps the d**-4 moment tame enough for the MC oracle.
        cfg = replace(
            ScenarioConfig(), interferer_tiers=0, shadowing_sigma=0.0, d_min=100.0
        )
        mean_desired, _, _ = mean_received_powers(cfg)
        rng = np.random.default_rng(17)
        layout = build_layout(cfg, "used")
        xy = sample_hexagon_xy(cfg.cell_radius, (0.0, 0.0), 400_000, rng)
        serving = serving_sector_indices(_path_gains(layout, xy[None], cfg)[1])[0]
        wedge = xy[serving == 0]
        d = np.maximum(np.hypot(wedge[:, 0], wedge[:, 1]), cfg.d_min)
        base = PATH_GAIN_CONSTANT
        est = base * np.mean(d**-4.0)
        se = base * np.std(d**-4.0) / math.sqrt(wedge.shape[0])
        assert abs(mean_desired - est) < 4.0 * se

    def test_quadrature_table_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for table, expected in ((scenario._GL_NODES, nodes), (scenario._GL_WEIGHTS, weights)):
            assert table.dtype == expected.dtype and table.shape == expected.shape
            assert table.tobytes() == expected.tobytes()

    def test_neighbor_means_much_weaker(self):
        cfg = ScenarioConfig()
        mean_desired, mean_in_cell, neighbors = mean_received_powers(cfg)
        assert len(neighbors) == 6
        assert all(0.0 <= n < mean_in_cell for n in neighbors)


# analytic_used_curve(ScenarioConfig()), element by element: any change to
# its bits is a declared change of the default CSV's used_analytic column.
DEFAULT_ANALYTIC_CURVE = [
    0.015273860522970107, 0.019189513233450934, 0.0240963314271649, 0.030237870472758954,
    0.03791328567335411, 0.04748754828332564, 0.05940204022357882, 0.07418446970474406,
    0.09245625760409237, 0.11493438408388429, 0.142423082837357, 0.17578873141303622,
    0.21590901648406302, 0.26358557305786784, 0.3194091557076542, 0.3835704276454536,
    0.4556212863480803, 0.5342153885483608, 0.616894047576155, 0.700028674569638,
    0.7790605948613946,
]


def test_default_analytic_curve_is_pinned_bit_for_bit():
    curve = analytic_used_curve(ScenarioConfig())
    assert curve.tobytes() == np.array(DEFAULT_ANALYTIC_CURVE).tobytes()


# rho, beamwidth, tiers, floor gain, d_min: d_min = 870 m, 900 m and 1500 m
# lie past the 866 m apothem.  The first two put a kink in the radial
# integral where the boundary crosses d_min (at 5.5 and 15.8 degrees from an
# edge normal); at 1500 m the whole cell is clamped.
EDGE_CONFIGS = list(
    itertools.product((2.0, 3.3, 4.0, 5.0), (60.0, 120.0), (0, 1, 2), (float("-inf"), -20.0),
                      (1.0, 870.0, 900.0, 1500.0))
)


def relative_errors(actual, expected):
    """|actual - expected| / |expected|, and the absolute error where expected is 0."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    scale = np.where(expected == 0.0, 1.0, np.abs(expected))
    return np.abs(actual - expected) / scale


class TestAnalyticAgainstOracle:
    @pytest.mark.parametrize("rho, beamwidth, tiers, floor_db, d_min", EDGE_CONFIGS)
    def test_means_and_curve_match_reference(self, rho, beamwidth, tiers, floor_db, d_min):
        # Shadowing only scales the means and n_users only the curve, so both
        # are swept inside one case.
        for sigma in (0.0, 8.0):
            cfg = ScenarioConfig(
                rho=rho, beamwidth=beamwidth, interferer_tiers=tiers,
                floor_gain_db=floor_db, d_min=d_min, shadowing_sigma=sigma,
            )
            ref_desired, ref_in_cell, ref_neighbors = reference_mean_received_powers(cfg)
            desired, in_cell, neighbors = mean_received_powers(cfg)
            assert len(neighbors) == len(ref_neighbors)
            errors = relative_errors(
                [desired, in_cell, *neighbors], [ref_desired, ref_in_cell, *ref_neighbors]
            )
            assert errors.max() <= 1e-12
            for n_users in (1, 40):
                cfg = replace(cfg, n_users=n_users)
                means = [ref_in_cell] * (n_users - 1)
                for neighbor in ref_neighbors:
                    means.extend([neighbor] * n_users)
                reference = [
                    reference_outage_used(
                        ref_desired, means, cfg.resolved_noise_power(), cfg.processing_gain,
                        10.0 ** (thr / 10.0),
                    )
                    for thr in cfg.thresholds_db
                ]
                assert relative_errors(analytic_used_curve(cfg), reference).max() <= 1e-12


def count_calls(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` with a wrapper that records one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestAnalyticWorkCounts:
    # Counts, not times: one closed-form call and at most one neighbor grid
    # per curve, whatever the config.
    def test_one_closed_form_call_per_curve(self, monkeypatch):
        calls = count_calls(monkeypatch, scenario, "analytic_outage_used")
        cfg = ScenarioConfig(interferer_tiers=2)
        curve = analytic_used_curve(cfg)
        assert len(calls) == 1
        assert curve.shape == cfg.thresholds_db.shape

    @pytest.mark.parametrize("tiers, grids", [(0, 0), (1, 1), (2, 1)])
    def test_neighbor_grid_once_and_none_for_an_isolated_cell(self, monkeypatch, tiers, grids):
        calls = count_calls(monkeypatch, scenario, "hexagon_contains")
        mean_received_powers(ScenarioConfig(interferer_tiers=tiers))
        assert len(calls) == grids


def pin_cpu_count(monkeypatch, count):
    """Make ``mc_outage`` see ``count`` CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def six_block_config() -> ScenarioConfig:
    """The default config with six blocks of drops, the last one short, at any link budget."""
    per_block = outage._blocks(ScenarioConfig())[1]
    return ScenarioConfig(n_drops=5 * per_block + 1)


@pytest.fixture
def recorded_pools(monkeypatch):
    """The sizes of the process pools ``mc_outage`` asks for.

    The recording executor runs the jobs in this process and starts none.
    """
    pools = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


class TestRunExperiment:
    def small_cfg(self, **kw):
        defaults = dict(n_users=6, n_drops=40, interferer_tiers=0, thresholds=(-10.0, 10.0, 5.0))
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_deterministic_csv_bytes(self):
        cfg = self.small_cfg()
        a = render_csv(run_experiment(cfg))
        b = render_csv(run_experiment(cfg))
        assert a == b

    def test_single_user_single_drop_is_bernoulli(self):
        cfg = self.small_cfg(n_users=1, n_drops=1)
        result = run_experiment(cfg)
        for curve in result.curves.values():
            assert set(np.unique(curve.estimates)) <= {0.0, 1.0}

    def test_contains_requested_architectures(self):
        both = run_experiment(self.small_cfg())
        assert set(both.curves) == {"used", "microzone"}
        solo = run_experiment(self.small_cfg(architecture="microzone"))
        assert set(solo.curves) == {"microzone"}
        assert solo.analytic_used is None

    def test_unpaired_runs_use_distinct_streams(self):
        paired = run_experiment(self.small_cfg(n_drops=60))
        unpaired = run_experiment(self.small_cfg(n_drops=60, paired=False))
        assert not np.array_equal(
            paired.curves["microzone"].estimates, unpaired.curves["microzone"].estimates
        )

    def test_unpaired_run_starts_one_pool(self, monkeypatch):
        # The two architectures' Monte Carlo calls share the run's pool, and
        # the CSV bytes do not depend on it.
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        pin_cpu_count(monkeypatch, 2)
        cfg = ScenarioConfig(n_drops=100, paired=False, thresholds=(-10.0, 10.0, 5.0))
        parallel = render_csv(run_experiment(cfg, workers=2))
        assert pools == [2]
        assert parallel == render_csv(run_experiment(cfg, workers=1))
        assert pools == [2]

    def test_pool_is_no_larger_than_the_job_count(self, monkeypatch, recorded_pools):
        # A pool forks all of its processes at its first job, so it must not
        # outnumber the jobs.
        pin_cpu_count(monkeypatch, 8)
        cfg = six_block_config()
        jobs = outage._blocks(cfg)[2]
        assert jobs == 6
        wide = render_csv(run_experiment(cfg, workers=64))
        assert recorded_pools == [6]
        assert wide == render_csv(run_experiment(cfg, workers=1))
        assert recorded_pools == [6]

    def test_pool_is_no_larger_than_the_cpu_count(self, monkeypatch, recorded_pools):
        # More workers than CPUs only add processes that wait for a CPU.
        cfg = six_block_config()
        single = render_csv(run_experiment(cfg, workers=1))
        pin_cpu_count(monkeypatch, 3)
        assert render_csv(run_experiment(cfg, workers=5000)) == single
        assert recorded_pools == [3]
        # Without sched_getaffinity the count is os.cpu_count(), and 1 when
        # that is unknown: the jobs then run in this process.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert render_csv(run_experiment(cfg, workers=5000)) == single
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert render_csv(run_experiment(cfg, workers=5000)) == single
        assert recorded_pools == [3, 4]

    def test_analytic_curve_matches_direct_evaluation(self):
        cfg = self.small_cfg()
        result = run_experiment(cfg)
        mean_desired, mean_in_cell, neighbors = mean_received_powers(cfg)
        means = [mean_in_cell] * (cfg.n_users - 1)
        thr0 = 10.0 ** (cfg.thresholds_db[0] / 10.0)
        expected = analytic_outage_used(
            mean_desired, means, cfg.resolved_noise_power(), cfg.processing_gain, thr0
        )
        assert result.analytic_used[0] == pytest.approx(expected, rel=1e-12)


class TestEmitCsv:
    def test_row_count(self, tmp_path):
        cfg = ScenarioConfig(
            n_users=4, n_drops=5, interferer_tiers=0, thresholds=(0.0, 5.0, 5.0)
        )
        result = run_experiment(cfg)
        out = tmp_path / "curves.csv"
        emit_csv(result, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 thresholds
        assert lines[0] == "threshold_db,used_mc,used_ci,used_analytic,micro_mc,micro_ci,micro_minus_used"

    def test_microzone_only_has_na_columns(self):
        cfg = ScenarioConfig(
            architecture="microzone", n_users=4, n_drops=5, interferer_tiers=0,
            thresholds=(0.0, 5.0, 5.0),
        )
        for line in render_csv(run_experiment(cfg)).splitlines()[1:]:
            cols = line.split(",")
            assert cols[1] == "NA" and cols[2] == "NA" and cols[3] == "NA"
            assert cols[6] == "NA"

    def test_reemit_is_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(n_users=4, n_drops=5, interferer_tiers=0, thresholds=(0.0, 5.0, 5.0))
        result = run_experiment(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, p1)
        emit_csv(result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_failure_names_path(self, tmp_path):
        cfg = ScenarioConfig(n_users=4, n_drops=5, interferer_tiers=0, thresholds=(0.0, 5.0, 5.0))
        result = run_experiment(cfg)
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(result, missing)


class TestFormatReport:
    @staticmethod
    def result(used=None, micro=None):
        """A result over the sweep 0, 1, 2, ... dB with the given estimates."""
        curves = {
            arch: OutageCurve(np.array(estimates), np.full(len(estimates), 0.01))
            for arch, estimates in (("used", used), ("microzone", micro))
            if estimates is not None
        }
        count = len(used if used is not None else micro)
        cfg = ScenarioConfig(
            architecture="both" if len(curves) == 2 else next(iter(curves)),
            thresholds=(0.0, count - 1.0, 1.0),
        )
        return ExperimentResult(cfg, curves, None, 0.0)

    def test_self_comparison_has_no_flags(self):
        text = format_report(self.result([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]))
        rows = text.splitlines()[1:]
        assert [float(row.split()[5]) for row in rows] == [0.0, 0.0, 0.0]
        assert all(row.endswith("  ") for row in rows)

    def test_flags_where_micro_worse(self):
        # Flagged exactly where micro is strictly above used: ties are not.
        used = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        micro = np.array([0.05, 0.25, 0.3, 0.35, 0.6, 0.6])
        result = self.result(used, micro)
        lines = format_report(result).splitlines()
        assert lines[0].endswith("  flag")
        flagged = [line.endswith("  micro>used") for line in lines[1:]]
        assert flagged == (micro > used).tolist() == [False, True, False, False, True, False]
        assert [line.endswith("  ") for line in lines[1:]] == [not f for f in flagged]
        diffs = [float(line.split(",")[6]) for line in render_csv(result).splitlines()[1:]]
        assert [d > 0.0 for d in diffs] == flagged

    def test_format_is_one_line_per_threshold(self):
        text = format_report(self.result([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]))
        assert len(text.splitlines()) == 4  # header + 3 rows

    def test_single_architecture_format(self):
        assert format_report(self.result(used=[0.1, 0.25])).splitlines() == [
            "used @ 0 dB: outage 0.1 +- 0.01", "used @ 1 dB: outage 0.25 +- 0.01",
        ]
        assert format_report(self.result(micro=[0.125])).splitlines() == [
            "microzone @ 0 dB: outage 0.125 +- 0.01",
        ]

    def test_curve_off_the_sweep_is_rejected(self):
        result = self.result([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        short = replace(result, config=replace(result.config, thresholds=(0.0, 1.0, 1.0)))
        for render in (format_report, render_csv):
            with pytest.raises(ValueError):
                render(short)
