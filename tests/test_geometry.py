import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cellsim.geometry import (
    Layout,
    build_layout,
    hexagon_contains,
    interferer_cell_centers,
    sample_hexagon_xy,
    serving_sector_indices,
)
from cellsim.outage import _path_gains
from cellsim.scenario import ConfigError, ScenarioConfig
from scalar_oracle import _path_gain, serving_antenna, wrap_angle

ORIGIN = (0.0, 0.0)


def make_cfg(**kw):
    return ScenarioConfig(**kw)


def one_antenna(boresight=0.0):
    """An antenna at the origin, as a layout the kernel can read.

    Its beamwidth and gains are the config's: by default a 120 degree beam
    of unit gain and zero floor gain.
    """
    return Layout("used", np.zeros((1, 2)), np.array([boresight]))


def kernel_gain(layout, point, **cfg):
    """The kernel's path gain (pattern times distance loss) toward one point."""
    xy = np.array([[point]], dtype=float)
    return float(_path_gains(layout, xy, ScenarioConfig(**cfg))[0][0, 0, 0])


class ConstantUniforms:
    """A generator stand-in whose ``random`` fills its output with ``values``, broadcast."""

    def __init__(self, values):
        self.values = values

    def random(self, out):
        out[...] = self.values
        return out


def rhombus_spans(radius):
    """(3, 2) spans a and b of the three rhombi: rhombus k spans vertices 2k and 2k + 2."""
    angles = np.pi / 6.0 + np.pi / 3.0 * np.arange(0, 6, 2)
    edge_a = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return edge_a, np.roll(edge_a, -1, axis=0)


def assert_points_of_rhombi(xy, picks, refined, v, center, radius=1000.0):
    """Each point is u' * a_k + v * b_k + center, bit for bit, with u' in [0, 1), in the hexagon."""
    assert all(0.0 <= u_k < 1.0 for u_k in refined)
    edge_a, edge_b = rhombus_spans(radius)
    for point, k, u_k, v_k in zip(xy, picks, refined, v):
        assert point.tolist() == (edge_a[k] * u_k + edge_b[k] * v_k + center).tolist()
    assert hexagon_contains(radius, center, xy).all()


def kernel_serving(layout, xy, cfg=None):
    """The kernel's serving antenna per user of (drops, users, 2) points."""
    _, inside = _path_gains(layout, np.asarray(xy, dtype=float), cfg or ScenarioConfig())
    return serving_sector_indices(inside)


class TestBuildLayout:
    def test_used_three_sectors(self):
        layout = build_layout(make_cfg(), "used")
        assert layout.architecture == "used"
        assert len(layout.boresights) == len(layout.sites) == 3
        assert np.all(layout.sites == 0.0)
        boresights = sorted(np.degrees(layout.boresights) % 360.0)
        assert boresights == pytest.approx([90.0, 210.0, 330.0])

    def test_microzone_antennas_on_vertices(self):
        layout = build_layout(make_cfg(), "microzone")
        angles = sorted(
            math.degrees(math.atan2(y, x)) % 360.0 for x, y in layout.sites
        )
        assert angles == pytest.approx([90.0, 210.0, 330.0])
        for (x, y), boresight in zip(layout.sites, layout.boresights):
            assert math.hypot(x, y) == pytest.approx(1000.0, abs=1e-9)
            # boresight points back at the center
            inward = math.atan2(-y, -x)
            assert wrap_angle(boresight - inward) == pytest.approx(0.0, abs=1e-12)

    def test_sector_zero_boresight_is_exactly_north(self):
        # The analytic curve integrates over sector 0's beam, so its bits
        # rest on this boresight.
        for beamwidth in (60.0, 120.0):
            assert build_layout(make_cfg(beamwidth=beamwidth), "used").boresights[0] == math.pi / 2

    @pytest.mark.parametrize("beamwidth", [60.0, 120.0])
    @pytest.mark.parametrize("architecture", ["used", "microzone"])
    def test_boresight_columns_are_those_of_the_wrapped_angles(self, beamwidth, architecture):
        # The boresights are kept unwrapped; the kernel reads only their
        # cosines and sines, which wrapping to (-pi, pi] would move by no
        # more than one ulp of the unwrapped angle.
        layout = build_layout(make_cfg(beamwidth=beamwidth), architecture)
        wrapped = wrap_angle(layout.boresights)
        ulp = np.spacing(layout.boresights)
        for column, exact in zip(layout.boresight_columns, (np.cos(wrapped), np.sin(wrapped))):
            assert np.all(np.abs(column[:, 0, 0] - exact) <= ulp)

    def test_sixty_degree_variant(self):
        layout = build_layout(make_cfg(beamwidth=60.0), "microzone")
        assert len(layout.boresights) == len(layout.sites) == 6

    def test_rejects_bad_radius_and_count(self):
        # build_layout only ever sees a valid config: the config rejects both.
        with pytest.raises(ConfigError):
            make_cfg(cell_radius=-5.0)
        with pytest.raises(ConfigError):
            make_cfg(beamwidth=90.0)

    @pytest.mark.parametrize("arch, n_sites", [("used", 1), ("microzone", 3)])
    def test_derived_columns_follow_sites_and_boresights(self, arch, n_sites):
        # The kernel reads these columns every block.  The analytic curve
        # copies sector 0 with dataclasses.replace, and the copy must derive
        # its own from its own sites and boresights.
        layout = build_layout(make_cfg(), arch)
        site_x, site_y = layout.site_columns
        cos, sin = layout.boresight_columns
        assert site_x.shape == site_y.shape == (n_sites, 1, 1)
        assert cos.shape == sin.shape == (3, 1, 1)
        np.testing.assert_array_equal(site_x[:, 0, 0], layout.sites[:n_sites, 0])
        np.testing.assert_array_equal(site_y[:, 0, 0], layout.sites[:n_sites, 1])
        np.testing.assert_array_equal(cos[:, 0, 0], np.cos(layout.boresights))
        np.testing.assert_array_equal(sin[:, 0, 0], np.sin(layout.boresights))
        copy = replace(layout, sites=layout.sites[1:2] + 5.0, boresights=layout.boresights[1:2])
        assert copy.site_columns[0].tolist() == [[[layout.sites[1, 0] + 5.0]]]
        assert copy.boresight_columns[1].tolist() == [[[np.sin(layout.boresights[1])]]]

    def test_microzone_positions_invariant_under_120_rotation(self):
        layout = build_layout(make_cfg(), "microzone")
        pts = layout.sites
        rot = 2.0 * math.pi / 3.0
        rotated = pts @ np.array(
            [[math.cos(rot), math.sin(rot)], [-math.sin(rot), math.cos(rot)]]
        )
        for row in rotated:
            assert np.min(np.hypot(*(pts - row).T)) < 1e-6


class TestHexagonContains:
    def projection_mask(self, radius, center, pts):
        # The edge-normal projections as one matrix product.
        normals = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0], [-0.5, math.sqrt(3.0) / 2.0]])
        proj = np.abs((np.asarray(pts) - center) @ normals.T)
        return np.all(proj <= radius * math.sqrt(3.0) / 2.0 + 1e-9 * radius, axis=1)

    def test_matches_projection_form_on_boundary_grid(self):
        # The analytic curve's neighbor grid: many of its points sit exactly
        # on the hexagon's edges and vertices.
        half_w = 1000.0 * math.sqrt(3.0) / 2.0
        gx, gy = np.meshgrid(np.linspace(-half_w, half_w, 201), np.linspace(-1000.0, 1000.0, 201))
        for center in (ORIGIN, (1500.0, half_w), (-3000.0, 0.0)):
            pts = np.column_stack([gx.ravel() + center[0], gy.ravel() + center[1]])
            mask = hexagon_contains(1000.0, center, pts)
            assert np.array_equal(mask, self.projection_mask(1000.0, center, pts))
            assert mask.sum() == 30_201

    def test_matches_projection_form_on_random_points(self):
        pts = np.random.default_rng(3).uniform(-1200.0, 1200.0, (100_000, 2))
        mask = hexagon_contains(1000.0, (50.0, -20.0), pts)
        assert np.array_equal(mask, self.projection_mask(1000.0, (50.0, -20.0), pts))
        assert 0 < mask.sum() < mask.size

    def test_single_point(self):
        assert hexagon_contains(1000.0, ORIGIN, (0.0, 999.0)).tolist() == [True]
        assert hexagon_contains(1000.0, ORIGIN, (900.0, 0.0)).tolist() == [False]


class TestPlaceUsers:
    def test_zero_users(self):
        assert sample_hexagon_xy(1000.0, ORIGIN, 0, np.random.default_rng(0)).shape == (0, 2)

    def test_all_inside_hexagon(self):
        for seed in range(5):
            xy = sample_hexagon_xy(1000.0, ORIGIN, 40, np.random.default_rng(seed))
            assert hexagon_contains(1000.0, ORIGIN, xy).all()

    def test_symmetry_of_sample_mean(self):
        # Oracle: the uniform distribution on a centered hexagon has zero
        # mean, so the sample mean must sit within 3 standard errors of 0.
        xy = sample_hexagon_xy(1000.0, ORIGIN, 100_000, np.random.default_rng(42))
        se = xy.std(axis=0, ddof=1) / math.sqrt(xy.shape[0])
        assert abs(xy[:, 0].mean()) < 3.0 * se[0]
        assert abs(xy[:, 1].mean()) < 3.0 * se[1]

    def test_deterministic_given_seed(self):
        a = sample_hexagon_xy(1000.0, ORIGIN, 100, np.random.default_rng(7))
        b = sample_hexagon_xy(1000.0, ORIGIN, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestRhombusSampler:
    def test_batch_of_cells_stays_in_its_cells(self):
        centers = np.vstack([ORIGIN, interferer_cell_centers(1000.0, 2)])
        xy = sample_hexagon_xy(1000.0, centers, 5, np.random.default_rng(8), batch=(4,))
        assert xy.shape == (4, 19 * 5, 2)
        for k, c in enumerate(centers):
            block = xy[:, 5 * k : 5 * (k + 1)].reshape(-1, 2)
            assert hexagon_contains(1000.0, c, block).all()

    def test_second_moment_matches_hexagon(self):
        # Oracle: a uniform point in a hexagon of circumradius R has
        # E[r^2] = 5 R^2 / 12, and each 60-degree wedge holds a sixth of it.
        xy = sample_hexagon_xy(1.0, ORIGIN, 200_000, np.random.default_rng(9))
        r_sq = (xy**2).sum(axis=1)
        assert abs(r_sq.mean() - 5.0 / 12.0) < 4.0 * r_sq.std() / math.sqrt(r_sq.size)
        wedge = np.floor(np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * math.pi) / (math.pi / 3.0))
        shares = np.bincount(wedge.astype(int), minlength=6) / xy.shape[0]
        se = math.sqrt((1.0 / 6.0) * (5.0 / 6.0) / xy.shape[0])
        assert np.all(np.abs(shares - 1.0 / 6.0) < 4.0 * se)

    def test_points_are_u_a_plus_v_b_plus_center_bit_for_bit(self):
        # Every point is u' * a + v * b + center, evaluated in that order, from
        # the documented draws (one (2, drops, cells, users) call, u then v;
        # k = trunc(3u) and u' = 3u - k), with or without a workspace, and a
        # smaller batch in a workspace sized by a larger one reads no stale
        # value.
        centers = np.vstack([ORIGIN, interferer_cell_centers(1000.0, 1)])
        edge_a, edge_b = rhombus_spans(1000.0)
        work = {}
        for drops, seed in ((5, 11), (2, 12)):
            u_plane, v_plane = np.random.default_rng(seed).random((2, drops, 7, 4))
            expected = np.empty((drops, 7, 4, 2))
            for index in np.ndindex(drops, 7, 4):
                scaled = 3.0 * float(u_plane[index])
                k = math.trunc(scaled)
                (ax, ay), (bx, by) = edge_a[k], edge_b[k]
                u, v, (cx, cy) = scaled - k, float(v_plane[index]), centers[index[1]]
                expected[index] = (u * ax + v * bx + cx, u * ay + v * by + cy)
            expected = expected.reshape(drops, 28, 2)
            for scratch in (work, None):
                rng = np.random.default_rng(seed)
                xy = sample_hexagon_xy(1000.0, centers, 4, rng, batch=(drops,), work=scratch)
                assert np.array_equal(xy, expected)

    def test_one_uniform_picks_the_rhombus_at_its_edges(self):
        # u = 0, 1/3, 2/3 and the largest double below 1 pick rhombi 0, 1, 2
        # and 2 (3u rounds to 1.0, 2.0 and 3 - 2**-51), and u' = 3u - k stays
        # in [0, 1).
        u = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 - 2.0**-53])
        v = np.array([0.5, 0.0, 1.0 - 2.0**-53, 0.25])
        center = (300.0, -200.0)
        work = {}
        stub = ConstantUniforms(np.stack([u, v])[:, None])
        xy = sample_hexagon_xy(1000.0, center, 4, stub, work=work)
        assert work["pick"][:4].tolist() == [0, 1, 2, 2]
        refined = [0.0, 0.0, 0.0, 1.0 - 2.0**-51]
        assert_points_of_rhombi(xy, [0, 1, 2, 2], refined, v, center)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1.0, exclude_max=True)))
    def test_every_uniform_picks_a_rhombus_and_a_fraction(self, u):
        work = {}
        v = u[::-1]
        stub = ConstantUniforms(np.stack([u, v])[:, None])
        xy = sample_hexagon_xy(1000.0, ORIGIN, u.size, stub, work=work)
        picks = work["pick"][: u.size]
        assert np.isin(picks, (0, 1, 2)).all()
        assert_points_of_rhombi(xy, picks, 3.0 * u - picks, v, ORIGIN)

    def test_x_and_y_are_contiguous_planes(self):
        # The kernel reads all x, then all y, of a block's points.
        centers = np.vstack([ORIGIN, interferer_cell_centers(1000.0, 1)])
        for work in ({}, None):
            xy = sample_hexagon_xy(1000.0, centers, 4, np.random.default_rng(3), batch=(5,), work=work)
            assert xy.shape == (5, 28, 2)
            assert xy[..., 0].flags.c_contiguous and xy[..., 1].flags.c_contiguous

    def test_serving_indices_keep_the_batch_axis(self):
        layout = build_layout(make_cfg(), "used")
        xy = sample_hexagon_xy(1000.0, ORIGIN, 30, np.random.default_rng(10), batch=(3,))
        batched = kernel_serving(layout, xy)
        assert batched.shape == (3, 30)
        for row, points in zip(batched, xy):
            assert np.array_equal(row, kernel_serving(layout, points[None])[0])


class TestPatternGain:
    # The kernel's dot-product beam test.  Points within d_min = 1 m of the
    # antenna have a distance loss of exactly 1, so the path gain there is
    # the pattern gain alone.
    def test_boresight_hits_max(self):
        assert kernel_gain(one_antenna(), (0.5, 0.0)) == 1.0

    def test_back_lobe_hits_floor(self):
        assert kernel_gain(one_antenna(), (-0.5, 0.0)) == 0.0
        assert kernel_gain(one_antenna(), (-0.5, 0.0), floor_gain_db=-20.0) == 0.01

    def test_boundary_is_inclusive(self):
        p = (0.5 * math.cos(math.pi / 3.0), 0.5 * math.sin(math.pi / 3.0))
        assert kernel_gain(one_antenna(), p) == 1.0

    def test_output_is_two_valued_and_rotation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            boresight = rng.uniform(-math.pi, math.pi)
            p = rng.uniform(-0.5, 0.5, 2)
            g = kernel_gain(one_antenna(boresight), p)
            assert g in (0.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rot_p = (c * p[0] - s * p[1], s * p[0] + c * p[1])
            assert kernel_gain(one_antenna(float(wrap_angle(boresight + phi))), rot_p) == g


class TestPropagationDistance:
    # The kernel's distance clamp, read back from its path gain with an
    # omnidirectional antenna (floor gain = max gain) and rho = 2.
    @staticmethod
    def distance(point, d_min=1.0):
        gain = kernel_gain(one_antenna(), point, rho=2.0, d_min=d_min, floor_gain_db=0.0)
        return gain ** -0.5

    def test_pythagorean(self):
        assert self.distance((3.0, 4.0)) == pytest.approx(5.0, rel=1e-14)

    def test_clamp_engages(self):
        assert self.distance((0.0, 0.0)) == 1.0
        assert self.distance((0.0, 0.5)) == 1.0

    def test_rejects_bad_dmin(self):
        with pytest.raises(ConfigError):
            make_cfg(d_min=0.0)

    def test_never_below_dmin(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(-10, 10, 2)
            d = self.distance(p, d_min=2.5)
            euclid = math.hypot(*p)
            assert d >= 2.5 * (1.0 - 1e-15)
            if euclid > 2.5:
                assert d == pytest.approx(euclid, rel=1e-14)


class TestServingAntenna:
    def test_boresight_point_maps_to_its_antenna(self):
        layout = build_layout(make_cfg(), "used")
        for k, b in enumerate(layout.boresights):
            p = (500.0 * math.cos(b), 500.0 * math.sin(b))
            assert kernel_serving(layout, [[p]])[0, 0] == k

    def test_boundary_tie_breaks_to_lower_id(self):
        layout = build_layout(make_cfg(), "used")
        # Wedges meet at 150 degrees (between antennas 0 and 1).
        p = (400.0 * math.cos(math.radians(150.0)), 400.0 * math.sin(math.radians(150.0)))
        assert kernel_serving(layout, [[p]])[0, 0] == 0

    def test_partition_of_the_cell(self):
        layout = build_layout(make_cfg(), "used")
        rng = np.random.default_rng(5)
        xy = sample_hexagon_xy(1000.0, ORIGIN, 500, rng)
        serving = kernel_serving(layout, xy[None])[0]
        assert serving.min() >= 0 and serving.max() < 3
        bearings = np.arctan2(xy[:, 1], xy[:, 0])
        half = math.pi / 3.0
        for i, s in enumerate(serving):
            offset = abs(float(wrap_angle(bearings[i] - layout.boresights[s])))
            assert offset <= half + 1e-9
            # points strictly inside a wedge belong to exactly one sector
            strict = [
                k
                for k, b in enumerate(layout.boresights)
                if abs(float(wrap_angle(bearings[i] - b))) < half - 1e-9
            ]
            if len(strict) == 1:
                assert s == strict[0]


@st.composite
def beam_masks(draw):
    """Antenna-major 0/1 beam masks, 3 or 6 antennas, every user in at least one beam."""
    antennas = draw(st.sampled_from([3, 6]))
    shape = (antennas,) + draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=8))
    mask = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, 1)))
    lit = draw(hnp.arrays(np.intp, shape[1:], elements=st.integers(0, antennas - 1)))
    np.put_along_axis(mask, lit[None], 1, axis=0)
    return mask


@given(beam_masks())
@settings(max_examples=300, deadline=None)
def test_serving_sector_is_the_argmax_over_antennas(mask):
    # The lowest id among the beams that hold the user, as np.argmax gives it.
    np.testing.assert_array_equal(serving_sector_indices(mask), np.argmax(mask, axis=0))


@pytest.mark.parametrize("beamwidth", [60.0, 120.0])
class TestServingFromBeamMask:
    # The used architecture's serving antenna is the lowest id in the
    # kernel's beam mask.  argmax over an all-zero column would return 0
    # without complaint, so the beams must hold every home-cell user.
    def test_every_home_cell_user_lies_in_a_beam(self, beamwidth):
        cfg = make_cfg(beamwidth=beamwidth, n_users=20)
        layout = build_layout(cfg, "used")
        centers = np.vstack([ORIGIN, interferer_cell_centers(cfg.cell_radius, 1)])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            xy = sample_hexagon_xy(cfg.cell_radius, centers, 20, rng, batch=(39,))
            _, inside = _path_gains(layout, xy, cfg)
            assert inside[..., :20].any(axis=0).all()
        # Points exactly on the sector edges lie in both beams.
        edges = layout.boresights + math.pi / cfg.sector_count
        radii = np.geomspace(1e-3, 1000.0, 40)
        xy = np.stack([np.outer(radii, np.cos(edges)), np.outer(radii, np.sin(edges))], -1)
        _, inside = _path_gains(layout, xy.reshape(1, -1, 2), cfg)
        assert np.all(inside.sum(axis=0) == 2)

    def test_serving_antenna_has_the_max_gain(self, beamwidth):
        cfg = make_cfg(beamwidth=beamwidth, max_gain_db=3.0, floor_gain_db=-20.0)
        layout = build_layout(cfg, "used")
        xy = sample_hexagon_xy(cfg.cell_radius, ORIGIN, 400, np.random.default_rng(21), batch=(5,))
        gains, inside = _path_gains(layout, xy, cfg)
        served = np.take_along_axis(gains, serving_sector_indices(inside)[None], axis=0)
        loss = np.maximum(np.hypot(xy[..., 0], xy[..., 1]), cfg.d_min) ** -cfg.rho
        np.testing.assert_allclose(served[0] / loss, cfg.max_gain, rtol=1e-12)

    def test_matches_the_oracle_away_from_edges(self, beamwidth):
        cfg = make_cfg(beamwidth=beamwidth)
        layout = build_layout(cfg, "used")
        rng = np.random.default_rng(22)
        edges = layout.boresights + math.pi / cfg.sector_count
        points = list(sample_hexagon_xy(cfg.cell_radius, ORIGIN, 2000, rng))
        # And the hardest points kept: 2e-9 rad to either side of every edge.
        for edge in edges:
            for r in (0.5, 37.0, 999.0):
                for side in (-2e-9, 2e-9):
                    points.append((r * math.cos(edge + side), r * math.sin(edge + side)))
        kept = [
            (x, y) for x, y in points
            if min(abs(math.remainder(math.atan2(y, x) - e, 2.0 * math.pi)) for e in edges) >= 1e-9
        ]
        assert len(kept) >= 2000
        serving = kernel_serving(layout, [kept], cfg)[0]
        assert serving.tolist() == [serving_antenna(layout, cfg, x, y) for x, y in kept]

    def test_user_at_the_site_is_served_by_antenna_0(self, beamwidth):
        cfg = make_cfg(beamwidth=beamwidth)
        layout = build_layout(cfg, "used")
        _, inside = _path_gains(layout, np.zeros((1, 1, 2)), cfg)
        assert inside.all()
        assert serving_sector_indices(inside).tolist() == [[0]]
        assert serving_antenna(layout, cfg, 0.0, 0.0) == 0
        # A user at an antenna's site lies in that antenna's beam, in the
        # kernel (0 >= 0) and the oracle alike: the used center, and every
        # microzone edge-antenna site.
        for lay in (layout, build_layout(cfg, "microzone")):
            for x, y in lay.sites:
                gains, _ = _path_gains(lay, np.array([[[x, y]]]), cfg)
                oracle = [_path_gain(lay, k, x, y, cfg) for k in range(cfg.sector_count)]
                np.testing.assert_allclose(gains[:, 0, 0], oracle, rtol=1e-12)


class TestInterfererCells:
    def test_ring_counts(self):
        assert interferer_cell_centers(1000.0, 0).shape == (0, 2)
        assert len(interferer_cell_centers(1000.0, 1)) == 6
        assert len(interferer_cell_centers(1000.0, 2)) == 18

    def test_first_ring_distance(self):
        for x, y in interferer_cell_centers(1000.0, 1):
            assert math.hypot(x, y) == pytest.approx(1000.0 * math.sqrt(3.0))
