import math

import numpy as np
import pytest

from cellsim.geometry import (
    Antenna,
    Architecture,
    Position,
    build_layout,
    hexagon_contains,
    interferer_cell_centers,
    pattern_gain,
    place_users,
    propagation_distance,
    sample_hexagon_xy,
    serving_antenna,
    serving_sector_indices,
    wrap_angle,
)
from cellsim.scenario import ScenarioConfig


def make_cfg(**kw):
    return ScenarioConfig(**kw)


class TestBuildLayout:
    def test_used_three_sectors(self):
        layout = build_layout(make_cfg(), "used")
        assert layout.architecture is Architecture.USED
        assert layout.antenna_count == 3
        for a in layout.antennas:
            assert (a.position.x, a.position.y) == (0.0, 0.0)
            assert a.beamwidth == pytest.approx(2.0 * math.pi / 3.0)
        boresights = sorted(np.degrees(a.boresight) % 360.0 for a in layout.antennas)
        assert boresights == pytest.approx([90.0, 210.0, 330.0])

    def test_microzone_antennas_on_vertices(self):
        layout = build_layout(make_cfg(), "microzone")
        angles = sorted(
            math.degrees(math.atan2(a.position.y, a.position.x)) % 360.0
            for a in layout.antennas
        )
        assert angles == pytest.approx([90.0, 210.0, 330.0])
        for a in layout.antennas:
            dist = math.hypot(a.position.x, a.position.y)
            assert dist == pytest.approx(1000.0, abs=1e-9)
            # boresight points back at the center
            inward = math.atan2(-a.position.y, -a.position.x)
            assert wrap_angle(a.boresight - inward) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degree_variant(self):
        layout = build_layout(make_cfg(beamwidth_deg=60.0), "microzone")
        assert layout.antenna_count == 6

    def test_rejects_bad_radius_and_count(self):
        with pytest.raises(ValueError):
            build_layout(make_cfg(cell_radius=-5.0), "used")
        bad = ScenarioConfig(beamwidth_deg=90.0)  # not validated until use
        with pytest.raises(ValueError):
            build_layout(bad, "used")

    def test_microzone_positions_invariant_under_120_rotation(self):
        layout = build_layout(make_cfg(), "microzone")
        pts = np.array([[a.position.x, a.position.y] for a in layout.antennas])
        rot = 2.0 * math.pi / 3.0
        rotated = pts @ np.array(
            [[math.cos(rot), math.sin(rot)], [-math.sin(rot), math.cos(rot)]]
        )
        for row in rotated:
            assert np.min(np.hypot(*(pts - row).T)) < 1e-6


class TestPlaceUsers:
    def test_zero_users(self):
        layout = build_layout(make_cfg(), "used")
        assert place_users(layout, 0, np.random.default_rng(0)) == []

    def test_all_inside_hexagon(self):
        layout = build_layout(make_cfg(), "used")
        for seed in range(5):
            users = place_users(layout, 40, np.random.default_rng(seed))
            xy = np.array([[u.x, u.y] for u in users])
            assert hexagon_contains(layout.cell_radius, layout.cell_center, xy).all()

    def test_symmetry_of_sample_mean(self):
        # Oracle: the uniform distribution on a centered hexagon has zero
        # mean, so the sample mean must sit within 3 standard errors of 0.
        layout = build_layout(make_cfg(), "used")
        xy = sample_hexagon_xy(layout.cell_radius, layout.cell_center, 100_000, np.random.default_rng(42))
        se = xy.std(axis=0, ddof=1) / math.sqrt(xy.shape[0])
        assert abs(xy[:, 0].mean()) < 3.0 * se[0]
        assert abs(xy[:, 1].mean()) < 3.0 * se[1]

    def test_deterministic_given_seed(self):
        layout = build_layout(make_cfg(), "microzone")
        a = sample_hexagon_xy(1000.0, layout.cell_center, 100, np.random.default_rng(7))
        b = sample_hexagon_xy(1000.0, layout.cell_center, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestRhombusSampler:
    def test_batch_of_cells_stays_in_its_cells(self):
        centers = [Position(0.0, 0.0)] + interferer_cell_centers(1000.0, 2)
        xy = sample_hexagon_xy(
            1000.0, [[c.x, c.y] for c in centers], 5, np.random.default_rng(8), batch=(4,)
        )
        assert xy.shape == (4, 19 * 5, 2)
        for k, c in enumerate(centers):
            block = xy[:, 5 * k : 5 * (k + 1)].reshape(-1, 2)
            assert hexagon_contains(1000.0, c, block).all()

    def test_second_moment_matches_hexagon(self):
        # Oracle: a uniform point in a hexagon of circumradius R has
        # E[r^2] = 5 R^2 / 12, and each 60-degree wedge holds a sixth of it.
        xy = sample_hexagon_xy(1.0, Position(0.0, 0.0), 200_000, np.random.default_rng(9))
        r_sq = (xy**2).sum(axis=1)
        assert abs(r_sq.mean() - 5.0 / 12.0) < 4.0 * r_sq.std() / math.sqrt(r_sq.size)
        wedge = np.floor(np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * math.pi) / (math.pi / 3.0))
        shares = np.bincount(wedge.astype(int), minlength=6) / xy.shape[0]
        se = math.sqrt((1.0 / 6.0) * (5.0 / 6.0) / xy.shape[0])
        assert np.all(np.abs(shares - 1.0 / 6.0) < 4.0 * se)

    def test_serving_indices_keep_the_batch_axis(self):
        layout = build_layout(make_cfg(), "used")
        xy = sample_hexagon_xy(1000.0, layout.cell_center, 30, np.random.default_rng(10), batch=(3,))
        batched = serving_sector_indices(layout, xy)
        assert batched.shape == (3, 30)
        for row, points in zip(batched, xy):
            assert np.array_equal(row, serving_sector_indices(layout, points))


class TestPatternGain:
    def antenna(self, boresight=0.0, beamwidth=2.0 * math.pi / 3.0):
        return Antenna(
            id=0,
            position=Position(0.0, 0.0),
            boresight=boresight,
            beamwidth=beamwidth,
            max_gain=1.0,
            floor_gain=0.0,
        )

    def test_boresight_hits_max(self):
        assert pattern_gain(self.antenna(), Position(100.0, 0.0)) == 1.0

    def test_back_lobe_hits_floor(self):
        assert pattern_gain(self.antenna(), Position(-100.0, 0.0)) == 0.0

    def test_boundary_is_inclusive(self):
        p = Position(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
        assert pattern_gain(self.antenna(), p) == 1.0

    def test_output_is_two_valued_and_rotation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            boresight = rng.uniform(-math.pi, math.pi)
            ant = self.antenna(boresight=boresight)
            p = Position(*rng.uniform(-500.0, 500.0, 2))
            g = pattern_gain(ant, p)
            assert g in (0.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rot_ant = Antenna(
                id=0,
                position=Position(0.0, 0.0),
                boresight=float(wrap_angle(boresight + phi)),
                beamwidth=ant.beamwidth,
                max_gain=1.0,
                floor_gain=0.0,
            )
            rot_p = Position(c * p.x - s * p.y, s * p.x + c * p.y)
            assert pattern_gain(rot_ant, rot_p) == g


class TestPropagationDistance:
    def test_pythagorean(self):
        assert propagation_distance(Position(0, 0), Position(3, 4), 1.0) == 5.0

    def test_clamp_engages(self):
        assert propagation_distance(Position(0, 0), Position(0, 0), 1.0) == 1.0
        assert propagation_distance(Position(0, 0), Position(0, 0.5), 1.0) == 1.0

    def test_rejects_bad_dmin(self):
        with pytest.raises(ValueError):
            propagation_distance(Position(0, 0), Position(1, 1), 0.0)

    def test_never_below_dmin(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = Position(*rng.uniform(-10, 10, 2))
            q = Position(*rng.uniform(-10, 10, 2))
            d = propagation_distance(p, q, 2.5)
            euclid = math.hypot(q.x - p.x, q.y - p.y)
            assert d >= 2.5
            if euclid > 2.5:
                assert d == euclid


class TestServingAntenna:
    def test_boresight_point_maps_to_its_antenna(self):
        layout = build_layout(make_cfg(), "used")
        for a in layout.antennas:
            p = Position(500.0 * math.cos(a.boresight), 500.0 * math.sin(a.boresight))
            assert serving_antenna(layout, p) == a.id

    def test_boundary_tie_breaks_to_lower_id(self):
        layout = build_layout(make_cfg(), "used")
        # Wedges meet at 150 degrees (between antennas 0 and 1).
        p = Position(400.0 * math.cos(math.radians(150.0)), 400.0 * math.sin(math.radians(150.0)))
        assert serving_antenna(layout, p) == 0

    def test_microzone_has_no_single_server(self):
        layout = build_layout(make_cfg(), "microzone")
        with pytest.raises(ValueError, match="all antennas"):
            serving_antenna(layout, Position(10.0, 10.0))

    def test_partition_of_the_cell(self):
        layout = build_layout(make_cfg(), "used")
        rng = np.random.default_rng(5)
        xy = sample_hexagon_xy(layout.cell_radius, layout.cell_center, 500, rng)
        serving = serving_sector_indices(layout, xy)
        assert serving.min() >= 0 and serving.max() < 3
        bearings = np.arctan2(xy[:, 1], xy[:, 0])
        for i, s in enumerate(serving):
            offset = abs(float(wrap_angle(bearings[i] - layout.antennas[s].boresight)))
            assert offset <= layout.antennas[s].beamwidth / 2.0 + 1e-9
            # points strictly inside a wedge belong to exactly one sector
            strict = [
                a.id
                for a in layout.antennas
                if abs(float(wrap_angle(bearings[i] - a.boresight)))
                < a.beamwidth / 2.0 - 1e-9
            ]
            if len(strict) == 1:
                assert s == strict[0]


class TestInterfererCells:
    def test_ring_counts(self):
        assert interferer_cell_centers(1000.0, 0) == []
        assert len(interferer_cell_centers(1000.0, 1)) == 6
        assert len(interferer_cell_centers(1000.0, 2)) == 18

    def test_first_ring_distance(self):
        for c in interferer_cell_centers(1000.0, 1):
            assert math.hypot(c.x, c.y) == pytest.approx(1000.0 * math.sqrt(3.0))

    def test_rejects_bad_tiers(self):
        with pytest.raises(ValueError):
            interferer_cell_centers(1000.0, 3)
