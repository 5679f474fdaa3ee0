"""Hexagonal cell and antenna geometry.

The cell is a regular hexagon of circumradius ``cell_radius`` centered on the
base-station site, oriented with vertices at 30 + 60k degrees so that edge
antennas can sit exactly on alternating vertices.  Two arrangements are
modeled:

* ``used``: every antenna is co-located at the cell center and serves one
  120 (or 60) degree sector, the classic sectored deployment.
* ``microzone``: one antenna per zone sits on the cell boundary facing the
  center; the uplink is received jointly by all of them.

Antenna patterns are ideal flat-tops: ``max_gain`` inside the beamwidth,
``floor_gain`` outside, boundary inclusive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# Slack for inclusive wedge-boundary checks, radians.  Orders of magnitude
# above atan2 rounding noise, orders of magnitude below any physical bearing.
ANGLE_TOL = 1e-12

# Outward unit normals of the three independent edge directions of a
# pointy-top hexagon (the other three are their negatives).
_HEX_NORMALS = np.array(
    [[1.0, 0.0], [0.5, SQRT3 / 2.0], [-0.5, SQRT3 / 2.0]]
)


class Architecture(str, enum.Enum):
    USED = "used"
    MICROZONE = "microzone"


@dataclass(frozen=True)
class Position:
    """Planar point in meters; the cell center is the origin by default."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Antenna:
    """Directional antenna with an ideal flat-top azimuth pattern."""

    id: int
    position: Position
    boresight: float  # radians
    beamwidth: float  # radians
    max_gain: float  # linear
    floor_gain: float  # linear

    def __post_init__(self):
        if not 0.0 < self.beamwidth <= TWO_PI:
            raise ValueError(f"beamwidth must be in (0, 2*pi], got {self.beamwidth}")
        if not (math.isfinite(self.max_gain) and math.isfinite(self.floor_gain)):
            raise ValueError("antenna gains must be finite")
        if self.max_gain < 0.0 or self.floor_gain < 0.0:
            raise ValueError("antenna gains must be >= 0")
        if self.floor_gain > self.max_gain:
            raise ValueError("floor_gain must not exceed max_gain")


@dataclass(frozen=True)
class Layout:
    architecture: Architecture
    cell_radius: float
    cell_center: Position
    antennas: tuple[Antenna, ...]

    @property
    def antenna_count(self) -> int:
        return len(self.antennas)


def wrap_angle(angle):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle), TWO_PI)


def hexagon_area(radius: float) -> float:
    return 1.5 * SQRT3 * radius * radius


def hexagon_contains(radius: float, center: Position, points_xy) -> np.ndarray:
    """Membership mask for a pointy-top hexagon, boundary inclusive."""
    q = np.atleast_2d(np.asarray(points_xy, dtype=float)) - [center.x, center.y]
    apothem = radius * SQRT3 / 2.0
    proj = np.abs(q @ _HEX_NORMALS.T)
    return np.all(proj <= apothem + 1e-9 * radius, axis=1)


def hexagon_boundary_radius(theta, radius: float):
    """Distance from the hexagon center to its boundary along bearing theta."""
    # Fold onto the nearest edge normal (normals sit at multiples of 60 deg).
    sixth = np.pi / 3.0
    local = np.asarray(theta) - sixth * np.round(np.asarray(theta) / sixth)
    return (radius * SQRT3 / 2.0) / np.cos(local)


def build_layout(cfg: "ScenarioConfig", architecture=None) -> Layout:
    """Construct the antenna layout for one architecture.

    ``architecture`` overrides ``cfg.architecture`` (needed when the config
    requests ``both``).  Sector/zone counts other than 3 or 6, i.e. beamwidths
    other than 120/60 degrees, are rejected.
    """
    arch = architecture if architecture is not None else cfg.architecture
    arch = Architecture(arch)
    radius = float(cfg.cell_radius)
    if radius <= 0.0:
        raise ValueError(f"cell_radius must be positive, got {radius}")
    count = int(round(360.0 / cfg.beamwidth_deg))
    if count not in (3, 6) or not math.isclose(360.0 / count, cfg.beamwidth_deg):
        raise ValueError(
            f"beamwidth must be 120 or 60 degrees (3 or 6 antennas), got {cfg.beamwidth_deg}"
        )
    beamwidth = TWO_PI / count
    center = Position(0.0, 0.0)
    max_gain = cfg.max_gain
    floor_gain = cfg.floor_gain

    antennas = []
    for k in range(count):
        slot = math.pi / 2.0 + k * beamwidth
        if arch is Architecture.USED:
            pos = center
            boresight = float(wrap_angle(slot))
        else:
            pos = Position(
                center.x + radius * math.cos(slot),
                center.y + radius * math.sin(slot),
            )
            boresight = float(wrap_angle(slot + math.pi))
        antennas.append(
            Antenna(
                id=k,
                position=pos,
                boresight=boresight,
                beamwidth=beamwidth,
                max_gain=max_gain,
                floor_gain=floor_gain,
            )
        )
    return Layout(arch, radius, center, tuple(antennas))


def sample_hexagon_xy(
    radius: float, center, n: int, rng: np.random.Generator, batch: tuple = ()
) -> np.ndarray:
    """Uniform points in hexagons of circumradius ``radius``, fixed draw count.

    Each point picks one of the three equal rhombi of the hexagon, then two
    uniforms place it inside that rhombus: no rejection loop, so the draws
    per point are fixed.  ``center`` is a Position or an (m, 2) array of
    cell centers; every cell gets ``n`` points.  The result has shape
    ``batch + (m * n, 2)``, points grouped by cell in ``center`` order.
    Draw order: all rhombus picks, then all uniform pairs.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if isinstance(center, Position):
        center = (center.x, center.y)
    centers = np.reshape(np.asarray(center, dtype=float), (-1, 2))
    shape = tuple(batch) + (centers.shape[0], n)
    rhombus = rng.integers(0, 3, size=shape)
    uv = rng.random(shape + (2,))
    # Rhombus k is spanned by the vertices V_2k and V_2k+2 (V_j at 30 + 60j
    # degrees); the spans are 120 degrees apart, so the three rhombi have
    # equal area and tile the hexagon exactly.
    angles = np.pi / 6.0 + np.pi / 3.0 * np.arange(0, 6, 2)
    edge_a = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    edge_b = np.roll(edge_a, -1, axis=0)
    xy = (
        uv[..., :1] * np.take(edge_a, rhombus, axis=0)
        + uv[..., 1:] * np.take(edge_b, rhombus, axis=0)
        + centers[:, None, :]
    )
    return xy.reshape(tuple(batch) + (-1, 2))


def place_users(layout: Layout, n: int, rng: np.random.Generator) -> list[Position]:
    """Drop ``n`` users i.i.d. uniform over the cell hexagon."""
    xy = sample_hexagon_xy(layout.cell_radius, layout.cell_center, n, rng)
    return [Position(float(x), float(y)) for x, y in xy]


def propagation_distance(p: Position, q: Position, d_min: float) -> float:
    """Euclidean distance clamped below at d_min (guards the d**-rho pole)."""
    if d_min <= 0.0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    return max(math.hypot(q.x - p.x, q.y - p.y), d_min)


def antenna_pattern_gains(antenna: Antenna, points_xy) -> np.ndarray:
    """Flat-top pattern gain from ``antenna`` toward each point (vectorized)."""
    q = np.atleast_2d(np.asarray(points_xy, dtype=float))
    bearing = np.arctan2(q[:, 1] - antenna.position.y, q[:, 0] - antenna.position.x)
    offset = np.abs(wrap_angle(bearing - antenna.boresight))
    return np.where(
        offset <= antenna.beamwidth / 2.0 + ANGLE_TOL,
        antenna.max_gain,
        antenna.floor_gain,
    )


def pattern_gain(antenna: Antenna, point: Position) -> float:
    """Pattern gain toward a single point; wedge boundary is inclusive."""
    return float(antenna_pattern_gains(antenna, [[point.x, point.y]])[0])


def antenna_distances(antenna: Antenna, points_xy, d_min: float) -> np.ndarray:
    if d_min <= 0.0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    q = np.atleast_2d(np.asarray(points_xy, dtype=float))
    d = np.hypot(q[:, 0] - antenna.position.x, q[:, 1] - antenna.position.y)
    return np.maximum(d, d_min)


def serving_sector_indices(layout: Layout, points_xy) -> np.ndarray:
    """Sector antenna id per point, by bearing from the cell center.

    ``points_xy`` has shape (..., n, 2) (a single (2,) point counts as one);
    the result has shape (..., n).  Boundary bearings resolve to the lower
    antenna id.  Only meaningful for the used architecture; the caller
    enforces that.
    """
    q = np.atleast_2d(np.asarray(points_xy, dtype=float))
    bearing = np.arctan2(q[..., 1] - layout.cell_center.y, q[..., 0] - layout.cell_center.x)
    boresights = np.array([a.boresight for a in layout.antennas])
    half = layout.antennas[0].beamwidth / 2.0
    offset = np.abs(wrap_angle(bearing[..., None, :] - boresights[:, None]))
    inside = offset <= half + ANGLE_TOL
    # Equally spaced wedges cover every bearing; argmax picks the lowest id.
    return np.argmax(inside, axis=-2)


def serving_antenna(layout: Layout, p: Position) -> int:
    """Id of the sector antenna whose wedge contains ``p``'s bearing."""
    if layout.architecture is Architecture.MICROZONE:
        raise ValueError("microzone uplink uses all antennas; no single serving antenna")
    return int(serving_sector_indices(layout, [[p.x, p.y]])[0])


def interferer_cell_centers(
    cell_radius: float, tiers: int, center: Position = Position(0.0, 0.0)
) -> list[Position]:
    """Centers of the co-channel neighbor cells for 0, 1 or 2 hexagonal rings."""
    if tiers not in (0, 1, 2):
        raise ValueError(f"interferer_tiers must be 0, 1 or 2, got {tiers}")
    centers: list[Position] = []
    ring1 = SQRT3 * cell_radius
    for t in range(1, tiers + 1):
        if t == 1:
            dist_angle = [(ring1, k * math.pi / 3.0) for k in range(6)]
        else:
            dist_angle = [(2.0 * ring1, k * math.pi / 3.0) for k in range(6)]
            dist_angle += [
                (3.0 * cell_radius, math.pi / 6.0 + k * math.pi / 3.0) for k in range(6)
            ]
        for dist, ang in dist_angle:
            centers.append(
                Position(center.x + dist * math.cos(ang), center.y + dist * math.sin(ang))
            )
    return centers


def as_xy(users: Iterable[Position] | Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Normalize a user collection to an (n, 2) float array."""
    if isinstance(users, np.ndarray):
        arr = users.astype(float, copy=False)
    else:
        users = list(users)
        if users and isinstance(users[0], Position):
            arr = np.array([[u.x, u.y] for u in users], dtype=float)
        else:
            arr = np.asarray(users, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) positions, got shape {arr.shape}")
    return arr
