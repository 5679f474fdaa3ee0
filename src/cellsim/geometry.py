"""Hexagonal cell and antenna geometry.

The cell is a regular hexagon of circumradius ``cell_radius`` centered on the
origin, oriented with vertices at 30 + 60k degrees so that edge antennas can
sit exactly on alternating vertices.  Two arrangements are modeled:

* ``used``: every antenna is co-located at the cell center and serves one
  120 (or 60) degree sector, the classic sectored deployment.
* ``microzone``: one antenna per zone sits on the cell boundary facing the
  center; the uplink is received jointly by all of them.

Antenna patterns are ideal flat-tops: ``max_gain`` inside the beamwidth,
``floor_gain`` outside, boundary inclusive.

Sampled user positions have the usual ``(..., 2)`` shape, but they are a
view over two contiguous planes, all x coordinates then all y, because the
kernel reads each coordinate of every point at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .workspace import buffer

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# The spans of the three rhombi that tile a hexagon of unit circumradius,
# (a or b, x or y, rhombus): rhombus k is spanned by the vertices V_2k and
# V_2k+2 (V_j at 30 + 60j degrees).  The spans are 120 degrees apart, so the
# three rhombi have equal area and tile the hexagon exactly.
_SPAN_ANGLES = np.pi / 6.0 + np.pi / 3.0 * np.arange(0, 6, 2)
_SPAN_A = np.array([np.cos(_SPAN_ANGLES), np.sin(_SPAN_ANGLES)])
_UNIT_SPANS = np.array([_SPAN_A, np.roll(_SPAN_A, -1, axis=1)])


@dataclass(frozen=True)
class Layout:
    """The antennas of one architecture, as the arrays the kernel reads.

    ``sites`` is (antennas, 2) in meters and ``boresights`` (antennas,) in
    radians.  The beamwidth and the gains every antenna shares are the
    config's.  The two column pairs the kernel reads every block are derived
    from these on first use and kept.
    """

    architecture: str  # "used" or "microzone"
    sites: np.ndarray
    boresights: np.ndarray

    @cached_property
    def site_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y columns, (sites, 1), of the distinct sites.

        One row when every antenna shares a site, as the used layout's do.
        """
        sites = self.sites[:1] if (self.sites == self.sites[0]).all() else self.sites
        return sites[:, 0, None], sites[:, 1, None]

    @cached_property
    def boresight_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine columns, (antennas, 1), of the boresights."""
        column = self.boresights[:, None]
        return np.cos(column), np.sin(column)


def wrap_angle(angle):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle), TWO_PI)


def hexagon_area(radius: float) -> float:
    return 1.5 * SQRT3 * radius * radius


def hexagon_contains(radius: float, center, points_xy) -> np.ndarray:
    """Membership mask for a pointy-top hexagon centered on (x, y), boundary inclusive."""
    q = np.atleast_2d(np.asarray(points_xy, dtype=float))
    x, y = q[:, 0] - center[0], q[:, 1] - center[1]
    # Projections on the edge normals at 0, 60 and 120 degrees.
    half_x, rise = 0.5 * x, (SQRT3 / 2.0) * y
    limit = radius * SQRT3 / 2.0 + 1e-9 * radius
    return (np.abs(x) <= limit) & (np.abs(half_x + rise) <= limit) & (np.abs(half_x - rise) <= limit)


def build_layout(cfg: "ScenarioConfig", architecture: str) -> Layout:
    """The antenna layout of ``architecture`` ("used" or "microzone") for ``cfg``."""
    if architecture not in ("used", "microzone"):
        raise ValueError(f"architecture must be used or microzone, got {architecture!r}")
    count = cfg.sector_count
    beamwidth = TWO_PI / count
    slots = [math.pi / 2.0 + k * beamwidth for k in range(count)]
    if architecture == "used":
        sites = np.zeros((count, 2))
        boresights = wrap_angle(slots)
    else:
        radius = cfg.cell_radius
        sites = np.array([[radius * math.cos(s), radius * math.sin(s)] for s in slots])
        boresights = wrap_angle(np.add(slots, math.pi))
    return Layout(architecture, sites, boresights)


def sample_hexagon_xy(
    radius: float,
    centers,
    n: int,
    rng: np.random.Generator,
    batch: tuple = (),
    work: dict | None = None,
) -> np.ndarray:
    """Uniform points in hexagons of circumradius ``radius``, fixed draw count.

    Each point picks one of the three equal rhombi of the hexagon, then two
    uniforms place it inside that rhombus: no rejection loop, so the draws
    per point are fixed.  ``centers`` is one (x, y) center or an (m, 2)
    array of them; every cell gets ``n`` points.  The result has shape
    ``batch + (m * n, 2)``, points grouped by cell in ``centers`` order.
    Draw order: all rhombus picks, then all uniform pairs.  The result is a
    view over two contiguous planes, all x coordinates then all y, so
    ``xy[..., 0]`` and ``xy[..., 1]`` each read contiguous memory.  With a
    ``workspace.buffer`` dict as ``work`` the uniforms and the planes live
    in its arrays, and the result is overwritten by the next call.
    """
    centers = np.reshape(np.asarray(centers, dtype=float), (-1, 2))
    shape = tuple(batch) + (centers.shape[0], n)
    rhombus = rng.integers(0, 3, size=shape)
    uv = rng.random(out=buffer(work, "uv", shape + (2,)))
    # Rows are the x and y coordinates of the three spans a and b.
    edge_a, edge_b = radius * _UNIT_SPANS
    # u * a + v * b + center, in that order, one coordinate plane at a time.
    # Every pick is 0, 1 or 2, so mode="clip" changes nothing but skips the
    # copy that "raise" makes.
    planes = buffer(work, "xy", (2,) + shape)
    term = buffer(work, "xy_b", shape)
    for plane, a, b, center in zip(planes, edge_a, edge_b, centers.T):
        a.take(rhombus, out=plane, mode="clip")
        plane *= uv[..., 0]
        plane += np.multiply(b.take(rhombus, out=term, mode="clip"), uv[..., 1], out=term)
        plane += center[:, None]
    # (2, ..., points) to (..., points, 2): the planes' axis moved last.
    planes = planes.reshape((2,) + tuple(batch) + (-1,))
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


def serving_sector_indices(inside: np.ndarray) -> np.ndarray:
    """Serving antenna id per user, from the kernel's beam mask.

    ``inside`` is the (..., antennas, users) 0/1 mask of ``outage._path_gains``
    for the used layout, whose antennas share the cell center; the result has
    shape (..., users).  The beams cover every bearing, so each user lies in
    at least one, and a user in two (on a sector edge, or at the center
    itself) goes to the lower antenna id.
    """
    return np.argmax(inside, axis=-2)


def interferer_cell_centers(cell_radius: float, tiers: int) -> np.ndarray:
    """(m, 2) centers of the co-channel neighbor cells for 0, 1 or 2 hexagonal rings."""
    if tiers not in (0, 1, 2):
        raise ValueError(f"interferer_tiers must be 0, 1 or 2, got {tiers}")
    ring1 = SQRT3 * cell_radius
    polar = [(ring1, k * math.pi / 3.0) for k in range(6)] if tiers else []
    if tiers == 2:
        polar += [(2.0 * ring1, k * math.pi / 3.0) for k in range(6)]
        polar += [(3.0 * cell_radius, math.pi / 6.0 + k * math.pi / 3.0) for k in range(6)]
    return np.array([[d * math.cos(a), d * math.sin(a)] for d, a in polar]).reshape(-1, 2)
