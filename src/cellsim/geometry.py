"""Hexagonal cell and antenna geometry.

The cell is a regular hexagon of circumradius ``CELL_RADIUS`` (the paper's
1 km) centered on the origin, oriented with vertices at 30 + 60k degrees so
that edge antennas can sit exactly on alternating vertices.  Two
arrangements are modeled:

* ``used``: every antenna is co-located at the cell center and serves one
  120 (or 60) degree sector, the classic sectored deployment.
* ``microzone``: one antenna per zone sits on the cell boundary facing the
  center; the uplink is received jointly by all of them.

Antenna patterns are ideal flat-tops: a gain of 1 inside the beamwidth,
``floor_gain`` (at most 1) outside, boundary inclusive.  This module holds
only what a run fixes: user placement and every random draw are the
kernel's, in ``outage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi
# The paper's cell radius, m.  Every SIR is a ratio of received powers, so
# only d_min and the noise against this scale set the answer.
CELL_RADIUS = 1000.0


@dataclass(frozen=True)
class Layout:
    """The antennas of one architecture, as the arrays the kernel reads.

    ``sites`` is (antennas, 2) in meters and ``boresights`` (antennas,) in
    radians, the slot angles as built and not wrapped: the kernel reads only
    their cosines and sines, and sector 0's boresight is exactly pi / 2.
    The beamwidth and the gains every antenna shares are the config's.  The
    two column pairs the kernel reads every block are derived from these on
    first use and kept.
    """

    architecture: str  # "used" or "microzone"
    sites: np.ndarray
    boresights: np.ndarray

    @cached_property
    def site_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y columns, (sites, 1, 1), of the distinct sites.

        One row when every antenna shares a site, as the used layout's do.
        The trailing axes broadcast over the kernel's (drops, users) planes.
        """
        sites = self.sites[:1] if (self.sites == self.sites[0]).all() else self.sites
        return sites[:, 0, None, None], sites[:, 1, None, None]

    @cached_property
    def boresight_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine columns, (antennas, 1, 1), of the boresights."""
        column = self.boresights[:, None, None]
        return np.cos(column), np.sin(column)


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
    count = cfg.sector_count
    beamwidth = TWO_PI / count
    slots = [math.pi / 2.0 + k * beamwidth for k in range(count)]
    if architecture == "used":
        sites = np.zeros((count, 2))
        boresights = np.array(slots)
    else:
        sites = np.array([[CELL_RADIUS * math.cos(s), CELL_RADIUS * math.sin(s)] for s in slots])
        boresights = np.add(slots, math.pi)
    return Layout(architecture, sites, boresights)


def interferer_cell_centers(tiers: int) -> np.ndarray:
    """(m, 2) centers of the co-channel neighbor cells for 0, 1 or 2 hexagonal rings."""
    ring1 = SQRT3 * CELL_RADIUS
    polar = [(ring1, k * math.pi / 3.0) for k in range(6)] if tiers else []
    if tiers == 2:
        polar += [(2.0 * ring1, k * math.pi / 3.0) for k in range(6)]
        polar += [(3.0 * CELL_RADIUS, math.pi / 6.0 + k * math.pi / 3.0) for k in range(6)]
    return np.array([[d * math.cos(a), d * math.sin(a)] for d, a in polar]).reshape(-1, 2)
