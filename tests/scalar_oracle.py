"""Scalar reference for the batched drop kernel, for tests only.

``oracle_counts`` replays the kernel's random stream block by block and
recomputes every observed user's SIR with per-user Python loops: an
arctangent beam test, ``hypot`` distances clamped at ``d_min``, shadowing as
``10**(sigma * z / 10)``, fading as ``-math.log1p(-u)`` of each uniform, the
rhombus pick as ``math.trunc(3 * u)``, a direct sum over the other users'
powers and the scalar combiner below.  It shares no array code with the
kernel, so the kernel's counts must equal it exactly.
``matched_exponential_outage`` is the brute-force sampler the closed form is
checked against, and ``below_sum`` the closed form in rate form.
``reference_mean_received_powers`` is the analytic curve's mean powers the
slow way.  Its in-cell integrals use this module's own scalar boundary radius
and radial integral, and one ``integrate.quad`` per smooth piece of each
wedge: the wedge is split on the 30-degree grid, where the boundary radius
has kinks, and at every bearing where the boundary crosses ``d_min``, where
the radial integral has one.  Each piece runs at ``epsabs=0`` and
``epsrel=1e-13``: the integrand is of order 1e-10, far below ``quad``'s
default absolute tolerance, which would stop it after its first pass.  The
neighbor cells get a fresh 201 x 201 grid with arctangent bearings each.
``reference_outage_used`` is the closed form for one threshold, summed in a
Python loop.
"""

import math

import numpy as np
from scipy import integrate

from cellsim.geometry import CELL_RADIUS, hexagon_area, hexagon_contains, interferer_cell_centers
from cellsim.outage import BIT_GENERATOR, LINK_BUDGET, LN10_OVER_10, analytic_outage_used

# Free-space constant (lambda / (4 pi))**2 of the 2 GHz carrier, lambda = 0.15 m,
# computed here rather than read from the kernel.
PATH_CONSTANT = (0.15 / (4.0 * math.pi)) ** 2
# Every user's transmit power, W.
TX_POWER = 1.0


def wrap_angle(angle):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle), 2.0 * np.pi)


def mrc_weights(per_antenna) -> np.ndarray:
    """Square-root self-normalized branch weights; they sum to one.

    Infinite branches take all the weight (split evenly among themselves),
    which is the limit of the finite formula.
    """
    gamma = np.asarray(per_antenna, dtype=float)
    if not np.any(gamma > 0.0):
        raise ValueError("no received signal on any antenna")
    infinite = np.isinf(gamma)
    if infinite.any():
        return infinite / infinite.sum()
    root = np.sqrt(gamma)
    return root / root.sum()


def diversity_combine(per_antenna, mode: str = "paper") -> float:
    """Combined SIR of one user's branches: the weighted mean, or the sum."""
    gamma = np.asarray(per_antenna, dtype=float)
    if mode == "classical-mrc":
        return float(gamma.sum())
    if not np.any(gamma > 0.0):
        return 0.0
    if np.isinf(gamma).any():
        return float("inf")
    return float(mrc_weights(gamma) @ gamma)


def _in_beam(layout, cfg, k: int, x: float, y: float) -> bool:
    """Whether (x, y) lies in antenna k's beam, boundary inclusive.

    The beamwidth is the config's.  The antenna's own site, where the
    bearing is undefined, lies in its beam.
    """
    sx, sy = layout.sites[k]
    if math.hypot(x - sx, y - sy) == 0.0:
        return True
    offset = math.remainder(math.atan2(y - sy, x - sx) - layout.boresights[k], 2.0 * math.pi)
    return abs(offset) <= math.pi * cfg.beamwidth / 360.0 + 1e-12


def serving_antenna(layout, cfg, x: float, y: float) -> int:
    """The used layout's serving antenna: the lowest id whose beam holds (x, y)."""
    return next(k for k in range(cfg.sector_count) if _in_beam(layout, cfg, k, x, y))


def _path_gain(layout, k: int, x: float, y: float, cfg) -> float:
    sx, sy = layout.sites[k]
    pattern = 1.0 if _in_beam(layout, cfg, k, x, y) else cfg.floor_gain
    return pattern * max(math.hypot(x - sx, y - sy), cfg.d_min) ** -cfg.rho


def _sir(powers, i: int, eta: float, pg: float) -> float:
    others = sum(powers[:i]) + sum(powers[i + 1:]) + eta
    if others == 0.0:
        return math.inf if powers[i] > 0.0 else 0.0
    return pg * powers[i] / others


def oracle_counts(layouts, cfg, n_drops, seed, stream_tag, link_budget=LINK_BUDGET):
    """Outage counts per layout and threshold, recomputed user by user."""
    thresholds = 10.0 ** (cfg.thresholds_db / 10.0)
    eta, pg = cfg.resolved_noise_power(), cfg.processing_gain
    cells = [(0.0, 0.0)] + [tuple(c) for c in interferer_cell_centers(cfg.interferer_tiers)]
    n_ant, n_links = cfg.sector_count, len(cells) * cfg.n_users
    per_block = max(1, link_budget // (n_ant * n_links))
    vertices = [
        (CELL_RADIUS * math.cos(math.pi / 6.0 + math.pi / 3.0 * j),
         CELL_RADIUS * math.sin(math.pi / 6.0 + math.pi / 3.0 * j))
        for j in range(6)
    ]
    counts = np.zeros((len(layouts), thresholds.size), dtype=np.int64)
    for block, first in enumerate(range(0, n_drops, per_block)):
        drops = min(per_block, n_drops - first)
        key = np.random.SeedSequence(seed, spawn_key=(stream_tag, block))
        rng = np.random.Generator(getattr(np.random, BIT_GENERATOR)(key))
        u_plane, v_plane = rng.random((2, drops, len(cells), cfg.n_users))
        z = rng.standard_normal((n_ant, drops, n_links))
        fading = rng.random((n_ant, drops, n_links))
        for d in range(drops):
            users = []
            for c, (cx, cy) in enumerate(cells):
                for i in range(cfg.n_users):
                    scaled = 3.0 * float(u_plane[d, c, i])
                    r = math.trunc(scaled)
                    (ax, ay), (bx, by) = vertices[2 * r], vertices[(2 * r + 2) % 6]
                    u, v = scaled - r, float(v_plane[d, c, i])
                    users.append((u * ax + v * bx + cx, u * ay + v * by + cy))
            for n, layout in enumerate(layouts):
                powers = [
                    [
                        PATH_CONSTANT
                        * _path_gain(layout, k, x, y, cfg)
                        * 10.0 ** (cfg.shadowing_sigma * z[k, d, j] / 10.0)
                        * -math.log1p(-float(fading[k, d, j]))
                        * TX_POWER
                        for j, (x, y) in enumerate(users)
                    ]
                    for k in range(n_ant)
                ]
                for i in range(cfg.n_users):
                    branches = [_sir(powers[k], i, eta, pg) for k in range(n_ant)]
                    if layout.architecture == "used":
                        # Used antennas sit at the center: the serving sector
                        # is the lowest id whose beam holds the user.
                        combined = branches[serving_antenna(layout, cfg, *users[i])]
                    else:
                        combined = diversity_combine(branches, cfg.combiner_mode)
                    counts[n] += combined <= thresholds
    return counts


def below_sum(rate, rates=(), offset=0.0):
    """P(z <= sum(z_i) + offset) for exponentials of the given rates, by the closed form."""
    return analytic_outage_used(1.0 / rate, [1.0 / r for r in rates], offset, 1.0, 1.0)


def matched_exponential_outage(mean_desired, mean_interferers, eta, pg, thresholds_db, n, seed):
    """Outage estimates and 95% half-widths by sampling exponential powers.

    The matched-means abstraction of the closed form: no geometry, one
    joint draw of the desired and interfering powers per sample.
    """
    thresholds = 10.0 ** (np.asarray(thresholds_db, dtype=float) / 10.0)
    means = np.asarray(list(mean_interferers), dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    desired = rng.exponential(mean_desired, n)
    interference = rng.exponential(means, (n, means.size)).sum(axis=1) if means.size else np.zeros(n)
    sirs = pg * desired / (interference + eta)
    estimates = (sirs[:, None] <= thresholds[None, :]).sum(axis=0) / n
    return estimates, 1.96 * np.sqrt(estimates * (1.0 - estimates) / n)


def _boundary_radius(radius: float, theta: float) -> float:
    """Distance from the hexagon's center to its boundary along bearing theta.

    The edge normals sit at multiples of 60 degrees, one apothem out.
    """
    local = math.remainder(theta, math.pi / 3.0)
    return radius * math.sqrt(3.0) / 2.0 / math.cos(local)


def _radial_gain_integral(r_max: float, rho: float, d_min: float) -> float:
    """Integral of max(d, d_min)**-rho * d over d in [0, r_max]."""
    if r_max <= d_min:
        return d_min ** (-rho) * r_max * r_max / 2.0
    near = d_min ** (2.0 - rho) / 2.0
    if rho == 2.0:
        far = math.log(r_max / d_min)
    else:
        far = (r_max ** (2.0 - rho) - d_min ** (2.0 - rho)) / (2.0 - rho)
    return near + far


def _wedge_gain_integral(cfg, lo: float, hi: float) -> float:
    """Area integral of max(d, d_min)**-rho over the hexagon slice [lo, hi]."""

    def integrand(theta):
        return _radial_gain_integral(_boundary_radius(CELL_RADIUS, theta), cfg.rho, cfg.d_min)

    # Split at the 30-degree grid, where the boundary radius has kinks, and
    # where the boundary crosses d_min: +-acos(apothem / d_min) about each
    # edge normal, when d_min lies between the apothem and the circumradius.
    grid = math.pi / 6.0
    cuts = [k * grid for k in range(math.ceil(lo / grid), math.floor(hi / grid) + 1)]
    apothem = CELL_RADIUS * math.sqrt(3.0) / 2.0
    if apothem < cfg.d_min < CELL_RADIUS:
        crossing = math.acos(apothem / cfg.d_min)
        normals = range(math.floor(lo / (2 * grid)), math.ceil(hi / (2 * grid)) + 1)
        cuts += [k * 2 * grid + sign * crossing for k in normals for sign in (-1, 1)]
    cuts = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b > a + 1e-15:
            part, _ = integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
            total += part
    return total


def _neighbor_gain_mean(cfg, center: np.ndarray, boresight: float) -> float:
    """Mean of pattern * max(d, d_min)**-rho over one neighbor cell.

    Evaluated on an endpoint-inclusive 201 x 201 grid over the cell's
    bounding box, the points inside the hexagon; neighbor cells sit well away
    from the antenna so the integrand is smooth.
    """
    radius = CELL_RADIUS
    n_grid = 201
    half_w = radius * math.sqrt(3.0) / 2.0
    xs = center[0] + np.linspace(-half_w, half_w, n_grid)
    ys = center[1] + np.linspace(-radius, radius, n_grid)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = hexagon_contains(radius, center, pts)
    pts = pts[inside]
    d = np.maximum(np.hypot(pts[:, 0], pts[:, 1]), cfg.d_min)
    bearing = np.arctan2(pts[:, 1], pts[:, 0])
    offset = np.abs(wrap_angle(bearing - boresight))
    half_beam = math.pi * cfg.beamwidth / 360.0
    patt = np.where(offset <= half_beam + 1e-12, 1.0, cfg.floor_gain)
    return float(np.mean(patt * d ** (-cfg.rho)))


def reference_mean_received_powers(cfg) -> tuple[float, float, list[float]]:
    """(desired mean, same-cell interferer mean, per-neighbor-cell means)."""
    shadow_mean = math.exp((cfg.shadowing_sigma * LN10_OVER_10) ** 2 / 2.0)
    base = PATH_CONSTANT * TX_POWER * shadow_mean
    area = hexagon_area(CELL_RADIUS)
    half_beam = math.pi * cfg.beamwidth / 360.0
    boresight = math.pi / 2.0  # sector 0; all sectors are congruent

    wedge = _wedge_gain_integral(cfg, boresight - half_beam, boresight + half_beam)
    full = _wedge_gain_integral(cfg, boresight - math.pi, boresight + math.pi)
    wedge_area = area / cfg.sector_count
    mean_desired = base * wedge / wedge_area
    mean_in_cell = base * (wedge + cfg.floor_gain * (full - wedge)) / area

    neighbor_means = [
        base * _neighbor_gain_mean(cfg, c, boresight)
        for c in interferer_cell_centers(cfg.interferer_tiers)
    ]
    return mean_desired, mean_in_cell, neighbor_means


def reference_outage_used(mean_desired, mean_interferers, eta, pg, threshold: float) -> float:
    """The closed form at one threshold, one ``math.log1p`` per interferer."""
    log_factor = eta * threshold / (pg * mean_desired)
    for mean in mean_interferers:
        log_factor += math.log1p(threshold * mean / (pg * mean_desired))
    return -math.expm1(-log_factor)
