"""Outage probability: the link law, the closed form and Monte Carlo estimation.

The linear gain of a link factors into deterministic path loss, log-normal
shadowing and Rayleigh fast fading:

    g = (A_p * G * max(d, d_min)**-rho) * 10**(xi / 10) * A_f

with A_p the wavelength constant (``path_gain_constant``), G the flat-top
pattern gain (max inside the beam, floor outside), xi ~ N(0, sigma^2) in dB
and A_f a unit-mean exponential (the squared Rayleigh envelope).
``_path_gains`` is src's one implementation of the deterministic part: the
kernel and the analytic curve's neighbour means both pass through it, and
at rho = 4 both take the distance loss as (1 / d**2)**2, not a ``pow``.  The
kernel draws the shadowing and fading of every link per block of drops,
i.i.d. per snapshot (``standard_normal`` and ``standard_exponential``);
time-correlated fading is out of scope.

The closed form covers a single desired exponential power against a sum of
independent exponential interferers plus a constant, which is exactly the
sectored-uplink outage once conditional mean powers are fixed.  Monte Carlo
estimation covers both architectures over random user drops in one batched
kernel, ``_count_blocks``; all thresholds are evaluated on the same drops
(common random numbers), so every outage curve is non-decreasing by
construction.

Drops run in blocks of ``LINK_BUDGET // (antennas x users of every cell)``
drops (``LINK_BUDGET = 2**16``: 78 default drops), so the block size depends
only on the scenario.  Each block has its own generator,
``Generator(SFC64(SeedSequence(seed, spawn_key=(stream tag, block index))))``,
and draws in this order: every cell's rhombus picks, then their uniform
pairs, then the standard-normal shadowing, then the unit exponential fading.
Results are therefore independent of evaluation order and worker count.  The
stream tag is the run's stream layout: a paired run evaluates every
architecture on tag 0, and an unpaired run evaluates the k-th of the config's
``architectures`` alone on tag 1 + k.  A run that needs more than one
process runs its jobs on a process pool, and only that run imports
``concurrent.futures``' pool and ``multiprocessing``; a one-worker run loads
neither.

The kernel allocates no block-sized array per block.  Each job (one
worker's range of blocks) keeps one workspace (``workspace.buffer``) of
arrays sized to one block: placement, draws and link gains write into it,
and a short last block uses views over the first elements of the same
arrays.  The SIR and combining arrays hold only the observed users, a
fraction of a block, and are allocated plainly.  Every operation runs in
the same order on the same operands as with fresh arrays, so the reuse
changes no bit of any result.  What no block changes is set up once per
job: the layouts, with their distinct sites and boresight cosines and
sines, the cell centers, and the factor every link shares, the path
constant times the transmit power, which the shadowing and fading pass
applies once for every architecture.
The used architecture reads one SIR per user, its serving sector's, so the
SIR formula runs on that one gathered column; microzone combines every
branch.

The link arrays are antenna-major, (antennas, drops, users): the
per-antenna constants, (antennas, 1, 1), and the (drops, users) position
planes broadcast along the leading axis, so every operation runs over one
flat plane per antenna.  The same broadcast over the middle axis of
(drops, antennas, users) arrays measured three to five times the cost per
operation (about 80 against 20 us on a default block).  The draws are
unchanged: shadowing and fading are still drawn in (drop, antenna, user)
order, and the kernel reads them through a transposed view.  Sums over
users stay along the contiguous last axis and sums over antennas run in
antenna order, so every result is the same bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import build_layout, interferer_cell_centers, sample_hexagon_xy, serving_sector_indices
from .sir import combine_columns, per_antenna_sir_matrix
from .workspace import buffer

if TYPE_CHECKING:
    from .geometry import Layout
    from .scenario import ScenarioConfig

Z_95 = 1.96  # two-sided 95% normal quantile

# Links (antennas x users of every cell) drawn per block of drops.  Large
# enough to spread the per-block generator set-up over many drops, small
# enough that a block's arrays stay a few MiB.
LINK_BUDGET = 2**16
# The numpy.random bit generator of every block's stream, seeded by the
# block's SeedSequence.  Named, not referenced, so that importing cellsim does
# not import numpy.random.
BIT_GENERATOR = "SFC64"


@dataclass(frozen=True)
class OutageCurve:
    """Outage estimates over a run's threshold sweep, with 95% half-widths.

    Both are arrays with one entry per threshold of the config the curve was
    run on; the sweep, drop count and seed are that config's.  Drops are the
    independent unit for the confidence intervals; users within a drop share
    interference and are correlated.
    """

    estimates: np.ndarray
    ci_half_widths: np.ndarray

    def __post_init__(self):
        if np.any(self.estimates < 0.0) or np.any(self.estimates > 1.0):
            raise ValueError("outage estimates must lie in [0, 1]")
        if np.any(np.diff(self.estimates) < 0.0):
            raise ValueError("estimates must be non-decreasing in threshold")
        if np.any(self.ci_half_widths < 0.0):
            raise ValueError("confidence half-widths must be >= 0")


def analytic_outage_used(
    mean_desired: float,
    mean_interferers: Sequence[float],
    eta: float,
    pg: float,
    threshold: float | np.ndarray,
) -> float | np.ndarray:
    """Closed-form sectored-uplink outage from conditional mean powers.

    The probability that an exponential desired power with mean
    ``mean_desired`` falls to the linear ``threshold`` or below, against
    independent exponential interferers with means ``mean_interferers`` plus
    the constant ``eta``, after the processing gain ``pg``:

        1 - [exp(eta * t) * prod_i (1 + t * m_i)]**-1,
        t = threshold / (pg * mean_desired),

    evaluated in the log domain, so the result stays accurate in [0, 1] even
    for extreme mean ratios.  ``threshold`` may be an array: the result has
    its shape, and a scalar threshold gives a scalar.  With
    ``pg = threshold = 1`` it is P(z_desired <= sum(z_i) + eta) for
    exponentials of the given means.  Zero-mean interferers contribute
    nothing, and an infinite threshold (a sweep point beyond float range) is
    an outage of 1, as P(SIR <= inf) is; the scenario config guarantees a
    positive desired mean.
    """
    threshold = np.asarray(threshold, dtype=float)
    scale = pg * mean_desired
    # At an infinite threshold a zero mean, or a zero eta, makes an inf * 0
    # nan term; the factor there is infinite whatever the terms.
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.multiply.outer(threshold, np.asarray(mean_interferers, dtype=float)) / scale
        log_factor = eta * threshold / scale + np.log1p(ratios).sum(axis=-1)
    return -np.expm1(-np.where(threshold == np.inf, np.inf, log_factor))


FOUR_PI_SQ = (4.0 * math.pi) ** 2
# 10**(x / 10) == exp(LN10_OVER_10 * x): converts dB to a natural exponent.
LN10_OVER_10 = math.log(10.0) / 10.0


def path_gain_constant(wavelength: float) -> float:
    """Free-space constant lambda^2 / (4 pi)^2 for unit-gain antennas."""
    return wavelength * wavelength / FOUR_PI_SQ


def _received_power(gain: float, distance: float, rho: float, tx_power: float) -> float:
    """Fading-averaged power ``gain * distance**-rho * tx_power`` of one user; inf on overflow.

    ``gain`` is the path constant times the antenna gain.
    """
    try:
        loss = distance ** (-rho)
    except OverflowError:
        return math.inf
    return gain * loss * tx_power


# Slack on the half beamwidth of the inclusive beam test, radians.  It lowers
# the cosine limit by about 1e-12 of the user's distance: orders of magnitude
# above the rounding of the boresight projection, orders of magnitude below
# any physical bearing.  A user on a sector edge lies in both beams.
ANGLE_TOL = 1e-12


def _path_gains(
    layout: "Layout",
    xy: np.ndarray,
    scenario: "ScenarioConfig",
    work: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern gain times distance loss, and the beam mask it was built from.

    ``xy`` is (drops, users, 2); both results are antenna-major, (antennas,
    drops, users): the layout's (antennas, 1, 1) columns broadcast over each
    (drops, users) coordinate plane, three to five times cheaper per
    operation than over the middle axis of (drops, antennas, users) arrays.
    The kernel's draws keep their (drop, antenna, user) order and meet these
    results through a transposed view.  A user is inside an antenna's beam
    (boundary inclusive) when the cosine of its bearing offset from boresight
    is at least cos(beamwidth / 2): the flat-top pattern without an
    arctangent.  The mask holds that test as 0/1 ``intp``; it is src's only
    beam test.  The beamwidth (one sector's share of the full circle), the
    gains and the ``d_min`` clamp on distances are the scenario's.  Antennas
    that share one site (the used layout's center) share one distance
    computation.  At rho = 4, d**-4 is
    taken as (1 / d**2)**2, a reciprocal and a square: about 3x faster than
    ``pow`` and within a few ulp of it (at rho = 2 the power already is a
    reciprocal).  With a ``workspace.buffer`` dict as ``work`` the results
    are overwritten by the next call.
    """
    site_x, site_y = layout.site_columns
    cos, sin = layout.boresight_columns
    per_site = (len(site_x),) + xy.shape[:2]
    shape = (len(cos),) + xy.shape[:2]
    dx = np.subtract(xy[..., 0], site_x, out=buffer(work, "dx", per_site))
    dy = np.subtract(xy[..., 1], site_y, out=buffer(work, "dy", per_site))
    along = np.multiply(dx, cos, out=buffer(work, "along", shape))
    along += np.multiply(dy, sin, out=buffer(work, "term", shape))
    # The offsets are spent: square them, and take the distances, in place.
    d_sq = np.multiply(dx, dx, out=dx)
    d_sq += np.multiply(dy, dy, out=dy)
    limit = np.sqrt(d_sq, out=dy)
    limit *= math.cos(math.pi / scenario.sector_count + ANGLE_TOL)
    # The beam test as 0/1 indices into (floor, max): an exact select, and
    # much faster than a masked copy.
    inside = np.greater_equal(along, limit, out=buffer(work, "inside", shape, np.intp))
    levels = np.array((scenario.floor_gain, scenario.max_gain))
    gains = levels.take(inside, out=along, mode="clip")
    loss = np.maximum(d_sq, scenario.d_min**2, out=d_sq)
    if scenario.rho == 4.0:
        np.square(np.reciprocal(loss, out=loss), out=loss)
    else:
        # In-place `**=` takes the same scalar fast paths as `**` (a
        # reciprocal at rho = 2), so the losses are bit-identical to the
        # plain power.
        loss **= -scenario.rho / 2.0
    gains *= loss
    return gains, inside


def _count_blocks(args) -> np.ndarray:
    """Outage counts per architecture and threshold over a contiguous range of blocks.

    ``args`` is (scenario, architectures, stream tag, first block, stop
    block).  Each block draws, from its own ``BIT_GENERATOR`` stream (keyed
    by the scenario's seed, the stream tag and the block index) and in this
    order, every cell's user positions, standard-normal shadowing and unit
    exponential fading, all for (drops, antennas, users of every cell), and
    reads the draws antenna-major through a transposed view.  Every
    architecture is evaluated on that one draw.  What does not change
    from block to block (the layouts, the cell centers, the channel's
    constant factor) is set up once per job.  The blocks share one
    workspace: its arrays are allocated by the first block, the largest, and
    reused.
    """
    scenario, archs, stream_tag, block_start, block_stop = args
    layouts = [build_layout(scenario, arch) for arch in archs]
    centers, per_block, _ = _blocks(scenario)
    thr_linear = scenario.thresholds_linear
    n_users = scenario.n_users
    # Path constant and transmit power: the one factor every link shares.
    link_scale = path_gain_constant(scenario.wavelength) * scenario.tx_power
    shadow_nepers = scenario.shadowing_sigma * LN10_OVER_10
    eta = scenario.resolved_noise_power()
    pg = scenario.processing_gain
    counts = np.zeros((len(layouts), thr_linear.size), dtype=np.int64)
    bit_generator = getattr(np.random, BIT_GENERATOR)
    work: dict = {}
    for block in range(block_start, block_stop):
        drops = min(per_block, scenario.n_drops - block * per_block)
        key = np.random.SeedSequence(scenario.master_seed, spawn_key=(stream_tag, block))
        rng = np.random.Generator(bit_generator(key))
        xy = sample_hexagon_xy(
            scenario.cell_radius, centers, n_users, rng, batch=(drops,), work=work
        )
        size = (drops, scenario.sector_count, xy.shape[1])
        channel = rng.standard_normal(out=buffer(work, "channel", size))
        channel *= shadow_nepers
        np.exp(channel, out=channel)
        # The fading lands in _path_gains's scratch array, free until then.
        channel *= rng.standard_exponential(out=buffer(work, "term", size))
        channel *= link_scale
        # The draws keep their (drops, antennas, users) order; the link
        # arrays read them antenna-major.
        channel = channel.transpose(1, 0, 2)
        for k, layout in enumerate(layouts):
            power, inside = _path_gains(layout, xy, scenario, work)
            power *= channel
            # The used layout reads one SIR per user, its serving antenna's;
            # microzone combines every branch.
            if layout.architecture == "used":
                serving = serving_sector_indices(inside[..., :n_users])
                sirs = per_antenna_sir_matrix(power, eta, pg, n_observed=n_users, serving=serving)
            else:
                gamma = per_antenna_sir_matrix(power, eta, pg, n_observed=n_users)
                sirs = combine_columns(gamma, scenario.combiner_mode)
            # The SIRs are spent: sort them in place (reshape is a view of a
            # contiguous result) and count each threshold's outages.
            sirs = sirs.reshape(-1)
            sirs.sort()
            counts[k] += sirs.searchsorted(thr_linear, side="right")
    return counts


def _blocks(scenario: "ScenarioConfig") -> tuple[np.ndarray, int, int]:
    """Cell centers, drops per block and block count of a run of ``scenario``."""
    centers = np.vstack(
        [np.zeros((1, 2)), interferer_cell_centers(scenario.cell_radius, scenario.interferer_tiers)]
    )
    per_block = max(1, LINK_BUDGET // (scenario.sector_count * len(centers) * scenario.n_users))
    return centers, per_block, -(-scenario.n_drops // per_block)


def mc_outage(scenario: "ScenarioConfig", workers: int = 1) -> dict[str, OutageCurve]:
    """Monte Carlo outage curves of ``scenario``, keyed by architecture.

    Everything the run reads comes from the scenario: the architectures (in
    the order of its ``architectures``), sweep, drop count, seed and
    pairing.  Each curve holds only its estimates and their half-widths.
    Paired, every architecture is evaluated on one draw of positions,
    shadowing and fading per drop (stream tag 0); unpaired, the k-th draws
    its own streams (tag 1 + k).  Every threshold is evaluated against the
    same drops, so each curve is exactly non-decreasing.  ``workers`` is
    capped at the CPUs this process may run on.  Each group's blocks are
    split into that many ranges at most, one job each; the jobs run in this
    process when there is one worker or one job, and otherwise on one
    process pool of ``min(workers, jobs)`` (a larger pool would fork idle
    processes at its first job).  Counts are integers summed per group,
    which keeps the result identical for any ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    archs = scenario.architectures
    groups = [(archs, 0)] if scenario.paired else [((arch,), 1 + k) for k, arch in enumerate(archs)]
    n_blocks = _blocks(scenario)[2]
    bounds = np.linspace(0, n_blocks, min(workers, n_blocks) + 1, dtype=int).tolist()
    jobs = [
        (scenario, group, tag, a, b)
        for a, b in zip(bounds[:-1], bounds[1:])
        for group, tag in groups
    ]
    processes = min(workers, len(jobs))
    if processes > 1:
        # Imported here, so that a one-worker run never loads the pool and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(processes) as pool:
            results = list(pool.map(_count_blocks, jobs))
    else:
        results = list(map(_count_blocks, jobs))
    # Job j belongs to group j % len(groups); the groups hold the architectures in order.
    counts = np.concatenate([sum(results[g::len(groups)]) for g in range(len(groups))])
    estimates = counts / (scenario.n_drops * scenario.n_users)
    half_widths = Z_95 * np.sqrt(estimates * (1.0 - estimates) / scenario.n_drops)
    return {arch: OutageCurve(e, h) for arch, e, h in zip(archs, estimates, half_widths)}
