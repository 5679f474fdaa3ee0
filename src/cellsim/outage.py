"""Outage probability: the link law, the closed form and the Monte Carlo kernel.

The linear gain of a link factors into deterministic path loss, log-normal
shadowing and Rayleigh fast fading:

    g = (A_p * G * max(d, d_min)**-rho) * 10**(xi / 10) * A_f

with A_p the free-space constant of the 2 GHz carrier
(``PATH_GAIN_CONSTANT``), G the flat-top pattern gain (1 inside the beam,
the floor outside), xi ~ N(0, sigma^2) in dB and A_f a unit-mean
exponential (the squared Rayleigh envelope).
``_path_gains`` is src's one implementation of the deterministic part: the
kernel and the analytic curve's neighbour means both pass through it, and
at rho = 4 both take the distance loss as (1 / d**2)**2, not a ``pow``.  The
kernel draws the shadowing and fading of every link per block of drops,
i.i.d. per snapshot: ``standard_normal`` shadowing, and fading by inversion,
-log(1 - U) of one ``random`` uniform (``_fading``); time-correlated fading
is out of scope.

Per-antenna SIR (``per_antenna_sir_matrix``) follows the CDMA uplink form

    gamma = P_G * g_desired * p / (sum_j g_j * p_j + eta)

with processing gain P_G = W / R, the chip rate over the bit rate (the
config's ``processing_gain``), on received powers
g * p: the kernel folds the transmit power into the channel.
``combine_columns`` merges branch SIRs by a self-normalized square-root
weighting (``paper`` mode), a convex combination of the branches, or by
classical maximum ratio combining (``classical-mrc``), which sums them.

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
and draws in this order: every cell's placement uniforms
(``sample_hexagon_xy``), as two planes (u, which also picks the rhombus,
then v), then the standard-normal shadowing, then the fading uniforms, both
in (antenna, drop, user) order.
Results are therefore independent of evaluation order and worker count.  The
stream tag is the run's stream layout: a paired run evaluates every
architecture on tag 0, and an unpaired run evaluates the k-th of the config's
``architectures`` alone on tag 1 + k.  A run that needs more than one
process runs its jobs on a process pool, and only that run imports
``concurrent.futures``' pool and ``multiprocessing``; a one-worker run loads
neither.

The kernel allocates no block-sized array per block, nor per run once an
earlier run in the process has needed arrays as large.  A workspace is a
plain dict of flat arrays, one per name: ``buffer`` hands out a view of the
requested shape over the first elements of the named array, and replaces
that array only when a request needs more elements.  Each job (one worker's
range of blocks) takes the process's one spare workspace (``_SPARE``), or an
empty one while another thread's job holds it, and hands its own back at its
end, so a short last block, a smaller config or a later run writes into
arrays already paged in.  A 500-drop default call after the first takes no
page fault in the kernel, where a fresh workspace took about 990
(``getrusage``), and ``perfbench/run.py``'s ``paper_default`` ran 5.1% more
drops/s.  The cost is that a block's arrays, 3.8 MiB for the default config
and at most ``LINK_BUDGET`` entries each for any config with at least one
drop per block, stay allocated between runs, beside the next run's analytic
curve: the benchmark's ``peak_rss_mb`` rose by 2.7-3.1 MiB (6-7%) on every
workload.  Every array is written before it is read, and every operation
runs in the same order on the same operands as with fresh arrays, so the
reuse changes no bit of any result.

Only block-sized arrays, one entry per link or per user position of a
block, use the workspace.  Each group measured load-bearing against the same
tree with that one group allocated plainly (2-vCPU x86 VM, Python 3.11,
numpy 2.4):

- ``_path_gains``'s ``dx``, ``dy``, ``along``, ``term`` and ``inside``:
  without them ``dense_tier2_60deg`` fell from 739-776 to 635-642 drops/s,
  and a 100-drop dense call paid about 11,000 minor page faults instead of
  1,150-1,400;
- ``sample_hexagon_xy``'s ``uv``, ``pick`` (the rhombus picks) and ``xy``:
  allocated plainly, the peak RSS of a process that runs ten 500-drop
  default calls rose by 0.4 MiB;
- the shadowing draw (``channel``) and the fading draw: plainly, by
  0.35 MiB.

Each function uses names of its own, and two arrays alive at the same time
never share a name; the fading draw borrows ``_path_gains``'s ``term``,
which is free until the link gains are built.  Everything else allocates
plainly.  The SIR and combining arrays hold one entry per observed user, a
seventh of a block or less with neighbour cells (73 KiB on a default block,
below malloc's mmap threshold), so malloc already hands the same memory back
block after block, and reusing them measured no gain.  The analytic curve's
neighbour grid cost 1,020-1,139 minor page faults per curve with a
workspace, and costs 744-803 without one.

What no block changes is set up once per job: the layouts, with their
distinct sites and boresight cosines and sines, the cell centers, and the
factor every link shares, the path constant times the transmit power,
which the shadowing and fading pass applies once for every architecture.
Both architectures take the SIR of every (antenna, user) pair from
``per_antenna_sir_matrix``.  The used architecture then reads each user's
SIR at its serving sector's antenna (``serving_sector_indices``, from the
beam mask ``_path_gains`` built); microzone combines every branch.

The link arrays are antenna-major, (antennas, drops, users): the
per-antenna constants, (antennas, 1, 1), and the (drops, users) position
planes broadcast along the leading axis, so every operation, from the link
gains through the SIRs and the combining, runs over one flat plane per
antenna.  The same broadcast over the middle axis of (drops, antennas,
users) arrays measured three to five times the cost per operation (about
80 against 20 us on a default block).  The draws fill the same order, so
the channel multiplies the link gains element for element; read through a
transposed view of (drop, antenna, user) draws, that multiply measured 1.6
times as long.  For the same reason the sampled user positions, though
shaped (..., 2), are a view over two contiguous planes, all x coordinates
then all y.  Sums over users stay along the contiguous last axis and sums
over antennas run in antenna order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import build_layout, interferer_cell_centers

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
# The kernel's one spare workspace in this process, under the key "work": a
# job takes it (or starts an empty one) and hands its own back at the end.
# dict.pop and item assignment are each atomic, so two threads running jobs
# at once never share a workspace, and at most one spare is kept.  A forked
# pool worker starts with a copy of it.
_SPARE: dict[str, dict] = {}


def buffer(work: dict | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An array of ``shape`` to be overwritten: a view into ``work[name]``.

    With ``work`` None the array is freshly allocated, so a function that
    takes an optional workspace has one code path.
    """
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = work.get(name)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = work[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


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


# Free-space constant lambda^2 / (4 pi)^2 of unit-gain antennas at the 2 GHz
# carrier, lambda = 0.15 m.  It scales every received power as tx_power
# does, so it sets no SIR unless the noise power is set explicitly.
PATH_GAIN_CONSTANT = 0.15 * 0.15 / (4.0 * math.pi) ** 2
# 10**(x / 10) == exp(LN10_OVER_10 * x): converts dB to a natural exponent.
LN10_OVER_10 = math.log(10.0) / 10.0


def _received_power(distance: float, rho: float, tx_power: float) -> float:
    """Fading-averaged power of one user at an in-beam antenna ``distance`` away; inf on overflow."""
    try:
        loss = distance ** (-rho)
    except OverflowError:
        return math.inf
    return PATH_GAIN_CONSTANT * loss * tx_power


# The spans of the three rhombi that tile a hexagon of unit circumradius,
# (a or b, x or y, rhombus): rhombus k is spanned by the vertices V_2k and
# V_2k+2 (V_j at 30 + 60j degrees).  The spans are 120 degrees apart, so the
# three rhombi have equal area and tile the hexagon exactly.
_SPAN_ANGLES = np.pi / 6.0 + np.pi / 3.0 * np.arange(0, 6, 2)
_SPAN_A = np.array([np.cos(_SPAN_ANGLES), np.sin(_SPAN_ANGLES)])
_UNIT_SPANS = np.array([_SPAN_A, np.roll(_SPAN_A, -1, axis=1)])


def sample_hexagon_xy(
    radius: float,
    centers,
    n: int,
    rng: np.random.Generator,
    batch: tuple = (),
    work: dict | None = None,
) -> np.ndarray:
    """Uniform points in hexagons of circumradius ``radius``, fixed draw count.

    Each point picks one of the three equal rhombi of the hexagon, and two
    uniforms place it inside that rhombus: no rejection loop, so the draws
    per point are fixed.  ``centers`` is one (x, y) center or an (m, 2)
    array of them; every cell gets ``n`` points.  The result has shape
    ``batch + (m * n, 2)``, points grouped by cell in ``centers`` order.
    Draws: one ``random`` call of two contiguous planes, ``batch + (m, n)``
    each, u then v.  The first plane also picks the rhombus: k = trunc(3u)
    is 0, 1 or 2 for every u in [0, 1) (3u rounds to at most 3 - 2**-51),
    and u' = 3u - k is exact (Sterbenz's lemma) and lies in [0, 1).  A
    point is u' * a_k + v * b_k + center.  The result is a view over two
    contiguous planes, all x coordinates then all y, so ``xy[..., 0]`` and
    ``xy[..., 1]`` each read contiguous memory.  With a workspace dict
    (``buffer``) as ``work`` the uniforms, the picks and the planes live in its
    arrays, and the result is overwritten by the next call.
    """
    centers = np.reshape(np.asarray(centers, dtype=float), (-1, 2))
    shape = tuple(batch) + (centers.shape[0], n)
    u, v = rng.random(out=buffer(work, "uv", (2,) + shape))
    u *= 3.0
    # Casting to intp truncates: k = trunc(3u), then u' = 3u - k in place.
    rhombus = buffer(work, "pick", shape, np.intp)
    np.copyto(rhombus, u, casting="unsafe")
    u -= rhombus
    # Rows are the x and y coordinates of the three spans a and b.
    edge_a, edge_b = radius * _UNIT_SPANS
    # u' * a + v * b + center, in that order, in each coordinate plane.
    # Every pick is 0, 1 or 2, so mode="clip" changes nothing but skips the
    # copy that "raise" makes.
    planes = buffer(work, "xy", (2,) + shape)
    for plane, a in zip(planes, edge_a):
        a.take(rhombus, out=plane, mode="clip")
        plane *= u
    # u is spent: its plane holds each v * b term in turn.
    for plane, b, center in zip(planes, edge_b, centers.T):
        plane += np.multiply(b.take(rhombus, out=u, mode="clip"), v, out=u)
        plane += center[:, None]
    # (2, ..., points) to (..., points, 2): the planes' axis moved last.
    planes = planes.reshape((2,) + tuple(batch) + (-1,))
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


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
    The kernel draws its shadowing and fading in the same order, so they
    multiply these gains element for element.  A user is inside an
    antenna's beam (boundary inclusive) when the cosine of its bearing
    offset from boresight is at least cos(beamwidth / 2): the flat-top
    pattern without an arctangent.  The mask holds that test as 0/1
    ``intp``; it is src's only beam test.  The gain is 1 in the beam; the
    beamwidth (one sector's share of the full circle), the floor gain and
    the ``d_min`` clamp on distances are the scenario's.  Antennas that
    share one site (the used layout's center) share one distance
    computation.  At rho = 4, d**-4 is taken as
    (1 / d**2)**2, a reciprocal and a square: about 3x faster than ``pow``
    and within a few ulp of it (at rho = 2 the power already is a
    reciprocal).  With a workspace dict (``buffer``) as ``work`` the results
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
    # The beam test as 0/1 indices into (floor, in-beam gain 1): an exact
    # select, and much faster than a masked copy.
    inside = np.greater_equal(along, limit, out=buffer(work, "inside", shape, np.intp))
    levels = np.array((scenario.floor_gain, 1.0))
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


# Bounds on the kernel's draws, rounded up so that they also cover the
# roundings of the products ``ScenarioConfig.validate`` bounds with them.
# ``_fading`` is at most 53 ln 2 = 36.74.  numpy's ``Generator.standard_normal``
# is a ziggurat: it returns a point of a layer, below r = 3.654 in size, or a
# tail point r + x, x = -log(1 - U1) / r, accepted only when
# -2 log(1 - U2) > x**2.  U1 and U2 are multiples of 2**-53 below 1, so
# -log(1 - U2) <= 53 ln 2 and x < sqrt(106 ln 2) = 8.572: every draw is
# below 12.226 in size.  The pinned-count tests fail if numpy changes the
# algorithm.
MAX_FADING = 37.0
MAX_NORMAL = 12.3


def _fading(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Unit-mean exponential fading by inversion, -log(1 - U), drawn into ``out``.

    U is one ``rng.random`` draw per entry, a multiple of 2**-53 in [0, 1),
    so 1 - U is exact and at least 2**-53: every fading value is finite and
    lies in [0, 53 ln 2].  The sign goes last as 0 - log(1 - U), which is +0
    at U = 0 where a negation would give -0.
    """
    u = rng.random(out=out)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    return np.subtract(0.0, u, out=u)


def serving_sector_indices(inside: np.ndarray) -> np.ndarray:
    """Serving antenna id per user, from the kernel's beam mask.

    ``inside`` is the antenna-major (antennas, ..., users) 0/1 mask of
    ``_path_gains`` for the used layout, whose antennas share the cell
    center; the result has shape (..., users).  The beams cover every
    bearing, so each user lies in at least one, and a user in two (on a
    sector edge, or at the center itself) goes to the lower antenna id: the
    antennas write their ids from the last down to the first.  That is
    ``np.argmax`` over the antenna axis, without its per-user loop over 3 or
    6 entries.  ``np.putmask`` takes the 0/1 mask as it is, and it measured
    about twice as fast as ``np.copyto`` with ``where=inside[k] != 0``.
    """
    serving = np.zeros(inside.shape[1:], dtype=np.intp)
    for k in range(len(inside) - 1, -1, -1):
        np.putmask(serving, inside[k], k)
    return serving


def per_antenna_sir_matrix(power: np.ndarray, eta: float, pg: float, n_observed: int) -> np.ndarray:
    """Branch SIR for every (antenna, user) pair from received powers.

    ``power`` is an antenna-major array of shape (antennas, ..., users): one
    drop, or a batch of drops along the middle axes, each entry the power a
    user's signal arrives with at an antenna.  Interference at an antenna
    sums the received power of all users except the one under test, along
    the contiguous users axis.  Only the first ``n_observed`` user columns
    are returned (all users still interfere), shape (antennas, ...,
    n_observed).  Handles the eta = 0 corner: positive signal over empty
    interference is +inf, zero over zero is 0.
    """
    totals = power.sum(axis=-1, keepdims=True)
    observed = power[..., :n_observed]
    # max() guards against cancellation when one user dominates the total.
    denom = np.maximum(totals - observed, 0.0)
    denom += eta
    numer = observed * pg
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = numer / denom
    # With eta > 0 and every total finite, every denominator is positive.
    if not (eta > 0.0 and np.isfinite(totals).all()):
        np.copyto(sir, np.where(numer > 0.0, np.inf, 0.0), where=~(denom > 0.0))
    return sir


def combine_columns(gamma: np.ndarray, mode: str) -> np.ndarray:
    """Diversity combining over the leading antenna axis of (antennas, ..., users) SIRs.

    ``mode`` is one of ``scenario.COMBINER_MODES``, as a validated config holds it.
    Returns shape (..., users); a 2-D input combines column by column.  The
    sums over antennas run in antenna order, (g0 + g1) + g2, each over one
    whole (..., users) plane.  An all-zero column combines to 0 and a column
    with an infinite branch to +inf.
    """
    gamma = np.asarray(gamma, dtype=float)
    if mode == "classical-mrc":
        return gamma.sum(axis=0)
    root = np.sqrt(gamma)
    weighted = root * gamma
    with np.errstate(invalid="ignore"):
        numer = weighted.sum(axis=0)
        denom = root.sum(axis=0)
        combined = np.divide(numer, denom, out=numer)
    combined = np.where(np.isinf(gamma).any(axis=0), np.inf, combined)
    return np.where(denom > 0.0, combined, 0.0)


def _count_blocks(args) -> np.ndarray:
    """Outage counts per architecture and threshold over a contiguous range of blocks.

    ``args`` is (scenario, architectures, stream tag, first block, stop
    block).  Each block draws, from its own ``BIT_GENERATOR`` stream (keyed
    by the scenario's seed, the stream tag and the block index) and in this
    order, every cell's user positions, standard-normal shadowing and unit
    exponential fading (``_fading``), the last two for (antennas, drops,
    users of every cell), the order of the link arrays.  Every
    architecture is evaluated on that one draw.  What does not change
    from block to block (the layouts, the cell centers, the channel's
    constant factor) is set up once per job.  The blocks share the
    process's spare workspace, taken at the start and handed back at the
    end: its arrays were allocated by the first job that needed them, and
    every array is written before it is read, so what an earlier block or
    job left in them changes no result.
    """
    scenario, archs, stream_tag, block_start, block_stop = args
    layouts = [build_layout(scenario, arch) for arch in archs]
    centers, per_block, _ = _blocks(scenario)
    thr_linear = scenario.thresholds_linear
    n_users = scenario.n_users
    # Path constant and transmit power: the one factor every link shares.
    link_scale = PATH_GAIN_CONSTANT * scenario.tx_power
    shadow_nepers = scenario.shadowing_sigma * LN10_OVER_10
    eta = scenario.resolved_noise_power()
    pg = scenario.processing_gain
    counts = np.zeros((len(layouts), thr_linear.size), dtype=np.int64)
    bit_generator = getattr(np.random, BIT_GENERATOR)
    work = _SPARE.pop("work", {})
    for block in range(block_start, block_stop):
        drops = min(per_block, scenario.n_drops - block * per_block)
        key = np.random.SeedSequence(scenario.master_seed, spawn_key=(stream_tag, block))
        rng = np.random.Generator(bit_generator(key))
        xy = sample_hexagon_xy(
            scenario.cell_radius, centers, n_users, rng, batch=(drops,), work=work
        )
        size = (scenario.sector_count, drops, xy.shape[1])
        channel = rng.standard_normal(out=buffer(work, "channel", size))
        channel *= shadow_nepers
        np.exp(channel, out=channel)
        # The fading lands in _path_gains's scratch array, free until then.
        channel *= _fading(rng, buffer(work, "term", size))
        channel *= link_scale
        for k, layout in enumerate(layouts):
            power, inside = _path_gains(layout, xy, scenario, work)
            power *= channel
            gamma = per_antenna_sir_matrix(power, eta, pg, n_observed=n_users)
            # The used layout reads each user's SIR at its serving antenna;
            # microzone combines every branch.
            if layout.architecture == "used":
                serving = serving_sector_indices(inside[..., :n_users])
                sirs = np.take_along_axis(gamma, serving[None], axis=0)[0]
            else:
                sirs = combine_columns(gamma, scenario.combiner_mode)
            # The SIRs are spent: sort them in place (reshape is a view of a
            # contiguous result) and count each threshold's outages.
            sirs = sirs.reshape(-1)
            sirs.sort()
            counts[k] += sirs.searchsorted(thr_linear, side="right")
    _SPARE["work"] = work
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
