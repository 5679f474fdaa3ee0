"""Experiment configuration, orchestration and export.

Configs are flat ``key = value`` text, one key per line, ``#`` comments;
numeric values take the one unit suffix their field names in ``_UNITS``.
Unknown keys are rejected rather than silently ignored.  ``run_experiment`` evaluates the
requested architectures on identical random streams (paired drops).  Its
result is one per-threshold table, which ``render_csv`` writes as CSV any
plotting tool can consume and ``format_report`` prints for the terminal.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import CELL_RADIUS, SQRT3, build_layout, hexagon_area, hexagon_contains, interferer_cell_centers
from .outage import (
    LN10_OVER_10, PATH_GAIN_CONSTANT, OutageCurve, _path_gains, analytic_outage_used, mc_outage,
)
ARCHITECTURE_CHOICES = ("used", "microzone", "both")
COMBINER_MODES = ("paper", "classical-mrc")
# Longest threshold sweep a config may ask for, so that a slip such as
# 0:1e7:1e-6 fails when the config is built rather than as an array of 10**13
# points.  Far above any plotted curve.
MAX_THRESHOLDS = 10**6


class ConfigError(ValueError):
    """Raised for malformed config text or invariant violations."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description; defaults reproduce the baseline scenario.

    The cell is the paper's, of circumradius ``geometry.CELL_RADIUS`` (1 km),
    and every user transmits 1 W; neither is a field.  ``noise_power`` of
    None means automatic: 30 dB below the fading-averaged power a single
    cell-edge user delivers to an in-beam antenna, which keeps the system
    interference limited.  Antennas have a gain of 1 in their beam and
    ``floor_gain_db`` (at most 0 dB) outside it; received powers scale with
    the free-space constant of the 2 GHz carrier.  ``thresholds`` is a
    (start, stop, step) sweep in dB.  The default combiner sums branch SIRs
    (classical MRC); the ``paper`` mode is the self-normalized convex
    weighting, selectable here or via the CLI.
    One ring of co-channel neighbor cells interferes by default; set
    ``interferer_tiers`` to 0 for an isolated cell.

    Each field's name is its config key.  Every construction,
    ``dataclasses.replace`` included, runs :meth:`validate`, which checks
    each field's kind and range, so an invalid config cannot be built and
    the code downstream does not check its inputs again.
    """

    architecture: str = "both"
    n_users: int = 40
    # Linear W / R: the paper's 3.8 Mchip/s chip rate over its 45 kb/s bit rate.
    processing_gain: float = 3.8e6 / 45e3
    thresholds: tuple[float, float, float] = (-10.0, 10.0, 1.0)
    rho: float = 4.0
    shadowing_sigma: float = 5.0  # dB
    noise_power: Optional[float] = None  # watts; None = auto
    beamwidth: float = 120.0  # degrees
    d_min: float = 1.0  # m
    n_drops: int = 1000
    master_seed: int = 1
    combiner_mode: str = "classical-mrc"
    interferer_tiers: int = 1
    paired: bool = True
    floor_gain_db: float = float("-inf")  # relative to the in-beam gain

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # Every construction runs this, dataclasses.replace included, so each
        # field is read once.  A config whose fields have the types in
        # _PLAIN_TYPES, with finite numbers, skips _check_kinds.
        values = _field_values(self)
        (architecture, n_users, pg, thresholds, rho, sigma, noise, beamwidth,
         d_min, n_drops, seed, combiner_mode, tiers, _, floor_db) = values
        numbers = (pg, rho, sigma, beamwidth, d_min)
        # noise_power may be None and floor_gain_db -inf.
        if (tuple(map(type, values)) not in _PLAIN_TYPES or tuple(map(type, thresholds)) != (float,) * 3
                or not all(map(math.isfinite, (*numbers, *thresholds))) or not floor_db < math.inf
                or not (noise is None or math.isfinite(noise))):
            if _check_kinds(self):
                # It stored numpy scalars as Python numbers: check those.
                return self.validate()
        if architecture not in ARCHITECTURE_CHOICES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURE_CHOICES}, got {architecture!r}")
        if n_users < 1:
            raise ConfigError(f"n_users must be >= 1, got {n_users}")
        start, stop, step = thresholds
        if step <= 0.0 or stop < start:
            raise ConfigError(f"thresholds sweep must have stop >= start and step > 0, got {thresholds}")
        count = self._threshold_count()
        if count > MAX_THRESHOLDS:
            raise ConfigError(
                f"thresholds sweep {thresholds} has {count} points, "
                f"more than the {MAX_THRESHOLDS} allowed"
            )
        # Points a few float spacings of the sweep's magnitude apart round onto
        # each other; this bound keeps every point distinct.
        magnitude = max(abs(start), abs(stop))
        if count > 1 and step < 4.0 * math.ulp(2.0 * magnitude):
            raise ConfigError(f"thresholds step {step} is too fine for distinct points near {magnitude}")
        if not 2.0 <= rho <= 5.0:
            raise ConfigError(f"rho must be in [2, 5], got {rho}")
        if not 0.0 <= sigma <= 12.0:
            raise ConfigError(f"shadowing_sigma must be in [0, 12] dB, got {sigma}")
        if noise is not None and noise < 0.0:
            raise ConfigError(f"noise_power must be >= 0 or auto, got {noise}")
        if beamwidth not in (60.0, 120.0):
            raise ConfigError(f"beamwidth must be 60 or 120 degrees, got {beamwidth}")
        if n_drops < 1:
            raise ConfigError(f"n_drops must be >= 1, got {n_drops}")
        if seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {seed}")
        if combiner_mode not in COMBINER_MODES:
            raise ConfigError(f"combiner_mode must be one of {COMBINER_MODES}, got {combiner_mode!r}")
        if tiers not in (0, 1, 2):
            raise ConfigError(f"interferer_tiers must be 0, 1 or 2, got {tiers}")
        if floor_db > 0.0:
            raise ConfigError(f"floor_gain_db must be at most 0 dB, the in-beam gain, got {floor_db}")
        # Closed ranges on the power scale keep every power the code forms a
        # finite float.  With 1 W users in a 1 km cell, the largest link
        # power, about 5e66 W, is pg * PATH_GAIN_CONSTANT * d_min**-5 * 37 *
        # exp(2.77 * 40) at the box's strong corner (fading is below 37,
        # sigma = 12 dB is 2.77 nepers), so the sum over every user of a drop
        # stays finite for any user count that fits in memory.  The smallest
        # in-beam power before fading, about 1e-77 W, is at the weak corner,
        # where d_min = 1e5 m clamps every distance, with z = -40: a normal
        # float.  No bound rests on numpy's sampler: a standard normal from
        # 53-bit uniforms stays far below 40 in size.
        if not 1.0 <= pg <= 1e6:
            raise ConfigError(f"processing_gain must be in [1, 1e6], got {pg}")
        if not 1e-3 <= d_min <= 1e5:
            raise ConfigError(f"d_min must be in [1e-3, 1e5] m, got {d_min}")

    # Derived quantities ---------------------------------------------------

    @property
    def sector_count(self) -> int:
        return int(round(360.0 / self.beamwidth))

    @property
    def architectures(self) -> tuple[str, ...]:
        """The architectures a run evaluates, in stream order."""
        return ("used", "microzone") if self.architecture == "both" else (self.architecture,)

    def _threshold_count(self) -> float:
        """Points of the threshold sweep, stop included; inf if too many to count."""
        start, stop, step = self.thresholds
        steps = (stop - start) / step + 1e-9
        return math.floor(steps) + 1 if math.isfinite(steps) else math.inf

    @property
    def thresholds_db(self) -> np.ndarray:
        start, _, step = self.thresholds
        return start + step * np.arange(self._threshold_count())

    @property
    def thresholds_linear(self) -> np.ndarray:
        """The sweep as linear ratios; a point beyond float range is inf, an outage of 1."""
        with np.errstate(over="ignore"):
            return 10.0 ** (self.thresholds_db / 10.0)

    @property
    def floor_gain(self) -> float:
        return 0.0 if math.isinf(self.floor_gain_db) else 10.0 ** (self.floor_gain_db / 10.0)

    def resolved_noise_power(self) -> float:
        """The noise power; automatic is 1e-3 of one cell-edge user's mean in-beam power."""
        if self.noise_power is None:
            return PATH_GAIN_CONSTANT * CELL_RADIUS ** -self.rho * 1e-3
        return self.noise_power


# Each field's name, which is its config key, and the type of its default.
_FIELD_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}
# The field types that validate's fast path takes: the defaults', with
# noise_power None or a float.
_PLAIN_TYPES = {tuple(_FIELD_TYPES.values()), tuple({**_FIELD_TYPES, "noise_power": float}.values())}
_field_values = attrgetter(*_FIELD_TYPES)


# Concrete types, not the numbers ABCs, which also admit Fraction and Decimal.
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _check_kinds(cfg: ScenarioConfig) -> bool:
    """Raise ConfigError for the first field that holds the wrong kind of value.

    Each field holds the kind of its default: a bool; an integer, not a
    bool; a 3-tuple of numbers; or a finite number, not a bool (a Python
    int beyond float range is not finite).  An integer is Python's or
    numpy's, a number an integer or Python's or numpy's float; a Fraction or
    any other numeric type is rejected, and a name is left to its choices.
    noise_power may also be None and floor_gain_db -inf.  A numpy scalar,
    alone or in ``thresholds``, is stored as the Python int or float of its
    value (not ``.item()``, which keeps a longdouble), so the kernel and the
    config text see Python numbers.  Returns whether any field was stored
    so.
    """
    stored = False
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if kind in (bool, int) and not (isinstance(value, _INTEGERS) and isinstance(value, bool) == (kind is bool)):
            raise ConfigError(f"{name} must be {'a bool' if kind is bool else 'an integer'}, got {value!r}")
        if kind is tuple and not (isinstance(value, tuple) and len(value) == 3):
            raise ConfigError(f"{name} must be a 3-tuple, got {value!r}")
        items = value if kind is tuple else (value,)
        if kind in (float, tuple) or name == "noise_power" and value is not None:
            for item in items:
                if isinstance(item, bool) or not isinstance(item, _NUMBERS):
                    raise ConfigError(f"{name} must be {'3 numbers' if kind is tuple else 'a number'}, got {value!r}")
                allowed = "finite or -inf" if name == "floor_gain_db" else "finite"
                try:
                    finite = math.isfinite(item)
                except OverflowError:
                    raise ConfigError(f"{name} must be {allowed}, got an integer beyond float range") from None
                if not (finite or name == "floor_gain_db" and item == -math.inf):
                    raise ConfigError(f"{name} must be {allowed}, got {value}")
        if any(isinstance(item, (np.integer, np.floating)) for item in items):
            plain = tuple(int(item) if isinstance(item, _INTEGERS) else float(item) for item in items)
            object.__setattr__(cfg, name, plain if kind is tuple else plain[0])
            stored = True
    return stored


@dataclass(frozen=True)
class ExperimentResult:
    """One run's results.

    ``curves`` maps each architecture run to its Monte Carlo curve, and
    ``analytic_used`` is the closed-form used curve, or None when the used
    architecture was not run.
    """

    config: ScenarioConfig
    curves: dict[str, OutageCurve]
    analytic_used: Optional[np.ndarray]
    elapsed_seconds: float


# Config text grammar ------------------------------------------------------

# The one unit suffix each numeric field accepts, or None for none; a bare
# number is always accepted.  A suffix only names the unit: it scales nothing.
_UNITS = {
    "processing_gain": None,
    "rho": None,
    "shadowing_sigma": "dB",
    "noise_power": "W",
    "beamwidth": "deg",
    "d_min": "m",
    "floor_gain_db": "dB",
}

# A number as Python's float() spells it, digit-separating underscores
# included, then an optional unit, which starts with a letter (so "1__0" is a
# malformed number, not the number 1 in the unit "__0").
_DIGITS = r"\d+(?:_\d+)*"
_QUANTITY_RE = re.compile(
    rf"(?i)([-+]?(?:inf(?:inity)?|nan|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})"
    rf"(?:e[-+]?{_DIGITS})?))\s*([^\W\d_].*)?"
)


def parse_value(name: str, text: str):
    """Read one config or flag value as the value of field ``name``.

    The field fixes the form: a numeric field (one in ``_UNITS``) takes a
    number with an optional unit suffix, and ``noise_power`` also ``auto``;
    any other field's default picks true/false, an integer, a START:STOP:STEP
    sweep in dB, or a name.  Names and ranges are left to
    ``ScenarioConfig.validate``.  Malformed text raises ValueError.
    """
    text = text.strip()
    if name == "noise_power" and text.lower() == "auto":
        return None
    if name in _UNITS:
        match = _QUANTITY_RE.fullmatch(text)
        number, unit = match.groups() if match else (text, None)
        if unit not in (None, _UNITS[name]):
            raise ValueError(f"unsupported unit {unit!r}")
        try:
            return float(number)
        except ValueError:
            raise ValueError(f"not a number: {number!r}") from None
    default = getattr(ScenarioConfig, name)
    if isinstance(default, bool):
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text.lower() == "true"
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
    if isinstance(default, tuple):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected START:STOP:STEP in dB, got {text!r}")
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ValueError(f"expected numeric START:STOP:STEP, got {text!r}") from None
    return text


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text; omitted keys take the defaults, unknown keys fail."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return ScenarioConfig(**values)


def parse_config_file(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical config text; parse_config(serialize_config(c)) == c."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            text = "auto"
        elif isinstance(value, tuple):
            text = ":".join(map(str, value))
        else:
            text = str(value).lower() if isinstance(value, bool) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# Analytic reference curve -------------------------------------------------

# 16-point Gauss-Legendre nodes and weights on [-1, 1] for the in-cell slice
# integral: the exact floats of numpy.polynomial.legendre.leggauss(16), spelled
# out so that the runtime never imports numpy.polynomial.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])


def _slice_gain_integral(cfg: ScenarioConfig) -> float:
    """Integral of max(d, d_min)**-rho over the cell's slice of bearings [0, pi/6].

    The slice's boundary lies at ``apothem / cos(theta)``, and the radial
    integral of max(d, d_min)**-rho * d out to it has a closed form, so one
    fixed Gauss-Legendre rule in theta gives the area integral.  Where the
    boundary crosses d_min the integrand has a kink, and the rule is split at
    that bearing so that each piece is smooth.
    """
    apothem = CELL_RADIUS * SQRT3 / 2.0
    rho, d_min = cfg.rho, cfg.d_min
    edges = [0.0, math.pi / 6.0]
    if apothem < d_min < CELL_RADIUS:
        edges.insert(1, math.acos(apothem / d_min))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = (hi - lo) / 2.0
    r = apothem / np.cos(lo + half * (_GL_NODES[:, None] + 1.0))  # (nodes, pieces)
    near = d_min ** -rho * np.minimum(r, d_min) ** 2 / 2.0
    far = np.maximum(r, d_min)
    if rho == 2.0:
        far = np.log(far / d_min)
    else:
        far = (far ** (2.0 - rho) - d_min ** (2.0 - rho)) / (2.0 - rho)
    return float(_GL_WEIGHTS @ (near + far) @ half)


def _neighbor_gain_means(cfg: ScenarioConfig) -> list[float]:
    """Mean of sector 0's pattern gain times distance loss over each neighbor cell.

    Every cell is sampled on one grid of offsets from its center: the points
    of an endpoint-inclusive 201 x 201 ``linspace`` lattice over the cell's
    bounding box that lie in the hexagon, boundary included (30,201 of the
    40,401).  The grid is built once per config, and none for an isolated
    cell.  Gains come from the kernel's ``_path_gains`` on a one-antenna copy
    of sector 0 of the used layout, one cell at a time, into fresh arrays;
    the cells share one points array.
    """
    centers = interferer_cell_centers(cfg.interferer_tiers)
    if not len(centers):
        return []
    half_w = CELL_RADIUS * math.sqrt(3.0) / 2.0
    gx, gy = np.meshgrid(np.linspace(-half_w, half_w, 201), np.linspace(-CELL_RADIUS, CELL_RADIUS, 201))
    offsets = np.column_stack([gx.ravel(), gy.ravel()])  # (points, 2)
    offsets = offsets[hexagon_contains(CELL_RADIUS, (0.0, 0.0), offsets)]
    used = build_layout(cfg, "used")
    sector0 = replace(used, sites=used.sites[:1], boresights=used.boresights[:1])
    points = np.empty((1,) + offsets.shape)
    means = []
    for center in centers:
        np.add(offsets, center, out=points[0])
        means.append(float(np.mean(_path_gains(sector0, points, cfg)[0])))
    return means


def mean_received_powers(cfg: ScenarioConfig) -> tuple[float, float, list[float]]:
    """Ensemble mean received powers for the sectored architecture.

    Returns (desired mean, same-cell interferer mean, per-neighbor-cell
    interferer means).  Means average the fading (unit mean), the log-normal
    shadowing factor, the uniform user position, and the flat-top pattern;
    the desired user is conditioned on lying in the serving wedge.
    """
    shadow_mean = math.exp((cfg.shadowing_sigma * LN10_OVER_10) ** 2 / 2.0)
    base = PATH_GAIN_CONSTANT * shadow_mean
    area = hexagon_area(CELL_RADIUS)

    # The cell is symmetric under reflection about every multiple of 30
    # degrees, and every sector edge lies on that grid, so each 30-degree
    # slice holds the same gain integral: the cell is 12 slices, a sector 12 / count.
    full = 12.0 * _slice_gain_integral(cfg)
    wedge = full / cfg.sector_count
    wedge_area = area / cfg.sector_count
    mean_desired = base * wedge / wedge_area
    mean_in_cell = base * (wedge + cfg.floor_gain * (full - wedge)) / area
    neighbor_means = [base * gain for gain in _neighbor_gain_means(cfg)]
    return mean_desired, mean_in_cell, neighbor_means


def analytic_used_curve(cfg: ScenarioConfig) -> np.ndarray:
    """Closed-form outage for the used architecture under matched mean powers.

    Abstraction: every link power is replaced by an exponential with the
    ensemble mean matched to the geometric scenario.  Conditional means vary
    across real drops, so this is a reference curve, not an unbiased
    prediction of the Monte Carlo estimate.  The closed form is evaluated
    once, over the whole threshold sweep.
    """
    mean_desired, mean_in_cell, neighbor_means = mean_received_powers(cfg)
    means = np.repeat(
        [mean_in_cell, *neighbor_means], [cfg.n_users - 1] + [cfg.n_users] * len(neighbor_means)
    )
    return analytic_outage_used(
        mean_desired, means, cfg.resolved_noise_power(), cfg.processing_gain, cfg.thresholds_linear
    )


# Orchestration ------------------------------------------------------------

def run_experiment(cfg: ScenarioConfig, workers: int = 1) -> ExperimentResult:
    """Run the configured architectures and assemble results.

    With ``paired`` set (the default) both architectures are evaluated on
    one shared draw of user positions, shadowing and fading per drop;
    otherwise each draws its own streams.  ``mc_outage`` runs them all on
    up to ``workers`` processes.
    """
    start = time.perf_counter()
    analytic = analytic_used_curve(cfg) if "used" in cfg.architectures else None
    curves = mc_outage(cfg, workers)
    return ExperimentResult(cfg, curves, analytic, time.perf_counter() - start)


# Result table -------------------------------------------------------------

CSV_HEADER = "threshold_db,used_mc,used_ci,used_analytic,micro_mc,micro_ci,micro_minus_used"


def _rows(result: ExperimentResult) -> list[tuple]:
    """The per-threshold table: one tuple of the ``CSV_HEADER`` columns per threshold.

    A column the run has no curve for holds None.  ``micro_minus_used`` is
    the microzone estimates minus the used ones.  A curve whose length is not
    the sweep's raises ValueError.
    """
    used = result.curves.get("used")
    micro = result.curves.get("microzone")
    columns = [result.config.thresholds_db]
    columns += [None, None] if used is None else [used.estimates, used.ci_half_widths]
    columns.append(result.analytic_used)
    columns += [None, None] if micro is None else [micro.estimates, micro.ci_half_widths]
    columns.append(None if used is None or micro is None else micro.estimates - used.estimates)
    count = len(columns[0])
    return list(zip(*([None] * count if c is None else c.tolist() for c in columns), strict=True))


def _csv_num(value: Optional[float]) -> str:
    return "NA" if value is None else f"{value:.6g}"


def render_csv(result: ExperimentResult) -> str:
    """CSV text with one row per threshold; absent columns hold 'NA'."""
    lines = [CSV_HEADER, *(",".join(map(_csv_num, row)) for row in _rows(result))]
    return "\n".join(lines) + "\n"


def format_report(result: ExperimentResult) -> str:
    """The per-threshold table for the terminal.

    A run of both architectures gives an aligned table of both curves and
    their difference, and flags ``micro>used`` where the microzone estimate
    is strictly above the used one.  A run of one architecture gives one
    ``arch @ thr dB: outage estimate +- half-width`` line per threshold.
    """
    rows = _rows(result)
    if len(result.curves) == 1:
        arch, = result.curves
        at = 1 if arch == "used" else 4  # the columns of its estimate and half-width
        lines = [f"{arch} @ {r[0]:g} dB: outage {r[at]:.6g} +- {r[at + 1]:.3g}" for r in rows]
    else:
        lines = [
            f"{'thr_dB':>7} {'used':>10} {'used_ci':>10} {'micro':>10} "
            f"{'micro_ci':>10} {'micro-used':>11}  flag"
        ]
        for thr, used, used_ci, _, micro, micro_ci, diff in rows:
            flag = "micro>used" if diff > 0.0 else ""
            lines.append(
                f"{thr:>7.6g} {used:>10.6g} {used_ci:>10.3g} "
                f"{micro:>10.6g} {micro_ci:>10.3g} {diff:>11.6g}  {flag}"
            )
    return "\n".join(lines)


def emit_csv(result: ExperimentResult, path) -> None:
    """Write the CSV table to ``path``."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(render_csv(result))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
