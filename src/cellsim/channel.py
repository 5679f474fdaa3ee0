"""Per-link radio channel model.

The linear gain of a link factors into deterministic path loss, log-normal
shadowing and Rayleigh fast fading:

    g = (A_p * d**-rho) * 10**(xi / 10) * A_f

with A_p the wavelength/antenna constant, xi ~ N(0, sigma^2) in dB and A_f a
unit-mean exponential (the squared Rayleigh envelope).  A sum-of-sinusoids
Rayleigh generator is included for time-correlated fading studies; the Monte
Carlo pipeline draws i.i.d. exponential powers per snapshot instead, since
Doppler evolution is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Layout, antenna_distances, antenna_pattern_gains, as_xy

FOUR_PI_SQ = (4.0 * math.pi) ** 2
# 10**(x / 10) == exp(LN10_OVER_10 * x): converts dB to a natural exponent.
LN10_OVER_10 = math.log(10.0) / 10.0


@dataclass(frozen=True)
class ChannelParams:
    """Propagation parameters shared by every link.

    wavelength         carrier wavelength in meters
    tx_gain            mobile antenna gain, linear (omnidirectional)
    rx_gain            base antenna reference gain, linear; per-link pattern
                       gain replaces it when gains are drawn from a layout
    path_loss_exponent distance-decay power rho, 2 (free space) to 5 (urban)
    shadowing_std_db   sigma of the log-normal shadowing, dB
    d_min              lower clamp on propagation distance, meters
    """

    wavelength: float
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    path_loss_exponent: float = 4.0
    shadowing_std_db: float = 5.0
    d_min: float = 1.0

    def __post_init__(self):
        for name in ("wavelength", "tx_gain", "rx_gain", "d_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.tx_gain < 0.0 or self.rx_gain < 0.0:
            raise ValueError("antenna gains must be >= 0")
        if not 2.0 <= self.path_loss_exponent <= 5.0:
            raise ValueError(
                f"path_loss_exponent must be in [2, 5], got {self.path_loss_exponent}"
            )
        if not 0.0 <= self.shadowing_std_db <= 12.0:
            raise ValueError(
                f"shadowing_std_db must be in [0, 12], got {self.shadowing_std_db}"
            )
        if self.d_min <= 0.0:
            raise ValueError(f"d_min must be positive, got {self.d_min}")


@dataclass(frozen=True)
class LinkGainMatrix:
    """Linear gains from every user (column) to every antenna (row) for one drop."""

    gains: np.ndarray
    drop_index: int = 0

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2:
            raise ValueError(f"gains must be 2-D (antennas x users), got {gains.shape}")
        if gains.size and (not np.all(np.isfinite(gains)) or np.any(gains < 0.0)):
            raise ValueError("link gains must be finite and >= 0")
        object.__setattr__(self, "gains", gains)

    @property
    def n_antennas(self) -> int:
        return self.gains.shape[0]

    @property
    def n_users(self) -> int:
        return self.gains.shape[1]


def path_gain_constant(wavelength: float, tx_gain: float, rx_gain: float) -> float:
    """Free-space constant g_T * g_r * lambda^2 / (4 pi)^2."""
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if tx_gain < 0.0 or rx_gain < 0.0:
        raise ValueError("antenna gains must be >= 0")
    return tx_gain * rx_gain * wavelength * wavelength / FOUR_PI_SQ


def draw_shadowing(sigma_db: float, rng: np.random.Generator, size=None):
    """Log-normal shadowing samples in dB: N(0, sigma_db^2)."""
    if sigma_db < 0.0:
        raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
    return rng.normal(0.0, sigma_db, size)

def draw_fading_power(rng: np.random.Generator, size=None):
    """Unit-mean exponential fast-fading power (squared Rayleigh envelope)."""
    return rng.exponential(1.0, size)


def link_gain(a_p, distance, rho, shadowing_db, fading_power):
    """Composite linear link gain (A_p * d**-rho) * 10**(xi/10) * A_f.

    Accepts scalars or broadcastable arrays; distances must be positive
    (callers clamp at d_min first).
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive; clamp at d_min before calling")
    return np.asarray(a_p) * d ** (-rho) * 10.0 ** (np.asarray(shadowing_db) / 10.0) * fading_power


def draw_link_matrix(
    layout: Layout,
    users,
    params: ChannelParams,
    rng: np.random.Generator,
    drop_index: int = 0,
) -> LinkGainMatrix:
    """Draw the full antennas-by-users gain matrix for one snapshot.

    The per-link receive gain is the antenna's pattern gain toward the user
    (it takes the rx_gain slot of the path constant).  Shadowing is drawn
    first and fading second, each as one (antennas x users) block.  The
    Monte Carlo kernel in ``outage`` computes the same gains for whole
    blocks of drops at once; this per-drop form is the scalar reference it
    is tested against.
    """
    xy = as_xy(users)
    n_ant = layout.antenna_count
    n_usr = xy.shape[0]
    base = path_gain_constant(params.wavelength, params.tx_gain, 1.0)

    a_p = np.empty((n_ant, n_usr))
    dist = np.empty((n_ant, n_usr))
    for l, antenna in enumerate(layout.antennas):
        a_p[l] = base * antenna_pattern_gains(antenna, xy)
        dist[l] = antenna_distances(antenna, xy, params.d_min)

    shadow_db = draw_shadowing(params.shadowing_std_db, rng, (n_ant, n_usr))
    fading = draw_fading_power(rng, (n_ant, n_usr))
    gains = link_gain(a_p, dist, params.path_loss_exponent, shadow_db, fading)
    return LinkGainMatrix(gains=gains, drop_index=drop_index)


class SumOfSinusoidsRayleigh:
    """Rayleigh fading generator built from a sum of sinusoids.

    Oscillator arrival angles are equally spaced around the circle with a
    common random rotation; phases are i.i.d. uniform.  The complex amplitude
    is normalized so the squared envelope has unit mean.  With zero Doppler
    the process is constant in time, matching a static snapshot draw.
    """

    MIN_OSCILLATORS = 8

    def __init__(self, n_oscillators: int, doppler_hz: float, rng: np.random.Generator):
        if n_oscillators < self.MIN_OSCILLATORS:
            raise ValueError(
                f"need at least {self.MIN_OSCILLATORS} oscillators for acceptable "
                f"envelope statistics, got {n_oscillators}"
            )
        if doppler_hz < 0.0:
            raise ValueError(f"doppler_hz must be >= 0, got {doppler_hz}")
        self.n_oscillators = int(n_oscillators)
        self.doppler_hz = float(doppler_hz)
        rotation = rng.uniform(0.0, 2.0 * np.pi)
        self.arrival_angles = (
            2.0 * np.pi * np.arange(self.n_oscillators) + rotation
        ) / self.n_oscillators
        self.phases = rng.uniform(0.0, 2.0 * np.pi, self.n_oscillators)

    def sample(self, t: float) -> complex:
        """Complex fading amplitude at time ``t`` seconds."""
        omega = 2.0 * np.pi * self.doppler_hz * np.cos(self.arrival_angles)
        phasors = np.exp(1j * (omega * t + self.phases))
        return complex(phasors.sum() / math.sqrt(self.n_oscillators))


def sos_rayleigh_sample(
    n_oscillators: int, doppler_hz: float, t: float, rng: np.random.Generator
) -> complex:
    """One sum-of-sinusoids draw with fresh random phases."""
    return SumOfSinusoidsRayleigh(n_oscillators, doppler_hz, rng).sample(t)


def sos_rayleigh_envelopes(
    n_samples: int, n_oscillators: int, rng: np.random.Generator
) -> np.ndarray:
    """Envelopes |h| from independent phase sets, vectorized for statistics tests."""
    if n_oscillators < SumOfSinusoidsRayleigh.MIN_OSCILLATORS:
        raise ValueError(
            f"need at least {SumOfSinusoidsRayleigh.MIN_OSCILLATORS} oscillators, "
            f"got {n_oscillators}"
        )
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_samples, n_oscillators))
    h = np.exp(1j * phases).sum(axis=1) / math.sqrt(n_oscillators)
    return np.abs(h)
