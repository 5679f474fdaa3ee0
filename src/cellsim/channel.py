"""Per-link radio channel model.

The linear gain of a link factors into deterministic path loss, log-normal
shadowing and Rayleigh fast fading:

    g = (A_p * d**-rho) * 10**(xi / 10) * A_f

with A_p the wavelength/antenna constant, xi ~ N(0, sigma^2) in dB and A_f a
unit-mean exponential (the squared Rayleigh envelope).  The Monte Carlo
kernel in ``outage`` draws these per block of drops.  A sum-of-sinusoids
Rayleigh generator is included for time-correlated fading studies; the
pipeline draws i.i.d. exponential powers per snapshot instead, since Doppler
evolution is out of scope.
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI_SQ = (4.0 * math.pi) ** 2
# 10**(x / 10) == exp(LN10_OVER_10 * x): converts dB to a natural exponent.
LN10_OVER_10 = math.log(10.0) / 10.0


def path_gain_constant(wavelength: float) -> float:
    """Free-space constant lambda^2 / (4 pi)^2 for unit-gain antennas."""
    return wavelength * wavelength / FOUR_PI_SQ


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
