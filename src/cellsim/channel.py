"""Per-link radio channel model.

The linear gain of a link factors into deterministic path loss, log-normal
shadowing and Rayleigh fast fading:

    g = (A_p * d**-rho) * 10**(xi / 10) * A_f

with A_p the wavelength/antenna constant, xi ~ N(0, sigma^2) in dB and A_f a
unit-mean exponential (the squared Rayleigh envelope).  The Monte Carlo
kernel in ``outage`` draws the shadowing and fading of every link per block
of drops, i.i.d. per snapshot (``standard_normal`` and
``standard_exponential``); time-correlated fading is out of scope.  This
module holds the constants it scales them with.
"""

from __future__ import annotations

import math

FOUR_PI_SQ = (4.0 * math.pi) ** 2
# 10**(x / 10) == exp(LN10_OVER_10 * x): converts dB to a natural exponent.
LN10_OVER_10 = math.log(10.0) / 10.0


def path_gain_constant(wavelength: float) -> float:
    """Free-space constant lambda^2 / (4 pi)^2 for unit-gain antennas."""
    return wavelength * wavelength / FOUR_PI_SQ

