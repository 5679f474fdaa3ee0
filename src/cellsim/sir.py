"""Uplink SIR computation and antenna diversity combining.

Per-antenna SIR follows the CDMA uplink form

    gamma = P_G * g_desired * p / (sum_j g_j * p_j + eta)

with processing gain P_G = chip_bandwidth / bit_rate.  Branch SIRs from
multiple antennas are merged by a self-normalized square-root weighting
(``paper`` mode), which is a convex combination of the branches, or by
classical maximum ratio combining (``classical-mrc``), which sums them.
"""

from __future__ import annotations

import numpy as np

COMBINER_MODES = ("paper", "classical-mrc")


def per_antenna_sir_matrix(
    gains: np.ndarray,
    tx_power,
    eta: float,
    pg: float,
    n_observed: int | None = None,
) -> np.ndarray:
    """Branch SIR for every (antenna, user) pair from gain matrices.

    ``gains`` has shape (..., antennas, users): one drop, or a batch of
    drops along the leading axes.  Interference at an antenna sums the
    received power of all users except the one under test.  Only the first
    ``n_observed`` user columns are returned (all users still interfere).
    Handles the eta = 0 corner: positive signal over empty interference is
    +inf, zero over zero is 0.
    """
    power = np.asarray(gains, dtype=float) * np.asarray(tx_power, dtype=float)
    totals = power.sum(axis=-1, keepdims=True)
    observed = power if n_observed is None else power[..., :n_observed]
    # max() guards against cancellation when one user dominates the total.
    interference = np.maximum(totals - observed, 0.0)
    numer = pg * observed
    denom = interference + eta
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = numer / denom
    return np.where(denom > 0.0, sir, np.where(numer > 0.0, np.inf, 0.0))


def combine_columns(gamma: np.ndarray, mode: str = "paper") -> np.ndarray:
    """Diversity combining over the antenna axis of (..., antennas, users) SIRs.

    Returns shape (..., users); a 2-D input combines column by column.  An
    all-zero column combines to 0 and a column with an infinite branch to
    +inf.
    """
    if mode not in COMBINER_MODES:
        raise ValueError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    gamma = np.asarray(gamma, dtype=float)
    if mode == "classical-mrc":
        return gamma.sum(axis=-2)
    root = np.sqrt(gamma)
    with np.errstate(invalid="ignore"):
        numer = (root * gamma).sum(axis=-2)
        denom = root.sum(axis=-2)
        combined = numer / denom
    has_inf = np.isinf(gamma).any(axis=-2)
    combined = np.where(has_inf, np.inf, combined)
    return np.where(denom > 0.0, combined, np.where(has_inf, np.inf, 0.0))
