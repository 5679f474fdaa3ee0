"""Uplink SIR computation and antenna diversity combining.

Per-antenna SIR follows the CDMA uplink form

    gamma = P_G * g_desired * p / (sum_j g_j * p_j + eta)

with processing gain P_G = chip_bandwidth / bit_rate.  The kernel passes
received powers g * p: it has folded the transmit power into the channel.
Branch SIRs from multiple antennas are merged by a self-normalized
square-root weighting (``paper`` mode), which is a convex combination of
the branches, or by classical maximum ratio combining (``classical-mrc``),
which sums them.

Batched arrays are antenna-major, (antennas, drops, users), as the kernel
builds them: each antenna's links are one flat (drops, users) plane, where
per-antenna operations on (drops, antennas, users) arrays measured three to
five times slower.  The kernel draws its shadowing and fading in that same
order, so the powers reach these functions as contiguous arrays.
"""

from __future__ import annotations

import numpy as np

COMBINER_MODES = ("paper", "classical-mrc")


def per_antenna_sir_matrix(
    power: np.ndarray, eta: float, pg: float, n_observed: int, serving: np.ndarray | None = None
) -> np.ndarray:
    """Branch SIR for every (antenna, user) pair from received powers.

    ``power`` is an antenna-major array of shape (antennas, ..., users): one
    drop, or a batch of drops along the middle axes, each entry the power a
    user's signal arrives with at an antenna.  Interference at an antenna
    sums the received power of all users except the one under test, along
    the contiguous users axis.  Only the first ``n_observed`` user columns
    are returned (all users still interfere).  With ``serving``, an (...,
    n_observed) array of antenna ids, only each observed user's SIR at its
    serving antenna is computed: one flat-index ``take`` picks the user's
    power, at ((serving * drops + drop) * users + user), and one its
    antenna's total, and the result is (..., n_observed).
    Handles the eta = 0 corner: positive signal over empty interference is
    +inf, zero over zero is 0.
    """
    totals = power.sum(axis=-1)
    if serving is None:
        observed = power[..., :n_observed]
        totals = totals[..., None]
    else:
        # Flat indices of each observed user's serving row, then of its entry.
        # Every index is in range, so mode="clip" only skips a copy.
        drops = totals[0].size
        rows = serving * drops + np.arange(drops).reshape(serving.shape[:-1] + (1,))
        totals = totals.take(rows, mode="clip")
        rows *= power.shape[-1]
        rows += np.arange(n_observed)
        observed = power.take(rows, mode="clip")
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

    ``mode`` is one of ``COMBINER_MODES``, as a validated config holds it.
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
