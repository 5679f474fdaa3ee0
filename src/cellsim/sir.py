"""Uplink SIR computation and antenna diversity combining.

Per-antenna SIR follows the CDMA uplink form

    gamma = P_G * g_desired * p / (sum_j g_j * p_j + eta)

with processing gain P_G = chip_bandwidth / bit_rate.  The kernel passes
received powers g * p: it has folded the transmit power into the channel.
Branch SIRs from multiple antennas are merged by a self-normalized
square-root weighting (``paper`` mode), which is a convex combination of
the branches, or by classical maximum ratio combining (``classical-mrc``),
which sums them.
"""

from __future__ import annotations

import math

import numpy as np

from .workspace import buffer

COMBINER_MODES = ("paper", "classical-mrc")


def per_antenna_sir_matrix(
    power: np.ndarray,
    eta: float,
    pg: float,
    n_observed: int | None = None,
    work: dict | None = None,
    serving: np.ndarray | None = None,
) -> np.ndarray:
    """Branch SIR for every (antenna, user) pair from received powers.

    ``power`` is an array of shape (..., antennas, users): one drop, or a
    batch of drops along the leading axes, each entry the power a user's
    signal arrives with at an antenna.  Interference at an antenna sums the
    received power of all users except the one under test.  Only the first
    ``n_observed`` user columns are returned (all users still interfere).
    With ``serving``, an (..., n_observed) array of antenna ids, each
    observed user's power and its antenna's total are gathered first and
    only that one SIR is computed: the result is (..., n_observed).
    Handles the eta = 0 corner: positive signal over empty interference is
    +inf, zero over zero is 0.  With a ``workspace.buffer`` dict as ``work``
    the temporaries and the result live in its arrays, and the result is
    overwritten by the next call.
    """
    totals = power.sum(axis=-1, out=buffer(work, "totals", power.shape[:-1]))
    if serving is None:
        observed = power if n_observed is None else power[..., :n_observed]
        totals = totals[..., None]
    else:
        # Flat indices of each observed user's serving row, then of its entry.
        # Every index is in range, so mode="clip" only skips a copy.
        antennas, users = power.shape[-2:]
        lead = serving.shape[:-1]
        offsets = np.arange(0, math.prod(lead) * antennas, antennas).reshape(lead + (1,))
        rows = np.add(serving, offsets, out=buffer(work, "rows", serving.shape, np.intp))
        totals = totals.reshape(-1).take(rows, out=buffer(work, "served_totals", serving.shape), mode="clip")
        rows *= users
        rows += np.arange(serving.shape[-1])
        observed = power.reshape(-1).take(rows, out=buffer(work, "served", serving.shape), mode="clip")
    # max() guards against cancellation when one user dominates the total.
    denom = np.subtract(totals, observed, out=buffer(work, "denom", observed.shape))
    np.maximum(denom, 0.0, out=denom)
    denom += eta
    numer = np.multiply(observed, pg, out=buffer(work, "numer", observed.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = np.divide(numer, denom, out=buffer(work, "sir", observed.shape))
    # With eta > 0 and every total finite, every denominator is positive.
    if not (eta > 0.0 and np.isfinite(totals).all()):
        np.copyto(sir, np.where(numer > 0.0, np.inf, 0.0), where=~(denom > 0.0))
    return sir


def combine_columns(gamma: np.ndarray, mode: str = "paper", work: dict | None = None) -> np.ndarray:
    """Diversity combining over the antenna axis of (..., antennas, users) SIRs.

    Returns shape (..., users); a 2-D input combines column by column.  An
    all-zero column combines to 0 and a column with an infinite branch to
    +inf.  With a ``workspace.buffer`` dict as ``work`` the temporaries and
    the result live in its arrays.
    """
    if mode not in COMBINER_MODES:
        raise ValueError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    gamma = np.asarray(gamma, dtype=float)
    shape = gamma.shape[:-2] + gamma.shape[-1:]
    if mode == "classical-mrc":
        return gamma.sum(axis=-2, out=buffer(work, "combined", shape))
    root = np.sqrt(gamma, out=buffer(work, "root", gamma.shape))
    weighted = np.multiply(root, gamma, out=buffer(work, "weighted", gamma.shape))
    with np.errstate(invalid="ignore"):
        numer = weighted.sum(axis=-2, out=buffer(work, "combined", shape))
        denom = root.sum(axis=-2, out=buffer(work, "root_sum", shape))
        combined = np.divide(numer, denom, out=numer)
    combined = np.where(np.isinf(gamma).any(axis=-2), np.inf, combined)
    return np.where(denom > 0.0, combined, 0.0)
