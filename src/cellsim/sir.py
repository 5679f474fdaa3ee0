"""Uplink SIR computation and antenna diversity combining.

Per-antenna SIR follows the CDMA uplink form

    gamma = P_G * g_desired * p / (sum_j g_j * p_j + eta)

with processing gain P_G = chip_bandwidth / bit_rate.  Branch SIRs from
multiple antennas are merged by a self-normalized square-root weighting
(``paper`` mode, the default), which is a convex combination of the branches,
or by classical maximum ratio combining (``classical-mrc``), which sums them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import Architecture, Layout, as_xy, serving_sector_indices
from .channel import LinkGainMatrix

COMBINER_MODES = ("paper", "classical-mrc")


@dataclass(frozen=True)
class RadioConfig:
    """CDMA air-interface parameters for the uplink."""

    chip_bandwidth: float  # chips/s
    bit_rate: float  # bits/s
    noise_power: float  # watts
    tx_power: Union[float, np.ndarray] = 1.0  # watts per user

    def __post_init__(self):
        if self.bit_rate <= 0.0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if self.chip_bandwidth < self.bit_rate:
            raise ValueError("chip_bandwidth must be >= bit_rate")
        if self.noise_power < 0.0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")
        if np.any(np.asarray(self.tx_power) < 0.0):
            raise ValueError("tx_power must be >= 0")

    @property
    def processing_gain_linear(self) -> float:
        return processing_gain(self.chip_bandwidth, self.bit_rate)


@dataclass(frozen=True)
class SirSample:
    """Per-antenna and combined SIR for one user in one drop.

    ``serving`` is the sector antenna id for the used architecture and the
    string ``"all"`` for microzone, where every antenna contributes.
    """

    per_antenna: np.ndarray
    combined: float
    serving: Union[int, str]
    drop_index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.per_antenna, dtype=float)
        if np.any(arr < 0.0) or self.combined < 0.0:
            raise ValueError("SIR values must be >= 0")
        object.__setattr__(self, "per_antenna", arr)


def processing_gain(chip_bandwidth: float, bit_rate: float) -> float:
    """Spreading advantage w / R, linear."""
    if bit_rate <= 0.0:
        raise ValueError(f"bit_rate must be positive, got {bit_rate}")
    if chip_bandwidth < bit_rate:
        raise ValueError(
            f"chip_bandwidth ({chip_bandwidth}) must be >= bit_rate ({bit_rate})"
        )
    return chip_bandwidth / bit_rate


def uplink_sir(desired: float, interferers, eta: float, pg: float) -> float:
    """SIR with processing gain; degenerate zero cases are defined, not errors.

    Zero denominator with positive signal yields +inf; zero over zero is 0.
    """
    interferers = np.asarray(list(interferers), dtype=float)
    if desired < 0.0 or eta < 0.0 or pg < 0.0 or np.any(interferers < 0.0):
        raise ValueError("SIR inputs must be >= 0")
    denom = float(interferers.sum()) + eta
    if denom == 0.0:
        return float("inf") if desired > 0.0 else 0.0
    return desired * pg / denom


def mrc_weights(per_antenna) -> np.ndarray:
    """Square-root self-normalized branch weights; they sum to one.

    Infinite branches take all the weight (split evenly among themselves),
    which is the limit of the finite formula.
    """
    gamma = np.asarray(per_antenna, dtype=float)
    if gamma.size == 0:
        raise ValueError("need at least one antenna branch")
    if np.any(gamma < 0.0):
        raise ValueError("branch SIRs must be >= 0")
    if not np.any(gamma > 0.0):
        raise ValueError("no received signal on any antenna")
    infinite = np.isinf(gamma)
    if infinite.any():
        return infinite / infinite.sum()
    root = np.sqrt(gamma)
    return root / root.sum()


def diversity_combine(per_antenna, mode: str = "paper") -> float:
    """Combined SIR across antenna branches.

    ``paper`` applies the square-root weights (a convex combination bounded
    by the branch extremes); ``classical-mrc`` returns the plain branch sum.
    An all-zero input combines to 0 directly, bypassing the weight
    singularity.  A single branch passes through unchanged.
    """
    gamma = np.asarray(per_antenna, dtype=float)
    if gamma.size == 0:
        raise ValueError("need at least one antenna branch")
    if np.any(gamma < 0.0):
        raise ValueError("branch SIRs must be >= 0")
    if mode not in COMBINER_MODES:
        raise ValueError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    if mode == "classical-mrc":
        return float(gamma.sum())
    if not np.any(gamma > 0.0):
        return 0.0
    if np.isinf(gamma).any():
        return float("inf")
    weights = mrc_weights(gamma)
    return float(weights @ gamma)


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

    Returns shape (..., users); a 2-D input combines column by column.
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


def drop_sir_samples(
    layout: Layout,
    users,
    link_matrix: LinkGainMatrix,
    radio: RadioConfig,
    combiner_mode: str = "paper",
) -> list[SirSample]:
    """Assemble per-user SIR samples for one drop.

    Used architecture: the combined value is the serving sector's branch.
    Microzone: all branches are merged by the configured combiner.
    """
    xy = as_xy(users)
    if xy.shape[0] != link_matrix.n_users:
        raise ValueError("user count does not match link matrix columns")
    pg = radio.processing_gain_linear
    gamma = per_antenna_sir_matrix(link_matrix.gains, radio.tx_power, radio.noise_power, pg)
    samples = []
    if layout.architecture is Architecture.USED:
        serving = serving_sector_indices(layout, xy)
        for i in range(xy.shape[0]):
            samples.append(
                SirSample(
                    per_antenna=gamma[:, i],
                    combined=float(gamma[serving[i], i]),
                    serving=int(serving[i]),
                    drop_index=link_matrix.drop_index,
                )
            )
    else:
        combined = combine_columns(gamma, combiner_mode)
        for i in range(xy.shape[0]):
            samples.append(
                SirSample(
                    per_antenna=gamma[:, i],
                    combined=float(combined[i]),
                    serving="all",
                    drop_index=link_matrix.drop_index,
                )
            )
    return samples
