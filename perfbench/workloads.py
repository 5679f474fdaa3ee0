"""Workload definitions: which configs a run hands to cellsim, and their seeds.

A workload is a fixed list of configs (one "round") plus a drop count per
call; calls run on 1 worker.  The benchmark repeats whole rounds until the
timed phase has lasted ``--seconds``, so every count per drop or per run is
the same whatever the number of rounds.  ``--seed`` changes only the
``master_seed`` of each call, never the shape of the work, so the cost per
drop does not depend on the seed.

Configs are written as cellsim config text (the grammar of ``cellsim run
--config``), so the program receives a config it parsed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

# --seed is a 32-bit value; call k of a run gets master_seed seed * 2**20 + k.
SEED_LIMIT = 2**32
CALLS_PER_SEED = 2**20
# Reference curves use master seeds at or above 2**62, which the workload
# seeds above (all below 2**52) never reach.
REFERENCE_SEED_BASE = 2**62


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # tuple of ((key, value), ...) config overrides
    drops_per_call: int

    def config_text(self, index: int, n_drops: int, master_seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.configs[index]]
        lines += [f"n_drops = {n_drops}", f"master_seed = {master_seed}"]
        return "\n".join(lines) + "\n"


DEFAULT = ()
DENSE = (
    ("n_users", "120"),
    ("interferer_tiers", "2"),
    ("beamwidth", "60 deg"),
    ("combiner_mode", "paper"),
)

# Short runs over rho, sigma, beamwidth, tiers 0-2, architecture, pairing and
# combiner, plus the degenerate configs: eta = 0, an isolated cell, a finite
# floor gain and a single user per cell.
SWEEP = (
    (),
    (("rho", "2"),),
    (("rho", "3"),),
    (("rho", "5"),),
    (("shadowing_sigma", "0 dB"),),
    (("shadowing_sigma", "10 dB"),),
    (("beamwidth", "60 deg"),),
    (("interferer_tiers", "0"),),
    (("interferer_tiers", "2"),),
    (("architecture", "used"),),
    (("architecture", "microzone"),),
    (("paired", "false"),),
    (("combiner_mode", "paper"),),
    (("noise_power", "0"),),
    (("floor_gain_db", "-20 dB"),),
    (("n_users", "1"),),
    (("n_users", "1"), ("interferer_tiers", "0"), ("noise_power", "0")),
    (("beamwidth", "60 deg"), ("interferer_tiers", "2"), ("combiner_mode", "paper")),
)

# Why each workload: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_default", (DEFAULT,), 500),
        Workload("dense_tier2_60deg", (DENSE,), 100),
        Workload("sweep_small", SWEEP, 20),
    )
}


def drops_per_call(workload: Workload, scale: float) -> int:
    return max(1, round(workload.drops_per_call * scale))


def master_seed(seed: int, call: int) -> int:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"--seed must be in [0, 2**32), got {seed}")
    if not 0 <= call < CALLS_PER_SEED:
        raise ValueError(f"call index out of range: {call}")
    return seed * CALLS_PER_SEED + call
